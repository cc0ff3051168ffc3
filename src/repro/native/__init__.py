"""The engine's C kernels (``gat.c``), compiled with cffi on first import.

Five pieces live in C: the best-first cell walk of Algorithm 1
(:class:`repro.core.pipeline.CandidateRetriever` drives it), the ``Dmom``
row fold of Algorithm 4 (:func:`~repro.core.kernels.block_dmom`), a port
of CPython's two-argument ``math.hypot`` the walk orders its heap by,
the validation round over the APL image — the key lookup with the APL
coverage, the TAS and MIB masks
(:class:`~repro.core.pipeline.ValidationStage`), the block build and the
``Dmm`` covers (:func:`~repro.core.kernels.prepare_block`,
:func:`~repro.core.kernels.block_dmm`, ...) — and the engine's APL
residency LRU, a recency list over image rows
(:class:`~repro.storage.cache.RowLRU`).  The GAT engine runs the round
once per validation round; ``MatchEvaluator``'s per-candidate entries
(the IL / RT / IRT baselines) run it on a one-candidate round.  There is
no Python fallback: the retired Python and NumPy loops are test oracles
under ``tests/property/``.

The round's entries take handles, not arrays: a ``gat_image`` per APL
image (published with it, :attr:`repro.index.gat.apl.APLArrays.handle`),
a ``gat_query`` per query (:attr:`repro.core.kernels.QueryKernel.handle`)
and a block's ``gat_columns``, each a struct of pointers built once by
:func:`struct` beside the arrays its owner keeps.  Only a round's rows,
its lookup and the outputs are wrapped per call (:func:`c_array`): every
wrap is an ``ffi.from_buffer`` call, about half a microsecond of Python.

The artifact is named for the SHA-256 of ``gat.c`` and ``build.py`` and
carries the interpreter's extension suffix (its ABI tag), so a changed
source or another Python builds afresh and never loads a stale module.  When
it is missing, a child interpreter runs ``build.py`` — setuptools never
enters this process — into this package's directory, or into the temporary
directory when that is read-only.  The child installs the file with
``os.replace``, so processes that import at once (parallel test or bench
runs) may each build, and every one of them loads a whole file.

``math.hypot`` is not libm's ``hypot``: it is CPython's own correctly
rounded ``vector_norm``, which differs from libm on about 0.6 % of pairs.
A MINDIST that differs in its last bit can reorder the heap and move every
count, so the import checks the C port against ``math.hypot`` on a fixed
probe set and raises :class:`ImportError` on any mismatch.  The round's
distances are libm's ``hypot`` (``gat_libm_hypot``), which is what NumPy's
``np.hypot`` computes; the same probes check that pair, so a libm that
disagrees with NumPy fails the import instead of moving a distance.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

_HERE = Path(__file__).resolve().parent
_BUILD = _HERE / "build.py"
MODULE = "_gat_" + hashlib.sha256(
    (_HERE / "gat.c").read_bytes() + _BUILD.read_bytes()
).hexdigest()[:16]
ARTIFACT = MODULE + importlib.machinery.EXTENSION_SUFFIXES[0]


def load(directory: Path):
    """``(ffi, lib)`` of the module built into *directory*, compiling it
    there first when its artifact is missing."""
    path = directory / ARTIFACT
    if not path.exists():
        done = subprocess.run(
            [sys.executable, str(_BUILD), str(directory), MODULE],
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            raise ImportError(f"building {ARTIFACT} failed:\n{done.stdout}{done.stderr}")
    spec = importlib.util.spec_from_file_location(MODULE, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rng = random.Random(20130408)
    for _ in range(256):
        x, y = (rng.random() * 10.0 ** rng.randint(-6, 6) for _ in range(2))
        if module.lib.gat_hypot(x, y) != math.hypot(x, y):
            raise ImportError(f"gat_hypot({x!r}, {y!r}) differs from math.hypot")
        if module.lib.gat_libm_hypot(x, y) != np.hypot(x, y):
            raise ImportError(f"gat_libm_hypot({x!r}, {y!r}) differs from np.hypot")
    return module.ffi, module.lib


_directory = _HERE
if not (_HERE / ARTIFACT).exists() and not os.access(_HERE, os.W_OK):
    _directory = Path(tempfile.gettempdir())
ffi, lib = load(_directory)


def c_array(ctype: str, array, writable: bool = False):
    """*array*'s buffer (contiguous, not copied) as a cffi ``ctype[]``;
    *writable* for an output the C code fills."""
    return ffi.from_buffer(ctype + "[]", array, require_writable=writable)


_CTYPES = {np.dtype(np.int64): "int64_t[]", np.dtype(np.float64): "double[]"}


def struct(ctype: str, **fields):
    """A new ``ctype`` struct (freed with the returned pointer) with
    *fields* set.  A NumPy array field points into the array's buffer
    (contiguous, not copied) and does **not** keep it alive: the struct is
    a handle its owner builds once beside the arrays it holds."""
    return ffi.new(ctype + " *", {
        name: ffi.from_buffer(_CTYPES[value.dtype], value)
        if isinstance(value, np.ndarray) else value
        for name, value in fields.items()
    })
