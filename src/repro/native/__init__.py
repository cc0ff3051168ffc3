"""The engine's C kernels (``gat.c``), compiled with cffi on first import.

Three pieces live in C: the best-first cell walk of Algorithm 1
(:class:`repro.core.pipeline.CandidateRetriever` drives it), the ``Dmom``
row fold of Algorithm 4 (:func:`repro.core.kernels.dmom_prepared` and
:func:`~repro.core.kernels.block_dmom`), and a port of CPython's
two-argument ``math.hypot`` the walk orders its heap by.  There is no
Python fallback: the retired Python loops are test oracles under
``tests/property/``.

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
probe set and raises :class:`ImportError` on any mismatch.
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
    return module.ffi, module.lib


_directory = _HERE
if not (_HERE / ARTIFACT).exists() and not os.access(_HERE, os.W_OK):
    _directory = Path(tempfile.gettempdir())
ffi, lib = load(_directory)
