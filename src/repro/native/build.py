"""Compile ``gat.c`` into a cffi API-mode extension module.

    python build.py DIRECTORY MODULE

writes ``MODULE`` + the interpreter's extension suffix into *DIRECTORY*.
The compile happens in a private temporary directory there, and the result
is moved into place with ``os.replace``, so concurrent builders never
expose a half-written file.  :mod:`repro.native` runs this script in a
child interpreter when the artifact for its source hash is missing, which
keeps setuptools out of the importing process.

``-ffp-contract=off`` keeps the compiler from fusing ``a * b + c`` into a
fused multiply-add: the hypot port relies on exact IEEE products and sums.
"""

import os
import re
import sys
import tempfile
from pathlib import Path

from cffi import FFI

if __name__ == "__main__":
    directory, module = Path(sys.argv[1]), sys.argv[2]
    source = Path(__file__).with_name("gat.c").read_text()
    # The declarations Python sees are gat.c's own: its struct typedefs and
    # the signatures of its non-static functions.
    types = re.findall(r"^typedef struct \{.*?\} \w+;", source, re.S | re.M)
    functions = re.findall(r"^(?!static)(\w[\w ]*\**\s*gat_\w+\([^)]*\))\s*\{", source, re.M)
    ffi = FFI()
    ffi.cdef("\n".join(types + [f + ";" for f in functions]))
    ffi.set_source(module, source, extra_compile_args=["-O2", "-ffp-contract=off"])
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        built = Path(ffi.compile(tmpdir=tmp))
        os.replace(built, directory / built.name)
