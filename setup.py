"""Package metadata (there is no ``pyproject.toml``; this file is all of it).

The execution environment ships an older setuptools without the ``wheel``
package, so editable installs go through ``setup.py develop``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # The C kernels in repro/native/gat.c are compiled on first import
    # (repro/native/build.py), so the source ships with the package.
    package_data={"repro.native": ["gat.c"]},
    # numpy: the array kernels; cffi (+ setuptools, which its compile step
    # drives): the C module repro.native builds and loads.
    install_requires=["numpy", "cffi", "setuptools"],
)
