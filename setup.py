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
    # Imported unconditionally by core/kernels.py and model/columnar.py.
    install_requires=["numpy"],
)
