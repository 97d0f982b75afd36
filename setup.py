"""Packaging for the ``repro`` library.

All configuration lives in this file; there is no ``pyproject.toml``.
``pip install .`` (or ``pip install -e .`` while developing) installs
the ``repro`` package from ``src/``, after which ``python -m repro``
runs without ``PYTHONPATH``.
"""

import os
import re

from setuptools import find_packages, setup

HERE = os.path.dirname(os.path.abspath(__file__))


def read_version() -> str:
    """``repro.__version__``, read without importing the package (which
    needs NumPy, absent from an isolated build environment)."""
    with open(os.path.join(HERE, "src", "repro", "__init__.py")) as fh:
        match = re.search(r'^__version__ = "([^"]+)"$', fh.read(), re.M)
    if match is None:
        raise RuntimeError("no __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    description=("Mixed-strategy game model against data poisoning "
                 "attacks: a reproduction"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
