"""Setuptools entry point for the ``repro`` package (rooted at ``src/``).

This file is the whole build configuration: there is no ``pyproject.toml``.
Install in editable mode with ``pip install -e .``; pip builds editable
installs through ``bdist_wheel``, so where the ``wheel`` package is missing
(offline environments) use ``python setup.py develop`` instead.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
