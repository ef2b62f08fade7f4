"""Setuptools shim.

The offline environment ships no ``wheel`` package, so PEP-660 editable
installs (``pip install -e .``) cannot build; ``python setup.py develop``
installs the same editable egg-link without needing wheel.  No project
metadata is declared anywhere: setuptools' automatic discovery finds the
``src/repro`` package, and the README and CI simply run with
``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
