"""Packaging for the conf_ipps_Sobral06 reproduction.

The package lives under ``src/`` (the "src layout"), so ``package_dir``
must point setuptools there — without it, ``pip install -e .`` produced
an empty install and everything silently depended on ``PYTHONPATH=src``.

Offline installs: ``pip install -e .`` needs network for PEP 517 build
isolation on some pip versions; ``python setup.py develop`` installs the
same editable package with zero network access.
"""

from setuptools import find_packages, setup

setup(
    name="repro-sobral06",
    version="0.1.0",
    description=(
        "Reproduction of Sobral (IPDPS 2006): pluggable aspect-oriented "
        "composition of partition/concurrency/distribution concerns"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # the core is stdlib-only; the sample apps and the paper benchmarks
    # compute on numpy arrays
    extras_require={"apps": ["numpy"]},
)
