"""Setuptools entry point.

This file carries the package metadata (there is no ``pyproject.toml``), so
``pip install -e .`` works with older setuptools/pip stacks too (legacy
``setup.py develop`` editable installs) in offline environments without the
``wheel`` package.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "At-Speed Logic BIST for IP Cores (DATE 2005) reproduction: netlist, "
        "fault simulation, ATPG, scan, STUMPS logic BIST, double-capture at-speed timing"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # The core library is dependency-free (the "python" simulation backend
    # is pure stdlib); NumPy only powers the opt-in "numpy" bit-plane
    # backend, so it ships as an optional extra.
    install_requires=[],
    extras_require={
        "fast": ["numpy"],
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
)
