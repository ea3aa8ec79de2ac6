"""Setuptools entry point (also usable in fully offline environments).

Kept as an executable ``setup.py`` (rather than PEP 621 metadata only) so
that ``pip install -e .`` / ``python setup.py develop`` work without the
``wheel`` package, which PEP 660 editable installs would require.
"""

from setuptools import find_packages, setup

setup(
    name="repro-sinr-diagrams",
    version="1.0.0",
    description=(
        "Reproduction of 'SINR Diagrams: Towards Algorithmically Usable "
        "SINR Models of Wireless Networks' (PODC 2009) with a batched "
        "query engine"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # Ship the PEP 561 typing marker and the linter's committed baseline so
    # installed copies type-check and `python -m repro.lint` behaves exactly
    # like an in-tree run.
    package_data={"repro": ["py.typed", "lint/baseline.json"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "test": [
            "pytest",
            "pytest-benchmark",
        ],
        # Static-analysis toolchain (the reprolint linter itself is
        # pure-stdlib and needs nothing).
        "dev": [
            "mypy>=1.0",
            "ruff>=0.4",
        ],
    },
)
