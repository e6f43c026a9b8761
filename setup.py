"""Setuptools shim: legacy-path installs plus the optional C extension.

All metadata lives in pyproject.toml.  Modern pips build editable installs
through PEP 517, which requires ``wheel``; on an offline machine without it,
``pip install -e . --no-build-isolation --no-use-pep517`` falls back to the
legacy ``setup.py develop`` path this file enables.

The ``repro._speedups`` extension is **optional**: when it is built, the
Balance engine's round bookkeeping (``repro.core.kernels.ROUND_OPS``)
and the canonical-JSON encoders use it, and every import site falls
back to the pure-Python reference when it is absent.
``Extension(optional=True)`` turns any compiler failure into a warning,
so source installs succeed on toolchain-less machines.  Build it in
place for a checkout with::

    python setup.py build_ext --inplace
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "repro._speedups",
            sources=["src/repro/_speedups.c"],
            optional=True,
        )
    ]
)
