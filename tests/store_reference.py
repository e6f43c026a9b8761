"""Reference store selection: run any simulation on the dict backend.

:class:`~repro.pdm.store.DictBlockStore`, the original dict-of-dicts
layout, is the bit-for-bit reference for the slab-allocated
:class:`~repro.pdm.store.ArenaBlockStore`.  :func:`use_store` patches the
backend every disk machine and virtual hierarchy builds when given no
name (``repro.pdm.store.DEFAULT_STORE``), the way ``io_reference.use_io``
patches the I/O executor.

Run as a module, it runs one ``repro`` command with every store the dict
reference (the B side of the CI's arena-vs-dict attribution pairs)::

    python -m tests.store_reference sort --n 4000 --disks 4 --trace-out b.jsonl.gz
"""

import sys
from unittest import mock

from repro.pdm.store import STORE_BACKENDS


def use_store(name: str):
    """Context manager making ``name`` the backend every store defaults to."""
    if name not in STORE_BACKENDS:
        raise ValueError(f"no block store backend {name!r} "
                         f"(expected one of {sorted(STORE_BACKENDS)})")
    return mock.patch("repro.pdm.store.DEFAULT_STORE", name)


if __name__ == "__main__":
    from repro.cli import main

    with use_store("dict"):
        sys.exit(main(sys.argv[1:]))
