"""Run the ``repro`` command line with the layer wrappers installed.

    python3 perfbench/servetrace.py LAYERS_JSON serve --port-file P ...

The traced serve-mixed repetition starts the service this way, so the
layer self times come from the process that sorts.  When the command
returns (``repro serve`` returns after its SIGTERM drain), the per-layer
seconds and counters of every thread are written to ``LAYERS_JSON``.
"""

from __future__ import annotations

import json
import sys

from layers import LayerTracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = LayerTracer().install()
    from repro.cli import main as cli_main

    rc = cli_main(argv)
    seconds, counts = tracer.totals()
    with open(out, "w") as fh:
        json.dump({"seconds": seconds, "counts": counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
