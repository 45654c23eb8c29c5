"""Run cframe's command line with the benchmark's spans installed.

    python3 bench/cli_child.py TOTALS_JSON ARGS...

behaves as `python -m cframe.cli ARGS...` (same stdout, stderr and exit
code) and, when the command ends, writes the span totals to
TOTALS_JSON. The traced cli-cold run starts this in place of the
module, so per-layer times come from the fresh processes themselves.
"""

from __future__ import annotations

import json
import sys

from tracing import Tracer


def main() -> int:
    totals_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(enabled=True)
    tracer.install()
    import cframe.cli

    try:
        with tracer.recording():
            return cframe.cli.run(argv)
    finally:
        with open(totals_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.aggregate(), fh)


if __name__ == "__main__":
    sys.exit(main())
