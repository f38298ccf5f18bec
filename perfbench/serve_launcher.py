"""Run ``repro serve`` with perfbench's layer wrappers installed in the server.

Usage (from the repository root)::

    python3 perfbench/serve_launcher.py CHECKPOINT [repro serve options]

The server is started through the same entry point and arguments as
``repro serve``, after :mod:`tracer` has wrapped the layer functions in this
process.  After the graceful SIGTERM shutdown it prints one line
``perfbench-trace {json}`` with the wrapped-call counters.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import tracer
    from repro.experiments.cli import main as repro_main

    with tracer.Tracer().install() as installed:
        repro_main(["serve", *argv])
    print("perfbench-trace " + json.dumps(installed.snapshot()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
