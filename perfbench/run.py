"""perfbench: the repository's end-to-end and per-layer benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

Workloads: ``train``, ``predict_large``, ``serve_read``, ``serve_mixed``
(see ``BENCHMARK.json``, ``workloads.py`` and ``metrics.json``).  With
``--trace 0`` the run measures with tracing off and reports every end-to-end
metric; with ``--trace 1`` it reports every per-layer metric, each checked
against the workloads its layer is expected to work on, plus the tracing
overhead.

The program under test is imported from ``src/`` of the checkout this file
sits in.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the full report (every timing as median / tail / count, accuracy,
environment fingerprint).  The exit code is 0 only when every output check
passed.  Harness self-tests: ``PYTHONPATH=src python3 -m pytest
perfbench/tests -q``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The workloads, and each metric's unit and direction.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: What BENCHMARK.json lacks: meanings, per-layer checks, the report mapping.
METRICS = json.loads((HERE / "metrics.json").read_text())


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _blas_threads():
    """Thread count of the OpenBLAS loaded into this process, if any."""
    with open("/proc/self/maps") as maps:
        libraries = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower() and ".so" in line})
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def fingerprint() -> dict:
    """Where the numbers came from; the src line count is reported, not gated."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, timeout=30, check=False)
        commit = probe.stdout.strip() or None
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_lines": sum(len(path.read_text().splitlines())
                         for path in (ROOT / "src").rglob("*.py")),
    }


def layer_checks(workload: str, layers: dict, calls: dict) -> dict:
    """Every per-layer metric is finite; the layers named for ``workload`` did work."""
    checks = {}
    for name, spec in METRICS["per_layer"].items():
        value = layers[name]
        ok = math.isfinite(value)
        if workload in spec["nonzero_on"]:
            source = spec.get("calls")
            ok = ok and (calls.get(source, 0) > 0 if source else value != 0)
        checks[f"layer:{name}"] = ok
    return checks


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; nothing to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workdir = HERE / ".work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ctx = workloads.Context(root=ROOT, seed=args.seed, seconds=args.seconds,
                                trace=bool(args.trace), workdir=workdir)
        result = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = dict(result.checks)
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    if args.trace:
        values = {name: float(result.layers.get(name, 0.0)) for name in units}
        checks.update(layer_checks(args.workload, values, result.calls))
    else:
        values = {name: float("nan") if result.e2e.get(name) is None else float(result.e2e[name])
                  for name in units}
        checks.update({f"finite:{name}": math.isfinite(v) for name, v in values.items()})
    metrics = {name: {"value": value if math.isfinite(value) else 0.0, "unit": units[name]}
               for name, value in values.items()}
    correct = all(checks.values())
    print(json.dumps({"report": {"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 **result.report, "checks": checks,
                                 "environment": fingerprint()}}))
    print(json.dumps({"correct": correct, "attempted": int(result.attempted),
                      "failed": int(result.failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
