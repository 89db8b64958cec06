"""Repository benchmark: private inference, encrypted serving, SmartPAF fitting.

Run from the repository root::

    python3 perfbench/run.py --workload resnet_infer --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no probes installed;
``--trace 1`` is a separate run with every probe installed that reports
the per-layer metrics (and writes its spans under ``perfbench/out/``).
Metric names and units come from ``BENCHMARK.json``; the last line of
standard output is the JSON result.  The program is built from the
checkout's ``src/`` tree, so the run fails (exit 2) where there is none.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("resnet_infer", "serve_mixed", "smartpaf_fit")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

    import importlib

    from perfbench import harness

    spec = harness.declared()
    workload = importlib.import_module(f"perfbench.{args.workload}")
    outcome = workload.run(args.seed, args.seconds, args.trace)
    harness.emit(outcome, args.trace, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
