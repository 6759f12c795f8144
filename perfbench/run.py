"""Benchmark of ssmgraph: training and evaluation throughput, set-up time,
peak memory, and a traced run that splits time by layer.

One workload, from the root of a checkout:

    python3 perfbench/run.py --workload tusz-long --seed 1 --seconds 30 --trace 0

Every workload, each in its own process, with a summary table:

    python3 perfbench/run.py --all --seed 1 --seconds 30

The last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the ``end_to_end`` metrics of BENCHMARK.json, with ``--trace 1`` its
``per_layer`` metrics. Earlier lines give provenance, failures and each
metric with its unit. The exit code is 0 only when every check passed.
Traced runs also write their spans to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
# the variables the CLI's --threads sets; BLAS sizes its pools when numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# a single run ends well within this; it only guards --all against a hang
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def with_units(values: dict, declared: list) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_one(args) -> int:
    start = time.perf_counter()
    import bench  # numpy, scipy and ssmgraph load here
    import_s = time.perf_counter() - start
    if args.workload not in bench.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    spec = json.loads(SPEC.read_text())
    w = bench.WORKLOADS[args.workload]
    print(json.dumps({"provenance": bench.provenance(w, args.seed, args.seconds,
                                                     bool(args.trace))}))
    result = bench.run(w, args.seed, args.seconds, bool(args.trace), import_s)
    for failure in result["failures"]:
        print("FAILED " + failure)
    for note in result["notes"]:
        print("NOTE " + note)
    metrics = with_units(result["metrics"], spec["per_layer" if args.trace else "end_to_end"])
    for name, m in metrics.items():
        print(f"{w.name:12s} {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{w.name:12s} {'error_rate':32s} {result['failed'] / result['attempted']:.6g} ratio"
          f" ({result['failed']} of {result['attempted']} operations failed)")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, then one table of their metrics."""
    import bench
    rows, status = [], 0
    for name in bench.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if lines and lines[-1].startswith("{"):
            rows.append((name, json.loads(lines[-1])))
    print("\nworkload     metric                           value")
    for name, result in rows:
        for metric, m in result["metrics"].items():
            # records_per_s counts training or evaluated records, by workload kind
            label = f"{bench.WORKLOADS[name].kind}_{metric}" if metric == "records_per_s" else metric
            print(f"{name:12s} {label:32s} {m['value']:.6g} {m['unit']}")
        rate = result["failed"] / result["attempted"]
        print(f"{name:12s} {'error_rate':32s} {rate:.6g} ratio")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ssmgraph" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ssmgraph sources under {SRC}; run from a full checkout")
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = nproc
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
