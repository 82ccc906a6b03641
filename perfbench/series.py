"""Run the benchmark over several seeds and report the run-to-run spread.

    python3 perfbench/series.py --out DIR [--runs 10] [--first-seed 1] [--trace 0|1]
                                [--workloads NAME ...]

Each seed runs every workload BENCHMARK.json names (or those given with
``--workloads``, e.g. the ungated ``ladder-1d``) once, in fresh
processes, with the run length it fixes; result files land in DIR.
Afterwards the spread of each end-to-end metric is printed against its
bound (see ``compare.py``).  Two such directories, one per commit, are what
``compare.py A B`` compares.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare
import run as bench


def main() -> int:
    spec = bench.load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads", nargs="+", choices=sorted(bench.wl.WORKLOADS),
                   default=[w["name"] for w in spec["workloads"]])
    args = p.parse_args()
    out = Path(args.out).resolve()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in args.workloads:
            proc = subprocess.run(
                [sys.executable, str(bench.HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", str(args.trace), "--results", str(out)],
                cwd=bench.ROOT, capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in last["metrics"].items())
            print(f"seed {seed} {workload}: failed {last['failed']}/{last['attempted']} {shown}",
                  flush=True)
    if not args.trace:
        compare.report_spread(out, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
