"""Compare two sets of benchmark results, or report the spread of one.

    python3 perfbench/compare.py A_DIR            # spread of each metric
    python3 perfbench/compare.py A_DIR B_DIR      # A = parent, B = change

A directory holds the result files ``run.py --results`` writes (for
instance via ``series.py``).  Each workload x end-to-end metric gets its
own row with the median and quartiles of both sides and a verdict, by the
rule of the choosing-metrics guide (section 8):

* better: B beats A in at least 9/10 of the seed-matched pairs (ties count
  for neither) and the medians differ by more than A's quartile spread;
* unresolved: either side's quartile spread, as a share of its median, is
  wider than the metric's bound, unless every B run beats every A run;
* worse: B's median is worse than A's by more than the bound;
* within bound: otherwise.

Per-layer medians from traced runs, and their change, follow each
workload's rows.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import run as bench


def load(directory: Path) -> dict:
    """(workload, traced) -> {seed: metrics} from every result file in directory."""
    out = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text(encoding="ascii"))
        out[(rec["workload"], bool(rec["trace"]))][rec["seed"]] = {
            k: v["value"] for k, v in rec["metrics"].items()
        }
    return out


def workload_names(spec: dict, *datas: dict) -> list[str]:
    """BENCHMARK.json's workloads, then any other workload the results hold."""
    names = [w["name"] for w in spec["workloads"]]
    return names + sorted({w for data in datas for w, _ in data} - set(names))


def stats(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    q1, med, q3 = stats(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(a: dict, b: dict, bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    av, bv = list(a.values()), list(b.values())
    q1a, meda, q3a = stats(av)
    _, medb, _ = stats(bv)
    seeds = sorted(set(a) & set(b))
    wins = sum(1 for s in seeds if sign * (b[s] - a[s]) < 0)
    if seeds and wins >= 0.9 * len(seeds) and sign * (meda - medb) > q3a - q1a:
        return "better"
    all_better = max(bv) < min(av) if lower_is_better else min(bv) > max(av)
    if max(spread(av), spread(bv)) > bound and not all_better:
        return "unresolved"
    if sign * (medb - meda) > bound * abs(meda):
        return "worse"
    return "within bound"


def fmt(values) -> str:
    q1, med, q3 = stats(values)
    return f"{med:10.4g} [{q1:.4g}, {q3:.4g}]"


def report_spread(directory: Path, spec: dict) -> bool:
    """Print each end-to-end metric's spread; True if all are under bound/3."""
    data = load(directory)
    steady = True
    print(f"{'workload':18} {'metric':12} {'n':>3} {'median [q1, q3]':>30} {'spread':>8} {'bound':>6}")
    for name in workload_names(spec, data):
        runs = data.get((name, False), {})
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs.values()]
            if not values:
                continue
            s = spread(values)
            ok = s < m["bound"] / 3
            steady &= ok
            print(f"{name:18} {m['name']:12} {len(values):3} {fmt(values):>30} "
                  f"{s:8.4f} {m['bound']:6.2f} {'' if ok else '  > bound/3'}")
    return steady


def report_compare(dir_a: Path, dir_b: Path, spec: dict) -> None:
    a_data, b_data = load(dir_a), load(dir_b)
    for name in workload_names(spec, a_data, b_data):
        a_runs, b_runs = a_data.get((name, False), {}), b_data.get((name, False), {})
        print(f"\n{name}  (A: {len(a_runs)} runs, B: {len(b_runs)} runs)")
        for m in spec["end_to_end"]:
            a = {s: r[m["name"]] for s, r in a_runs.items()}
            b = {s: r[m["name"]] for s, r in b_runs.items()}
            if not a or not b:
                print(f"  {m['name']:12} missing on one side")
                continue
            v = verdict(a, b, m["bound"], m["better"] == "lower")
            print(f"  {m['name']:12} A {fmt(list(a.values()))}  B {fmt(list(b.values()))} "
                  f" {m['unit']:5} {v}")
        a_tr, b_tr = a_data.get((name, True), {}), b_data.get((name, True), {})
        if not a_tr or not b_tr:
            continue
        for m in spec["per_layer"]:
            ma = statistics.median(r[m["name"]] for r in a_tr.values())
            mb = statistics.median(r[m["name"]] for r in b_tr.values())
            delta = f"{(mb - ma) / ma:+8.1%}" if ma else "       -"
            print(f"    {m['name']:28} A {ma:12.5g}  B {mb:12.5g} {m['unit']:6} {delta}")


def main(argv) -> int:
    spec = bench.load_spec()
    if len(argv) == 1:
        return 0 if report_spread(Path(argv[0]), spec) else 1
    if len(argv) == 2:
        report_compare(Path(argv[0]), Path(argv[1]), spec)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
