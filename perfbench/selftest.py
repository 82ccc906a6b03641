"""Self-test of the benchmark on shrunken inputs; finishes in seconds.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted, that each
workload's gate passes a good operation and fails a deliberately corrupted
one, that traced self times are non-negative, and that the benchmark
refuses to run in a directory holding only itself.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import run as bench
import workloads as wl

SPEC = bench.load_spec()


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        raise SystemExit(1)


def check_workload(name: str, workdir: Path) -> None:
    record = bench.measure(name, wl.DEFAULT_SEED, 0.0, False, workdir, shrink=True)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in record["metrics"].items()}
    expect(got == want and record["failed"] == 0, f"{name}: end-to-end metrics {sorted(got)}")

    record = bench.measure(name, wl.DEFAULT_SEED, 0.0, True, workdir, shrink=True)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in record["metrics"].items()}
    expect(got == want and record["failed"] == 0, f"{name}: per-layer metrics")
    tracer = record["tracer"]
    expect(not tracer.missing, f"{name}: every trace target found {tracer.missing}")
    expect(min(tracer.self_times().values()) >= 0.0, f"{name}: self times non-negative")
    expect(record["metrics"]["solver.steps"]["value"] > 0, f"{name}: steps counted")

    fp = bench.import_fpflow()
    instance = wl.WORKLOADS[name](fp, wl.DEFAULT_SEED, workdir, shrink=True)
    result = instance.operate()
    instance.check(result)
    try:
        instance.check(instance.corrupt(result))
    except wl.GateFailure as exc:
        expect(True, f"{name}: gate rejects a corrupted output ({exc})")
    else:
        expect(False, f"{name}: gate rejects a corrupted output")


def check_reference_gate() -> None:
    reference = wl.load_reference()
    keys = wl.reference_keys()
    expect(all(sorted(reference[name]) == sorted(keys)
               for name in [*wl.WORKLOADS, "ladder-1d-rung200"]),
           f"reference values for every seed's variance ({len(keys)} each)")
    for name in wl.WORKLOADS:
        for key in keys:
            good = dict(reference[name][key])
            wl.check_reference(good, reference[name][key], name)
            bad = dict(good, F=good["F"] * (1.0 + 1e-5))
            try:
                wl.check_reference(bad, reference[name][key], name)
            except wl.GateFailure:
                continue
            expect(False, f"{name} {key}: reference gate rejects F off by 1e-5")
    expect(True, "reference gate rejects F off by 1e-5 on every workload and variance")


def check_bare_directory(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(bench.HERE, bare / bench.HERE.name,
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "oracle-2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"refuses to run without sources (exit {proc.returncode})")


def main() -> int:
    workdir = bench.HERE / "work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for name in wl.WORKLOADS:
            check_workload(name, workdir)
        check_reference_gate()
        check_bare_directory(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
