"""fpflow benchmark: one workload, timed in a closed loop, gated for correctness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fpflow is imported from its ``src/``.
Operations run back to back, closed loop, while the next one is expected
to end within ``--seconds`` of the first one's start (at least one runs);
so a run measures at most ``--seconds`` unless one operation is longer.
``--seconds`` defaults to BENCHMARK.json's ``run_seconds``.  Each
operation's correctness gate runs after its timing stops.
With ``--trace 0`` the last stdout line holds the end-to-end
metrics: ``run_s`` (median wall seconds per operation), ``setup_s``
(median of several set-ups, most in fresh processes taken before and
after the closed loop: import fpflow and build the inputs) and
``peak_rss_mb``.  With ``--trace 1`` untraced and traced
operations alternate and the last line holds the per-layer metrics of
``tracing.py`` (medians over the traced operations) plus ``bench.cpu_s``
and ``bench.trace_overhead``.  A result file with the machine fingerprint,
every sample and (traced) the span log goes to ``--results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Sibling modules: the script's directory is first on sys.path.
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# This process plus SETUP_SAMPLES - 1 fresh ones, half of those before the
# closed loop and half after it, so that the median spans the run.
SETUP_SAMPLES = 9


class MissingSource(Exception):
    """The checkout holds no fpflow sources to benchmark."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def import_fpflow():
    """Import fpflow from this checkout's src/, never from site-packages."""
    if not (SRC / "fpflow" / "__init__.py").is_file():
        raise MissingSource(f"no fpflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fpflow
    import fpflow.cli  # noqa: F401  (the CLI workloads call fpflow.cli.main)

    if Path(fpflow.__file__).resolve().parent != SRC / "fpflow":
        raise MissingSource(f"fpflow imported from {fpflow.__file__}, not {SRC}")
    return fpflow


def timed_setup(workload: str, seed: int, workdir: Path, shrink: bool = False):
    t0 = time.perf_counter()
    fp = import_fpflow()
    instance = wl.WORKLOADS[workload](fp, seed, workdir, shrink)
    return fp, instance, time.perf_counter() - t0


def fresh_setup_seconds(workload: str, seed: int, workdir: Path) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, via its C API."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path, shrink: bool = False) -> dict:
    """Set up, run the closed loop and return the result record."""
    fp, instance, setup0 = timed_setup(workload, seed, workdir, shrink)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "attempted": 0, "failed": 0, "failures": [], "samples": {}}
    failures = record["failures"]

    def run_one(tracer=None) -> tuple[float, float]:
        """Time one operation, then gate it; a failure is counted, not retried."""
        why = ""
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                result = instance.operate()
            else:
                with tracer, tracer.operation(record["attempted"]):
                    result = instance.operate()
        except (fp.NonConvergence, fp.PositivityLoss) as exc:
            why = f"{type(exc).__name__}: {exc}"
        except wl.GateFailure as exc:
            why = str(exc)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if not why:
            try:
                instance.check(result)
            except wl.GateFailure as exc:
                why = str(exc)
        record["attempted"] += 1
        if why:
            record["failed"] += 1
            failures.append(why)
        return wall, cpu

    if not trace:
        fresh = SETUP_SAMPLES - 1
        setups = [setup0] + [fresh_setup_seconds(workload, seed, workdir)
                             for _ in range(fresh // 2)]
        walls, cpus = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + walls[-1] <= seconds:
            wall, cpu = run_one()
            walls.append(wall)
            cpus.append(cpu)
        setups += [fresh_setup_seconds(workload, seed, workdir)
                   for _ in range(fresh - fresh // 2)]
        record["samples"] = {"run_s": walls, "cpu_s": cpus, "setup_s": setups}
        metrics = {
            "run_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        tracer = tracing.Tracer()
        plain, traced, cpus, layers = [], [], [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start + plain[-1] + traced[-1] <= seconds:
            wall, cpu = run_one()
            plain.append(wall)
            cpus.append(cpu)
            op_id = record["attempted"]
            traced.append(run_one(tracer)[0])
            layers.append(tracer.layer_metrics(op_id))
        record["samples"] = {"untraced_s": plain, "traced_s": traced, "cpu_s": cpus,
                             "layers": layers}
        record["missing_targets"] = tracer.missing
        units = {name: unit for name, unit, _kind, _p in tracing.LAYER_METRICS}
        metrics = {name: (statistics.median(op[name] for op in layers), unit)
                   for name, unit in units.items()}
        metrics["bench.cpu_s"] = (statistics.median(cpus), "s")
        metrics["bench.trace_overhead"] = (
            statistics.median(traced) / statistics.median(plain), "ratio")
        record["tracer"] = tracer
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return record


def write_results(record: dict, results: Path) -> None:
    results.mkdir(parents=True, exist_ok=True)
    stem = (f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}"
            f"-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.write(results / f"{stem}-spans.csv.gz")
    record["fingerprint"] = fingerprint()
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="length of the closed loop (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=str(HERE / "results"),
                   help="directory for the result file (fingerprint, samples, spans)")
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    try:
        if args.setup_probe:
            # Child of a timed run: report one fresh-process set-up time.
            print(repr(timed_setup(args.workload, args.seed, Path(args.workdir))[2]))
            return 0
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
        try:
            record = measure(args.workload, args.seed, seconds, bool(args.trace), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_results(record, Path(args.results))
    for why in record["failures"]:
        print(f"failed: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
