"""Does ``fpflow compare``'s thread pool run anything in parallel?

    python3 perfbench/threads_probe.py [--pairs 10]

Runs ``fpflow compare fig-fe-2d-fine-hom fig-fe-2d-fine-D1 --boundary
noflux`` in fresh processes under FPFLOW_THREADS=1 and =2, alternating
which goes first in each pair, and prints the median and quartiles of
wall and CPU seconds for each setting.  CPU seconds are the child's user
plus system time, all threads included.
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import run as bench

COMMAND = ["compare", "fig-fe-2d-fine-hom", "fig-fe-2d-fine-D1", "--boundary", "noflux"]


def one(threads: int, outdir) -> tuple[float, float]:
    env = dict(os.environ, FPFLOW_THREADS=str(threads), PYTHONPATH=str(bench.SRC))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "fpflow", *COMMAND, "--out", str(outdir)],
                   env=env, check=True, capture_output=True, timeout=300)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu


def quartiles(values) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"median {med:.3f}  q1 {q1:.3f}  q3 {q3:.3f}"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args()
    outdir = bench.HERE / "work" / f"threads-{os.getpid()}"
    samples = {1: [], 2: []}
    try:
        for i in range(args.pairs):
            order = (1, 2) if i % 2 == 0 else (2, 1)
            for threads in order:
                samples[threads].append(one(threads, outdir))
            print(f"pair {i}: " + "  ".join(
                f"T={t} wall {samples[t][-1][0]:.3f}s cpu {samples[t][-1][1]:.3f}s"
                for t in (1, 2)), flush=True)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    for threads in (1, 2):
        walls = [w for w, _ in samples[threads]]
        cpus = [c for _, c in samples[threads]]
        print(f"FPFLOW_THREADS={threads}: wall {quartiles(walls)}; cpu {quartiles(cpus)}")
    print(bench.fingerprint())
    return 0


if __name__ == "__main__":
    sys.exit(main())
