"""Capture the reference values the correctness gate compares to.

    python3 perfbench/capture_reference.py

Run once on the code the references should pin; it rewrites
``reference.json``.  The committed values come from the commit that
introduced this benchmark, before any optimisation.  For every workload
it stores the final values of one operation at each initial variance a
seed can pick (the default one and every slot of the band, one seed
each).  Besides those it stores, per variance, the n=200 rung of the
identity ladder, whose residual the ladder-1d gate requires to beat.
About 20 minutes on a 2-CPU machine.
"""

from __future__ import annotations

import json
import shutil
import sys

import run as bench
import workloads as wl


class LadderRung200(wl.Ladder1D):
    n_cells = 200


def seed_for(key: str) -> int:
    """A seed whose reference key is ``key``."""
    return next(s for s in range(wl.VARIANCE_SLOTS + 1) if wl.reference_key(s) == key)


def main() -> int:
    fp = bench.import_fpflow()
    workdir = bench.HERE / "work" / "capture"
    out = {name: {} for name in wl.WORKLOADS}
    out["ladder-1d-rung200"] = {}
    try:
        for key in wl.reference_keys():
            seed = seed_for(key)
            for name, cls in wl.WORKLOADS.items():
                instance = cls(fp, seed, workdir)
                out[name][key] = instance.summary(instance.operate())
                print(name, key, out[name][key], flush=True)
            rung = LadderRung200(fp, seed, workdir)
            out["ladder-1d-rung200"][key] = rung.operate()[2]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wl.REFERENCE_FILE.write_text(json.dumps(out, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
