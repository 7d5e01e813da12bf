"""Record the reference curve statistics that run.py checks against.

    python3 perfbench/record_reference.py [--seeds 0-31]

Runs one untraced repetition per workload and workload seed and writes
each curve's plateau_mean and final_gap_mean to perfbench/reference.json.
Record only from a commit whose outputs are known to be right.
"""

import argparse
import json
import shutil
import sys

import run
import workloads

REL_TOL = 1e-6


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-31", help="inclusive range LO-HI")
    args = p.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    out = {"rel_tol": REL_TOL, "workloads": {}}
    for name in sorted(workloads.WORKLOADS):
        seeds = {}
        for seed in range(lo, hi + 1):
            workdir = run.WORK / f"reference-{name}-s{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                rep = run.run_worker(name, seed, 0, False, str(workdir), 600)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            problems = [rep["error"]] if "error" in rep else \
                [p for op in rep["ops"] for p in op["problems"]]
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            seeds[str(seed)] = {c: v for op in rep["ops"]
                                for c, v in op["curves"].items()}
            print(f"{name} seed {seed}: {len(seeds[str(seed)])} curves")
        out["workloads"][name] = {"T": workloads.WORKLOADS[name].horizon,
                                 "seeds": seeds}
    with open(run.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
