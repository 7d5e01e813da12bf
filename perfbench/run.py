"""cosgd benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload figures|run_wide|nonlinear \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; cosgd is imported from its `src/`.
Each repetition runs in a fresh process (perfbench/worker.py), and
repetitions continue until S seconds have passed.

--trace 0 prints the end-to-end metrics, the medians over repetitions.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics, the medians over the traced ones, plus
trace.overhead, traced over untraced median wall time.

An operation (one cosgd.cli.main() call or one API call) fails on a
nonzero exit code, an exception, a diverged seed, output that differs
between repetitions (traced or not), or a curve statistic off the
recorded reference.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the exit code is 0 only
when every operation passed.  Machine details, every repetition's
numbers and, when traced, the spans go to perfbench/results/.
"""

import argparse
import datetime
import gzip
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / "work"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

# This host's speed drifts by up to +-25% over tens of seconds, so timed
# metrics are scaled to a reference speed: wall_s, cpu_s and
# lane_steps_per_s by CALIBRATION_REFERENCE_S over the repetition's median
# worker.calibration_block time, setup_s by IMPORT_REFERENCE_S over its
# worker.import_calibration time.  Raw values stay in the results file.
CALIBRATION_REFERENCE_S = 0.035
IMPORT_REFERENCE_S = 0.060
HARD_LIMIT_S = 165.0  # the whole run, including the last repetition
MIN_REPS = 3  # untraced repetitions with --trace 0
MIN_REPS_TRACED = 2  # of each kind with --trace 1


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def run_worker(workload, seed, rep, trace, workdir, timeout) -> dict:
    """One repetition; on any failure a report with no operations and the
    reason in `error`."""
    report = os.path.join(workdir, f"rep{rep}.json")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--rep", str(rep), "--trace", str(int(trace)),
           "--workdir", workdir, "--report", report]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"trace": trace, "error": f"repetition timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not os.path.exists(report):
        return {"trace": trace,
                "error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    with open(report) as fh:
        out = json.load(fh)
    os.unlink(report)
    return out


def check_reps(reps, workload, seed, reference) -> tuple:
    """(attempted, failed, problems): every operation of every repetition
    is checked against the first repetition's digest for that operation
    and, when the reference holds this seed, against the recorded curves."""
    ref = reference["workloads"].get(workload, {})
    ref_curves = ref.get("seeds", {}).get(str(seed))
    rel_tol = reference["rel_tol"]
    first_digest = {}
    attempted = failed = 0
    problems = []
    if ref_curves is not None and ref["T"] != workloads.WORKLOADS[workload].horizon:
        problems.append(f"reference recorded at T={ref['T']}, workload runs "
                        f"T={workloads.WORKLOADS[workload].horizon}")
        ref_curves = None
    for r in reps:
        if "error" in r:  # the repetition's process failed: one failed operation
            attempted += 1
            failed += 1
            problems.append(f"rep {r['rep']}: {r['error']}")
            continue
        for op in r["ops"]:
            attempted += 1
            bad = list(op["problems"])
            first = first_digest.setdefault(op["name"], op["digest"])
            if op["digest"] != first:
                bad.append("output differs from the first repetition's")
            if ref_curves is not None:
                for curve, stats in op["curves"].items():
                    want = ref_curves.get(curve)
                    if want is None:
                        bad.append(f"no reference for curve {curve}")
                        continue
                    for key, val in stats.items():
                        if not math.isclose(val, want[key], rel_tol=rel_tol):
                            bad.append(f"{curve}.{key} = {val!r}, "
                                       f"reference {want[key]!r}")
            if bad:
                failed += 1
                problems.append(f"rep {r['rep']} {op['name']}: " + "; ".join(bad))
    return attempted, failed, problems


def speed(rep) -> float:
    """Reference over measured calibration time: above 1 on a slow spell."""
    return CALIBRATION_REFERENCE_S / tracing.median(rep["calibration_s"])


def end_to_end(reps) -> dict:
    samples = {"peak_rss_mb": [r["peak_rss_mb"] for r in reps]}
    for k in ("wall_s", "cpu_s", "setup_s", "import_calibration_s"):
        samples[f"raw_{k}"] = [r[k] for r in reps]
    samples["calibration_s"] = [tracing.median(r["calibration_s"]) for r in reps]
    samples["setup_s"] = [r["setup_s"] * IMPORT_REFERENCE_S / r["import_calibration_s"]
                          for r in reps]
    samples["wall_s"] = [r["wall_s"] * speed(r) for r in reps]
    samples["cpu_s"] = [r["cpu_s"] * speed(r) for r in reps]
    samples["lane_steps_per_s"] = [r["lane_steps"] / (r["wall_s"] * speed(r))
                                   for r in reps]
    return samples


def per_layer(traced_reps, untraced_reps) -> dict:
    samples = {}
    for r in traced_reps:
        for k, v in r["layers"].items():
            samples.setdefault(k, []).append(v)
    samples["trace.overhead"] = [
        tracing.median([r["wall_s"] * speed(r) for r in traced_reps])
        / tracing.median([r["wall_s"] * speed(r) for r in untraced_reps])]
    return samples


def environment(reps) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    ok = [r for r in reps if "error" not in r]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": ok[0]["numpy"] if ok else None,
            "platform": platform.platform(), "git_commit": commit,
            "src_sha256": src.hexdigest()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "cosgd" / "__init__.py").is_file():
        print(f"error: no cosgd source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    reference = load_reference()
    trace = bool(args.trace)

    start = time.monotonic()
    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    reps = []
    durations = []
    try:
        while True:
            want_traced = trace and len(reps) % 2 == 1
            remaining = HARD_LIMIT_S - (time.monotonic() - start)
            if durations and remaining < 1.5 * max(durations):
                break
            t = time.monotonic()
            reps.append(run_worker(args.workload, args.seed, len(reps),
                                   want_traced, str(workdir), remaining))
            durations.append(time.monotonic() - t)
            reps[-1].setdefault("rep", len(reps) - 1)
            good = [r for r in reps if "error" not in r]
            n_traced = sum(r["trace"] for r in good)
            enough = (len(good) - n_traced >= MIN_REPS_TRACED
                      and n_traced >= MIN_REPS_TRACED) if trace \
                else len(good) >= MIN_REPS
            if time.monotonic() - start >= args.seconds and enough:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, problems = check_reps(reps, args.workload, args.seed,
                                             reference)
    untraced = [r for r in reps if "error" not in r and not r["trace"]]
    traced = [r for r in reps if "error" not in r and r["trace"]]
    if len(untraced) < (MIN_REPS_TRACED if trace else MIN_REPS) \
            or (trace and len(traced) < MIN_REPS_TRACED):
        problems.append("too few successful repetitions to compare outputs")
    correct = failed == 0 and not problems

    if trace:
        samples = per_layer(traced, untraced) if traced and untraced else {}
        wanted = spec["per_layer"]
    else:
        samples = end_to_end(untraced) if untraced else {}
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        vals = samples.get(m["name"])
        if vals:
            metrics[m["name"]] = {"value": tracing.median(vals), "unit": m["unit"]}

    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    RESULTS.mkdir(exist_ok=True)
    base = RESULTS / f"{stamp}_{args.workload}_s{args.seed}_t{int(trace)}_{os.getpid()}"
    spans = [s for r in reps for s in r.pop("spans", [])]
    if spans:
        with gzip.open(f"{base}.spans.jsonl.gz", "wt") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": trace,
              "environment": environment(reps),
              "summary": {k: tracing.summarize(v) for k, v in samples.items()},
              "metrics": metrics, "correct": correct, "attempted": attempted,
              "failed": failed, "problems": problems, "reps": reps}
    with open(f"{base}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {int(trace)}  "
          f"repetitions {len(untraced)} untraced, {len(traced)} traced")
    for name, m in metrics.items():
        s = record["summary"][name]
        tail = "" if s["tail_p"] is None else f"  p{s['tail_p']:g} {s['tail']:.6g}"
        print(f"  {name:36s} {m['value']:<14.6g} {m['unit']:8s} "
              f"median of {s['n']}{tail}")
    for name in ("raw_wall_s", "raw_cpu_s", "calibration_s", "raw_setup_s",
                 "raw_import_calibration_s"):
        if name in samples:
            print(f"  {name:36s} {tracing.median(samples[name]):<14.6g} "
                  f"{'s':8s} median of {len(samples[name])}, not scaled")
    print(f"  {'error_rate':36s} {failed / attempted:<14.6g} "
          f"{'ratio':8s} {failed} of {attempted} operations failed")
    for line in problems[:20]:
        print(f"  problem: {line}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
