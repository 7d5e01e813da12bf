"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --rep K \
        --trace 0|1 --workdir DIR --report FILE

Times set-up (importing cosgd and building the workload's parser and
configs), then the workload's operations, and writes a JSON report:
timings, peak RSS, each operation's output digest, curve statistics and
problems, and with --trace 1 the spans and per-layer metrics.  Two
calibrations that never touch cosgd measure the machine's current speed:
importing a fixed set of standard-library modules before set-up, and a
fixed numpy loop just before and just after the operations.
"""

import argparse
import contextlib
import importlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import tracing  # noqa: E402  (stdlib only)
import workloads  # noqa: E402  (stdlib only)


CALIBRATION_BLOCKS = 4  # before and again after the operations

# Standard-library modules that neither numpy nor cosgd loads.
IMPORT_CALIBRATION = ("decimal", "fractions", "difflib", "email.parser",
                      "email.mime.text", "xml.dom.minidom", "http.client",
                      "logging.handlers", "sqlite3", "tarfile", "unittest",
                      "mailbox", "configparser")


def import_calibration() -> float:
    """Seconds to import IMPORT_CALIBRATION in a fresh process: the same
    kind of work as set-up (finding, reading and running modules).  It
    runs before cosgd is imported, so a change to the package cannot
    move it."""
    loaded = [m for m in IMPORT_CALIBRATION if m in sys.modules]
    if loaded:
        raise RuntimeError(f"calibration modules already imported: {loaded}")
    t = time.perf_counter()
    for name in IMPORT_CALIBRATION:
        importlib.import_module(name)
    return time.perf_counter() - t


def calibration_block() -> float:
    """Seconds for a fixed mix of the work cosgd's hot paths are made of:
    numpy steps on (20, 1) and (20, 16) arrays, Philox normal draws and
    float formatting.  It never calls cosgd, so a change to the package
    cannot move it; it moves only with the machine's speed."""
    import numpy as np
    gen = np.random.Generator(np.random.Philox(key=[1, 2]))
    t = time.perf_counter()
    x = np.zeros((20, 1))
    a = np.full((20, 1), 2.0)
    y = np.zeros((20, 16))
    b = np.full((20, 16), 1.5)
    for _ in range(2000):
        g = a * (x - 0.5)
        x = x - 1e-3 * (g + 0.1)
        np.sum(g * g, axis=-1)
        h = b * (y - 0.5)
        y = y - 1e-3 * (h + 0.1)
        np.sum(h * h, axis=-1)
    gen.standard_normal((20, 4096))
    ",".join(f"{v:.12g}" for v in np.linspace(0.001, 1.0, 3000))
    return time.perf_counter() - t


def run_rep(name: str, seed: int, rep: int, trace: bool, workdir: str) -> dict:
    import_calibration_s = import_calibration()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import cosgd
    import cosgd.cli
    if not Path(cosgd.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"cosgd imported from {cosgd.__file__}, not {SRC}")
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.setup(cosgd)
    setup_s = time.perf_counter() - t0

    calls = []
    tracer = tracing.Tracer(rep) if trace else None
    if tracer is not None:
        wl.span = tracer.span
    done = []
    with contextlib.ExitStack() as stack:
        stack.enter_context(tracing.observed(cosgd, calls))
        if tracer is not None:
            stack.enter_context(tracing.traced(cosgd, tracer))
        calibration_s = [calibration_block() for _ in range(CALIBRATION_BLOCKS)]
        cpu0 = time.process_time()
        w0 = time.perf_counter()
        for op_name, op in wl.operations():
            n0 = len(calls)
            try:
                value, error = op(), None
            except Exception:  # an operation failing is a measured outcome
                value, error = None, traceback.format_exc(limit=3)
            done.append((op_name, value, error, calls[n0:]))
        wall_s = time.perf_counter() - w0
        cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration_s += [calibration_block() for _ in range(CALIBRATION_BLOCKS)]

    ops = []
    for op_name, value, error, op_calls in done:
        if error is None:
            out = wl.collect(op_name, value)
        else:
            out = {"digest": None, "curves": {}, "problems": [error]}
        diverged = sum(n for _, n in op_calls)
        if diverged:
            out["problems"].append(f"{diverged} diverged seed(s)")
        ops.append({"name": op_name, **out})
    wl.cleanup()

    import numpy
    report = {"workload": name, "seed": seed, "rep": rep, "trace": trace,
              "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_rss_mb, "calibration_s": calibration_s,
              "import_calibration_s": import_calibration_s,
              "lane_steps": wl.lane_steps,
              "ops": ops, "numpy": numpy.__version__,
              "python": sys.version.split()[0]}
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer.spans)
        report["spans"] = tracer.spans
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--report", required=True)
    args = p.parse_args(argv)
    report = run_rep(args.workload, args.seed, args.rep, bool(args.trace),
                     args.workdir)
    tmp = args.report + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(report, fh)
    os.replace(tmp, args.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
