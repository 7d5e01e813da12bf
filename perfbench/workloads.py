"""The benchmark's three workloads.

Each workload turns the benchmark's workload seed into inputs (the
seed-list offset and, for `nonlinear`, the random task instance), builds
its parser and configs in `setup`, runs its operations, and turns each
operation's output into a digest plus the curve statistics the reference
check compares.  An operation is one `cosgd.cli.main()` call or one API
call.

numpy and cosgd are imported by the caller, inside the set-up timing.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil

# Horizons are reduced from the paper's T = 200 000 so that one
# repetition takes a few seconds on a 2-core machine; BENCHMARK.json
# states each.
FIGURES_T = 5000
RUN_WIDE_T = 10000
NONLINEAR_T = 5000

SEED_STRIDE = 1000  # simulation seeds of workload seed s: s*1000, s*1000+1, ...
FIGURE_SEEDS = 20
RUN_WIDE_SEEDS = 256
NONLINEAR_SEEDS = 20
NONLINEAR_DIM = 16
NONLINEAR_COLLABORATORS = 4

# fig2 tunes alone and wga over a 4-value eta grid and runs bc once, fig5
# runs bc for N = 1, 10, 100: 12 configs of 20 lanes.
FIGURES_CONFIGS = 12
FIGURE_NAMES = ("fig2", "fig5", "gainfactor", "sublinear")


def dir_digest(path: str, extra: bytes = b"") -> str:
    """sha256 over every file under `path` (relative name and bytes)."""
    h = hashlib.sha256(extra)
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class Workload:
    name = ""
    horizon = 0  # T of every simulation the workload runs
    lane_steps = 0  # simulated seed x step count of one repetition

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir
        self.out_root = os.path.join(workdir, "out")
        self.span = lambda name, layer: contextlib.nullcontext()

    def seed_list(self, count: int) -> list:
        return list(range(self.seed * SEED_STRIDE, self.seed * SEED_STRIDE + count))

    def setup(self, cosgd) -> None:
        raise NotImplementedError

    def operations(self) -> list:
        """[(name, zero-argument callable)] in execution order."""
        raise NotImplementedError

    def collect(self, name: str, value) -> dict:
        """{"digest", "curves", "problems"} for one finished operation."""
        raise NotImplementedError

    def cleanup(self) -> None:
        shutil.rmtree(self.out_root, ignore_errors=True)


class _CliWorkload(Workload):
    """Operations are in-process `cosgd.cli.main(argv)` calls."""

    def _cli_op(self, argv):
        def op():
            buf = io.StringIO()
            with self.span("cli.main", "cli"), contextlib.redirect_stdout(buf):
                code = self.cosgd.cli.main(argv)
            return code, buf.getvalue()
        return op

    def _collect_cli(self, out_dir, value) -> tuple:
        code, stdout = value
        problems = [] if code == 0 else [f"exit code {code}"]
        digest = dir_digest(out_dir, f"{code}\n{stdout}".encode())
        return digest, problems


class Figures(_CliWorkload):
    name = "figures"
    horizon = FIGURES_T
    lane_steps = FIGURES_CONFIGS * FIGURE_SEEDS * FIGURES_T

    def setup(self, cosgd) -> None:
        self.cosgd = cosgd
        parser = cosgd.cli.build_parser()
        seeds = self.seed_list(FIGURE_SEEDS)
        self.argvs = {}
        for fig in FIGURE_NAMES:
            argv = ["figure", fig, "--T", str(FIGURES_T),
                    "--seeds", f"{seeds[0]}-{seeds[-1]}", "--workers", "1",
                    "--out-dir", os.path.join(self.out_root, fig)]
            parser.parse_args(argv)
            self.argvs[fig] = argv

    def operations(self) -> list:
        return [(fig, self._cli_op(argv)) for fig, argv in self.argvs.items()]

    def collect(self, name, value) -> dict:
        out_dir = os.path.join(self.out_root, name)
        digest, problems = self._collect_cli(out_dir, value)
        curves = {}
        try:
            if name in ("fig2", "fig5"):
                curves = self._curves(out_dir, name)
            elif name == "sublinear":
                problems += self._check_sublinear(out_dir)
        except (OSError, ValueError, IndexError, KeyError) as e:
            problems.append(f"unreadable output: {e!r}")
        return {"digest": digest, "curves": curves, "problems": problems}

    @staticmethod
    def _curves(out_dir, fig) -> dict:
        """plateau_mean from the summary CSV, final_gap_mean from the last
        row (step T) of each curve's trace CSV."""
        rows = read_csv(os.path.join(out_dir, f"{fig}_summary.csv"))
        header = rows[0]
        col = header.index("plateau_mean")
        curves = {}
        for row in rows[1:]:
            label = row[0] if fig == "fig2" else f"N{row[0]}"
            trace = read_csv(os.path.join(out_dir, f"{fig}_{label}.csv"))
            last = trace[-1]
            if int(last[0]) != FIGURES_T:
                raise ValueError(f"{fig}_{label}.csv ends at step {last[0]}")
            curves[f"{fig}.{label}"] = {"plateau_mean": float(row[col]),
                                        "final_gap_mean": float(last[1])}
        return curves

    @staticmethod
    def _check_sublinear(out_dir) -> list:
        """Closed form: at m = 0 the speedup is exactly N + 1."""
        rows = read_csv(os.path.join(out_dir, "sublinear.csv"))
        col = rows[0].index("m0")
        bad = [row[0] for row in rows[1:]
               if not math.isclose(float(row[col]), int(row[0]) + 1.0,
                                   rel_tol=1e-9)]
        return [f"sublinear m0 != N+1 at {len(bad)} N values, first N={bad[0]}"] \
            if bad else []


class RunWide(_CliWorkload):
    name = "run_wide"
    horizon = RUN_WIDE_T
    lane_steps = RUN_WIDE_SEEDS * RUN_WIDE_T

    def setup(self, cosgd) -> None:
        self.cosgd = cosgd
        # The fig2 instance (zeta 4, sigma 10, N 10, alpha N/(N+1)), bc with
        # a warm-started bias estimate.  `workers` sits in the config too,
        # because `cosgd run --config` takes it from there.
        config = {
            "main_task": {"curvature": [1.0], "optimum": [0.0], "noise_std": 10.0},
            "collaborators": [{"curvature": [2.0], "optimum": [2.0],
                               "noise_std": 10.0 / math.sqrt(10.0)}],
            "aggregator": "bc",
            "weights": {"alpha": 10.0 / 11.0, "tau": [1.0], "beta": 1e-3},
            "step_size": 1e-3, "horizon": RUN_WIDE_T, "x0": [1.0],
            "seeds": self.seed_list(RUN_WIDE_SEEDS),
            "c0_policy": "warm_start", "csv_stride": 10, "workers": 2,
        }
        os.makedirs(self.workdir, exist_ok=True)
        path = os.path.join(self.workdir, "run_wide.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        self.out_dir = os.path.join(self.out_root, "run")
        self.argv = ["run", "--config", path, "--workers", "2",
                     "--out-dir", self.out_dir]
        cosgd.cli.build_parser().parse_args(self.argv)
        cosgd.config.load_config(path)

    def operations(self) -> list:
        return [("run", self._cli_op(self.argv))]

    def collect(self, name, value) -> dict:
        digest, problems = self._collect_cli(self.out_dir, value)
        curves = {}
        try:
            stats = {row[1]: float(row[2]) for row in
                     read_csv(os.path.join(self.out_dir, "aggregate.csv"))[1:]}
            curves["run"] = {"plateau_mean": stats["plateau_mean"],
                             "final_gap_mean": stats["final_gap_mean"]}
            traces = [f for f in os.listdir(self.out_dir)
                      if f.startswith("trace_seed")]
            if len(traces) != RUN_WIDE_SEEDS:
                problems.append(f"{len(traces)} per-seed traces, "
                                f"expected {RUN_WIDE_SEEDS}")
        except (OSError, ValueError, IndexError, KeyError) as e:
            problems.append(f"unreadable output: {e!r}")
        return {"digest": digest, "curves": curves, "problems": problems}


class Nonlinear(Workload):
    name = "nonlinear"
    horizon = NONLINEAR_T
    lane_steps = 2 * NONLINEAR_SEEDS * NONLINEAR_T

    def setup(self, cosgd) -> None:
        import numpy as np

        self.cosgd = cosgd
        rng = np.random.default_rng(self.seed)
        d = NONLINEAR_DIM
        a0 = rng.uniform(0.5, 2.0, d)
        x_star = rng.normal(0.0, 1.0, d)
        main = cosgd.QuadraticTask(a0, x_star, noise_std=1.0, noise_scale=0.5)
        # Curvatures within [0.8, 1.25] of the main task's keep m <= 1/16,
        # so the WGA alpha guard holds.
        colls = [cosgd.QuadraticTask(a0 * rng.uniform(0.8, 1.25, d),
                                     x_star + rng.normal(0.0, 0.5, d),
                                     noise_std=float(rng.uniform(0.5, 2.0)),
                                     noise_scale=float(rng.uniform(0.1, 1.0)))
                 for _ in range(NONLINEAR_COLLABORATORS)]
        tau = list(rng.dirichlet(np.ones(NONLINEAR_COLLABORATORS)))
        x0 = np.full(d, 3.0)
        oracle_w = cosgd.CollaborationWeights(alpha=0.8, tau=tau)
        wga_w = cosgd.CollaborationWeights(alpha=0.5, tau=tau)
        schedule = cosgd.DecreasingPlSchedule(
            cosgd.schedule_inputs(main, colls, wga_w, NONLINEAR_T, x0))
        self.configs = {
            "oracle_bc": cosgd.RunConfig(main, colls, "oracle_bc", oracle_w,
                                         0.01, NONLINEAR_T, x0, oracle_v=0.5),
            "wga": cosgd.RunConfig(main, colls, "wga", wga_w, schedule,
                                   NONLINEAR_T, x0),
        }
        self.seeds = self.seed_list(NONLINEAR_SEEDS)

    def operations(self) -> list:
        def op(cfg):
            # Looked up at call time, so a wrapper installed on
            # cosgd.simulator applies.
            return lambda: self.cosgd.simulator.run_replicated(cfg, self.seeds)
        return [(name, op(cfg)) for name, cfg in self.configs.items()]

    def collect(self, name, res) -> dict:
        h = hashlib.sha256()
        for arr in (res.per_seed_plateau, res.per_seed_final_gap,
                    res.mean_test_loss, res.mean_grad_norm_sq):
            h.update(arr.tobytes())
        h.update(repr(res.diverged_seeds).encode())
        return {"digest": h.hexdigest(),
                "curves": {name: {"plateau_mean": res.plateau_mean,
                                  "final_gap_mean": res.final_gap_mean}},
                "problems": []}


WORKLOADS = {w.name: w for w in (Figures, RunWide, Nonlinear)}
