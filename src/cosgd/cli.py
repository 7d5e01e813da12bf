"""Command-line harness: runs, figure reproduction, bound evaluation, tau.

Exit codes: 0 success, 1 configuration error, 2 internal error.  The
default output directory comes from $COSGD_OUT_DIR (fallback ./out).
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import figures
from .aggregators import CollaborationWeights, check_alpha_guard
from .bounds import (BoundInputs, bound_bc, bound_oracle, bound_wga_nonconvex,
                     bound_wga_pl)
from .config import ConfigError, ExperimentConfig, deprecated_workers, load_config
from .csvio import CSV_STRIDE, fmt_value, write_csv
from .objective import SimilarityParams
from .rng import SEED_LIMIT, repeated_seeds
from .schedules import ScheduleInputs, tau_qp, tau_qp_objective
from .simulator import (AGGREGATORS, C0_POLICIES, MAX_HORIZON, AllSeedsDiverged,
                        RunConfig, _validate, run_replicated, sweep, sweep_names)

ENV_OUT_DIR = "COSGD_OUT_DIR"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


class _Noted(argparse.Action):
    """argparse's plain store action that also lists the flag in `given`."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = [*getattr(namespace, "given", []), option_string]


def _default_out_dir() -> str:
    return os.environ.get(ENV_OUT_DIR, "out")


def _parse_seeds(spec: str):
    """'0-19' (inclusive range), '0,3,7', or a single integer; seeds lie in
    [0, 2^64) and a range runs upwards."""
    spec = str(spec)
    try:
        if "-" in spec:
            lo, hi = ends = [int(s) for s in spec.split("-", 1)]
            seeds = range(lo, hi + 1)
        else:
            seeds = ends = [int(s) for s in spec.split(",")]
    except ValueError:
        seeds = ends = []
    if not seeds or min(ends) < 0 or max(ends) >= SEED_LIMIT:
        raise ConfigError(f"invalid seed spec {spec!r}: expected a range 'A-B' "
                          "with A <= B, a list 'a,b,c' or one integer, in [0, 2^64)")
    if isinstance(seeds, list) and (why := repeated_seeds(seeds)):  # a range has no repeats
        raise ConfigError(f"invalid seed spec {spec!r}: {why}")
    return list(seeds)


def _int(value: str) -> int:
    """argparse type of an integer flag: an int the float formulas can
    take, so at most about 1.8e308 in magnitude."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if abs(n) > sys.float_info.max:
        raise argparse.ArgumentTypeError("must be at most 1.8e308 in magnitude")
    return n


def _stride(value: str) -> int:
    """argparse type of --csv-stride: an integer >= 1."""
    stride = _int(value)
    if stride < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {stride}")
    return stride


def _inline_run_config(args) -> ExperimentConfig:
    try:
        main, colls = figures.collaborative_pair(
            a0=args.a0, x0_star=args.x0star, a1=args.a1, zeta=args.zeta,
            sigma=args.sigma, n=args.N)
        weights = CollaborationWeights(alpha=args.alpha, tau=[1.0], beta=args.beta)
        run_cfg = RunConfig(main_task=main, collaborators=colls,
                            aggregator=args.aggregator, weights=weights,
                            step_size=args.eta, horizon=args.T, x0=args.x0,
                            c0_policy=args.c0_policy, oracle_v=args.oracle_v)
        _validate(run_cfg)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return ExperimentConfig(run=run_cfg, seeds=_parse_seeds(args.seeds),
                            out_dir=args.out_dir, csv_stride=args.csv_stride)


def _write_stats(path: str, labels: list, results: list) -> None:
    """aggregate.csv: one (label, statistic, value) row per statistic of
    each labelled result."""
    stats = ("plateau_mean", "plateau_se", "final_gap_mean", "final_gap_se",
             "avg_grad_sq_mean", "avg_grad_sq_se")
    write_csv(path, ["label", "statistic", "value"],
              ([label for label in labels for _ in stats], stats * len(results),
               [getattr(res, stat) for res in results for stat in stats]))


def _cmd_run(args) -> int:
    if args.config:
        cfg = load_config(args.config)
        extra = [flag for flag in dict.fromkeys(getattr(args, "given", []))
                 if flag not in ("--config", "--out-dir", "--workers")]
        if extra:
            raise ConfigError(f"{', '.join(extra)} cannot be given with --config, "
                              "whose JSON sets every run parameter")
        if args.out_dir:
            cfg.out_dir = args.out_dir
    else:
        cfg = _inline_run_config(args)
    out_dir = cfg.out_dir or _default_out_dir()

    stride = cfg.csv_stride
    if cfg.sweep_axis is not None:
        names = sweep_names(cfg.sweep_values)
        labels = [f"{cfg.sweep_axis}={name}" for name in names]
        results = [res for _, res in sweep(cfg.run, cfg.sweep_axis, cfg.sweep_values,
                                           cfg.seeds, alpha_rule=cfg.sweep_alpha_rule)]
        for name, label, res in zip(names, labels, results):
            figures._write_trace(
                os.path.join(out_dir, f"trace_{cfg.sweep_axis}{name}.csv"),
                res, stride)
            print(f"{label}: plateau {fmt_value(res.plateau_mean)}"
                  f" final_gap {fmt_value(res.final_gap_mean)}")
    else:
        res = run_replicated(cfg.run, cfg.seeds, keep_traces=True, trace_stride=stride)
        steps = np.arange(0, cfg.run.horizon + 1, stride)
        for seed, trace in zip(cfg.seeds, res.traces):
            write_csv(os.path.join(out_dir, f"trace_seed{seed}.csv"),
                      ["step", "test_loss", "grad_norm_sq"],
                      (steps, trace.test_loss, trace.grad_norm_sq))
        figures._write_trace(os.path.join(out_dir, "aggregate_trace.csv"), res, stride)
        labels, results = ["run"], [res]
        print(f"final loss (plateau): {fmt_value(res.plateau_mean)}"
              + ("" if res.plateau_se is None else f" +/- {fmt_value(res.plateau_se)}"))
        if res.diverged_seeds:
            print(f"diverged seeds: {res.diverged_seeds}")
    _write_stats(os.path.join(out_dir, "aggregate.csv"), labels, results)
    return 0


def _cmd_figure(args) -> int:
    out_dir = args.out_dir or _default_out_dir()
    seeds = _parse_seeds(args.seeds)
    if args.name not in figures.FIGURES:
        raise ConfigError(
            f"unknown figure {args.name!r}; valid names: {', '.join(figures.FIGURES)}")
    make = getattr(figures, args.name)
    if args.name in ("gainfactor", "sublinear"):  # no simulation
        res = make(out_dir)
    elif not 1 <= args.T <= MAX_HORIZON:  # as RunConfig checks it
        raise ConfigError(f"horizon must be in [1, {MAX_HORIZON}]")
    else:
        res = make(out_dir, seeds=seeds, horizon=args.T, csv_stride=args.csv_stride)
    if args.name == "fig2":
        print(f"fig2: chosen {res.chosen}")
    for row in res.summary:
        print(" ".join(fmt_value(v) for v in row))
    print(f"wrote {args.name} CSVs to {out_dir}")
    return 0


def _bound_inputs(args) -> BoundInputs:
    sim = SimilarityParams(
        smoothness=args.L, pl_constant=args.mu,
        grad_scale_mismatch=args.m, grad_offset_sq=args.zeta_sq,
        grad_offsets_sq=[args.zeta_sq], hessian_dissimilarity=args.delta)
    base = ScheduleInputs(sim=sim, horizon=args.T, f0_gap=args.F0,
                          sigma0_sq=args.sigma0_sq, sigma_a_sq=args.sigma_a_sq,
                          alpha=args.alpha, oracle_var=args.v_sq,
                          grad0_sq=args.grad0_sq, n_collaborators=args.N)
    return BoundInputs(base=base, eta=args.eta, beta=args.beta, e0=args.E0,
                       c=args.c)


def _cmd_bounds(args) -> int:
    try:
        b = _bound_inputs(args)
        fn = {"wga-nc": bound_wga_nonconvex, "wga-pl": bound_wga_pl,
              "oracle": bound_oracle, "bc": bound_bc}[args.which]
        value = fn(b)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    except OverflowError as e:  # a finite input whose bound leaves the floats
        raise ConfigError("inputs out of range: a bound term overflows a float") from e
    print(fmt_value(value))
    return 0


def _cmd_tau(args) -> int:
    try:
        sigmas = [float(s) for s in args.sigmas.split(",")]
        zetas = [float(z) for z in args.zetas.split(",")]
        # Read and checked as `bounds` reads them; the QP uses L, mu, m, T
        # and alpha, so the gap and variances are left at 0.
        s = ScheduleInputs(
            sim=SimilarityParams(smoothness=args.L, pl_constant=args.mu,
                                 grad_scale_mismatch=args.m, grad_offset_sq=0.0,
                                 grad_offsets_sq=zetas, hessian_dissimilarity=0.0),
            horizon=args.T, f0_gap=0.0, sigma0_sq=0.0, sigma_a_sq=0.0, alpha=args.alpha)
        guard = check_alpha_guard(s.alpha, s.sim.grad_scale_mismatch)
        coeff = s.sim.smoothness / (s.sim.pl_constant * s.horizon * guard)
        tau = tau_qp(sigmas, zetas, coeff)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    except ZeroDivisionError as e:  # mu T (1 - alpha^2 m) rounds to 0
        raise ConfigError("inputs out of range: L / (mu T (1 - alpha^2 m)) overflows") from e
    obj = tau_qp_objective(tau, sigmas, zetas, coeff)
    print("tau: " + " ".join(fmt_value(t) for t in tau))
    print("objective: " + fmt_value(obj))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="cosgd",
                description="Personalized collaborative SGD experiments")
    sub = p.add_subparsers(dest="command", required=True)

    # Options that `run` and `figure` share.
    shared = argparse.ArgumentParser(add_help=False)
    shared.register("action", None, _Noted)
    shared.add_argument("--T", type=_int, default=figures.DEFAULT_T)
    shared.add_argument("--seeds", default="0-19")
    shared.add_argument("--out-dir", dest="out_dir", default=None)
    shared.add_argument("--workers", type=lambda text: deprecated_workers(_int(text)),
                        default=1, help="deprecated and ignored")
    shared.add_argument("--csv-stride", dest="csv_stride", type=_stride,
                        default=CSV_STRIDE)

    r = sub.add_parser("run", parents=[shared],
                       help="run one config (file or inline flags)")
    r.register("action", None, _Noted)
    r.add_argument("--config", help="JSON experiment config")
    r.add_argument("--aggregator", default="alone",
                   choices=AGGREGATORS)
    r.add_argument("--a0", type=float, default=1.0)
    r.add_argument("--x0star", type=float, default=0.0)
    r.add_argument("--a1", type=float, default=2.0)
    r.add_argument("--zeta", type=float, default=4.0)
    r.add_argument("--sigma", type=float, default=10.0)
    r.add_argument("--N", type=_int, default=10)
    r.add_argument("--alpha", type=float, default=0.0)
    r.add_argument("--beta", type=float, default=None)
    r.add_argument("--eta", type=float, default=1e-4)
    r.add_argument("--x0", type=float, default=10.0)
    r.add_argument("--c0-policy", dest="c0_policy", default="first_bias",
                   choices=C0_POLICIES)
    r.add_argument("--oracle-v", dest="oracle_v", type=float, default=0.0)
    r.set_defaults(func=_cmd_run)

    f = sub.add_parser("figure", parents=[shared],
                       help="reproduce a figure's CSV data",
                       description="Reproduce a figure's CSV data. gainfactor "
                       "and sublinear simulate nothing and ignore --T, --seeds "
                       "and --csv-stride.")
    f.add_argument("name", help=", ".join(figures.FIGURES))
    f.set_defaults(func=_cmd_figure)

    b = sub.add_parser("bounds", help="evaluate a convergence bound")
    b.add_argument("which", choices=("wga-nc", "wga-pl", "oracle", "bc"))
    b.add_argument("--L", type=float, default=1.0)
    b.add_argument("--mu", type=float, default=1.0)
    b.add_argument("--m", type=float, default=0.0)
    b.add_argument("--zeta-sq", dest="zeta_sq", type=float, default=0.0)
    b.add_argument("--delta", type=float, default=0.0)
    b.add_argument("--T", type=_int, default=1000)
    b.add_argument("--F0", type=float, default=1.0)
    b.add_argument("--sigma0-sq", dest="sigma0_sq", type=float, default=1.0)
    b.add_argument("--sigma-a-sq", dest="sigma_a_sq", type=float, default=1.0)
    b.add_argument("--alpha", type=float, default=0.0)
    b.add_argument("--v-sq", dest="v_sq", type=float, default=0.0)
    b.add_argument("--grad0-sq", dest="grad0_sq", type=float, default=0.0)
    b.add_argument("--N", type=_int, default=1)
    b.add_argument("--eta", type=float, default=1e-3)
    b.add_argument("--beta", type=float, default=0.0)
    b.add_argument("--E0", type=float, default=0.0)
    b.add_argument("--c", type=int, default=2, choices=(2, 4))
    b.set_defaults(func=_cmd_bounds)

    t = sub.add_parser("tau", help="optimal collaborator mixture weights")
    t.add_argument("--sigmas", required=True, help="comma-separated sigma_k^2")
    t.add_argument("--zetas", required=True, help="comma-separated zeta_k^2")
    t.add_argument("--L", type=float, default=1.0)
    t.add_argument("--mu", type=float, default=1.0)
    t.add_argument("--T", type=_int, default=1000)
    t.add_argument("--alpha", type=float, default=0.0)
    t.add_argument("--m", type=float, default=0.0)
    t.set_defaults(func=_cmd_tau)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`main`'s parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, AllSeedsDiverged) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except MemoryError:  # allocating the seeds, or the kernel's outputs
        print("config error: the run does not fit in memory: lower the horizon "
              "(--T) or the number of seeds, or raise --csv-stride", file=sys.stderr)
        return 1
    except Exception as e:  # internal error
        print(f"internal error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
