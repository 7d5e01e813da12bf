"""Reproduction of the noisy-quadratic experiments and speedup charts.

Each function builds its default configuration, runs its simulations
as one kernel call, writes per-curve CSVs (plus a small
gnuplot script) to `out_dir`, and returns the computed results so tests
and callers can inspect them without re-reading files.

Shared experimental model: the main agent minimizes a 1D quadratic with
curvature a_0 and additive gradient noise of std sigma; the N
collaborators are represented by one averaged agent with curvature a_1,
optimum chosen to hit the target zeta = a_1 |x_1* - x_0*|, and noise std
sigma/sqrt(N).
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .aggregators import CollaborationWeights, float_sq
from .csvio import CSV_STRIDE, write_csv, write_text
from .objective import QuadraticTask
from .schedules import (alpha_opt_wga_general, alpha_opt_wga_m0, speedup_factor,
                        wga_pl_terms)
from .simulator import (RunConfig, RunResult, _expected_losses, _plateau_start, _replicate,
                        sweep_config, sweep_names)
# No figure calls these two; perfbench/tracing.py wraps them on this module.
from .simulator import run_replicated, sweep  # noqa: F401

FIGURES = ("fig2", "fig3", "fig4", "fig5", "gainfactor", "sublinear")

DEFAULT_SEEDS = tuple(range(20))
DEFAULT_T = 200_000
DEFAULT_N = 10
ETA_GRID = (1e-5, 1e-4, 1e-3, 1e-2)
ZETAS = (1.0, 4.0, 16.0, 64.0)


def collaborative_pair(a0: float = 1.0, x0_star: float = 0.0, a1: float = 2.0,
                       zeta: float = 4.0, sigma: float = 10.0, n: int = DEFAULT_N):
    """Main task plus the averaged collaborator for given (zeta, sigma, N)."""
    if not (n >= 1 and a1 > 0):
        raise ValueError(f"need N >= 1 and a1 > 0, got N={n}, a1={a1}")
    main = QuadraticTask(curvature=a0, optimum=x0_star, noise_std=sigma)
    coll = QuadraticTask(curvature=a1, optimum=x0_star + zeta / a1,
                         noise_std=sigma / math.sqrt(n))
    return main, [coll]


def time_to_plateau(mean_trace: np.ndarray, plateau: float):
    """First step at which the trace, averaged over blocks of
    max(1, len // 200) steps, drops to 10 x `plateau`; None if it never
    does."""
    if plateau <= 0:
        return 0
    block = max(1, len(mean_trace) // 200)
    usable = (len(mean_trace) // block) * block
    blocks = mean_trace[:usable].reshape(-1, block).mean(axis=1)
    hit = np.nonzero(blocks <= 10.0 * plateau)[0]
    return int(hit[0] * block) if hit.size else None


def _write_trace(path: str, result: RunResult, stride: int) -> None:
    write_csv(path, ["step", "test_loss", "grad_norm_sq"],
              (np.arange(0, len(result.mean_test_loss), stride),
               result.mean_test_loss[::stride], result.mean_grad_norm_sq[::stride]))


@dataclass
class FigureResult:
    """Curves plus the per-curve summary rows written to the summary CSV."""

    curves: dict = field(default_factory=dict)
    summary: list = field(default_factory=list)
    chosen: dict = field(default_factory=dict)


def _swept(base: RunConfig, axis: str, values, alpha_rule=None) -> list:
    """(value, suffix, label, config) per swept value, named as `cosgd run`
    names a sweep; values whose names clash are rejected before anything
    runs."""
    values = list(values)
    return [(v, f"{axis}{name}", f"{axis}={name}",
             sweep_config(base, axis, v, alpha_rule))
            for v, name in zip(values, sweep_names(values))]


def _run_curves(curves, seeds) -> list:
    """Each (key, suffix, label, config) of `curves` with its config's
    RunResult in place, all configs run as one batch, which takes the
    affine step when every config is in its class."""
    results = _replicate([cfg for *_, cfg in curves], seeds, affine=True)
    return [(*curve[:3], res) for curve, res in zip(curves, results)]


def _write_figure(out_dir: str, name: str, title: str, curves, header, summary,
                  stride: int, chosen=None) -> FigureResult:
    """Write `{name}_{suffix}.csv` for each (key, suffix, label, RunResult)
    of `curves`, then `{name}_summary.csv` and the gnuplot script
    `{name}.gp`, which plots each trace under its label."""
    plots = []
    for _, suffix, label, res in curves:
        trace = f"{name}_{suffix}.csv"
        _write_trace(os.path.join(out_dir, trace), res, stride)
        plots.append(f"'{trace}' using 1:2 with lines title '{label}'")
    write_csv(os.path.join(out_dir, f"{name}_summary.csv"), header, zip(*summary))
    lines = [f"set title '{title}'", "set logscale y", "set xlabel 'step'",
             "set ylabel 'test loss'", "set key right top",
             "plot " + ", ".join(plots)]
    write_text(os.path.join(out_dir, f"{name}.gp"), "\n".join(lines) + "\n")
    return FigureResult(curves={key: res for key, _, _, res in curves},
                        summary=summary, chosen=chosen or {})


def _plateaus(curves) -> list:
    """(key, plateau_mean, plateau_se) summary rows."""
    return [(key, res.plateau_mean, res.plateau_se) for key, _, _, res in curves]


def _fig2_configs(horizon: int) -> tuple:
    """fig2's alone and wga configs, at the first value of ETA_GRID, and
    its bc config, which runs at a fixed step size."""
    main, colls = collaborative_pair()
    alpha = DEFAULT_N / (DEFAULT_N + 1.0)
    x0 = 1.0
    return (RunConfig(main, colls, "alone", CollaborationWeights(0.0, [1.0]),
                      ETA_GRID[0], horizon, x0),
            RunConfig(main, colls, "wga", CollaborationWeights(alpha, [1.0]),
                      ETA_GRID[0], horizon, x0),
            RunConfig(main, colls, "bc", CollaborationWeights(alpha, [1.0], beta=1e-4),
                      1e-4, horizon, x0, c0_policy="zero"))


def _exact_plateaus(base: RunConfig, grid=ETA_GRID) -> list:
    """`base`'s exact plateau at each value of `grid`, its expected loss
    averaged over the plateau window, from one call over the grid."""
    cfgs = [sweep_config(base, "eta", eta) for eta in grid]
    return [window.mean() for window in _expected_losses(cfgs, _plateau_start(base.horizon))]


def _exact_pick(base: RunConfig, grid=ETA_GRID):
    """The value of `grid` at which `base` has the lowest exact plateau
    (`_exact_plateaus`); the first value wins ties.  Unlike the least of
    several simulated plateaus, this pick is not biased towards a step
    size whose seeds were lucky."""
    return min(zip(grid, _exact_plateaus(base, grid)), key=lambda pair: pair[1])[0]


def fig2(out_dir: str, horizon: int = DEFAULT_T, seeds=DEFAULT_SEEDS,
         csv_stride: int = CSV_STRIDE) -> FigureResult:
    """Alone vs WGA vs BC on the default instance.

    The step sizes of Alone and WGA are each tuned over a log grid, by
    the exact plateau (`_exact_pick`); BC uses a fixed, untuned step size
    and beta.  Only the three plotted configs are simulated, as one
    kernel call.  All chosen values land in the summary CSV.
    """
    alone, wga, bc = _fig2_configs(horizon)
    alone, wga = (sweep_config(cfg, "eta", _exact_pick(cfg)) for cfg in (alone, wga))
    cfgs = (alone, wga, bc)
    curves = _run_curves([(cfg.aggregator,) * 3 + (cfg,) for cfg in cfgs], seeds)
    return _write_figure(
        out_dir, "fig2", "alone vs WGA vs BC", curves,
        ["method", "eta", "plateau_mean", "plateau_se"],
        [(key, cfg.step_size, pm, ps) for cfg, (key, pm, ps) in zip(cfgs, _plateaus(curves))],
        csv_stride, chosen={"eta_alone": alone.step_size, "eta_wga": wga.step_size,
                            "eta_bc": bc.step_size, "beta_bc": bc.weights.beta,
                            "alpha": wga.weights.alpha})


def fig3(out_dir: str, zetas=ZETAS, horizon: int = DEFAULT_T,
         seeds=DEFAULT_SEEDS, csv_stride: int = CSV_STRIDE) -> FigureResult:
    """BC for several bias magnitudes zeta: same plateau, slower start.
    The summary's time_to_plateau is -1 for a curve that never gets there."""
    main, colls = collaborative_pair()
    alpha = DEFAULT_N / (DEFAULT_N + 1.0)
    base = RunConfig(main, colls, "bc",
                     CollaborationWeights(alpha, [1.0], beta=1e-4),
                     1e-4, horizon, 10.0, c0_policy="zero")
    curves = _run_curves(_swept(base, "zeta", zetas), seeds)
    summary = []
    for key, _, _, res in curves:
        tp = time_to_plateau(res.mean_test_loss, res.plateau_mean)
        summary.append((key, res.plateau_mean, res.plateau_se,
                        -1 if tp is None else tp))
    return _write_figure(out_dir, "fig3", "BC under increasing zeta", curves,
                         ["zeta", "plateau_mean", "plateau_se", "time_to_plateau"],
                         summary, csv_stride)


def fig4(out_dir: str, horizon: int = DEFAULT_T, seeds=DEFAULT_SEEDS,
         csv_stride: int = CSV_STRIDE) -> FigureResult:
    """WGA for several zeta, plus the Alone baseline: the plateau grows
    with the bias."""
    main, colls = collaborative_pair()
    eta, x0 = 5e-4, 10.0
    alone = RunConfig(main, colls, "alone", CollaborationWeights(0.0, [1.0]),
                      eta, horizon, x0)
    base = RunConfig(main, colls, "wga", CollaborationWeights(1e-3, [1.0]),
                     eta, horizon, x0)
    curves = _run_curves([("alone", "alone", "alone", alone)]
                         + _swept(base, "zeta", ZETAS), seeds)
    return _write_figure(out_dir, "fig4", "WGA under increasing zeta", curves,
                         ["zeta", "plateau_mean", "plateau_se"], _plateaus(curves),
                         csv_stride)


def fig5(out_dir: str, ns=(1, 10, 100), horizon: int = DEFAULT_T,
         seeds=DEFAULT_SEEDS, csv_stride: int = CSV_STRIDE) -> FigureResult:
    """BC as N grows, alpha = N/(N+1): the benefit saturates quickly."""
    main, colls = collaborative_pair(a0=0.5, a1=1.5, n=ns[0])
    base = RunConfig(main, colls, "bc",
                     CollaborationWeights(0.5, [1.0], beta=1e-4),
                     5e-4, horizon, 10.0, c0_policy="zero")
    curves = _run_curves(_swept(base, "N", ns, "n_over_n_plus_1"), seeds)
    return _write_figure(out_dir, "fig5", "BC under increasing N", curves,
                         ["N", "plateau_mean", "plateau_se"], _plateaus(curves),
                         csv_stride)


def gainfactor(out_dir: str) -> FigureResult:
    """Heatmap of the collaborative speedup 1/(1 - alpha_opt) over N and
    r = L sigma_0^2 / (mu T zeta^2), evaluated as one array."""
    # The rounded logspace is non-decreasing, so dropping each repeat of
    # its predecessor leaves the distinct values in order.
    n_grid = np.round(np.logspace(0, 2, 41)).astype(int)
    n_grid = n_grid[np.diff(n_grid, prepend=0) > 0]
    ratio_grid = np.logspace(-3, 3, 49)
    surface = bounds.gainfactor_surface(n_grid, ratio_grid)
    write_csv(os.path.join(out_dir, "gainfactor.csv"),
              ["ratio"] + [f"N{int(n)}" for n in n_grid], [ratio_grid, *surface.T])
    return FigureResult(curves={"n_grid": n_grid, "ratio_grid": ratio_grid,
                                "surface": surface})


def sublinear(out_dir: str) -> FigureResult:
    """Variance-floor speedup of WGA vs N = 1..50 for several m, at zeta = 0.

    Speedup is the alone-to-collaborative ratio of the PL variance term,
    sigma_0^2 (1 - alpha^2 m)^2 / sigma_tilde^2(alpha) at the optimal
    alpha, with every agent's noise variance sigma_0^2 = 1.  The m = 0
    curve uses the closed form and equals N + 1 exactly.  Each curve is
    one array expression, and the m > 0 curves share one search.
    """
    ms = (0.0, 0.5, 1.0, 2.0, 4.0)
    ns = np.arange(1, 51)
    positive_m = np.array(ms[1:])[:, None]
    alpha = alpha_opt_wga_general(positive_m, 0.0, 1.0, 1.0, 1.0, 1.0, 1000, ns)
    guard, st = wga_pl_terms(alpha, positive_m, 1.0, 1.0, ns)
    speeds = [speedup_factor(alpha_opt_wga_m0(ns, 1.0, 1.0, 0.0, 1.0, 1)),
              *float_sq(guard) / st]
    out = FigureResult(curves=dict(zip(ms, speeds)))
    write_csv(os.path.join(out_dir, "sublinear.csv"),
              ["N"] + [f"m{m:g}" for m in ms], [ns, *speeds])
    out.summary = [(m, float(out.curves[m][-1])) for m in ms]
    return out
