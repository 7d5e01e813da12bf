"""Reproduction of the noisy-quadratic experiments and speedup charts.

Each function builds its default configuration, runs the simulations,
writes per-curve CSVs (plus a small gnuplot script) to `out_dir`, and
returns the computed results so tests and callers can inspect them
without re-reading files.

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

from .aggregators import CollaborationWeights
from .csvio import write_csv
from .objective import QuadraticTask
from .schedules import (alpha_opt_wga_general, alpha_opt_wga_m0, speedup_factor,
                        wga_pl_terms)
from .simulator import RunConfig, RunResult, run_replicated, sweep

FIGURES = ("fig2", "fig3", "fig4", "fig5", "gainfactor", "sublinear")

DEFAULT_SEEDS = tuple(range(20))
DEFAULT_T = 200_000
ETA_GRID = (1e-5, 1e-4, 1e-3, 1e-2)


def collaborative_pair(a0: float = 1.0, x0_star: float = 0.0, a1: float = 2.0,
                       zeta: float = 4.0, sigma: float = 10.0, n: int = 10):
    """Main task plus the averaged collaborator for given (zeta, sigma, N)."""
    if not (n >= 1 and a1 > 0):
        raise ValueError(f"need N >= 1 and a1 > 0, got N={n}, a1={a1}")
    main = QuadraticTask(curvature=a0, optimum=x0_star, noise_std=sigma)
    coll = QuadraticTask(curvature=a1, optimum=x0_star + zeta / a1,
                         noise_std=sigma / math.sqrt(n))
    return main, [coll]


def time_to_plateau(mean_trace: np.ndarray, plateau: float,
                    block: int = 1000, factor: float = 10.0):
    """First step at which the block-averaged trace drops to
    `factor * plateau`; None if it never does."""
    if plateau <= 0:
        return 0
    usable = (len(mean_trace) // block) * block
    blocks = mean_trace[:usable].reshape(-1, block).mean(axis=1)
    hit = np.nonzero(blocks <= factor * plateau)[0]
    return int(hit[0] * block) if hit.size else None


def _write_trace(path: str, result: RunResult, stride: int) -> None:
    steps = np.arange(0, len(result.mean_test_loss), stride)
    write_csv(path, ["step", "test_loss", "grad_norm_sq"],
              ((int(t), result.mean_test_loss[t], result.mean_grad_norm_sq[t])
               for t in steps))


def _write_gnuplot(out_dir: str, name: str, files, title: str) -> None:
    lines = [f"set title '{title}'", "set logscale y",
             "set xlabel 'step'", "set ylabel 'test loss'", "set key right top"]
    plot = ", ".join(f"'{os.path.basename(f)}' using 1:2 with lines title '{lbl}'"
                     for f, lbl in files)
    lines.append("plot " + plot)
    path = os.path.join(out_dir, f"{name}.gp")
    os.makedirs(out_dir, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


@dataclass
class FigureResult:
    """Curves plus the per-curve summary rows written to the summary CSV."""

    curves: dict = field(default_factory=dict)
    summary: list = field(default_factory=list)
    chosen: dict = field(default_factory=dict)


def _grid_search(base: RunConfig, seeds, workers: int, grid=ETA_GRID):
    """Pick the step size with the lowest mean plateau loss; the first
    grid value wins ties."""
    best = None
    for eta, res in sweep(base, "eta", grid, seeds, workers=workers):
        if best is None or res.plateau_mean < best[1].plateau_mean:
            best = (eta, res)
    return best


def fig2(out_dir: str, horizon: int = DEFAULT_T, seeds=DEFAULT_SEEDS,
         x0: float = 1.0, zeta: float = 4.0, sigma: float = 10.0,
         n: int = 10, bc_eta: float = 1e-4, bc_beta: float = 1e-4,
         csv_stride: int = 10, workers: int = 1) -> FigureResult:
    """Alone vs WGA vs BC on the default instance.

    Step sizes for Alone and WGA are tuned over a log grid; BC uses a
    fixed, untuned step size.  All chosen values land in the summary CSV.
    """
    main, colls = collaborative_pair(zeta=zeta, sigma=sigma, n=n)
    alpha = n / (n + 1.0)
    out = FigureResult()

    alone = RunConfig(main, colls, "alone", CollaborationWeights(0.0, [1.0]),
                      ETA_GRID[0], horizon, x0)
    wga = RunConfig(main, colls, "wga", CollaborationWeights(alpha, [1.0]),
                    ETA_GRID[0], horizon, x0)
    eta_alone, res_alone = _grid_search(alone, seeds, workers)
    eta_wga, res_wga = _grid_search(wga, seeds, workers)
    bc = RunConfig(main, colls, "bc",
                   CollaborationWeights(alpha, [1.0], beta=bc_beta),
                   bc_eta, horizon, x0, c0_policy="zero")
    res_bc = run_replicated(bc, seeds, workers=workers)

    out.curves = {"alone": res_alone, "wga": res_wga, "bc": res_bc}
    out.chosen = {"eta_alone": eta_alone, "eta_wga": eta_wga,
                  "eta_bc": bc_eta, "beta_bc": bc_beta, "alpha": alpha}
    files = []
    for name, res in out.curves.items():
        path = os.path.join(out_dir, f"fig2_{name}.csv")
        _write_trace(path, res, csv_stride)
        files.append((path, name))
    eta_of = {"alone": eta_alone, "wga": eta_wga, "bc": bc_eta}
    out.summary = [(name, eta_of[name], res.plateau_mean, res.plateau_se)
                   for name, res in out.curves.items()]
    write_csv(os.path.join(out_dir, "fig2_summary.csv"),
              ["method", "eta", "plateau_mean", "plateau_se"], out.summary)
    _write_gnuplot(out_dir, "fig2", files, "alone vs WGA vs BC")
    return out


def fig3(out_dir: str, zetas=(1.0, 4.0, 16.0, 64.0), horizon: int = DEFAULT_T,
         seeds=DEFAULT_SEEDS, x0: float = 10.0, sigma: float = 10.0,
         n: int = 10, eta: float = 1e-4, beta: float = 1e-4,
         csv_stride: int = 10, workers: int = 1) -> FigureResult:
    """BC for several bias magnitudes zeta: same plateau, slower start."""
    main, colls = collaborative_pair(sigma=sigma, n=n)
    alpha = n / (n + 1.0)
    base = RunConfig(main, colls, "bc",
                     CollaborationWeights(alpha, [1.0], beta=beta),
                     eta, horizon, x0, c0_policy="zero")
    out = FigureResult()
    files = []
    for zeta, res in sweep(base, "zeta", zetas, seeds, workers=workers):
        out.curves[zeta] = res
        path = os.path.join(out_dir, f"fig3_zeta{zeta:g}.csv")
        _write_trace(path, res, csv_stride)
        files.append((path, f"zeta={zeta:g}"))
        out.summary.append((zeta, res.plateau_mean, res.plateau_se,
                            time_to_plateau(res.mean_test_loss, res.plateau_mean)))
    write_csv(os.path.join(out_dir, "fig3_summary.csv"),
              ["zeta", "plateau_mean", "plateau_se", "time_to_plateau"],
              [(z, pm, ps, -1 if tp is None else tp)
               for z, pm, ps, tp in out.summary])
    _write_gnuplot(out_dir, "fig3", files, "BC under increasing zeta")
    return out


def fig4(out_dir: str, zetas=(1.0, 4.0, 16.0, 64.0), horizon: int = DEFAULT_T,
         seeds=DEFAULT_SEEDS, x0: float = 10.0, sigma: float = 10.0,
         n: int = 10, eta: float = 5e-4, alpha: float = 1e-3,
         csv_stride: int = 10, workers: int = 1) -> FigureResult:
    """WGA for several zeta, plus the Alone baseline: the plateau grows
    with the bias."""
    main, colls = collaborative_pair(sigma=sigma, n=n)
    base = RunConfig(main, colls, "wga", CollaborationWeights(alpha, [1.0]),
                     eta, horizon, x0)
    out = FigureResult()
    files = []
    res_alone = run_replicated(
        RunConfig(main, colls, "alone", CollaborationWeights(0.0, [1.0]),
                  eta, horizon, x0),
        seeds, workers=workers)
    out.curves["alone"] = res_alone
    alone_path = os.path.join(out_dir, "fig4_alone.csv")
    _write_trace(alone_path, res_alone, csv_stride)
    files.append((alone_path, "alone"))
    out.summary.append(("alone", res_alone.plateau_mean, res_alone.plateau_se))
    for zeta, res in sweep(base, "zeta", zetas, seeds, workers=workers):
        out.curves[zeta] = res
        path = os.path.join(out_dir, f"fig4_zeta{zeta:g}.csv")
        _write_trace(path, res, csv_stride)
        files.append((path, f"zeta={zeta:g}"))
        out.summary.append((zeta, res.plateau_mean, res.plateau_se))
    write_csv(os.path.join(out_dir, "fig4_summary.csv"),
              ["zeta", "plateau_mean", "plateau_se"], out.summary)
    _write_gnuplot(out_dir, "fig4", files, "WGA under increasing zeta")
    return out


def fig5(out_dir: str, ns=(1, 10, 100), horizon: int = DEFAULT_T,
         seeds=DEFAULT_SEEDS, x0: float = 10.0, sigma: float = 10.0,
         a0: float = 0.5, a1: float = 1.5, zeta: float = 4.0,
         eta: float = 5e-4, beta: float = 1e-4, csv_stride: int = 10,
         workers: int = 1) -> FigureResult:
    """BC as N grows, alpha = N/(N+1): the benefit saturates quickly."""
    main, colls = collaborative_pair(a0=a0, a1=a1, zeta=zeta, sigma=sigma, n=ns[0])
    base = RunConfig(main, colls, "bc",
                     CollaborationWeights(0.5, [1.0], beta=beta),
                     eta, horizon, x0, c0_policy="zero")
    out = FigureResult()
    files = []
    for n, res in sweep(base, "N", ns, seeds, workers=workers,
                        alpha_rule="n_over_n_plus_1"):
        out.curves[n] = res
        path = os.path.join(out_dir, f"fig5_N{n}.csv")
        _write_trace(path, res, csv_stride)
        files.append((path, f"N={n}"))
        out.summary.append((n, res.plateau_mean, res.plateau_se))
    write_csv(os.path.join(out_dir, "fig5_summary.csv"),
              ["N", "plateau_mean", "plateau_se"], out.summary)
    _write_gnuplot(out_dir, "fig5", files, "BC under increasing N")
    return out


def gainfactor(out_dir: str, n_grid=None, ratio_grid=None) -> FigureResult:
    """Heatmap of the collaborative speedup 1/(1 - alpha_opt) over N and
    r = L sigma_0^2 / (mu T zeta^2)."""
    from .bounds import gainfactor_surface
    if n_grid is None:
        n_grid = np.unique(np.round(np.logspace(0, 2, 41)).astype(int))
    if ratio_grid is None:
        ratio_grid = np.logspace(-3, 3, 49)
    surface = gainfactor_surface(n_grid, ratio_grid)
    out = FigureResult()
    out.curves = {"n_grid": np.asarray(n_grid), "ratio_grid": np.asarray(ratio_grid),
                  "surface": surface}
    rows = [[r] + list(surface[i]) for i, r in enumerate(ratio_grid)]
    write_csv(os.path.join(out_dir, "gainfactor.csv"),
              ["ratio"] + [f"N{int(n)}" for n in n_grid], rows)
    return out


def sublinear(out_dir: str, ms=(0.0, 0.5, 1.0, 2.0, 4.0), n_max: int = 50,
              sigma0_sq: float = 1.0) -> FigureResult:
    """Variance-floor speedup of WGA vs N for several m, at zeta = 0.

    Speedup is the alone-to-collaborative ratio of the PL variance term,
    sigma_0^2 (1 - alpha^2 m)^2 / sigma_tilde^2(alpha) at the optimal
    alpha.  The m = 0 curve uses the closed form and equals N + 1 exactly.
    """
    ns = np.arange(1, n_max + 1)
    out = FigureResult()
    for m in ms:
        speeds = np.empty(len(ns))
        for i, n in enumerate(ns):
            if m == 0:
                alpha = alpha_opt_wga_m0(int(n), 1.0, 1.0, 0.0, sigma0_sq, 1)
                speeds[i] = speedup_factor(alpha)
            else:
                alpha = alpha_opt_wga_general(m, 0.0, sigma0_sq, sigma0_sq,
                                              1.0, 1.0, 1000, int(n))
                guard, st = wga_pl_terms(alpha, m, sigma0_sq, sigma0_sq, int(n))
                speeds[i] = sigma0_sq * guard ** 2 / st
        out.curves[m] = speeds
    rows = [[int(n)] + [out.curves[m][i] for m in ms] for i, n in enumerate(ns)]
    write_csv(os.path.join(out_dir, "sublinear.csv"),
              ["N"] + [f"m{m:g}" for m in ms], rows)
    out.summary = [(m, float(out.curves[m][-1])) for m in ms]
    return out
