"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single `criterion NN ...: PASS/FAIL` line (visible
with -s; under plain pytest the test name serves the same purpose) and
asserts the property.  These are slower than the unit suites: together
they reproduce the headline experiments at full scale.
"""

import dataclasses
import filecmp
import math

import numpy as np
import pytest

from cosgd import figures
from cosgd.aggregators import CollaborationWeights
from cosgd.bounds import BoundInputs, bound_bc, bound_oracle, bound_wga_nonconvex, bound_wga_pl
from cosgd.cli import main as cli_main
from cosgd.objective import QuadraticTask, true_gradient
from cosgd.rng import agent_stream
from cosgd.schedules import (alpha_opt_oracle, beta_bc, eta_bc, eta_max,
                             eta_wga_nonconvex, schedule_inputs, tau_qp,
                             tau_qp_objective)
from cosgd.simulator import RunConfig, mean_dynamics_oracle, run, run_replicated
from reference_rules import mean_estimation_task, oracle_bc_combine, wga_combine

SEEDS = tuple(range(20))
T_FULL = 200_000


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {desc}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def combined_se(a, b) -> float:
    return math.sqrt(a ** 2 + b ** 2)


@pytest.mark.slow
def test_criterion_01_method_ordering_and_bc_hump(tmp_path):
    res = figures.fig2(str(tmp_path), horizon=T_FULL, seeds=SEEDS)
    alone, wga, bc = (res.curves[k] for k in ("alone", "wga", "bc"))
    sep_wga = (wga.plateau_mean - bc.plateau_mean) \
        / combined_se(wga.plateau_se, bc.plateau_se)
    sep_alone = (alone.plateau_mean - bc.plateau_mean) \
        / combined_se(alone.plateau_se, bc.plateau_se)
    early = bc.mean_test_loss[: T_FULL // 10]
    hump = float(early.max()) > float(bc.mean_test_loss[0])
    ok = sep_wga > 3 and sep_alone > 3 and hump
    report(1, "BC beats WGA and Alone, with initial BC loss hump", ok,
           f"separations {sep_wga:.1f} / {sep_alone:.1f} SE, hump={hump}")


@pytest.mark.slow
def test_criterion_02_bc_plateau_independent_of_bias(tmp_path):
    res = figures.fig3(str(tmp_path), zetas=(1.0, 4.0, 16.0),
                       horizon=T_FULL, seeds=SEEDS)
    plateaus = [res.curves[z].plateau_mean for z in (1.0, 4.0, 16.0)]
    spread = (max(plateaus) - min(plateaus)) / np.mean(plateaus)
    times = [figures.time_to_plateau(res.curves[z].mean_test_loss,
                                     res.curves[z].plateau_mean)
             for z in (1.0, 4.0, 16.0)]
    increasing = all(t is not None for t in times) and times == sorted(times) \
        and times[0] < times[2]
    ok = spread < 0.25 and increasing
    report(2, "BC plateau insensitive to zeta, ramp-up time grows", ok,
           f"spread {spread:.1%}, times {times}")


@pytest.mark.slow
def test_criterion_03_wga_bias_floor_scales_as_zeta_squared():
    # Noiseless runs isolate the bias floor exactly; the Alone baseline
    # then converges to zero and the excess plateau is the floor itself.
    zetas = (4.0, 16.0, 64.0)
    T = 60_000
    main, colls = figures.collaborative_pair(sigma=0.0, n=10)
    alone = RunConfig(main, colls, "alone", CollaborationWeights(0.0, [1.0]),
                      5e-4, T, 10.0)
    floor_alone = run(alone).test_loss[-T // 10:].mean()
    excesses = []
    for zeta in zetas:
        coll = dataclasses.replace(colls[0], optimum=zeta / colls[0].curvature)
        cfg = RunConfig(main, [coll], "wga",
                        CollaborationWeights(1e-3, [1.0]), 5e-4, T, 10.0)
        trace = run(cfg)
        excesses.append(trace.test_loss[-T // 10:].mean() - floor_alone)
        oracle_final = mean_dynamics_oracle(cfg)[-1]
        assert abs(trace.test_loss[-1]
                   - 0.5 * main.curvature[0] * (oracle_final[0] - main.optimum[0]) ** 2) \
            <= 1e-6
    lz, le = np.log(zetas), np.log(excesses)
    slope = np.polyfit(lz, le, 1)[0]
    ok = abs(slope - 2.0) <= 0.3
    report(3, "WGA excess plateau grows as zeta^2", ok, f"slope {slope:.4f}")


@pytest.mark.slow
def test_criterion_04_bc_gains_with_n_then_saturates(tmp_path):
    res = figures.fig5(str(tmp_path), ns=(1, 10, 100),
                       horizon=T_FULL, seeds=SEEDS)
    p1, p10, p100 = (res.curves[n] for n in (1, 10, 100))
    sep = (p1.plateau_mean - p10.plateau_mean) \
        / combined_se(p1.plateau_se, p10.plateau_se)
    saturation = abs(p100.plateau_mean - p10.plateau_mean) / p10.plateau_mean
    ok = sep > 3 and saturation < 0.30
    report(4, "more collaborators help, with diminishing returns", ok,
           f"N=1 vs N=10 separation {sep:.1f} SE, N=100 shift {saturation:.1%}")


def test_criterion_05_mean_estimation_bound_never_violated():
    rng = np.random.default_rng(42)
    T, n_seeds = 400, 200
    violations = 0
    worst = 0.0
    for _ in range(50):
        mu0 = rng.uniform(-1.0, 1.0)
        mu1 = mu0 + rng.uniform(-0.8, 0.8)
        sigma = rng.uniform(0.5, 2.0)
        alpha = rng.uniform(0.05, 0.5)
        x0 = mu0 + rng.uniform(1.5, 3.0)
        main = mean_estimation_task(mu0, sigma)
        coll = mean_estimation_task(mu1, sigma)
        w = CollaborationWeights(alpha, [1.0])
        eta = 0.5
        cfg = RunConfig(main, [coll], "wga", w, eta, T, x0)
        res = run_replicated(cfg, range(n_seeds))
        s = schedule_inputs(main, [coll], w, T, x0)
        bound = 2.0 * bound_wga_pl(BoundInputs(s, eta=eta))
        measured = 2.0 * res.final_gap_mean
        worst = max(worst, measured / bound)
        violations += measured > bound
    ok = violations == 0
    report(5, "mean-estimation error stays under its guarantee", ok,
           f"violations {violations}/50, worst measured/bound {worst:.3f}")


def test_criterion_06_oracle_bias_correction_linear_speedup():
    eta, T, sigma0 = 2e-3, 5000, 1.0
    gaps = {}
    for n in (1, 15):
        alpha = alpha_opt_oracle(n, v_sq=0.0, sigma0_sq=sigma0 ** 2)
        main = QuadraticTask(1.0, 0.0, noise_std=sigma0)
        coll = QuadraticTask(1.0, 4.0, noise_std=sigma0 / math.sqrt(n))
        cfg = RunConfig(main, [coll], "oracle_bc",
                        CollaborationWeights(alpha, [1.0]), eta, T, 1.0,
                        oracle_v=0.0)
        gaps[n] = run_replicated(cfg, range(200)).final_gap_mean
    ratio = gaps[1] / gaps[15]
    ok = 4.0 <= ratio <= 32.0
    report(6, "oracle correction turns N collaborators into ~(N+1)x less noise",
           ok, f"F_T ratio N=1 vs N=15: {ratio:.2f} (ideal 8)")


def _grid_min(sigmas_sq, zetas_sq, coeff):
    """Brute-force simplex minimum: 1e-2 grid, then 1e-4 refinement."""
    n = len(sigmas_sq)
    s = np.asarray(sigmas_sq)
    z = np.asarray(zetas_sq)

    def objective(tau):  # tau: (..., n)
        return coeff * (tau ** 2 * s).sum(-1) + (tau * z).sum(-1)

    def taus_around(center, half_width, step):
        axes = [np.arange(max(0.0, c - half_width),
                          min(1.0, c + half_width) + step / 2, step)
                for c in center[:-1]]
        grids = np.meshgrid(*axes, indexing="ij")
        head = np.stack([g.ravel() for g in grids], axis=-1)
        last = 1.0 - head.sum(-1)
        keep = last >= -1e-12
        return np.concatenate([head[keep], np.clip(last[keep], 0, 1)[:, None]],
                              axis=-1)

    coarse = taus_around(np.full(n, 0.5), 0.5, 1e-2)
    best = coarse[np.argmin(objective(coarse))]
    fine = taus_around(best, 1e-2, 1e-4)
    return float(objective(fine).min())


def test_criterion_07_tau_solver_matches_brute_force():
    rng = np.random.default_rng(7)
    worst_gap = -np.inf
    for i in range(100):
        n = 2 if i % 2 == 0 else 3
        sigmas_sq = rng.uniform(0.0, 4.0, n)
        zetas_sq = rng.uniform(0.0, 4.0, n)
        coeff = rng.uniform(0.0, 2.0)
        tau = tau_qp(sigmas_sq, zetas_sq, coeff)
        val = tau_qp_objective(tau, sigmas_sq, zetas_sq, coeff)
        ref = _grid_min(sigmas_sq, zetas_sq, coeff)
        worst_gap = max(worst_gap, val - ref)
        assert val <= ref + 1e-4
        # coeff -> 0 (long-horizon limit): all mass on the least-biased agent
        limit = tau_qp(sigmas_sq, zetas_sq, 0.0)
        assert limit[np.argmin(zetas_sq)] == pytest.approx(1.0)
    report(7, "mixture-weight solver matches brute-force grid search", True,
           f"worst objective gap {worst_gap:.2e}")


def test_criterion_08_combiner_estimator_laws():
    n_draws = 10 ** 5
    t0 = QuadraticTask(1.0, 0.0, noise_std=2.0)
    t1 = QuadraticTask(2.0, 2.0, noise_std=3.0)
    alpha, v, x = 0.6, 1.5, 1.0
    w = CollaborationWeights(alpha, [1.0])
    g0t, g1t = true_gradient(t0, x), true_gradient(t1, x)
    z0 = agent_stream(0, 0).standard_normal((n_draws, 1))
    z1 = agent_stream(0, 1).standard_normal((n_draws, 1))
    zo = agent_stream(0, 0, 1).standard_normal((n_draws, 1))
    s0 = g0t + z0 * t0.noise_std
    s1 = g1t + z1 * t1.noise_std

    ok, details = True, []
    wga = wga_combine(s0, [s1], w)[:, 0]
    target = ((1 - alpha) * g0t + alpha * g1t)[0]
    var = (1 - alpha) ** 2 * t0.noise_std ** 2 + alpha ** 2 * t1.noise_std ** 2
    ok &= abs(wga.mean() - target) < 3 * math.sqrt(var / n_draws)
    ok &= abs(wga.var() / var - 1.0) < 0.10
    details.append(f"wga var ratio {wga.var() / var:.3f}")

    bias = g1t - g0t
    orc = oracle_bc_combine(s0, [s1], w, bias, zo, v)[:, 0]
    var_o = var + alpha ** 2 * v ** 2
    ok &= abs(orc.mean() - g0t[0]) < 3 * math.sqrt(var_o / n_draws)
    ok &= abs(orc.var() / var_o - 1.0) < 0.10
    details.append(f"oracle var ratio {orc.var() / var_o:.3f}")
    report(8, "combiners are unbiased with the stated variances", ok,
           ", ".join(details))


def _a4_constants(s):
    """Inflate (m, zeta^2) to the pair actually satisfying the gradient
    similarity inequality at every point (the factor-2 split form), which
    is what the guarantees require."""
    sim = dataclasses.replace(
        s.sim,
        grad_scale_mismatch=2.0 * s.sim.grad_scale_mismatch,
        grad_offset_sq=2.0 * s.sim.grad_offset_sq,
        grad_offsets_sq=2.0 * np.asarray(s.sim.grad_offsets_sq))
    return dataclasses.replace(s, sim=sim)


def test_criterion_09_bounds_dominate_measurements():
    rng = np.random.default_rng(9)
    failures = []
    worst = 0.0

    def seeds_for(i):
        # disjoint seed blocks keep sampling error independent across
        # configs (a shared block correlates all measurements)
        return range(1000 * i, 1000 * i + 20)

    for i in range(20):  # weighted-average guarantee, gradient-norm form
        a0 = rng.uniform(0.5, 2.0)
        a1 = a0 * rng.uniform(0.8, 1.25)
        x1s = rng.uniform(-2.0, 2.0)
        alpha = rng.uniform(0.1, 0.6)
        main = QuadraticTask(a0, 0.0, noise_std=rng.uniform(0.5, 2.0))
        coll = QuadraticTask(a1, x1s, noise_std=rng.uniform(0.5, 2.0))
        w = CollaborationWeights(alpha, [1.0])
        T, x0 = 2000, rng.uniform(1.0, 3.0)
        s = _a4_constants(schedule_inputs(main, [coll], w, T, x0))
        eta = eta_wga_nonconvex(s)
        res = run_replicated(RunConfig(main, [coll], "wga", w, eta, T, x0),
                             seeds_for(i))
        bound = bound_wga_nonconvex(BoundInputs(s, eta=eta))
        worst = max(worst, res.avg_grad_sq_mean / bound)
        if res.avg_grad_sq_mean > bound:
            failures.append(("wga-nc", i))

    for i in range(20):  # oracle guarantee, function-gap form
        a = rng.uniform(0.5, 2.0)
        n = int(rng.integers(1, 9))
        sigma0 = rng.uniform(0.5, 2.0)
        alpha = rng.uniform(0.2, 0.8)
        v = rng.uniform(0.0, 1.0)
        main = QuadraticTask(a, 0.0, noise_std=sigma0)
        coll = QuadraticTask(a, rng.uniform(-3.0, 3.0),
                             noise_std=sigma0 / math.sqrt(n))
        w = CollaborationWeights(alpha, [1.0])
        T, x0 = 3000, rng.uniform(1.0, 3.0)
        eta = 0.2 / a
        s = schedule_inputs(main, [coll], w, T, x0, oracle_var=v ** 2)
        res = run_replicated(
            RunConfig(main, [coll], "oracle_bc", w, eta, T, x0, oracle_v=v),
            seeds_for(i))
        bound = bound_oracle(BoundInputs(s, eta=eta))
        worst = max(worst, res.final_gap_mean / bound)
        if res.final_gap_mean > bound:
            failures.append(("oracle", i))

    for i in range(20):  # bias-corrected guarantee, gradient-norm form
        a0 = rng.uniform(0.5, 2.0)
        a1 = a0 + rng.uniform(0.05, 0.5)
        x1s = rng.uniform(-2.0, 2.0)
        alpha = rng.uniform(0.1, 0.6)
        main = QuadraticTask(a0, 0.0, noise_std=rng.uniform(0.5, 2.0))
        coll = QuadraticTask(a1, x1s, noise_std=rng.uniform(0.5, 2.0))
        w0 = CollaborationWeights(alpha, [1.0])
        T, x0 = 2000, rng.uniform(1.0, 3.0)
        s = _a4_constants(schedule_inputs(main, [coll], w0, T, x0))
        eta = eta_bc(s)
        beta = beta_bc(s, eta)
        w = CollaborationWeights(alpha, [1.0], beta=beta)
        res = run_replicated(
            RunConfig(main, [coll], "bc", w, eta, T, x0, c0_policy="zero"),
            seeds_for(i))
        e0 = float((true_gradient(coll, x0) - true_gradient(main, x0))[0] ** 2)
        bound = bound_bc(BoundInputs(s, eta=eta, beta=beta, e0=e0))
        measured = res.avg_grad_sq_mean / 4.0
        worst = max(worst, measured / bound)
        if measured > bound:
            failures.append(("bc", i))

    ok = not failures
    report(9, "measured runs stay under every explicit-constant bound", ok,
           f"violations {failures or 0}, worst measured/bound {worst:.3f}")


def test_criterion_10_byte_identical_outputs(tmp_path):
    def assert_same_dir(d1, d2):
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d2.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
        assert not mismatch and not errors, (mismatch, errors)

    run_args = ["run", "--aggregator", "bc", "--alpha", "0.5", "--beta", "0.01",
                "--T", "2000", "--seeds", "0-7", "--csv-stride", "1"]
    dirs = [tmp_path / f"run{i}" for i in range(3)]
    assert cli_main(run_args + ["--out-dir", str(dirs[0]), "--workers", "1"]) == 0
    assert cli_main(run_args + ["--out-dir", str(dirs[1]), "--workers", "1"]) == 0
    with pytest.warns(FutureWarning, match="workers is deprecated"):
        assert cli_main(run_args + ["--out-dir", str(dirs[2]), "--workers", "4"]) == 0
    assert_same_dir(dirs[0], dirs[1])
    assert_same_dir(dirs[0], dirs[2])

    for name, extra in (("fig2", ["--T", "2000", "--seeds", "0-3"]),
                        ("gainfactor", []), ("sublinear", [])):
        d1, d2 = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert cli_main(["figure", name, "--out-dir", str(d1)] + extra) == 0
        assert cli_main(["figure", name, "--out-dir", str(d2)] + extra) == 0
        assert_same_dir(d1, d2)
    report(10, "runs and figures are byte-identical across reruns and thread counts",
           True)
