import dataclasses

import numpy as np
import pytest

from cosgd.aggregators import CollaborationWeights
from cosgd.bounds import (BoundInputs, bound_bc, bound_oracle,
                          bound_wga_nonconvex, bound_wga_pl,
                          bound_wga_pl_decreasing, gainfactor_surface)
from cosgd.objective import QuadraticTask
from cosgd.schedules import (decreasing_pl_start_index, eta_max, eta_wga_nonconvex,
                             schedule_inputs, sigma_tilde_sq, wga_pl_terms)
from cosgd.simulator import (DecreasingPlSchedule, RunConfig, expected_test_loss,
                             mean_fixed_point, run_replicated)


def inputs(alpha=0.5, a1=2.0, x1star=2.0, sigma0=1.0, sigma1=1.0,
           T=100, x0=3.0, n=1):
    main = QuadraticTask(1.0, 0.0, noise_std=sigma0)
    colls = [QuadraticTask(a1, x1star, noise_std=sigma1) for _ in range(n)]
    w = CollaborationWeights(alpha, [1.0 / n] * n)
    return schedule_inputs(main, colls, w, T, x0)


class TestBoundInputs:
    def test_validation(self):
        s = inputs()
        with pytest.raises(ValueError):
            BoundInputs(s, eta=0.0)
        with pytest.raises(ValueError):
            BoundInputs(s, eta=0.1, e0=-1.0)
        with pytest.raises(ValueError):
            BoundInputs(s, eta=0.1, c=3)


class TestWgaNonconvex:
    def test_bias_floor_at_large_horizon(self):
        # T -> inf leaves c alpha^2 zeta^2 / (2 (1 - alpha^2 m));
        # here zeta^2 = 16, alpha = 0.5, m = 1, c = 2 -> 16/3.
        s = inputs(T=1)
        s = dataclasses.replace(s, horizon=10 ** 16)
        b = BoundInputs(s, eta=0.1)
        assert bound_wga_nonconvex(b) == pytest.approx(16.0 / 3.0, rel=1e-6)

    def test_monotone_in_alpha_with_bias(self):
        vals = [bound_wga_nonconvex(BoundInputs(
            dataclasses.replace(inputs(alpha=a), horizon=10 ** 12), eta=0.1))
            for a in (0.1, 0.3, 0.5, 0.7)]
        assert vals == sorted(vals)

    def test_alpha_guard_enforced(self):
        s = inputs(alpha=0.99)  # m = 1 requires alpha < 1
        s = dataclasses.replace(
            s, sim=dataclasses.replace(s.sim, grad_scale_mismatch=4.0))
        with pytest.raises(ValueError):
            bound_wga_nonconvex(BoundInputs(s, eta=0.1))


class TestWgaPl:
    def test_worked_value_alpha_zero(self):
        # alpha = 0: rho = 1 - eta, floor = 2 L eta sigma0^2 / 4 with L = 1
        s = inputs(alpha=0.0, T=3)
        b = BoundInputs(s, eta=0.1)
        expected = 0.9 ** 3 * 4.5 + 2.0 * (1.0 * 0.1 * 1.0) / 4.0
        assert bound_wga_pl(b) == pytest.approx(expected)

    def test_pure_geometric_when_noiseless(self):
        s = inputs(alpha=0.0, sigma0=0.0, sigma1=0.0, T=50)
        b = BoundInputs(s, eta=0.2)
        assert bound_wga_pl(b) == pytest.approx(0.8 ** 50 * 4.5)

    def test_rejects_large_eta(self):
        s = inputs()
        with pytest.raises(ValueError):
            bound_wga_pl(BoundInputs(s, eta=2.0 * eta_max(s)))

    def test_floor_grows_with_zeta(self):
        lo = bound_wga_pl(BoundInputs(inputs(x1star=1.0, T=10 ** 6), eta=0.1))
        hi = bound_wga_pl(BoundInputs(inputs(x1star=4.0, T=10 ** 6), eta=0.1))
        assert hi > lo


class TestWgaPlDecreasing:
    def test_worked_value(self):
        # alpha = 0, c = 2, mu = 1, L = 1, sigma~^2 = 1, T = 100, t0 = 0:
        # 0 + 4*1*1/(2*100) + 0 = 0.02
        s = inputs(alpha=0.0, T=100)
        assert bound_wga_pl_decreasing(BoundInputs(s, eta=0.1), t0=0) \
            == pytest.approx(0.02)

    def test_transient_term(self):
        s = inputs(alpha=0.0, T=100)
        b = BoundInputs(s, eta=0.1)
        base = bound_wga_pl_decreasing(b, t0=0)
        with_t0 = bound_wga_pl_decreasing(b, t0=10, f_t0=2.0)
        assert with_t0 == pytest.approx(base + 100 * 2.0 / 100 ** 2)

    def test_vanishes_with_horizon_when_unbiased(self):
        small = bound_wga_pl_decreasing(
            BoundInputs(inputs(alpha=0.0, T=10 ** 9), eta=0.1), t0=0)
        assert small < 1e-8

    @pytest.mark.parametrize("instance", range(4))
    def test_c2_dominates_scaled_noise_runs(self, instance):
        """`DecreasingPlSchedule` and the bound use c = 2, where the
        analysis of scaled noise (M > 0) uses c = 4.  On the d = 16,
        4-collaborator scaled-noise instances (M from 0.85 to 1.58; the
        benchmark's `nonlinear` task for workload seeds 0-3), the c = 2
        bound still exceeds the measured 20-seed final gap plus 3 SE by
        more than 2x (3.0x to 14.1x measured)."""
        rng = np.random.default_rng(instance)
        d, T = 16, 5000
        a0 = rng.uniform(0.5, 2.0, d)
        x_star = rng.normal(0.0, 1.0, d)
        main = QuadraticTask(a0, x_star, noise_std=1.0, noise_scale=0.5)
        colls = [QuadraticTask(a0 * rng.uniform(0.8, 1.25, d),
                               x_star + rng.normal(0.0, 0.5, d),
                               noise_std=float(rng.uniform(0.5, 2.0)),
                               noise_scale=float(rng.uniform(0.1, 1.0)))
                 for _ in range(4)]
        w = CollaborationWeights(0.5, list(rng.dirichlet(np.ones(4))))
        x0 = np.full(d, 3.0)
        s = schedule_inputs(main, colls, w, T, x0)
        assert s.sim.noise_scale_cap > 0.8
        res = run_replicated(RunConfig(main, colls, "wga", w, DecreasingPlSchedule(s),
                                       T, x0), range(instance * 1000, instance * 1000 + 20))
        bound = bound_wga_pl_decreasing(BoundInputs(s, eta=eta_max(s)),
                                        t0=decreasing_pl_start_index(s))
        assert bound > 2.0 * (res.final_gap_mean + 3.0 * res.final_gap_se)


class TestOracle:
    def test_matches_wga_pl_at_alpha_zero(self):
        s = inputs(alpha=0.0)
        b = BoundInputs(s, eta=0.1)
        assert bound_oracle(b) == pytest.approx(bound_wga_pl(b))

    def test_sigma_tilde_includes_oracle_noise(self):
        s = dataclasses.replace(inputs(alpha=0.5, n=4), oracle_var=2.0)
        # (1-a)^2 sigma0^2 + a^2 (sigma_a^2 + v^2/N), sigma_a^2 = 4*(1/16) = 1/4,
        # in the floor c L eta sigma_tilde^2 / (4 mu), with L = mu = 1.
        sigma_tilde_sq = 0.25 * 1.0 + 0.25 * (0.25 + 0.5)
        rho = 1.0 - 2.0 * 0.1 / 2
        assert bound_oracle(BoundInputs(s, eta=0.1)) == pytest.approx(
            rho ** s.horizon * s.f0_gap + 2 * 0.1 * sigma_tilde_sq / 4.0)

    def test_no_bias_floor(self):
        # unlike WGA, a large zeta does not move the oracle bound
        lo = bound_oracle(BoundInputs(inputs(x1star=1.0, T=10 ** 6), eta=0.1))
        hi = bound_oracle(BoundInputs(inputs(x1star=8.0, T=10 ** 6), eta=0.1))
        assert hi == pytest.approx(lo)


class TestBc:
    def test_reduces_without_drift_or_history(self):
        # delta = 0, E0 = 0: F0/(eta T) + L sigma^2(alpha) eta / 2
        s = inputs(alpha=0.5, a1=1.0, x1star=2.0, T=10)
        b = BoundInputs(s, eta=0.1)
        assert bound_bc(b) == pytest.approx(4.5 / 1.0 + 1.0 * 0.5 * 0.1 / 2.0)

    def test_infinite_without_ema_averaging(self):
        s = inputs(T=10)
        b = BoundInputs(s, eta=0.1, beta=0.0, e0=1.0)
        assert bound_bc(b) == float("inf")

    def test_monotone_in_delta_e0_and_noise(self):
        def val(**kw):
            s = inputs(T=1000, **{k: v for k, v in kw.items()
                                  if k in ("a1", "sigma0", "sigma1")})
            return bound_bc(BoundInputs(s, eta=1e-3, beta=0.1,
                                        e0=kw.get("e0", 0.0)))
        assert val(a1=3.0) > val(a1=2.0)          # larger delta
        assert val(e0=5.0) > val(e0=1.0) > val()  # worse initial estimate
        assert val(sigma0=2.0) > val()            # own noise
        assert val(sigma1=2.0) > val()            # collaborator noise

    def test_step_size_caps(self):
        s = inputs(T=10)
        with pytest.raises(ValueError):
            bound_bc(BoundInputs(s, eta=2.0))  # > 1/L
        # 1/(6 alpha^2 delta^2) = 1/1.5 with alpha = 0.5, delta = 1... still
        # below 1/L = 0.5, so tighten delta instead:
        s5 = inputs(a1=6.0, x1star=2.0, T=10)  # delta = 5
        with pytest.raises(ValueError):
            bound_bc(BoundInputs(s5, eta=0.1))  # > 1/(6*0.25*25) = 1/37.5


class TestGainfactorSurface:
    def test_shape_and_limits(self):
        ns = [1, 10, 100]
        ratios = [1e-6, 1.0, 1e9]
        out = gainfactor_surface(ns, ratios)
        assert out.shape == (3, 3)
        # noise-dominated regime: alpha -> N/(N+1), speedup -> N+1
        np.testing.assert_allclose(out[2], [2.0, 11.0, 101.0], rtol=1e-6)
        # bias-dominated regime: alpha -> 0, no speedup
        np.testing.assert_allclose(out[0], 1.0, atol=1e-4)

    def test_monotone_in_both_axes(self):
        out = gainfactor_surface([1, 4, 16, 64], np.logspace(-3, 3, 13))
        assert np.all(np.diff(out, axis=0) >= 0)
        assert np.all(np.diff(out, axis=1) >= 0)

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError):
            gainfactor_surface([1], [0.0])


class TestEmpiricalDominance:
    def test_wga_nonconvex_bound_holds(self):
        main = QuadraticTask(1.0, 0.0, noise_std=1.0)
        coll = QuadraticTask(1.0, 1.0, noise_std=1.0)
        w = CollaborationWeights(0.5, [1.0])
        T, x0 = 2000, 3.0
        s = schedule_inputs(main, [coll], w, T, x0)
        eta = eta_wga_nonconvex(s)
        cfg = RunConfig(main, [coll], "wga", w, eta, T, x0)
        res = run_replicated(cfg, range(20))
        bound = bound_wga_nonconvex(BoundInputs(s, eta=eta))
        assert res.avg_grad_sq_mean <= bound


class TestSigmaTildeOneNumber:
    """sigma_tilde^2 = (1-alpha)^2 sigma_0^2 + alpha^2 sigma_a^2 is one
    number wherever it enters: the same bits, not merely close ones."""

    @staticmethod
    def draws(n, seed):
        """alpha, sigma_0^2, sigma_1^2, N and v^2, drawn n times."""
        rng = np.random.default_rng(seed)
        return zip(rng.random(n), rng.uniform(0.0, 10.0, n),
                   rng.uniform(0.0, 10.0, n), rng.integers(1, 51, n).tolist(),
                   rng.uniform(0.0, 10.0, n))

    def test_wga_pl_terms_and_oracle_floor(self):
        s = inputs(T=50)
        for alpha, s0, s1, n, v in self.draws(2000, 0):
            sa = dataclasses.replace(s, alpha=alpha, sigma0_sq=s0,
                                     sigma_a_sq=s1 / n, f0_gap=0.0)
            assert wga_pl_terms(alpha, 0.5, s0, s1, n)[1] == sigma_tilde_sq(sa)
            # With F_0 = 0 the oracle bound is its floor; here L = mu = 1.
            with_v = dataclasses.replace(sa, oracle_var=v, n_collaborators=n)
            floor_st = sigma_tilde_sq(dataclasses.replace(
                sa, sigma_a_sq=sa.sigma_a_sq + v / n))
            assert bound_oracle(BoundInputs(with_v, eta=0.1)) == (
                2 * 1.0 * 0.1 * floor_st / (4.0 * 1.0))

    def test_expected_test_loss(self):
        # Started at the mean's fixed point, E[loss_1] = 1/2 a_0
        # ((x_bar - x_0*)^2 + eta^2 sigma_tilde^2).
        for alpha, s0, s1, n, _ in self.draws(200, 1):
            main = QuadraticTask(1.5, 0.0, noise_std=np.sqrt(s0))
            colls = [QuadraticTask(2.0, 1.0, noise_std=np.sqrt(s1))] * n
            w = CollaborationWeights(alpha, [1.0 / n] * n)
            cfg = RunConfig(main, colls, "wga", w, 0.05, 3, 0.0)
            cfg = dataclasses.replace(cfg, x0=mean_fixed_point(cfg))
            st = sigma_tilde_sq(schedule_inputs(main, colls, w, 3, cfg.x0))
            dev = cfg.x0 - main.optimum
            assert expected_test_loss(cfg)[1] == 0.5 * np.sum(
                main.curvature * (dev ** 2 + 0.05 ** 2 * st * 1.0))
