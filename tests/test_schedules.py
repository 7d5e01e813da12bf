import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosgd import schedules
from cosgd.aggregators import CollaborationWeights
from cosgd.objective import QuadraticTask, SimilarityParams
from cosgd.schedules import (ScheduleInputs, alpha_opt_oracle,
                             alpha_opt_wga_general, alpha_opt_wga_m0, beta_bc,
                             decreasing_pl_start_index, eta_bc,
                             eta_decreasing_pl, eta_max, eta_wga_nonconvex,
                             eta_wga_pl, oracle_sigma_tilde_sq_opt,
                             schedule_inputs, sigma_tilde_sq, speedup_factor,
                             tau_qp, tau_qp_objective, zeta_tilde_sq)


def sim(L=1.0, mu=1.0, m=0.0, zeta_sq=0.0, delta=0.0, cap=0.0):
    return SimilarityParams(smoothness=L, pl_constant=mu, grad_scale_mismatch=m,
                            grad_offset_sq=zeta_sq, grad_offsets_sq=[zeta_sq],
                            hessian_dissimilarity=delta, noise_scale_cap=cap)


def inputs(L=1.0, mu=1.0, m=0.0, zeta_sq=0.0, delta=0.0, cap=0.0, T=1000,
           F0=1.0, s0=1.0, sa=1.0, alpha=0.5, v_sq=0.0, g0=0.0, N=1):
    return ScheduleInputs(sim=sim(L, mu, m, zeta_sq, delta, cap), horizon=T,
                          f0_gap=F0, sigma0_sq=s0, sigma_a_sq=sa, alpha=alpha,
                          oracle_var=v_sq, grad0_sq=g0, n_collaborators=N)


class TestHelpers:
    def test_sigma_tilde(self):
        assert sigma_tilde_sq(inputs(s0=4.0, sa=9.0, alpha=0.5)) == pytest.approx(
            0.25 * 4 + 0.25 * 9)

    def test_zeta_tilde(self):
        v = zeta_tilde_sq(inputs(m=1.0, zeta_sq=3.0, g0=2.0))
        assert v == pytest.approx(2 * 2 * 2.0 + 2 * 3.0)

    def test_schedule_inputs_from_tasks(self):
        main = QuadraticTask(1.0, 0.0, noise_std=2.0)
        coll = QuadraticTask(2.0, 2.0, noise_std=3.0)
        w = CollaborationWeights(0.5, [1.0])
        si = schedule_inputs(main, [coll], w, 100, x0=3.0)
        assert si.f0_gap == pytest.approx(4.5)
        assert si.grad0_sq == pytest.approx(9.0)
        assert si.sigma0_sq == pytest.approx(4.0)
        assert si.sigma_a_sq == pytest.approx(9.0)
        assert si.sim.grad_offset_sq == pytest.approx(16.0)

    def test_sigma_a_sq_squares_tau_as_numpy_does(self):
        """sigma_a^2 = sum_k tau_k^2 sigma_k^2, bit for bit the same sum over
        numpy's array squares tau ** 2, which round tau_k * tau_k correctly
        (a scalar `**` calls the C library's pow, an ulp off on a few draws).
        The sigma_k are integers, so that their squares are exact."""
        rng = np.random.default_rng(2021)
        main = QuadraticTask(1.0, 0.0, noise_std=1.0)
        for K in range(1, 6):
            colls = [QuadraticTask(1.0, 0.0, noise_std=1.0 + k) for k in range(K)]
            sigma_sq = np.array([c.noise_std for c in colls]) ** 2
            for tau in rng.dirichlet(np.ones(K), size=1600):
                w = CollaborationWeights(0.5, tau)
                expected = float(sum(tau ** 2 * sigma_sq))
                assert schedule_inputs(main, colls, w, 100, x0=0.0).sigma_a_sq == expected


class TestEtaWgaNonconvex:
    def test_formula_value(self):
        i = inputs(L=1.0, F0=50.0, s0=100.0, sa=100.0, alpha=0.0, T=10 ** 6)
        assert eta_wga_nonconvex(i) == pytest.approx(1e-3)

    def test_noiseless_cap(self):
        assert eta_wga_nonconvex(inputs(s0=0.0, sa=0.0)) == 1.0

    def test_alpha_guard(self):
        with pytest.raises(ValueError):
            eta_wga_nonconvex(inputs(m=4.0, alpha=0.6))

    def test_noise_scale_cap_binds(self):
        i = inputs(cap=100.0, s0=0.0, sa=0.0, alpha=0.0)
        assert eta_wga_nonconvex(i) == pytest.approx(1.0 / 200.0)


class TestEtaWgaPl:
    def test_clamped_log_returns_zero(self):
        i = inputs(mu=1.0, L=1.0, F0=1e-9, s0=100.0, sa=100.0, T=10)
        assert eta_wga_pl(i) == 0.0

    def test_unit_log(self):
        T = 1000
        st_sq = sigma_tilde_sq(inputs(alpha=0.0, s0=2.0, sa=0.0))
        F0 = 3.0 * np.e * st_sq / (2.0 * T)
        i = inputs(mu=1.0, L=1.0, F0=F0, s0=2.0, sa=0.0, alpha=0.0, T=T)
        assert eta_wga_pl(i) == pytest.approx(1.0 / T)

    def test_at_most_inverse_smoothness(self):
        i = inputs(L=2.0, F0=1e12, T=10)
        assert eta_wga_pl(i) == pytest.approx(0.5)


class TestEtaDecreasingPl:
    def test_t0_value(self):
        i = inputs(mu=1.0, m=0.0, alpha=0.0)
        assert eta_decreasing_pl(0, i, c=2) == pytest.approx(min(eta_max(i), 1.0))

    def test_t9(self):
        i = inputs(mu=1.0, m=0.0, alpha=0.0, L=1.0)
        assert eta_decreasing_pl(9, i, c=2) == pytest.approx(19.0 / 100.0)

    def test_monotone_beyond_start(self):
        i = inputs(mu=2.0, L=4.0)
        t0 = decreasing_pl_start_index(i, c=2)
        vals = [eta_decreasing_pl(t, i, c=2) for t in range(t0, t0 + 50)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert eta_decreasing_pl(10 ** 6, i, c=2) < 1e-5


class TestBetaBc:
    def test_formula_value(self):
        i = inputs(delta=np.sqrt(0.1), s0=50.0, sa=50.0, g0=0.0, zeta_sq=0.0,
                   T=10 ** 9)
        assert beta_bc(i, eta=1e-3) == pytest.approx(1e-2, rel=1e-6)

    def test_delta_zero_warns(self):
        with pytest.warns(UserWarning):
            assert beta_bc(inputs(delta=0.0), eta=1e-3) == 0.0

    def test_huge_delta_clamps(self):
        assert beta_bc(inputs(delta=1e9), eta=0.5) == 1.0

    def test_monotone_in_delta_and_eta(self):
        vals_d = [beta_bc(inputs(delta=d, T=10 ** 9), 1e-4)
                  for d in (0.01, 0.1, 0.5)]
        assert vals_d == sorted(vals_d)
        vals_e = [beta_bc(inputs(delta=0.1, T=10 ** 9), e)
                  for e in (1e-5, 1e-4, 1e-3)]
        assert vals_e == sorted(vals_e)


class TestEtaBc:
    def test_delta_zero(self):
        i = inputs(delta=0.0, L=1.0, F0=2.0, s0=1.0, sa=1.0, alpha=0.5, T=100)
        st_sq = sigma_tilde_sq(i)
        assert eta_bc(i) == pytest.approx(min(1.0, np.sqrt(4.0 / (st_sq * 100))))

    def test_alpha_zero_single_agent(self):
        i = inputs(delta=5.0, alpha=0.0, s0=1.0, sa=0.0, F0=1.0, T=10 ** 6)
        assert eta_bc(i) == pytest.approx(np.sqrt(2.0 / 10 ** 6))

    def test_middle_term_binds(self):
        i = inputs(delta=1.0, alpha=1.0, s0=0.0, sa=0.0)
        assert eta_bc(i) == pytest.approx(1.0 / 6.0)

    def test_underflowing_cap_drops_out(self):
        # 6 alpha^2 delta^2 rounds to 0, so 1/(6 alpha^2 delta^2) is no cap.
        i = inputs(alpha=1e-200, delta=1e-200, L=1.0, F0=1.0, T=1000)
        sqrt_term = float(np.sqrt(2.0 * 1.0 / (1.0 * sigma_tilde_sq(i) * 1000)))
        assert eta_bc(i) == min(1.0, sqrt_term)


class TestAlphaOptWgaM0:
    def test_copies(self):
        for n in (1, 5, 50):
            a = alpha_opt_wga_m0(n, 1.0, 1.0, 0.0, 1.0, 100)
            assert 1 - a == pytest.approx(1.0 / (n + 1))

    def test_t_to_infinity(self):
        assert alpha_opt_wga_m0(10, 1.0, 1.0, 1.0, 1.0, 10 ** 12) < 1e-10

    def test_instance(self):
        assert alpha_opt_wga_m0(1, 1.0, 1.0, 1.0, 1.0, 1) == pytest.approx(1 / 3)

    def test_sigma_zero(self):
        assert alpha_opt_wga_m0(10, 1.0, 1.0, 1.0, 0.0, 100) == 0.0

    def test_broadcasts_over_n_and_zeta(self):
        ns, zetas = np.arange(1, 30), np.array([0.0, 0.3, 7.0])
        got = alpha_opt_wga_m0(ns, 1.5, 2.0, zetas[:, None], 0.7, 40)
        want = [[alpha_opt_wga_m0(int(n), 1.5, 2.0, float(z), 0.7, 40) for n in ns]
                for z in zetas]
        np.testing.assert_array_equal(got, want)
        with pytest.raises(ValueError, match="N must be >= 1"):
            alpha_opt_wga_m0(np.array([3, 0]), 1.0, 1.0, 1.0, 1.0, 1)

    @pytest.mark.parametrize("index,value,name", [
        (0, np.nan, "N"), (1, 0.0, "mu"), (1, -1.0, "mu"), (1, np.nan, "mu"),
        (2, 0.0, "L"), (2, -2.0, "L"), (3, -5.0, "zeta_sq"), (3, np.nan, "zeta_sq"),
        (4, -1.0, "sigma0_sq"), (4, np.nan, "sigma0_sq"), (5, -3, "T"), (5, 0, "T"),
        (5, np.nan, "T"),
    ])
    def test_rejects_invalid_inputs(self, index, value, name):
        args = [10, 1.0, 1.0, 1.0, 1.0, 100]
        args[index] = value
        with pytest.raises(ValueError, match=f"^{name} must be "):
            alpha_opt_wga_m0(*args)

    def test_infinite_zeta_has_no_weight(self):
        assert alpha_opt_wga_m0(10, 1.0, 1.0, np.inf, 1.0, 100) == 0.0

    def test_monotonicity(self):
        zs = [alpha_opt_wga_m0(5, 1.0, 1.0, z, 1.0, 100) for z in (0.0, 0.1, 1.0, 10.0)]
        assert zs == sorted(zs, reverse=True)
        ns = [alpha_opt_wga_m0(n, 1.0, 1.0, 0.5, 1.0, 100) for n in (1, 2, 10, 100)]
        assert ns == sorted(ns)


class TestAlphaOptOracle:
    def test_values(self):
        assert alpha_opt_oracle(1, 0.0, 1.0) == pytest.approx(0.5)
        assert alpha_opt_oracle(10, 1.0, 1.0) == pytest.approx(10 / 12)
        assert alpha_opt_oracle(10 ** 9, 0.0, 1.0) == pytest.approx(1.0, abs=1e-8)
        assert alpha_opt_oracle(5, 1.0, 0.0) == 0.0

    def test_sigma_tilde_at_opt(self):
        assert oracle_sigma_tilde_sq_opt(1, 1.0, 1.0) == pytest.approx(2.0 / 3.0)


class TestTauQp:
    def test_symmetry(self):
        tau = tau_qp([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], coeff=1.0)
        np.testing.assert_allclose(tau, [1 / 3] * 3, atol=1e-12)

    def test_coeff_zero_mass_on_argmin(self):
        tau = tau_qp([1.0, 1.0], [3.0, 1.0], coeff=0.0)
        np.testing.assert_allclose(tau, [0.0, 1.0])

    def test_coeff_zero_tie_split(self):
        tau = tau_qp([1.0, 2.0, 3.0], [1.0, 1.0, 5.0], coeff=0.0)
        np.testing.assert_allclose(tau, [0.5, 0.5, 0.0])

    def test_two_agents_zero_zeta(self):
        tau = tau_qp([1.0, 1.0], [0.0, 0.0], coeff=1.0)
        np.testing.assert_allclose(tau, [0.5, 0.5])

    def test_simplex_feasibility(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = rng.integers(1, 6)
            tau = tau_qp(rng.uniform(0, 4, n), rng.uniform(0, 4, n),
                         float(rng.uniform(0, 3)))
            assert np.all(tau >= 0)
            assert abs(tau.sum() - 1.0) < 1e-12

    def test_matches_grid_search(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            s = rng.uniform(0.1, 3.0, 2)
            z = rng.uniform(0.0, 3.0, 2)
            coeff = float(rng.uniform(0.01, 2.0))
            tau = tau_qp(s, z, coeff)
            grid = np.linspace(0, 1, 10 ** 4 + 1)
            objs = coeff * (grid ** 2 * s[0] + (1 - grid) ** 2 * s[1]) \
                + grid * z[0] + (1 - grid) * z[1]
            assert tau_qp_objective(tau, s, z, coeff) <= objs.min() + 1e-4

    @pytest.mark.parametrize("sigmas,zetas,coeff,expected", [
        # A quadratic part far below the precision of zeta^2 still takes
        # the whole mass.
        ([1e-181], [1.0], 1e-3, [1.0]),
        ([1e-320], [1.0], 1e-3, [1.0]),
        ([1e-320, 1.0], [1.0, 2.0], 1e-3, [1.0, 0.0]),
        # The linear coordinate takes what the tiny quadratic one leaves.
        ([0.0, 1e-181], [1.0, 1.0], 1e-3, [1.0, 0.0]),
        ([1e300, 1e300], [1e300, 0.0], 1e-3, [0.0, 1.0]),
    ])
    def test_extreme_magnitudes(self, sigmas, zetas, coeff, expected):
        tau = tau_qp(sigmas, zetas, coeff)
        np.testing.assert_allclose(tau, expected, atol=1e-12)
        assert tau.sum() == pytest.approx(1.0)

    def test_overflowing_quadratic_part(self):
        with pytest.raises(ValueError, match="overflows"):
            tau_qp([1e308], [1.0], 10.0)

    def test_mixed_zero_sigma(self):
        # One noiseless collaborator: it takes the leftover mass once the
        # water level reaches its zeta^2.
        tau = tau_qp([1.0, 0.0], [0.0, 0.5], coeff=1.0)
        assert tau[1] > 0
        obj = tau_qp_objective(tau, [1.0, 0.0], [0.0, 0.5], 1.0)
        grid = np.linspace(0, 1, 10 ** 5 + 1)
        objs = grid ** 2 * 1.0 + (1 - grid) * 0.5
        assert obj <= objs.min() + 1e-6


class TestSpeedupFactor:
    def test_values(self):
        assert speedup_factor(0.0) == 1.0
        assert speedup_factor(0.9) == pytest.approx(10.0)
        n = 7
        assert speedup_factor(n / (n + 1)) == pytest.approx(n + 1)

    def test_rejects_one(self):
        with pytest.raises(ValueError):
            speedup_factor(1.0)

    def test_array_checks_every_element(self):
        np.testing.assert_array_equal(speedup_factor(np.array([0.0, 0.5])), [1.0, 2.0])
        for bad in (1.0, np.nan, -0.5):
            with pytest.raises(ValueError, match="alpha_opt must lie"):
                speedup_factor(np.array([0.5, bad]))


class TestAlphaOptWgaGeneral:
    def test_matches_closed_form_m0(self):
        for n in (1, 3, 10):
            a_num = alpha_opt_wga_general(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 100, n)
            assert a_num == pytest.approx(n / (n + 1), abs=1e-6)

    def test_below_guard_for_positive_m(self):
        a = alpha_opt_wga_general(4.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1000, 10)
        assert a < 0.5  # 1/sqrt(4)

    def test_large_zeta_drives_alpha_to_zero(self):
        a = alpha_opt_wga_general(0.0, 1e12, 1.0, 1.0, 1.0, 1.0, 1000, 10)
        assert a < 1e-4

    def test_one_objective_call_per_iteration(self, monkeypatch):
        # Golden-section search shrinks [0, 1] by 1/phi per iteration, so
        # 1e-10 takes 48 iterations: about 50 calls if the surviving
        # interior point keeps its value, 96 if both are evaluated anew.
        # The objective makes one pl_guard call per evaluation.
        calls = []

        def counting(*args):
            calls.append(args)
            return guard(*args)

        guard = schedules.pl_guard
        monkeypatch.setattr(schedules, "pl_guard", counting)
        for m, n in ((0.0, 1), (0.0, 10), (4.0, 10), (0.25, 3)):
            calls.clear()
            alpha_opt_wga_general(m, 0.5, 1.0, 1.0, 1.0, 1.0, 1000, n)
            assert 48 <= len(calls) <= 55

    @staticmethod
    def scalar_search(m, zeta_sq, sigma0_sq, sigma1_sq, mu, L, T, N):
        """The search one element at a time, in Python floats: the
        reference the array search must equal bit for bit."""
        sigma_a_sq = sigma1_sq / N

        def objective(a):
            guard = 1.0 - a ** 2 * m
            st = (1.0 - a) ** 2 * sigma0_sq + a ** 2 * sigma_a_sq
            return L * st / (mu ** 2 * T * guard ** 2) + a * a * zeta_sq / (mu * guard)

        lo, hi = 0.0, min(1.0, 1.0 / math.sqrt(m)) if m > 0 else 1.0
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        c = hi - (hi - lo) / phi
        d = lo + (hi - lo) / phi
        fc, fd = objective(c), objective(d)
        while hi - lo > 1e-10:
            if fc < fd:
                hi, d, fd = d, c, fc
                c = hi - (hi - lo) / phi
                fc = objective(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + (hi - lo) / phi
                fd = objective(d)
        return (lo + hi) / 2.0

    def test_array_search_is_the_scalar_search(self):
        ms, zetas, ns = (0.0, 0.25, 1.0, 2.0, 4.0), (0.0, 0.5), np.arange(1, 51)
        got = alpha_opt_wga_general(np.array(ms)[:, None, None], np.array(zetas)[:, None],
                                    1.0, 1.0, 1.0, 1.0, 1000, ns)
        assert got.shape == (len(ms), len(zetas), len(ns))
        want = [[[self.scalar_search(m, z, 1.0, 1.0, 1.0, 1.0, 1000, int(n)) for n in ns]
                 for z in zetas] for m in ms]
        np.testing.assert_array_equal(got, want)

    def test_scalar_call_returns_a_float(self):
        args = (2.0, 0.5, 1.0, 3.0, 0.5, 2.0, 1000, 7)
        got = alpha_opt_wga_general(*args)
        assert type(got) is float and got == self.scalar_search(*args)

    def test_mixed_grid_matches_elementwise(self):
        # Elements that stop at different iterations (m > 1 narrows the
        # first interval) keep the bits of their own search.
        rng = np.random.default_rng(3)
        args = (rng.uniform(0, 5, 40), rng.uniform(0, 3, 40), rng.uniform(0, 4, 40),
                rng.uniform(0, 4, 40), rng.uniform(0.1, 2, 40), rng.uniform(1, 3, 40),
                rng.integers(1, 10 ** 5, 40), rng.integers(1, 100, 40))
        want = [self.scalar_search(*(a[i].item() for a in args)) for i in range(40)]
        np.testing.assert_array_equal(alpha_opt_wga_general(*args), want)

    @pytest.mark.parametrize("index,value,name", [
        (7, 0, "N"), (7, -3, "N"), (7, np.nan, "N"), (4, 0.0, "mu"), (4, -1.0, "mu"),
        (0, -1.0, "m"), (0, np.nan, "m"), (0, np.inf, "m"), (1, np.nan, "zeta_sq"),
        (1, -0.5, "zeta_sq"), (2, np.nan, "sigma0_sq"), (3, np.inf, "sigma1_sq"),
        (5, 0.0, "L"), (6, 0, "T"), (6, np.inf, "T"),
    ])
    def test_rejects_invalid_inputs(self, index, value, name):
        args = [0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1000, 10]
        args[index] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            alpha_opt_wga_general(*args)
        # One bad element of an array argument is enough.
        args[index] = np.array([args[index], [0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1000, 10][index]])
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            alpha_opt_wga_general(*args)

    def test_integer_beyond_the_float_range_is_rejected(self):
        with pytest.raises(ValueError, match="^T is beyond the float range"):
            alpha_opt_wga_general(0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 10 ** 400, 10)

    def test_rate_beyond_the_float_range_is_rejected(self):
        # mu^2 underflows to 0, so the rate divides by zero.
        with pytest.raises(ValueError, match="float range"):
            alpha_opt_wga_general(4.0, 1.0, 1.0, 1.0, 1e-200, 1.0, 10, 3)


class TestEtaCeilingProperty:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.5, 10), st.floats(0.01, 0.5), st.floats(0, 2),
           st.floats(0, 10), st.floats(0, 10), st.integers(1, 10 ** 6),
           st.floats(0, 100), st.floats(0, 0.6))
    def test_all_etas_below_inverse_L(self, L, mu_frac, m, s0, sa, T, F0, alpha):
        mu = L * mu_frac
        i = inputs(L=L, mu=mu, m=m, s0=s0, sa=sa, T=T, F0=F0, alpha=alpha)
        assert eta_wga_nonconvex(i) <= 1.0 / L + 1e-15
        assert eta_wga_pl(i) <= 1.0 / L + 1e-15
        assert eta_bc(i) <= 1.0 / L + 1e-15
        assert eta_decreasing_pl(10 ** 7, i) <= 1.0 / L + 1e-15

    def test_underflowing_variance_gives_the_cap(self):
        # L sigma_tilde^2 T rounds to 0 for a subnormal sigma_0^2.
        i = inputs(L=0.5, mu=0.25, s0=5e-324, sa=0.0, T=1, alpha=0.0)
        assert eta_wga_nonconvex(i) == eta_wga_pl(i) == eta_bc(i) == 2.0
