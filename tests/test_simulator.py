import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from cosgd import figures, simulator
from cosgd import rng as rng_mod
from cosgd.aggregators import (CollaborationWeights, bc_combine, bc_update,
                               oracle_bc_combine, wga_combine)
from cosgd.objective import QuadraticTask, eval_loss, sample_gradient, true_gradient
from cosgd.schedules import eta_max, schedule_inputs
from cosgd.simulator import (DecreasingPlSchedule, RunConfig, mean_dynamics_oracle,
                             mean_fixed_point, run, run_replicated, sweep,
                             sweep_config)


def batch_traces(cfgs, seeds) -> list:
    """Per config, one Trace per seed of one `_run_batch` call."""
    return [simulator._traces(rows) for rows in simulator._run_batch(cfgs, seeds)]


def make_cfg(aggregator="wga", alpha=0.5, beta=None, sigma0=1.0, sigma1=1.0,
             a1=2.0, x1star=2.0, eta=0.05, T=200, x0=5.0, seed=0, **kw):
    main = QuadraticTask(1.0, 0.0, noise_std=sigma0)
    coll = QuadraticTask(a1, x1star, noise_std=sigma1)
    w = CollaborationWeights(alpha, [1.0], beta=beta)
    return RunConfig(main, [coll], aggregator, w, eta, T, x0, seed=seed, **kw)


class TestRunBasics:
    def test_exact_step_to_optimum(self):
        cfg = make_cfg("alone", alpha=0.0, sigma0=0.0, sigma1=0.0, eta=1.0, T=3)
        tr = run(cfg)
        assert tr.test_loss[0] == pytest.approx(12.5)
        assert tr.test_loss[1] == 0.0
        assert tr.final_gap == 0.0

    def test_trace_lengths(self):
        tr = run(make_cfg(T=50))
        assert len(tr.test_loss) == 51
        assert len(tr.grad_norm_sq) == 51
        assert np.all(tr.test_loss >= 0)

    def test_determinism(self):
        cfg = make_cfg(aggregator="bc", beta=0.1, seed=3)
        t1, t2 = run(cfg), run(dataclasses.replace(cfg))
        np.testing.assert_array_equal(t1.test_loss, t2.test_loss)
        np.testing.assert_array_equal(t1.grad_norm_sq, t2.grad_norm_sq)

    def test_bc_requires_beta(self):
        with pytest.raises(ValueError):
            run(make_cfg("bc", beta=None))

    def test_iterate_snapshots(self):
        tr = run(make_cfg(T=20, iterate_stride=5))
        assert tr.iterates.shape == (5, 1)

    @pytest.mark.parametrize("key,value", [("iterate_stride", -1), ("iterate_stride", 0.5),
                                           ("oracle_v", np.inf), ("oracle_v", np.nan),
                                           ("horizon", 20.5), ("horizon", np.float64(20.0)),
                                           ("warm_start_samples", 2.5)])
    def test_rejected_before_the_kernel(self, key, value):
        with pytest.raises(ValueError, match=key):
            dataclasses.replace(make_cfg("oracle_bc"), **{key: value})

    def test_divergence_flagged_and_truncated(self):
        cfg = make_cfg("alone", alpha=0.0, a1=1.0, eta=2.5e12, sigma0=1.0, T=40)
        tr = run(cfg)
        assert tr.diverged
        assert tr.steps_completed < 40


class TestReferenceEquivalence:
    """The vectorized kernel reproduces, bit for bit, a plain loop built
    from sample_gradient and the aggregator operations."""

    def reference_c0(self, cfg):
        tasks = [cfg.main_task] + list(cfg.collaborators)
        w = cfg.weights
        wgens = [rng_mod.agent_stream(cfg.seed, a, rng_mod.WARMSTART_CONTEXT)
                 for a in range(len(tasks))]
        acc = np.zeros(cfg.main_task.dim)
        for _ in range(cfg.warm_start_samples):
            s = [sample_gradient(task, cfg.x0, g) for task, g in zip(tasks, wgens)]
            acc += sum(w.tau[k] * s[1 + k] for k in range(len(s) - 1)) - s[0]
        return acc / cfg.warm_start_samples

    def reference_run(self, cfg):
        tasks = [cfg.main_task] + list(cfg.collaborators)
        gens = [rng_mod.agent_stream(cfg.seed, a) for a in range(len(tasks))]
        ogen = rng_mod.agent_stream(cfg.seed, 0, rng_mod.ORACLE_CONTEXT)
        w = cfg.weights
        x = cfg.x0.copy()
        losses = [eval_loss(cfg.main_task, x)]
        etas = (cfg.step_size.values(cfg.horizon)
                if isinstance(cfg.step_size, DecreasingPlSchedule)
                else [cfg.step_size] * cfg.horizon)
        c = None  # first_bias: set from the first round's samples
        if cfg.c0_policy == "zero":
            c = np.zeros(cfg.main_task.dim)
        elif cfg.c0_policy == "warm_start":
            c = self.reference_c0(cfg)
        for t in range(cfg.horizon):
            samples = [sample_gradient(task, x, g) for task, g in zip(tasks, gens)]
            g0, gks = samples[0], samples[1:]
            if cfg.aggregator == "alone":
                g = g0
            elif cfg.aggregator == "wga":
                g = wga_combine(g0, gks, w)
            elif cfg.aggregator == "bc":
                if c is None:
                    gavg = sum(w.tau[k] * gks[k] for k in range(len(gks)))
                    c = gavg - g0
                g, b = bc_combine(g0, gks, w, c)
                c = bc_update(c, b, w.beta)
            else:
                bias = sum(w.tau[k] * true_gradient(tasks[1 + k], x)
                           for k in range(len(gks))) - true_gradient(tasks[0], x)
                g = oracle_bc_combine(g0, gks, w, bias,
                                      ogen.standard_normal(cfg.main_task.dim),
                                      cfg.oracle_v)
            x = x - etas[t] * g
            losses.append(eval_loss(cfg.main_task, x))
        return np.array(losses)

    @pytest.mark.parametrize("aggregator,kw", [
        ("alone", {}),
        ("wga", {}),
        ("bc", dict(beta=0.2)),
        ("bc", dict(beta=0.2, c0_policy="zero")),
        ("oracle_bc", dict(oracle_v=1.5)),
        ("bc", dict(beta=0.2, c0_policy="warm_start")),
    ])
    def test_bitwise_match(self, aggregator, kw):
        cfg = make_cfg(aggregator, alpha=0.6, T=60, seed=12, **kw)
        np.testing.assert_array_equal(run(cfg).test_loss, self.reference_run(cfg))

    def test_bitwise_match_scaled_noise_multidim(self):
        main = QuadraticTask([1.0, 2.0], [0.0, 1.0], noise_std=1.0, noise_scale=0.5)
        coll = QuadraticTask([1.5, 2.5], [2.0, 0.0], noise_std=2.0, noise_scale=0.2)
        cfg = RunConfig(main, [coll], "wga", CollaborationWeights(0.3, [1.0]),
                        0.02, 40, [4.0, -3.0], seed=5)
        np.testing.assert_array_equal(run(cfg).test_loss, self.reference_run(cfg))

    def test_bitwise_match_warm_start_scaled_noise_multidim(self):
        # At this x0 np.dot(g, g) and the noise model's np.sum(g * g) round
        # differently, which changes this seed's c_0 in the last bit.
        main = QuadraticTask([1.0, 2.0], [0.0, 1.0], noise_std=1.0, noise_scale=0.5)
        coll = QuadraticTask([1.5, 2.5], [2.0, 0.0], noise_std=2.0, noise_scale=0.2)
        cfg = RunConfig(main, [coll], "bc", CollaborationWeights(0.3, [1.0], beta=0.2),
                        0.02, 40, [-3.0, 2.1], seed=18, c0_policy="warm_start")
        np.testing.assert_array_equal(run(cfg).test_loss, self.reference_run(cfg))

    @pytest.mark.parametrize("d", [1, 2])
    def test_bitwise_match_warm_start_many_seeds(self, d):
        # One run_replicated call builds c_0 for all seeds at once; each
        # seed's c_0 and trace must equal its own single-seed reference.
        # At d = 1 a numpy sum over the samples would round c_0 differently
        # from the reference's running sum.
        curv = np.array([1.0, 2.0, 1.5, 2.5, 0.5, 3.0]).reshape(3, 2)[:, :d]
        main = QuadraticTask(curv[0], [0.0, 1.0][:d], noise_std=1.0, noise_scale=0.5)
        colls = [QuadraticTask(curv[1], [2.0, 0.0][:d], noise_std=2.0, noise_scale=0.2),
                 QuadraticTask(curv[2], [-1.0, 0.5][:d], noise_std=0.5, noise_scale=0.1)]
        cfg = RunConfig(main, colls, "bc", CollaborationWeights(0.3, [0.4, 0.6], beta=0.2),
                        0.02, 40, [-3.0, 2.1][:d], c0_policy="warm_start")
        seeds = list(range(11, 21))
        normals = simulator._warm_start_normals(1 + len(colls), seeds,
                                                cfg.warm_start_samples, d)
        c0 = simulator._warm_start_bias(cfg, seeds, normals)
        for seed, row in zip(seeds, c0):
            assert row.tobytes() == self.reference_c0(
                dataclasses.replace(cfg, seed=seed)).tobytes()
        res = run_replicated(cfg, seeds, keep_traces=True)
        assert not res.diverged_seeds
        for seed, tr in zip(seeds, res.traces):
            np.testing.assert_array_equal(
                tr.test_loss, self.reference_run(dataclasses.replace(cfg, seed=seed)))

    @staticmethod
    def mixed_noise_cfg(aggregator, d, scaled_main, **kw):
        """Two collaborators; either the main task has scaled noise and the
        collaborators additive noise, or the reverse."""
        curv = np.array([[1.0, 2.0, 1.5], [1.5, 2.5, 1.0], [0.8, 1.6, 2.0]])[:, :d]
        opt = np.array([[0.0, 1.0, -0.5], [2.0, 0.0, 1.0], [-1.0, 0.5, 0.0]])[:, :d]
        main_scale, coll_scale = (0.5, 0.0) if scaled_main else (0.0, 0.3)
        main = QuadraticTask(curv[0], opt[0], noise_std=1.0, noise_scale=main_scale)
        colls = [QuadraticTask(curv[1], opt[1], noise_std=2.0, noise_scale=coll_scale),
                 QuadraticTask(curv[2], opt[2], noise_std=0.5,
                               noise_scale=coll_scale / 3)]
        w = CollaborationWeights(0.4, [0.3, 0.7], beta=kw.pop("beta", None))
        return RunConfig(main, colls, aggregator, w, 0.02, 40,
                         [-3.0, 2.1, 1.0][:d], **kw)

    @pytest.mark.parametrize("scaled_main", [True, False],
                             ids=["scaled-main", "scaled-collaborators"])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("aggregator,kw", [
        ("wga", {}),
        ("bc", dict(beta=0.2)),
        ("bc", dict(beta=0.2, c0_policy="warm_start")),
        ("oracle_bc", dict(oracle_v=1.5)),
    ])
    def test_bitwise_match_mixed_noise(self, aggregator, kw, d, scaled_main):
        cfg = self.mixed_noise_cfg(aggregator, d, scaled_main, seed=7, **kw)
        np.testing.assert_array_equal(run(cfg).test_loss, self.reference_run(cfg))

    @pytest.mark.parametrize("scaled_main", [True, False],
                             ids=["scaled-main", "scaled-collaborators"])
    def test_bitwise_match_mixed_noise_swept_batch(self, scaled_main):
        # Three alpha values as the lanes of one kernel call, with warm
        # start, so the batch also shares its warm-start draws.
        base = self.mixed_noise_cfg("bc", 3, scaled_main, beta=0.2,
                                    c0_policy="warm_start")
        cfgs = [sweep_config(base, "alpha", a) for a in (0.1, 0.4, 0.9)]
        seeds = [2, 5, 9]
        for cfg, traces in zip(cfgs, batch_traces(cfgs, seeds)):
            for seed, tr in zip(seeds, traces):
                np.testing.assert_array_equal(
                    tr.test_loss, self.reference_run(dataclasses.replace(cfg, seed=seed)))

    def test_bitwise_match_oracle_bc_batch(self):
        # Four oracle_bc configs, oracle_v x alpha, as the lanes of one
        # kernel call, with K = 2 and scaled collaborator noise.
        base = self.mixed_noise_cfg("oracle_bc", 3, False)
        cfgs = [dataclasses.replace(base, oracle_v=v,
                                    weights=dataclasses.replace(base.weights, alpha=a))
                for v in (0.5, 1.5) for a in (0.3, 0.8)]
        seeds = [1, 4]
        for cfg, traces in zip(cfgs, batch_traces(cfgs, seeds), strict=True):
            for seed, tr in zip(seeds, traces, strict=True):
                np.testing.assert_array_equal(
                    tr.test_loss, self.reference_run(dataclasses.replace(cfg, seed=seed)))

    @staticmethod
    def nonlinear_cfgs():
        """The shape of the benchmark's nonlinear workload: d = 16, four
        collaborators, every task with gradient-scaled noise; oracle_bc at
        a constant step and wga under a decreasing PL schedule.  Each comes
        with a second config of its kind, to share a batch with."""
        rng = np.random.default_rng(4)
        d, K, T = 16, 4, 49
        a0, x_star = rng.uniform(0.5, 2.0, d), rng.normal(0.0, 1.0, d)
        main = QuadraticTask(a0, x_star, noise_std=1.0, noise_scale=0.5)
        colls = [QuadraticTask(a0 * rng.uniform(0.8, 1.25, d), x_star + rng.normal(0.0, 0.5, d),
                               noise_std=float(rng.uniform(0.5, 2.0)),
                               noise_scale=float(rng.uniform(0.1, 1.0)))
                 for _ in range(K)]
        tau = rng.dirichlet(np.ones(K))
        x0 = np.full(d, 3.0)
        oracle_w, wga_w = CollaborationWeights(0.8, tau), CollaborationWeights(0.5, tau)
        schedule = DecreasingPlSchedule(schedule_inputs(main, colls, wga_w, T, x0))
        oracle = RunConfig(main, colls, "oracle_bc", oracle_w, 0.01, T, x0, oracle_v=0.5)
        wga = RunConfig(main, colls, "wga", wga_w, schedule, T, x0)
        return [[oracle, dataclasses.replace(oracle, oracle_v=1.5, step_size=0.02)],
                [wga, dataclasses.replace(wga, weights=CollaborationWeights(0.3, tau),
                                          step_size=0.01)]]

    def test_bitwise_match_nonlinear_shape(self, monkeypatch):
        # Chunks of 256 // d = 16 steps: T = 49 ends on a one-step chunk.
        monkeypatch.setattr(simulator, "_CHUNK_DRAWS", 1)
        seeds = [0, 7, 13]
        for cfgs in self.nonlinear_cfgs():
            alone = [batch_traces([cfg], seeds)[0] for cfg in cfgs]
            for cfg, solo, batched in zip(cfgs, alone, batch_traces(cfgs, seeds), strict=True):
                for seed, tr_solo, tr_batched in zip(seeds, solo, batched, strict=True):
                    ref = self.reference_run(dataclasses.replace(cfg, seed=seed))
                    assert not tr_solo.diverged
                    np.testing.assert_array_equal(tr_solo.test_loss, ref)
                    np.testing.assert_array_equal(tr_batched.test_loss, ref)

    def assert_frozen_match(self, cfg):
        """The kernel's losses equal the reference up to the divergence
        step and then hold the loss of the last iterate inside the box."""
        tr = run(cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = self.reference_run(cfg)
        s = tr.steps_completed
        assert tr.diverged and s < cfg.horizon
        np.testing.assert_array_equal(tr.test_loss[:s + 1], ref[:s + 1])
        assert np.all(tr.test_loss[s + 1:] == ref[s])
        return tr, ref

    @pytest.mark.parametrize("eta", [2.5, 3.0])
    @pytest.mark.parametrize("aggregator,kw", [
        ("alone", {}),
        ("wga", {}),
        ("bc", dict(beta=0.2)),
        ("bc", dict(beta=0.2, c0_policy="warm_start")),
        ("oracle_bc", dict(oracle_v=1.5)),
    ])
    def test_diverging_run_matches_until_frozen(self, aggregator, kw, eta):
        cfg = make_cfg(aggregator, alpha=0.6, T=120, seed=12, eta=eta, **kw)
        tr, ref = self.assert_frozen_match(cfg)
        # The main loss is x^2 / 2, so the reference's iterate leaves the
        # box right after step steps_completed.
        edge = eval_loss(cfg.main_task, [simulator.DIVERGENCE_LIMIT])
        s = tr.steps_completed
        assert np.all(ref[:s + 1] <= edge) and ref[s + 1] > edge

    def test_diverging_run_matches_until_frozen_scaled_noise_multidim(self):
        main = QuadraticTask([1.0, 2.0], [0.0, 1.0], noise_std=1.0, noise_scale=0.5)
        coll = QuadraticTask([1.5, 2.5], [2.0, 0.0], noise_std=2.0, noise_scale=0.2)
        cfg = RunConfig(main, [coll], "wga", CollaborationWeights(0.3, [1.0]),
                        2.5, 80, [4.0, -3.0], seed=5)
        self.assert_frozen_match(cfg)


class TestDecreasingPlSchedule:
    @pytest.mark.parametrize("c", [2, 4])
    def test_values_equal_per_step_loop(self, c):
        main, colls, tau = nonlinear_tasks(np.random.default_rng(1), d=3,
                                           n_collaborators=2)
        T = 200_000
        inputs = schedule_inputs(main, colls, CollaborationWeights(0.5, tau), T,
                                 np.full(3, 2.0))
        # The per-step Python-float loop that the array evaluation replaced.
        guard = 1.0 - inputs.alpha ** 2 * inputs.sim.grad_scale_mismatch
        cap = eta_max(inputs)
        loop = [min(c * (2.0 * t + 1.0)
                    / (2.0 * inputs.sim.pl_constant * guard * (t + 1.0) ** 2), cap)
                for t in range(T)]
        values = DecreasingPlSchedule(inputs, c).values(T)
        assert values[0] == cap > loop[-1]
        np.testing.assert_array_equal(values, np.array(loop))


class TestAlphaZeroEquivalence:
    def test_all_aggregators_match_alone(self):
        base = make_cfg("alone", alpha=0.0, T=100, seed=9)
        ref = run(base)
        for aggregator, kw in (("wga", {}), ("bc", dict(beta=0.5)),
                               ("bc", dict(beta=0.5, c0_policy="zero")),
                               ("oracle_bc", dict(oracle_v=2.0))):
            cfg = make_cfg(aggregator, alpha=0.0, T=100, seed=9, **kw)
            np.testing.assert_array_equal(run(cfg).test_loss, ref.test_loss)


class TestRunReplicated:
    def test_single_seed_no_se(self):
        res = run_replicated(make_cfg(), [0])
        assert res.final_gap_se is None

    def test_noise_gives_positive_se(self):
        res = run_replicated(make_cfg(sigma0=2.0), range(20))
        assert res.final_gap_se > 0

    def test_noiseless_seeds_identical(self):
        res = run_replicated(make_cfg(sigma0=0.0, sigma1=0.0), range(20))
        assert np.ptp(res.per_seed_final_gap) == 0.0
        assert res.final_gap_se < 1e-12

    def test_batch_equals_single_runs(self):
        cfg = make_cfg("bc", beta=0.3, T=80)
        res = run_replicated(cfg, [4, 7, 11], keep_traces=True)
        for seed, tr in zip([4, 7, 11], res.traces):
            single = run(dataclasses.replace(cfg, seed=seed))
            np.testing.assert_array_equal(tr.test_loss, single.test_loss)

    def test_monotone_noise_effect(self):
        base = make_cfg("wga", sigma0=1.0, sigma1=1.0, T=400)
        doubled = make_cfg("wga", sigma0=2.0, sigma1=2.0, T=400)
        lo = run_replicated(base, range(20))
        hi = run_replicated(doubled, range(20))
        assert hi.final_gap_mean >= lo.final_gap_mean


class TestStationaryBehavior:
    def test_wga_noiseless_converges_to_fixed_point(self):
        cfg = make_cfg("wga", alpha=0.4, sigma0=0.0, sigma1=0.0, T=3000, eta=0.05)
        tr = run(cfg)
        xT = np.sqrt(2 * tr.final_gap)  # a0 = 1, x* = 0
        expected = mean_fixed_point(cfg)[0]
        assert xT == pytest.approx(abs(expected), abs=1e-9)
        # distance formula alpha a1 |x1* - x0*| / ((1-alpha) a0 + alpha a1)
        assert expected == pytest.approx(0.4 * 2.0 * 2.0 / (0.6 + 0.4 * 2.0))

    def test_bc_removes_bias_when_delta_zero(self):
        cfg = make_cfg("bc", alpha=0.8, beta=0.5, sigma0=0.0, sigma1=0.0,
                       a1=1.0, x1star=5.0, T=3000, eta=0.1, c0_policy="zero")
        tr = run(cfg)
        assert tr.final_gap < 1e-20


class TestSweep:
    def test_zeta_zero_aligns_optima(self):
        cfg = sweep_config(make_cfg(), "zeta", 0.0)
        assert cfg.collaborators[0].optimum[0] == pytest.approx(0.0)

    def test_zeta_target_hit(self):
        from cosgd.objective import similarity_params
        cfg = sweep_config(make_cfg(), "zeta", 7.0)
        sim = similarity_params(cfg.main_task, cfg.collaborators, [1.0])
        assert sim.grad_offset_sq == pytest.approx(49.0)

    def test_alpha_zero_reproduces_alone(self):
        base = make_cfg("wga", alpha=0.7, T=100)
        [(_, res)] = sweep(base, "alpha", [0.0], [3])
        alone = run_replicated(make_cfg("alone", alpha=0.0, T=100), [3])
        np.testing.assert_array_equal(res.mean_test_loss, alone.mean_test_loss)

    def test_n_rescales_noise_and_alpha(self):
        cfg = sweep_config(make_cfg(sigma0=10.0), "N", 4,
                           alpha_rule="n_over_n_plus_1")
        assert cfg.collaborators[0].noise_std == pytest.approx(5.0)
        assert cfg.weights.alpha == pytest.approx(0.8)

    def test_delta_preserves_zeta(self):
        from cosgd.objective import similarity_params
        base = make_cfg()
        before = similarity_params(base.main_task, base.collaborators, [1.0])
        cfg = sweep_config(base, "delta", 3.0)
        after = similarity_params(cfg.main_task, cfg.collaborators, [1.0])
        assert after.hessian_dissimilarity == pytest.approx(3.0)
        assert after.grad_offset_sq == pytest.approx(before.grad_offset_sq)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            sweep_config(make_cfg(), "bogus", 1.0)


class TestMeanDynamicsOracle:
    def test_alone_closed_form(self):
        cfg = make_cfg("alone", alpha=0.0, eta=0.1, T=50, x0=5.0)
        seq = mean_dynamics_oracle(cfg)
        t = np.arange(51)
        np.testing.assert_allclose(seq[:, 0], 5.0 * 0.9 ** t, rtol=1e-12)

    def test_fixed_point(self):
        cfg = make_cfg("wga", alpha=0.4, T=20000, eta=0.05)
        seq = mean_dynamics_oracle(cfg)
        np.testing.assert_allclose(seq[-1], mean_fixed_point(cfg), atol=1e-10)

    def test_matches_monte_carlo(self):
        cfg = make_cfg("wga", alpha=0.5, sigma0=1.0, sigma1=1.0, eta=0.02, T=500,
                       iterate_stride=100)
        seeds = range(200)
        oracle = mean_dynamics_oracle(cfg)
        res = run_replicated(cfg, seeds, keep_traces=True)
        snaps = np.stack([tr.iterates[:, 0] for tr in res.traces])
        mean_iter = snaps.mean(axis=0)
        se = snaps.std(axis=0, ddof=1) / np.sqrt(snaps.shape[0])
        for j, t in enumerate(range(0, 501, 100)):
            assert abs(mean_iter[j] - oracle[t, 0]) <= 3 * max(se[j], 1e-12)

    def test_bc_unsupported(self):
        with pytest.raises(ValueError):
            mean_dynamics_oracle(make_cfg("bc", beta=0.5))


def assert_results_equal(a, b):
    np.testing.assert_array_equal(a.mean_test_loss, b.mean_test_loss)
    np.testing.assert_array_equal(a.mean_grad_norm_sq, b.mean_grad_norm_sq)
    np.testing.assert_array_equal(a.per_seed_plateau, b.per_seed_plateau)
    np.testing.assert_array_equal(a.per_seed_final_gap, b.per_seed_final_gap)
    assert a.diverged_seeds == b.diverged_seeds
    assert (a.plateau_mean, a.plateau_se, a.final_gap_mean, a.avg_grad_sq_mean) \
        == (b.plateau_mean, b.plateau_se, b.final_gap_mean, b.avg_grad_sq_mean)


def assert_traces_equal(a, b):
    np.testing.assert_array_equal(a.test_loss, b.test_loss)
    np.testing.assert_array_equal(a.grad_norm_sq, b.grad_norm_sq)
    if a.iterates is not None or b.iterates is not None:
        np.testing.assert_array_equal(a.iterates, b.iterates)
    assert (a.final_gap, a.diverged, a.steps_completed) \
        == (b.final_gap, b.diverged, b.steps_completed)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts `_run_batch` calls and the configs each one ran."""
    calls = []
    original = simulator._run_batch

    def counting(cfgs, seeds, streamed=False):
        calls.append(len(cfgs))
        return original(cfgs, seeds, streamed)
    monkeypatch.setattr(simulator, "_run_batch", counting)
    return calls


def nonlinear_tasks(rng, d=16, n_collaborators=4):
    a0 = rng.uniform(0.5, 2.0, d)
    x_star = rng.normal(0.0, 1.0, d)
    main = QuadraticTask(a0, x_star, noise_std=1.0, noise_scale=0.5)
    colls = [QuadraticTask(a0 * rng.uniform(0.8, 1.25, d),
                           x_star + rng.normal(0.0, 0.5, d),
                           noise_std=float(rng.uniform(0.5, 2.0)),
                           noise_scale=float(rng.uniform(0.1, 1.0)))
             for _ in range(n_collaborators)]
    tau = list(rng.dirichlet(np.ones(n_collaborators)))
    return main, colls, tau


class TestSweepBatching:
    """Swept configs run as lanes of one kernel call, and every result
    equals the config's own run_replicated bit for bit."""

    SEEDS = [0, 3, 5]

    @pytest.mark.parametrize("axis,values,rule", [
        ("zeta", [1.0, 4.0, 16.0], None),
        ("N", [1, 10, 100], "n_over_n_plus_1"),
        ("alpha", [0.0, 0.3, 0.7], None),
        ("beta", [0.05, 0.2, 1.0], None),
        ("eta", [0.01, 0.05, 0.1], None),
        ("delta", [0.0, 0.5, 3.0], None),
        ("sigma", [0.5, 1.0, 4.0], None),
    ])
    def test_sweep_equals_per_value_runs(self, kernel_calls, axis, values, rule):
        base = make_cfg("bc", alpha=0.6, beta=0.2, T=150, sigma0=2.0)
        results = sweep(base, axis, values, self.SEEDS, alpha_rule=rule)
        assert kernel_calls == [len(values)]
        assert [v for v, _ in results] == values
        for value, res in results:
            solo = run_replicated(sweep_config(base, axis, value, rule), self.SEEDS)
            assert_results_equal(res, solo)

    def test_horizon_sweep_falls_back_to_one_call_per_horizon(self, kernel_calls):
        base = make_cfg("wga", T=100)
        results = sweep(base, "T", [50, 80, 50], self.SEEDS)
        assert kernel_calls == [2, 1]
        for value, res in results:
            assert len(res.mean_test_loss) == value + 1
            assert_results_equal(res, run_replicated(sweep_config(base, "T", value),
                                                     self.SEEDS))

    def test_mixed_aggregators_fall_back_to_separate_calls(self, kernel_calls):
        # Alone, wga and bc configs, whatever their c0_policy, share one
        # call; only oracle_bc falls back to a call of its own.
        cfgs = [make_cfg("alone", alpha=0.0, T=120),
                make_cfg("bc", beta=0.3, T=120),
                make_cfg("wga", alpha=0.2, T=120),
                make_cfg("oracle_bc", oracle_v=1.0, T=120),
                make_cfg("wga", alpha=0.7, T=120),
                make_cfg("bc", beta=0.3, T=120, c0_policy="zero")]
        results = simulator._replicate(cfgs, self.SEEDS)
        assert kernel_calls == [5, 1]
        kernel_calls.clear()
        for cfg, res in zip(cfgs, results):
            assert_results_equal(res, run_replicated(cfg, self.SEEDS))

    def test_step_size_kinds_share_a_call(self, kernel_calls):
        main, colls, tau = nonlinear_tasks(np.random.default_rng(1), d=3,
                                           n_collaborators=2)
        w = CollaborationWeights(0.5, tau)
        schedule = DecreasingPlSchedule(schedule_inputs(main, colls, w, 200,
                                                        np.full(3, 2.0)))
        cfgs = [RunConfig(main, colls, "wga", w, step, 200, np.full(3, 2.0))
                for step in (schedule, 0.01)]
        results = simulator._replicate(cfgs, self.SEEDS)
        assert kernel_calls == [2]
        for cfg, res in zip(cfgs, results):
            assert_results_equal(res, run_replicated(cfg, self.SEEDS))

    @pytest.mark.parametrize("aggregator,beta,kw", [
        ("oracle_bc", None, dict(oracle_v=0.5)),
        ("bc", 0.3, dict(c0_policy="warm_start")),
    ])
    def test_multidim_scaled_noise_over_several_chunks(self, kernel_calls,
                                                       aggregator, beta, kw):
        main, colls, tau = nonlinear_tasks(np.random.default_rng(7))
        base = RunConfig(main, colls, aggregator,
                         CollaborationWeights(0.5, tau, beta=beta),
                         0.01, 600, np.full(16, 3.0), **kw)
        # 2 configs x 3 seeds x d = 16 draw 96 normals per agent and step,
        # so 600 steps span several pre-draw chunks.
        assert 600 > 2 * simulator._CHUNK_DRAWS // (2 * 3 * 16)
        results = sweep(base, "alpha", [0.3, 0.8], self.SEEDS)
        assert kernel_calls == [2]
        for value, res in results:
            assert_results_equal(res, run_replicated(sweep_config(base, "alpha", value),
                                                     self.SEEDS))


class TestWarmStartDraws:
    def test_sweep_draws_each_stream_once(self, monkeypatch):
        """A warm-start sweep draws each (seed, agent) warm-start stream
        once for all its values, and each value's result equals its own
        run_replicated bit for bit."""
        streams = []
        original = rng_mod.agent_stream

        def counting(seed, agent, context=rng_mod.GRADIENT_CONTEXT):
            if context == rng_mod.WARMSTART_CONTEXT:
                streams.append((seed, agent))
            return original(seed, agent, context)
        monkeypatch.setattr(rng_mod, "agent_stream", counting)
        base = make_cfg("bc", alpha=0.6, beta=0.2, T=100, c0_policy="warm_start")
        seeds = list(range(16))
        results = sweep(base, "eta", [0.01, 0.02, 0.05], seeds)
        assert len(streams) == len(set(streams)) == 32
        for value, res in results:
            assert_results_equal(res, run_replicated(sweep_config(base, "eta", value),
                                                     seeds))

    def test_batch_with_different_sample_counts(self):
        # Configs of one batch may ask for different warm_start_samples;
        # each takes a prefix of the shared draw.
        base = make_cfg("bc", alpha=0.6, beta=0.2, T=50, c0_policy="warm_start")
        cfgs = [dataclasses.replace(base, warm_start_samples=k) for k in (8, 3, 20)]
        seeds = [1, 4]
        for cfg, traces in zip(cfgs, batch_traces(cfgs, seeds)):
            for seed, tr in zip(seeds, traces):
                assert_traces_equal(tr, run(dataclasses.replace(cfg, seed=seed)))


class TestNoiseDraws:
    """A kernel call draws each (seed, agent) gradient stream, and each
    oracle stream, once for all its configs, and only the streams its
    aggregator reads; every config's traces equal its own run_replicated
    bit for bit."""

    SEEDS = [0, 3, 5]
    # Streams per seed: the agents a mode reads, plus oracle_bc's oracle.
    ROWS = {"alone": 1, "wga": 2, "bc": 2, "oracle_bc": 3}
    KW = {"alone": dict(alpha=0.0), "wga": {}, "bc": dict(beta=0.2),
          "oracle_bc": dict(oracle_v=1.0)}

    @pytest.fixture
    def draws(self, monkeypatch):
        """The (seed, agent, context) keys of the streams opened, and the
        number of normals drawn from them."""
        log = {"keys": [], "normals": 0}
        original = rng_mod.agent_stream

        class Counted:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, *args, **kwargs):
                out = self.gen.standard_normal(*args, **kwargs)
                log["normals"] += np.size(out)
                return out

        def counting(seed, agent, context=rng_mod.GRADIENT_CONTEXT):
            log["keys"].append((seed, agent, context))
            return Counted(original(seed, agent, context))
        monkeypatch.setattr(rng_mod, "agent_stream", counting)
        # Chunks of the 256-normal floor, 256 // d steps, so the 600-step
        # draws span several chunks and a short last one.
        monkeypatch.setattr(simulator, "_CHUNK_DRAWS", 100)
        return log

    @staticmethod
    def base_cfg(aggregator, d, scaled_collaborator=False):
        """One collaborator in dimension d; with `scaled_collaborator` its
        noise is gradient-scaled and the main task's additive."""
        main = QuadraticTask(np.linspace(1.0, 1.5, d), np.zeros(d), noise_std=1.0)
        coll = QuadraticTask(np.linspace(2.0, 1.2, d), np.full(d, 2.0),
                             noise_std=1.5,
                             noise_scale=0.3 if scaled_collaborator else 0.0)
        kw = dict(TestNoiseDraws.KW[aggregator])
        w = CollaborationWeights(kw.pop("alpha", 0.5), [1.0], beta=kw.pop("beta", None))
        return RunConfig(main, [coll], aggregator, w, 0.05, 600, np.full(d, 4.0), **kw)

    def assert_draws_once(self, draws, aggregator, d, base, axis, values):
        cfgs = [sweep_config(base, axis, v) for v in values]
        results = simulator._replicate(cfgs, self.SEEDS, keep_traces=True)
        keys, normals = list(draws["keys"]), draws["normals"]
        streams = len(self.SEEDS) * self.ROWS[aggregator]
        assert len(keys) == len(set(keys)) == streams
        assert normals == streams * base.horizon * d
        for cfg, res in zip(cfgs, results):
            solo = run_replicated(cfg, self.SEEDS, keep_traces=True)
            assert_results_equal(res, solo)
            for tr, solo_tr in zip(res.traces, solo.traces, strict=True):
                assert_traces_equal(tr, solo_tr)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("aggregator", simulator.AGGREGATORS)
    def test_eta_sweep(self, draws, aggregator, d):
        base = self.base_cfg(aggregator, d)
        self.assert_draws_once(draws, aggregator, d, base, "eta",
                               [0.01, 0.02, 0.05, 0.1])

    @pytest.mark.parametrize("aggregator", simulator.AGGREGATORS)
    def test_mixed_noise_sigma_sweep(self, draws, aggregator):
        # Each config has its own noise std for both agents, so each lane
        # scales the shared normals by its own std after they are spread.
        base = self.base_cfg(aggregator, 3, scaled_collaborator=True)
        self.assert_draws_once(draws, aggregator, 3, base, "sigma",
                               [0.5, 1.0, 2.0, 4.0])


class TestChunkLength:
    """The pre-draw chunk length changes no bit of any trace, and a wide
    batch draws at least 256 normals per generator call."""

    SEEDS = [0, 3, 5]

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("aggregator", simulator.AGGREGATORS)
    def test_traces_do_not_depend_on_chunk_length(self, monkeypatch, aggregator, d):
        base = dataclasses.replace(TestNoiseDraws.base_cfg(aggregator, d),
                                   horizon=700, iterate_stride=9)
        # Lanes of eta >= 1.35 diverge in some aggregators, mid-chunk: eta
        # = 2.5 within the first chunk of the smallest chunk length (256 //
        # d steps), and at least one other eta in a later chunk.
        cfgs = [sweep_config(base, "eta", eta)
                for eta in (0.05, 1.35, 1.4, 2.06, 2.5)]
        batches = []
        for draws in (1, simulator._CHUNK_DRAWS, 1 << 24):
            monkeypatch.setattr(simulator, "_CHUNK_DRAWS", draws)
            batches.append(batch_traces(cfgs, self.SEEDS))
        for batch in batches[1:]:
            for traces, first in zip(batch, batches[0], strict=True):
                for tr, tr0 in zip(traces, first, strict=True):
                    assert_traces_equal(tr, tr0)
        died = [tr.steps_completed for traces in batches[0] for tr in traces
                if tr.diverged]
        assert not any(tr.diverged for tr in batches[0][0])
        assert any(256 // d < n for n in died)
        assert all(n % (256 // d) for n in died)

    def test_wide_batch_draws_256_normals_per_call(self, monkeypatch):
        """256 lanes at d = 1: every gradient-stream call but a stream's
        last fills 256 normals, the last the remaining steps."""
        sizes = {}
        original = rng_mod.agent_stream

        class Counted:
            def __init__(self, gen, key):
                self.gen, self.key = gen, key

            def standard_normal(self, *args, **kwargs):
                out = self.gen.standard_normal(*args, **kwargs)
                sizes.setdefault(self.key, []).append(np.size(out))
                return out

        def counting(seed, agent, context=rng_mod.GRADIENT_CONTEXT):
            gen = original(seed, agent, context)
            return gen if context else Counted(gen, (seed, agent))
        monkeypatch.setattr(rng_mod, "agent_stream", counting)
        cfg = make_cfg("bc", beta=0.2, T=1000)
        simulator._run_batch([cfg], range(256))
        assert len(sizes) == 2 * 256
        assert all(s == [256, 256, 256, 232] for s in sizes.values())


class TestDivergingLanes:
    """A lane that diverges is frozen in place; the batch's other lanes
    keep the bits of their solo runs."""

    @pytest.mark.parametrize("aggregator,kw", [
        ("alone", dict(alpha=0.0)),
        ("bc", dict(beta=0.3)),
        ("oracle_bc", dict(oracle_v=1.0)),
    ])
    def test_diverging_eta_lane(self, monkeypatch, aggregator, kw):
        # Small chunks, so lanes die mid-chunk and the survivors run on
        # through later chunks.
        monkeypatch.setattr(simulator, "_CHUNK_DRAWS", 40)
        base = make_cfg(aggregator, T=300, iterate_stride=7, **kw)
        # eta = 2.5 grows |x| about 1.5-fold a step: every seed diverges.
        cfgs = [sweep_config(base, "eta", eta) for eta in (0.05, 2.5, 0.1)]
        seeds = [0, 1, 2, 3]
        batch = batch_traces(cfgs, seeds)
        for cfg, traces in zip(cfgs, batch):
            for seed, tr in zip(seeds, traces):
                assert_traces_equal(tr, run(dataclasses.replace(cfg, seed=seed)))
        assert all(tr.diverged and 0 < tr.steps_completed < 300 for tr in batch[1])
        assert not any(tr.diverged for tr in batch[0] + batch[2])
        # A frozen lane reports its last finite loss for the rest of the run.
        tr = batch[1][0]
        assert np.all(tr.test_loss[tr.steps_completed:] == tr.test_loss[-1])

    def test_all_lanes_diverge(self):
        cfg = make_cfg("alone", alpha=0.0, a1=1.0, eta=2.5e12, T=40)
        [traces] = batch_traces([cfg], [0, 1])
        for seed, tr in zip([0, 1], traces):
            assert tr.diverged
            assert_traces_equal(tr, run(dataclasses.replace(cfg, seed=seed)))
        with pytest.raises(RuntimeError, match="all seeds diverged"):
            sweep(cfg, "eta", [0.05, 2.5e12], [0, 1])

    def test_dead_lanes_raise_no_warning(self):
        # Dead lanes run on to inf and NaN (x^2 overflows at eta = 1e300,
        # and the scaled noise squares the gradient).
        main = QuadraticTask([1.0, 2.0], [0.0, 1.0], noise_std=1.0, noise_scale=0.5)
        coll = QuadraticTask([1.5, 2.5], [2.0, 0.0], noise_std=2.0, noise_scale=0.2)
        base = RunConfig(main, [coll], "wga", CollaborationWeights(0.3, [1.0]),
                         0.02, 300, [4.0, -3.0])
        cfgs = [sweep_config(base, "eta", eta) for eta in (0.02, 2.5, 1e300)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batch = batch_traces(cfgs, [0, 1])
        assert not any(tr.diverged for tr in batch[0])
        assert all(tr.diverged for tr in batch[1] + batch[2])


class TestGridSearch:
    @staticmethod
    def loop_grid_search(cfg_for_eta, seeds, grid):
        """The per-value loop the sweep replaced."""
        best = None
        for eta in grid:
            res = run_replicated(cfg_for_eta(eta), seeds)
            if best is None or res.plateau_mean < best[1].plateau_mean:
                best = (eta, res)
        return best

    @pytest.mark.parametrize("aggregator", ["alone", "wga"])
    def test_same_choice_as_loop(self, aggregator):
        base = make_cfg(aggregator, alpha=0.5, sigma0=3.0, T=400)
        grid = (1e-3, 1e-2, 1e-1, 0.5)
        eta, res = figures._grid_search([res for _, res in sweep(base, "eta", grid,
                                                                 range(6))], grid)
        ref_eta, ref = self.loop_grid_search(
            lambda e: sweep_config(base, "eta", e), range(6), grid)
        assert eta == ref_eta
        assert_results_equal(res, ref)

    def test_first_value_wins_ties(self):
        # Noiseless and started at the optimum: every step size gives loss 0.
        base = make_cfg("alone", alpha=0.0, sigma0=0.0, sigma1=0.0, x0=0.0, T=50)
        grid = (0.1, 0.05, 0.2)
        eta, res = figures._grid_search([res for _, res in sweep(base, "eta", grid,
                                                                 [0, 1])], grid)
        assert eta == 0.1 == self.loop_grid_search(
            lambda e: sweep_config(base, "eta", e), [0, 1], grid)[0]
        assert res.plateau_mean == 0.0


class TestTimeToPlateau:
    def test_short_trace(self):
        # 100 * 0.9^t + 1 first drops to 10 x its plateau 1 at t = 23.
        trace = 100.0 * 0.9 ** np.arange(301) + 1.0
        assert figures.time_to_plateau(trace, 1.0) == 23

    def test_block_scales_with_trace(self):
        # 200 blocks of 50 steps: the one holding step 1150 is the first
        # whose mean is under 10 x the plateau.
        trace = np.where(np.arange(10_001) < 1150, 100.0, 1.0)
        assert figures.time_to_plateau(trace, 1.0) == 1150
        assert figures.time_to_plateau(np.full(301, 100.0), 1.0) is None


class TestNoWorkersArgument:
    def test_api_rejects_workers(self, tmp_path):
        cfg = make_cfg(T=50)
        for call in (lambda: run_replicated(cfg, range(4), workers=2),
                     lambda: sweep(cfg, "eta", [0.05], range(4), workers=2),
                     lambda: figures.fig2(str(tmp_path), horizon=50, workers=2)):
            with pytest.raises(TypeError, match="workers"):
                call()


class TestMixedBatch:
    """Alone, wga and bc configs run as the lanes of one kernel call, and
    every lane keeps the bits of its own config's solo run."""

    SEEDS = [0, 3, 5]

    @staticmethod
    def kinds(d):
        """Alone, wga at alpha 0, 0.5 and 1, and bc under each c0_policy.
        The collaborator has the main task's curvature (m = 0), so that
        alpha = 1 passes the WGA guard."""
        curv = np.linspace(1.0, 1.5, d)
        main = QuadraticTask(curv, np.zeros(d), noise_std=1.0)
        coll = QuadraticTask(curv, np.full(d, 2.0), noise_std=1.5)

        def cfg(aggregator, alpha, beta=None, **kw):
            return RunConfig(main, [coll], aggregator,
                             CollaborationWeights(alpha, [1.0], beta=beta),
                             0.05, 700, np.full(d, 4.0), **kw)
        return ([cfg("alone", 0.5)] + [cfg("wga", a) for a in (0.0, 0.5, 1.0)]
                + [cfg("bc", 0.6, 0.2, c0_policy=p) for p in simulator.C0_POLICIES])

    @pytest.mark.parametrize("d", [1, 3])
    def test_each_lane_equals_its_solo_run(self, monkeypatch, d):
        # Chunks of 256 // d steps.  eta = 2.5 diverges in the first chunk,
        # 2.06 (d = 1) and 1.4 (d = 3) in a later one.
        monkeypatch.setattr(simulator, "_CHUNK_DRAWS", 1)
        cfgs = sorted((sweep_config(cfg, "eta", eta) for eta in (0.05, 1.4, 2.06, 2.5)
                       for cfg in self.kinds(d)),
                      key=lambda cfg: simulator.AGGREGATORS.index(cfg.aggregator))
        died = []
        for cfg, traces in zip(cfgs, batch_traces(cfgs, self.SEEDS), strict=True):
            for seed, tr in zip(self.SEEDS, traces, strict=True):
                assert_traces_equal(tr, run(dataclasses.replace(cfg, seed=seed)))
                died += [tr.steps_completed] if tr.diverged else []
        assert any(n < 256 // d for n in died) and any(n > 256 // d for n in died)

    @staticmethod
    def two_collaborator_kinds():
        """K = 2 at d = 3 with unequal tau, the second collaborator's noise
        gradient-scaled: alone, wga, and bc under each c0_policy.  Every
        task shares the main curvature (m = 0)."""
        curv = np.linspace(1.0, 1.5, 3)
        main = QuadraticTask(curv, np.zeros(3), noise_std=1.0)
        colls = [QuadraticTask(curv, np.full(3, 2.0), noise_std=1.5),
                 QuadraticTask(curv, [-1.0, 0.5, 1.0], noise_std=0.5, noise_scale=0.3)]

        def cfg(aggregator, alpha, beta=None, **kw):
            return RunConfig(main, colls, aggregator,
                             CollaborationWeights(alpha, [0.3, 0.7], beta=beta),
                             0.05, 400, np.full(3, 4.0), iterate_stride=7, **kw)
        return ([cfg("alone", 0.5), cfg("wga", 0.5)]
                + [cfg("bc", 0.6, 0.2, c0_policy=p) for p in simulator.C0_POLICIES])

    def test_two_collaborators_over_odd_chunks(self, monkeypatch):
        # At d = 3 a chunk holds 256 // 3 = 85 steps, an odd count, so
        # every other chunk starts at an odd step.  eta = 2.5 diverges in
        # the first chunk, 1.4 in a later one.
        monkeypatch.setattr(simulator, "_CHUNK_DRAWS", 1)
        cfgs = sorted((sweep_config(cfg, "eta", eta) for eta in (0.05, 1.4, 2.5)
                       for cfg in self.two_collaborator_kinds()),
                      key=lambda cfg: simulator.AGGREGATORS.index(cfg.aggregator))
        died = []
        for cfg, traces in zip(cfgs, batch_traces(cfgs, self.SEEDS), strict=True):
            for seed, tr in zip(self.SEEDS, traces, strict=True):
                assert_traces_equal(tr, run(dataclasses.replace(cfg, seed=seed)))
                died += [tr.steps_completed] if tr.diverged else []
        assert any(n < 85 for n in died) and any(n > 85 for n in died)

    def test_alone_beside_overflowing_collaborator(self, kernel_calls):
        # The alone config's collaborator gradient overflows at every step,
        # and 0 * inf is nan; alone never reads it, so its lanes stay those
        # of its solo run, which draws the main stream alone.
        wga = make_cfg("wga", alpha=0.5, T=300)
        alone = dataclasses.replace(
            wga, aggregator="alone",
            collaborators=[QuadraticTask(1e308, -100.0, noise_std=1.0)])
        batch = simulator._replicate([wga, alone], self.SEEDS, keep_traces=True)
        assert kernel_calls == [2]
        for cfg, res in zip([wga, alone], batch):
            for seed, tr in zip(self.SEEDS, res.traces):
                assert not tr.diverged and np.all(np.isfinite(tr.test_loss))
                assert_traces_equal(tr, run(dataclasses.replace(cfg, seed=seed)))


class TestStreamedReduction:
    """The figures' streamed path keeps seed sums, not traces, and gives
    `_reduce`'s results bit for bit."""

    SEEDS = list(range(8))

    @staticmethod
    def partly_diverging(T=600):
        """Seed 1 of these 8 leaves the box at step 333, the others never
        (T > 333): at eta = 2 the iterate's magnitude random-walks near the
        box."""
        cfg = make_cfg("alone", alpha=0.0, sigma0=1e9, eta=2.0, T=T, x0=0.95e12)
        [traces] = batch_traces([cfg], TestStreamedReduction.SEEDS)
        assert [tr.steps_completed for tr in traces] == [T, 333] + [T] * 6
        return cfg

    def test_equals_reduce(self, monkeypatch, kernel_calls):
        # Chunks of 256 steps, so the diverging seed leaves in the second.
        # T = 513 ends on a one-step chunk, whose seeds a seed-axis
        # reduction would add pairwise.
        monkeypatch.setattr(simulator, "_CHUNK_DRAWS", 1)
        for T in (600, 513):
            self.assert_streamed_equals_reduce(kernel_calls, T)

    def assert_streamed_equals_reduce(self, kernel_calls, T):
        cfgs = [make_cfg("bc", alpha=0.6, beta=0.2, T=T, c0_policy="zero"),
                make_cfg("alone", alpha=0.0, T=T), self.partly_diverging(T),
                make_cfg("wga", alpha=0.5, T=T, sigma0=3.0)]
        kernel_calls.clear()
        streamed = simulator._replicate(cfgs, self.SEEDS, streamed=True)
        # One call for the batch, and one replay of the diverging config.
        assert kernel_calls == [4, 1]
        for cfg, res in zip(cfgs, streamed):
            full = run_replicated(cfg, self.SEEDS)
            assert res.seeds == self.SEEDS and res.traces is None
            np.testing.assert_array_equal(res.mean_test_loss, full.mean_test_loss)
            np.testing.assert_array_equal(res.mean_grad_norm_sq, full.mean_grad_norm_sq)
            np.testing.assert_array_equal(res.per_seed_plateau, full.per_seed_plateau)
            np.testing.assert_array_equal(res.per_seed_final_gap, full.per_seed_final_gap)
            assert res.diverged_seeds == full.diverged_seeds
            assert (res.plateau_mean, res.plateau_se, res.final_gap_mean, res.final_gap_se) \
                == (full.plateau_mean, full.plateau_se, full.final_gap_mean, full.final_gap_se)
        assert streamed[2].diverged_seeds == [1]
        assert_results_equal(streamed[2], run_replicated(cfgs[2], self.SEEDS))
        assert streamed[0].avg_grad_sq_mean is None is streamed[0].avg_grad_sq_se

    def test_all_seeds_diverged(self):
        cfgs = [make_cfg("wga", T=40), make_cfg("alone", alpha=0.0, a1=1.0, eta=2.5e12, T=40)]
        messages = []
        for streamed in (False, True):
            with pytest.raises(simulator.AllSeedsDiverged) as err:
                simulator._replicate(cfgs, [0, 1], streamed=streamed)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("all seeds diverged at eta=2.5e+12")

    @pytest.mark.parametrize("n", [2, 50])
    @pytest.mark.parametrize("S", [1, 2, 3, 7, 20, 100])
    def test_mean_over_seeds_is_a_seed_ordered_sum(self, S, n):
        """numpy's mean over the stacked traces' seed axis adds the seeds
        one at a time, in order, and divides once; so does the stream,
        chunk by chunk, whatever the chunk length."""
        traces = np.random.default_rng(S).lognormal(0.0, 5.0, (S, n))
        expected = np.mean(list(traces), axis=0)
        for m in sorted({1, 2, 7, n}):
            acc = np.zeros(n)
            for t0 in range(0, n, m):
                for s in range(S):
                    acc[t0:t0 + m] += traces[s, t0:t0 + m]
            acc /= S
            assert acc.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("T", [1, 2, 9, 10, 11, 127, 128, 1000, 4097, 20_000])
    def test_axis_reductions_equal_per_row_means(self, T):
        """`_reduce` reads a config's rows in place, as views of the
        kernel's (2, lanes, T+1) array, or as the rows of the seeds that
        did not diverge.  Its axis reductions give the bits of a mean per
        row (pairwise over the row) and of np.mean over the listed rows."""
        S = 7
        block = np.random.default_rng(T).lognormal(0.0, 5.0, (2, 3 * S, T + 1))
        losses, norms = block[0, S:2 * S], block[1, S:2 * S]
        start = simulator._plateau_start(T)
        for ok in (np.ones(S, dtype=bool), np.arange(S) % 3 != 1):
            rows_l, rows_n = (losses, norms) if ok.all() else (losses[ok], norms[ok])
            listed_l = [row for row, good in zip(losses, ok) if good]
            listed_n = [row for row, good in zip(norms, ok) if good]
            pairs = [(rows_l[:, start - (T + 1):].mean(axis=1),
                      np.array([row[start:].mean() for row in listed_l])),
                     (rows_n[:, :T].mean(axis=1), np.array([row[:T].mean() for row in listed_n])),
                     (rows_l.mean(axis=0), np.mean(listed_l, axis=0)),
                     (rows_n.mean(axis=0), np.mean(listed_n, axis=0))]
            for got, expected in pairs:
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", [2, 3, 257])
    @pytest.mark.parametrize("S", [1, 7, 8, 9, 20, 100])
    @pytest.mark.parametrize("C", [1, 3])
    def test_seed_axis_reduce_is_a_seed_ordered_sum(self, C, S, m):
        """`record` writes a chunk's seed sums with one np.add.reduce over
        the seed axis of its (2, configs, seeds, steps) rows, into a slice
        of the (2, configs, T+1) sums.  Over two or more steps that adds
        the seeds to 0 one at a time, in seed order."""
        rows = np.random.default_rng([C, S, m]).lognormal(0.0, 5.0, (2, C, S, m))
        expected = np.zeros((2, C, m))
        for s in range(S):
            expected += rows[:, :, s]
        sums = np.empty((2, C, m + 5))
        got = np.add.reduce(rows, axis=2, out=sums[:, :, 3:3 + m])
        assert got.tobytes() == expected.tobytes()

    def test_full_path_peak_is_its_trace_array(self):
        """The full path reads the kernel's traces in place: a 64-seed
        `run_replicated` with its traces kept allocates at most 1.2x the
        kernel's (2, 64, T+1) trace array at its peak.  A stacked copy of
        the seeds' losses for their mean alone would add 0.5x."""
        cfg = make_cfg("bc", beta=0.2, T=20_000)
        trace_bytes = 2 * 64 * (cfg.horizon + 1) * 8
        tracemalloc.start()
        try:
            res = run_replicated(cfg, range(64), keep_traces=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.traces) == 64 and not res.diverged_seeds
        assert peak < 1.2 * trace_bytes, peak / trace_bytes


class TestOneCallPerFigure:
    @pytest.mark.parametrize("name,configs", [("fig2", 9), ("fig3", 4), ("fig4", 5),
                                              ("fig5", 3)])
    def test_figure_is_one_streamed_call(self, tmp_path, monkeypatch, name, configs):
        calls = []
        original = simulator._run_batch

        def counting(cfgs, seeds, streamed=False):
            calls.append((len(cfgs), streamed))
            return original(cfgs, seeds, streamed)
        monkeypatch.setattr(simulator, "_run_batch", counting)
        getattr(figures, name)(str(tmp_path), horizon=30, seeds=[0, 1])
        assert calls == [(configs, True)]
