import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cosgd import cli, figures, simulator
from cosgd import rng as rng_mod
from cosgd.aggregators import CollaborationWeights, oracle_noise_std, tau_sum
from cosgd.csvio import write_csv
from cosgd.objective import QuadraticTask, eval_loss, true_gradient
from cosgd.schedules import eta_max, schedule_inputs
from cosgd.simulator import (DecreasingPlSchedule, RunConfig, expected_test_loss,
                             mean_dynamics_oracle, mean_fixed_point, run,
                             run_replicated, sweep, sweep_config)
from reference_rules import (bc_combine, bc_update, oracle_bc_combine, sample_gradient,
                             wga_combine)


def batch_traces(cfgs, seeds) -> list:
    """Per config, one Trace per seed of one `_run_batch` call."""
    return [simulator._traces(out) for out in simulator._run_batch(cfgs, seeds, 1)]


def make_cfg(aggregator="wga", alpha=0.5, beta=None, sigma0=1.0, sigma1=1.0,
             a1=2.0, x1star=2.0, eta=0.05, T=200, x0=5.0, seed=0, **kw):
    main = QuadraticTask(1.0, 0.0, noise_std=sigma0)
    coll = QuadraticTask(a1, x1star, noise_std=sigma1)
    w = CollaborationWeights(alpha, [1.0], beta=beta)
    return RunConfig(main, [coll], aggregator, w, eta, T, x0, seed=seed, **kw)


def set_chunk(monkeypatch, steps, lanes, d=1):
    """Sets `_CHUNK_DRAWS` so that a loop batch of `lanes` lanes in
    dimension d steps in chunks of `steps` steps, as does an affine batch
    when `steps` is a whole number of its blocks of k = ceil(sqrt(max(2,
    256 // d))) steps, and else in the next whole number."""
    monkeypatch.setattr(simulator, "_CHUNK_DRAWS", steps * lanes * d)


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

    def test_final_iterate(self):
        """An exact step to the optimum ends at x* = 0; a diverged run
        ends at its frozen iterate, x_t of its last completed step t."""
        tr = run(make_cfg("alone", alpha=0.0, sigma0=0.0, sigma1=0.0, eta=1.0, T=3))
        assert tr.final_iterate.shape == (1,)
        assert tr.final_iterate[0] == 0.0
        cfg = make_cfg("alone", alpha=0.0, eta=2.5, T=300)
        tr = run(cfg)
        assert tr.diverged and 0 < tr.steps_completed < 300
        assert np.all(np.abs(tr.final_iterate) <= simulator.DIVERGENCE_LIMIT)
        np.testing.assert_array_equal(
            tr.final_iterate,
            run(dataclasses.replace(cfg, horizon=tr.steps_completed)).final_iterate)

    @pytest.mark.parametrize("key,value", [("oracle_v", np.inf), ("oracle_v", np.nan),
                                           ("horizon", 20.5), ("horizon", np.float64(20.0)),
                                           ("warm_start_samples", 2.5),
                                           ("iterate_stride", -1), ("iterate_stride", 0.5)])
    def test_rejected_before_the_kernel(self, key, value):
        # iterate_stride is no longer a RunConfig field: any value is refused
        # as an unknown keyword.
        error = TypeError if key == "iterate_stride" else ValueError
        with pytest.raises(error, match=key):
            dataclasses.replace(make_cfg("oracle_bc"), **{key: value})

    @pytest.mark.parametrize("aggregator,a0,a1,x0,eta,match", [
        ("alone", 1.0, 2.0, 1e155, 1.0, "x0 entries"),
        ("alone", 1e150, 2.0, 1e10, 1e-150, "gradient norm"),
        ("wga", 1.0, 1e150, 5.0, 0.05, "gradient norm"),
    ], ids=["x0-outside-the-box", "main-gradient-overflows", "collaborator-gradient-overflows"])
    def test_overflowing_start_rejected(self, aggregator, a0, a1, x0, eta, match):
        """A start outside the box |x| <= DIVERGENCE_LIMIT, or a task the
        aggregator reads whose squared gradient norm can overflow inside
        it, is a ValueError: the first two ran on as not diverged, from a
        loss or gradient norm of inf, where the reference loop gives nan."""
        with pytest.raises(ValueError, match=match):
            run(dataclasses.replace(make_cfg(aggregator, alpha=0.0, a1=a1, eta=eta, T=3),
                                    main_task=QuadraticTask(a0, 0.0, noise_std=1.0), x0=x0))

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

    def reference_first_bias(self, cfg):
        """The first round's gavg - g0 of `reference_run`, its first_bias c_0."""
        tasks = [cfg.main_task] + list(cfg.collaborators)
        gens = [rng_mod.agent_stream(cfg.seed, a) for a in range(len(tasks))]
        g0, *gks = [sample_gradient(task, cfg.x0, g) for task, g in zip(tasks, gens)]
        return sum(cfg.weights.tau[k] * gks[k] for k in range(len(gks))) - g0

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

    def assert_c0_many_seeds(self, d, policy, reference):
        """One batch sets c_0 for all seeds at once, before step 0; each
        seed's c_0 and trace must equal its own single-seed reference, on
        scaled-noise tasks with two collaborators in dimension d."""
        curv = np.array([1.0, 2.0, 1.5, 2.5, 0.5, 3.0]).reshape(3, 2)[:, :d]
        main = QuadraticTask(curv[0], [0.0, 1.0][:d], noise_std=1.0, noise_scale=0.5)
        colls = [QuadraticTask(curv[1], [2.0, 0.0][:d], noise_std=2.0, noise_scale=0.2),
                 QuadraticTask(curv[2], [-1.0, 0.5][:d], noise_std=0.5, noise_scale=0.1)]
        cfg = RunConfig(main, colls, "bc", CollaborationWeights(0.3, [0.4, 0.6], beta=0.2),
                        0.02, 40, [-3.0, 2.1][:d], c0_policy=policy)
        seeds = list(range(11, 21))
        c0 = simulator._Batch([cfg], seeds, None).c
        assert c0.shape == (len(seeds), d)
        for seed, row in zip(seeds, c0, strict=True):
            assert row.tobytes() == reference(dataclasses.replace(cfg, seed=seed)).tobytes()
        res = run_replicated(cfg, seeds, keep_traces=True)
        assert not res.diverged_seeds
        for seed, tr in zip(seeds, res.traces):
            np.testing.assert_array_equal(
                tr.test_loss, self.reference_run(dataclasses.replace(cfg, seed=seed)))

    @pytest.mark.parametrize("d", [1, 2])
    def test_bitwise_match_warm_start_many_seeds(self, d):
        # At d = 1 a numpy sum over the samples would round c_0 differently
        # from the reference's running sum.
        self.assert_c0_many_seeds(d, "warm_start", self.reference_c0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_bitwise_match_first_bias_many_seeds(self, d):
        # c_0 is read from step 0's normals before the loop reads them again.
        self.assert_c0_many_seeds(d, "first_bias", self.reference_first_bias)

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

    def test_bitwise_match_all_kinds_in_one_call(self, kernel_calls):
        # Every aggregator under both noise layouts, so that each agent has
        # gradient-scaled noise in some configs of the call and additive
        # noise in others.
        kinds = [("alone", {}), ("wga", {}), ("bc", dict(beta=0.2)),
                 ("bc", dict(beta=0.2, c0_policy="warm_start")),
                 ("oracle_bc", dict(oracle_v=1.5))]
        cfgs = [self.mixed_noise_cfg(aggregator, 3, scaled_main, **kw)
                for scaled_main in (True, False) for aggregator, kw in kinds]
        seeds = [2, 9]
        results = simulator._replicate(cfgs, seeds, keep_traces=True)
        assert kernel_calls == [len(cfgs)]
        for cfg, res in zip(cfgs, results, strict=True):
            for seed, tr in zip(seeds, res.traces, strict=True):
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
        seeds = [0, 7, 13]
        for cfgs in self.nonlinear_cfgs():
            set_chunk(monkeypatch, 16, len(seeds), 16)
            alone = [batch_traces([cfg], seeds)[0] for cfg in cfgs]
            set_chunk(monkeypatch, 16, len(cfgs) * len(seeds), 16)
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
        # The kernel forms them a chunk at a time, with the same bits.
        for start, stop in ((0, 256), (1, 257), (12_345, 12_600), (T - 1, T)):
            np.testing.assert_array_equal(
                DecreasingPlSchedule(inputs, c).values(stop, start=start), loop[start:stop])


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

    @pytest.mark.parametrize("call", [
        lambda seeds: run_replicated(make_cfg(), seeds),
        lambda seeds: sweep(make_cfg(), "eta", [0.01, 0.02], seeds),
        lambda seeds: simulator._replicate([make_cfg(), make_cfg("alone")], seeds),
    ], ids=["run_replicated", "sweep", "_replicate"])
    def test_repeated_seeds_rejected(self, call):
        # Each seed is one independent run: a repeat would count one run twice.
        with pytest.raises(ValueError, match="repeated: 1, 4$"):
            call([1, 4, 2, 1, 4, 1])
        call([1, 4, 2])

    def test_batch_equals_single_runs(self):
        cfg = make_cfg("bc", beta=0.3, T=80)
        res = run_replicated(cfg, [4, 7, 11], keep_traces=True)
        for seed, tr in zip([4, 7, 11], res.traces):
            single = run(dataclasses.replace(cfg, seed=seed))
            np.testing.assert_array_equal(tr.test_loss, single.test_loss)

    @pytest.mark.parametrize("aggregator,kw", [
        ("alone", dict(alpha=0.0)),
        ("wga", {}),
        ("bc", dict(beta=0.3)),
        ("oracle_bc", dict(oracle_v=1.0)),
    ])
    def test_avg_grad_sq_is_the_trace_mean(self, monkeypatch, aggregator, kw):
        """avg_grad_sq_mean is the seed mean of each seed's gradient norms
        over steps 0 .. T-1, summed in step order and divided by T: within
        a relative 1e-12 of numpy's pairwise mean of `run`'s trace (a
        step-order sum of T = 700 terms >= 0 is within 700 eps = 1.6e-13
        of the exact sum), and bitwise the step-order loop's."""
        T, seeds = 700, [0, 3, 5]
        set_chunk(monkeypatch, 256, len(seeds))  # chunks of 256 steps
        cfg = make_cfg(aggregator, T=T, **kw)
        res = run_replicated(cfg, seeds)
        norms = [run(dataclasses.replace(cfg, seed=s)).grad_norm_sq[:T] for s in seeds]
        np.testing.assert_allclose(res.avg_grad_sq_mean,
                                   np.mean([row.mean() for row in norms]), rtol=1e-12, atol=0)
        in_order = []
        for row in norms:
            acc = 0.0
            for value in row:
                acc += value
            in_order.append(acc / T)
        assert res.avg_grad_sq_mean == np.mean(in_order)

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

    @pytest.mark.parametrize("axis,value", [("N", 1.5), ("T", 50.7), ("N", float("inf"))])
    def test_fractional_count_rejected(self, tmp_path, axis, value):
        # Truncated, N = 1.5 would run N = 1 under outputs named 1.5.
        base = make_cfg()
        with pytest.raises(ValueError, match=f"{axis} must be an integer, got {value}"):
            sweep(base, axis, [10, value], [0])
        assert sweep_config(base, axis, 10.0) == sweep_config(base, axis, 10)
        with pytest.raises(ValueError, match="N must be an integer"):
            figures.fig5(str(tmp_path), ns=(1.5, 10), horizon=30, seeds=[0])
        assert not list(tmp_path.iterdir())


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

    @pytest.mark.parametrize("eta", [1e-5, 1e-7])
    def test_fixed_point_in_exact_rationals(self, eta):
        """At a small step size, fig2's wga fixed point -b / (A - I) is its
        weighted optimum to 4 ulp of the exact rational value; b / (1 - A)
        would lose the digits of eta h that 1 - eta h rounds away."""
        cfg = sweep_config(figures._fig2_configs(100)[1], "eta", eta)
        alpha = Fraction(cfg.weights.alpha)
        (a0, x0), (a1, x1) = ((Fraction(float(t.curvature[0])), Fraction(float(t.optimum[0])))
                              for t in [cfg.main_task, *cfg.collaborators])
        want = ((1 - alpha) * a0 * x0 + alpha * a1 * x1) / ((1 - alpha) * a0 + alpha * a1)
        got = mean_fixed_point(cfg)[0]
        assert abs(Fraction(float(got)) - want) <= 4 * Fraction(math.ulp(float(want)))

    def test_matches_monte_carlo(self):
        """E[x_t] over 200 seeds, each x_t the final iterate of a run with
        horizon t, is within 3 SE of the oracle."""
        cfg = make_cfg("wga", alpha=0.5, sigma0=1.0, sigma1=1.0, eta=0.02, T=500)
        seeds = range(200)
        oracle = mean_dynamics_oracle(cfg)
        for t in range(100, 501, 100):
            res = run_replicated(dataclasses.replace(cfg, horizon=t), seeds, keep_traces=True)
            snaps = np.array([tr.final_iterate[0] for tr in res.traces])
            se = snaps.std(ddof=1) / np.sqrt(len(snaps))
            assert abs(snaps.mean() - oracle[t, 0]) <= 3 * max(se, 1e-12)

    def test_bc_unsupported(self):
        for cfg in (make_cfg("bc", beta=0.5), make_cfg("oracle_bc", oracle_v=1.0)):
            with pytest.raises(ValueError, match="supports alone and wga only"):
                mean_dynamics_oracle(cfg)

    def test_fixed_point_rejects_bc(self):
        # A noiseless bc run ends near 0 (BC removes the bias), not at the
        # WGA weighted optimum 4.0 of these tasks.
        cfg = make_cfg("bc", alpha=0.8, beta=0.5, sigma0=0.0, sigma1=0.0, a1=1.0,
                       x1star=5.0, eta=0.1, T=3000, c0_policy="zero")
        assert run(cfg).final_iterate[0] == pytest.approx(0.0, abs=1e-30)
        for kind in (cfg, dataclasses.replace(cfg, aggregator="oracle_bc")):
            with pytest.raises(ValueError, match="supports alone and wga only"):
                mean_fixed_point(kind)


ONLY = "supports alone and wga only"
CONSTANT = "requires a constant step size"
ADDITIVE = "requires additive noise"
DECREASING = DecreasingPlSchedule(schedule_inputs(
    QuadraticTask(1.0, 0.0, noise_std=1.0), [QuadraticTask(2.0, 2.0, noise_std=1.0)],
    CollaborationWeights(0.5, [1.0]), 200, 5.0))


class TestExpectedTestLoss:
    """The exact expected loss of Alone and WGA under additive noise
    against the seed mean of simulated runs."""

    SEEDS = range(200)
    Z = 4.0  # |seed mean - exact| <= Z sample SE
    TRANSIENT = (10, 40)  # two steps on the way down, before the plateau

    @staticmethod
    def cfg(aggregator, d, k):
        """d dimensions and k collaborators with distinct curvature, optima
        and noise, so that the WGA mix weighs each term by its own tau."""
        main = QuadraticTask(np.linspace(1.0, 1.5, d), np.zeros(d), noise_std=2.0)
        colls = [QuadraticTask(np.linspace(2.0, 1.2, d) * (1.0 + 0.25 * j),
                               np.full(d, 0.5 - j), noise_std=3.0 / (1 + j))
                 for j in range(k)]
        tau = [1.0] if k == 1 else [0.3, 0.7]
        w = CollaborationWeights(0.0 if aggregator == "alone" else 0.6, tau)
        return RunConfig(main, colls, aggregator, w, 0.05, 300, np.full(d, 4.0))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("aggregator", ["alone", "wga"])
    def test_matches_seed_mean(self, aggregator, d, k):
        cfg = self.cfg(aggregator, d, k)
        exact = expected_test_loss(cfg)
        assert exact.shape == (cfg.horizon + 1,)
        res = run_replicated(cfg, self.SEEDS, keep_traces=True)
        losses = np.array([tr.test_loss for tr in res.traces])
        n = len(self.SEEDS)
        for t in self.TRANSIENT:
            se = losses[:, t].std(ddof=1) / np.sqrt(n)
            assert abs(losses[:, t].mean() - exact[t]) <= self.Z * se, t
        plateau = exact[simulator._plateau_start(cfg.horizon):].mean()
        assert abs(res.plateau_mean - plateau) <= self.Z * res.plateau_se

    def test_first_steps(self):
        # Started at the mean's fixed point, only the variance moves: P_0 =
        # 0, P_1 = eta^2 s^2 and P_2 = eta^2 s^2 (1 + r^2), with s^2 and h
        # written out for alpha 0.6, tau (0.3, 0.7) and noise stds 2, 3, 1.5.
        cfg = self.cfg("wga", 3, 2)
        cfg = dataclasses.replace(cfg, x0=mean_fixed_point(cfg))
        a0, a1, a2 = (task.curvature for task in [cfg.main_task, *cfg.collaborators])
        s_sq = 0.4 ** 2 * 2.0 ** 2 + 0.6 ** 2 * (0.3 ** 2 * 3.0 ** 2 + 0.7 ** 2 * 1.5 ** 2)
        r = 1.0 - 0.05 * (0.4 * a0 + 0.6 * (0.3 * a1 + 0.7 * a2))
        P = 0.05 ** 2 * s_sq * np.array([np.zeros(3), np.ones(3), 1.0 + r ** 2])
        expected = 0.5 * np.sum(a0 * (cfg.x0 ** 2 + P), axis=1)
        np.testing.assert_allclose(expected_test_loss(cfg)[:3], expected, rtol=1e-12)

    def test_noiseless_run_is_exact(self):
        cfg = make_cfg("wga", alpha=0.4, sigma0=0.0, sigma1=0.0, T=60)
        np.testing.assert_allclose(expected_test_loss(cfg), run(cfg).test_loss,
                                   rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("cfg", [
        make_cfg("bc", beta=0.5),
        make_cfg("oracle_bc", oracle_v=1.0),
        make_cfg("wga", eta=DECREASING),
        dataclasses.replace(make_cfg("alone", alpha=0.0), main_task=QuadraticTask(
            1.0, 0.0, noise_std=1.0, noise_scale=0.5)),
        dataclasses.replace(make_cfg("wga"), collaborators=[QuadraticTask(
            2.0, 2.0, noise_std=1.0, noise_scale=0.1)]),
    ], ids=["bc", "oracle_bc", "decreasing_pl", "scaled_main", "scaled_collaborator"])
    def test_outside_the_class(self, cfg):
        with pytest.raises(ValueError):
            expected_test_loss(cfg)

    def test_r_minus_one(self):
        # eta h = 2: r = -1, so |mu_t - x*| stays 3 and P_t = eta^2 sigma^2 t.
        cfg = make_cfg("alone", alpha=0.0, sigma0=1.5, eta=2.0, T=40, x0=3.0)
        t = np.arange(41)
        np.testing.assert_allclose(expected_test_loss(cfg),
                                   0.5 * (9.0 + 2.0 ** 2 * 1.5 ** 2 * t), rtol=1e-14)

    @pytest.mark.parametrize("start", [-3, 2.5, 60], ids=["negative", "fractional", "past_T"])
    def test_start_outside_the_curve(self, start):
        # -3 names steps before step 0, whose variance term reads negative;
        # 2.5 names no step; 60 lies past T.
        cfg = figures._fig2_configs(50)[1]
        with pytest.raises(ValueError, match=r"start must be an integer in \[0, 50\]"):
            expected_test_loss(cfg, start)
        assert expected_test_loss(cfg, np.int64(50)).shape == (1,)


class TestClassRules:
    """Which configs the affine step and each exact moment take."""

    @pytest.mark.parametrize("cfg,in_class,loss,path,fixed_point", [
        (make_cfg("alone", alpha=0.0), True, None, None, None),
        (make_cfg("wga"), True, None, None, None),
        (make_cfg("bc", beta=0.5, c0_policy="zero"), True, ONLY, ONLY, ONLY),
        (make_cfg("bc", beta=0.5, c0_policy="warm_start"), True, ONLY, ONLY, ONLY),
        (make_cfg("bc", beta=0.5), True, ONLY, ONLY, ONLY),
        (make_cfg("oracle_bc", oracle_v=1.0), False, ONLY, ONLY, ONLY),
        (make_cfg("wga", eta=DECREASING), False, CONSTANT, CONSTANT, None),
        (dataclasses.replace(make_cfg("alone", alpha=0.0), main_task=QuadraticTask(
            1.0, 0.0, noise_std=1.0, noise_scale=0.5)), False, ADDITIVE, None, None),
        (dataclasses.replace(make_cfg("wga"), collaborators=[QuadraticTask(
            2.0, 2.0, noise_std=1.0, noise_scale=0.1)]), False, ADDITIVE, None, None),
    ], ids=["alone", "wga", "bc_zero", "bc_warm_start", "bc_first_bias", "oracle_bc",
            "decreasing_pl", "scaled_main", "scaled_collaborator"])
    def test_accepts_and_rejects(self, cfg, in_class, loss, path, fixed_point):
        """Each moment function raises its message (or accepts the config),
        and the class rule names the affine step for a config outside it."""
        [reason] = simulator._outside_affine_class([cfg])
        assert reason is None if in_class else reason.startswith("affine step")
        for moment, message in ((expected_test_loss, loss), (mean_dynamics_oracle, path),
                                (mean_fixed_point, fixed_point)):
            if message is None:
                assert np.isfinite(moment(cfg)).all()
            else:
                with pytest.raises(ValueError, match=message):
                    moment(cfg)

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5"])
    def test_figures_are_in_the_class(self, tmp_path, monkeypatch, name):
        ran = []

        def replicate(cfgs, *args, **kwargs):
            ran.extend(cfgs)
            return simulator._replicate(cfgs, *args, **kwargs)
        monkeypatch.setattr(figures, "_replicate", replicate)
        getattr(figures, name)(str(tmp_path), horizon=40, seeds=[0])
        assert ran and not any(simulator._outside_affine_class(ran))

    def test_class_rule_reads_each_config_alone(self):
        """Each config's reason, given beside configs in and outside the
        class, is the one it gets alone: a form or powers beyond the float
        range rule out only their own config."""
        cfgs = [make_cfg("alone", alpha=0.0, sigma0=0.0, x0=0.0, eta=1e20),
                make_cfg("wga", alpha=0.6), make_cfg("oracle_bc", oracle_v=1.0),
                dataclasses.replace(make_cfg("alone", alpha=0.0), collaborators=[
                    QuadraticTask(1e308, -100.0, noise_std=1.0)]),
                make_cfg("bc", beta=0.5), make_cfg("alone", alpha=0.0)]
        reasons = simulator._outside_affine_class(cfgs)
        assert reasons == [simulator._outside_affine_class([cfg])[0] for cfg in cfgs]
        assert [why is None for why in reasons] == [False, True, False, False, True, True]
        assert reasons[0] == reasons[3] == ("affine step requires a form and powers "
                                            "in the float range")


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
    np.testing.assert_array_equal(a.final_iterate, b.final_iterate)
    assert (a.final_gap, a.diverged, a.steps_completed) \
        == (b.final_gap, b.diverged, b.steps_completed)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts `_run_batch` calls and the configs each one ran."""
    calls = []
    original = simulator._run_batch

    def counting(cfgs, seeds, stride=None, affine=False):
        calls.append(len(cfgs))
        return original(cfgs, seeds, stride, affine)
    monkeypatch.setattr(simulator, "_run_batch", counting)
    return calls


@pytest.fixture
def steps_run(monkeypatch):
    """The name of each `_Batch` step form that runs, once per chunk."""
    names = []
    for name in ("step", "affine_step"):
        def wrapper(batch, *args, stage=getattr(simulator._Batch, name), name=name):
            names.append(name)
            return stage(batch, *args)
        monkeypatch.setattr(simulator._Batch, name, wrapper)
    return names


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

    def test_mixed_aggregators_share_one_call(self, kernel_calls):
        # Configs of every aggregator and c0_policy share one call.
        cfgs = [make_cfg("alone", alpha=0.0, T=120),
                make_cfg("bc", beta=0.3, T=120),
                make_cfg("wga", alpha=0.2, T=120),
                make_cfg("oracle_bc", oracle_v=1.0, T=120),
                make_cfg("wga", alpha=0.7, T=120),
                make_cfg("bc", beta=0.3, T=120, c0_policy="zero")]
        results = simulator._replicate(cfgs, self.SEEDS)
        assert kernel_calls == [6]
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
        # Chunks of 256 // d steps in a call of 4 configs x 3 seeds at d = 1
        # or 3 (256 * 12 // (12 * 3) = 85), so the 600-step draws span
        # several chunks and a short last one, as do the 6-config call's.
        set_chunk(monkeypatch, 256, 12)
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

    def assert_draws_once(self, draws, rows, d, cfgs):
        """`cfgs` in one `_replicate` call open each of their `rows`
        streams per seed once, and draw each once."""
        results = simulator._replicate(cfgs, self.SEEDS, keep_traces=True)
        keys, normals = list(draws["keys"]), draws["normals"]
        streams = len(self.SEEDS) * rows
        assert len(keys) == len(set(keys)) == streams
        assert normals == streams * cfgs[0].horizon * d
        for cfg, res in zip(cfgs, results):
            solo = run_replicated(cfg, self.SEEDS, keep_traces=True)
            assert_results_equal(res, solo)
            for tr, solo_tr in zip(res.traces, solo.traces, strict=True):
                assert_traces_equal(tr, solo_tr)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("aggregator", simulator.AGGREGATORS)
    def test_eta_sweep(self, draws, aggregator, d):
        base = self.base_cfg(aggregator, d)
        self.assert_draws_once(draws, self.ROWS[aggregator], d,
                               [sweep_config(base, "eta", v) for v in (0.01, 0.02, 0.05, 0.1)])

    @pytest.mark.parametrize("aggregator", simulator.AGGREGATORS)
    def test_mixed_noise_sigma_sweep(self, draws, aggregator):
        # Each config has its own noise std for both agents, so each lane
        # scales the shared normals by its own std after they are spread.
        base = self.base_cfg(aggregator, 3, scaled_collaborator=True)
        self.assert_draws_once(draws, self.ROWS[aggregator], 3,
                               [sweep_config(base, "sigma", v) for v in (0.5, 1.0, 2.0, 4.0)])

    @pytest.mark.parametrize("d", [1, 3])
    def test_bc_beside_oracle_bc(self, draws, d):
        # bc and oracle_bc lanes share one call, which draws the agents'
        # streams once for both kinds and the oracle's once per seed.
        cfgs = [sweep_config(self.base_cfg(aggregator, d), "eta", eta)
                for aggregator in ("bc", "oracle_bc") for eta in (0.01, 0.05)]
        self.assert_draws_once(draws, self.ROWS["oracle_bc"], d, cfgs)


    @pytest.mark.parametrize("d", [1, 3])
    def test_oracle_row_on_oracle_lanes_only(self, draws, d):
        # Every kind in one call, the oracle_bc configs last with their own
        # oracle_v: the oracle's row is spread and scaled over their lanes
        # alone, and every lane keeps the bits of its solo run.
        cfgs = [self.base_cfg(aggregator, d) for aggregator in ("alone", "wga")]
        cfgs += [sweep_config(self.base_cfg("bc", d), "eta", eta) for eta in (0.01, 0.05)]
        cfgs += [dataclasses.replace(self.base_cfg("oracle_bc", d), oracle_v=v)
                 for v in (0.5, 2.0)]
        self.assert_draws_once(draws, self.ROWS["oracle_bc"], d, cfgs)
        batch = simulator._Batch(cfgs, self.SEEDS, None)
        n, S = batch.chunk, len(self.SEEDS)
        batch.draw(n)
        z = batch.spread[:n]
        # Every stream's row over every lane: the two agents', then the oracle's.
        assert z.shape == (n, 3, 6 * S, d)
        # On the oracle_bc lanes, each oracle stream's normals times the lane's std.
        oracle = np.stack([rng_mod.agent_stream(s, 0, rng_mod.ORACLE_CONTEXT)
                           .standard_normal((n, d)) for s in self.SEEDS], axis=1)
        for j, cfg in enumerate(cfgs[-2:]):
            std = oracle_noise_std(cfg.oracle_v, 1, d)
            np.testing.assert_array_equal(z[:, 2, (4 + j) * S:(5 + j) * S], oracle * std)


class TestChunkLength:
    """The pre-draw chunk length, a config's batch-mates and a seed's seed
    list change no bit of its outputs, on the loop and on the affine step,
    and a wide batch draws at least 256 normals per generator call."""

    SEEDS = [0, 3, 5]

    @staticmethod
    def batch(kind, d):
        """(configs, affine) at T = 700.  For an aggregator, its eta sweep
        on the loop, whose lanes of eta >= 1.35 diverge in some
        aggregators: eta = 2.5 within the first 256 // d steps, and at
        least one other eta later.  For "affine", alone, wga and bc (zero
        and warm_start) at K = 2 (`TestAffineStep.kinds`) on the affine
        step, at eta 0.05, at 1.13, whose wga and bc lanes diverge after
        256 // d steps, and at 1.7, whose lanes diverge sooner."""
        if kind == "affine":
            return sorted((sweep_config(cfg, "eta", eta) for eta in (0.05, 1.13, 1.7)
                           for cfg in TestAffineStep.kinds(d, T=700)),
                          key=lambda cfg: simulator.AGGREGATORS.index(cfg.aggregator)), True
        base = dataclasses.replace(TestNoiseDraws.base_cfg(kind, d), horizon=700)
        return [sweep_config(base, "eta", eta) for eta in (0.05, 1.35, 1.4, 2.06, 2.5)], False

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("kind", [*simulator.AGGREGATORS, "affine"])
    def test_traces_do_not_depend_on_chunk_length(self, monkeypatch, kind, d):
        """Every `_run_batch` output of a config is bitwise that of the
        config run alone, and the same under any `_CHUNK_DRAWS`."""
        cfgs, affine = self.batch(kind, d)
        lanes, default = len(cfgs) * len(self.SEEDS), simulator._CHUNK_DRAWS
        # Each config alone; then the batch in chunks of 2 steps (on the
        # affine step, of one block of k), in draw blocks of 256 (d = 1) or
        # 86 (d = 3); of 60 (or 64 steps, at k = 16), in blocks of 300 or
        # 120, which end on a short block of 100; the default's; and the
        # whole horizon.
        runs = [[simulator._run_batch([cfg], self.SEEDS, 1, affine)[0] for cfg in cfgs]]
        for draws in (1, 60 * lanes * d, default, 1 << 24):
            monkeypatch.setattr(simulator, "_CHUNK_DRAWS", draws)
            runs.append(simulator._run_batch(cfgs, self.SEEDS, 1, affine))
        for outs in runs[1:]:
            for out, first in zip(outs, runs[0], strict=True):
                assert out[6] is first[6] is affine
                for value, want in zip(out[:6], first[:6], strict=True):
                    np.testing.assert_array_equal(value, want)
        died = [n for out in runs[0] for n in out[3] if n < 700]
        assert (runs[0][0][3] == 700).all()
        assert any(256 // d < n for n in died)
        # Every lane dies mid-block, and at chunks of 60 steps mid-chunk;
        # on the affine step, whose chunks there are 64 steps at d = 1,
        # also mid-chunk and in the middle of a block of k = 16 or 10 steps.
        periods = (60, 256 if d == 1 else 86) + (((64, 16) if d == 1 else (10,))
                                                 if affine else ())
        assert all(n % p for n in died for p in periods)

    @pytest.mark.parametrize("d", [1, 3])
    def test_affine_seed_does_not_depend_on_its_seed_list(self, d):
        """On the affine step, as on the loop (`TestMixedBatch`), a seed's
        window, gradient sum, steps completed, final iterate and rows are
        bitwise equal within any seed list that holds it."""
        cfgs, affine = self.batch("affine", d)
        full = simulator._run_batch(cfgs, self.SEEDS, 1, affine)
        for seeds in ([5], [3, 0], [5, 1, 0, 3]):
            for out, ref in zip(simulator._run_batch(cfgs, seeds, 1, affine), full, strict=True):
                for i, seed in enumerate(seeds):
                    if seed in self.SEEDS:
                        j = self.SEEDS.index(seed)
                        for value, want in zip(out[1:5], ref[1:5], strict=True):
                            np.testing.assert_array_equal(value[i], want[j])
                        np.testing.assert_array_equal(out[5][:, i], ref[5][:, j])

    @pytest.mark.parametrize("stride", [1, 3, 7, 256, 700, 701])
    def test_rows_at_a_stride(self, monkeypatch, stride):
        """Rows at stride s are the stride-1 rows at steps 0, s, 2s, ...
        <= T, across chunk ends (chunks of 256 steps, T = 700) and diverged
        lanes."""
        cfgs = [dataclasses.replace(cfg, horizon=700) for cfg in TestStages.mixed()]
        set_chunk(monkeypatch, 256, len(cfgs) * len(self.SEEDS))
        every = batch_traces(cfgs, self.SEEDS)
        for out, traces in zip(simulator._run_batch(cfgs, self.SEEDS, stride), every,
                               strict=True):
            losses, norms = out[5]
            assert losses.shape == (len(self.SEEDS), 700 // stride + 1)
            for loss, norm, tr in zip(losses, norms, traces, strict=True):
                np.testing.assert_array_equal(loss, tr.test_loss[::stride])
                np.testing.assert_array_equal(norm, tr.grad_norm_sq[::stride])

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
        # Small chunks, of 40 steps, so lanes die mid-chunk and the
        # survivors run on through later chunks.
        base = make_cfg(aggregator, T=300, **kw)
        # eta = 2.5 grows |x| about 1.5-fold a step: every seed diverges.
        cfgs = [sweep_config(base, "eta", eta) for eta in (0.05, 2.5, 0.1)]
        seeds = [0, 1, 2, 3]
        set_chunk(monkeypatch, 40, len(cfgs) * len(seeds))
        batch = batch_traces(cfgs, seeds)
        for cfg, traces in zip(cfgs, batch):
            for seed, tr in zip(seeds, traces):
                assert_traces_equal(tr, run(dataclasses.replace(cfg, seed=seed)))
        assert all(tr.diverged and 0 < tr.steps_completed < 300 and tr.steps_completed % 40
                   for tr in batch[1])
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


def simulated_pick(results, grid):
    """The (step size, RunResult) of `grid` with the lowest simulated mean
    plateau, from each value's result; the first grid value wins ties."""
    return min(zip(grid, results), key=lambda pair: pair[1].plateau_mean)


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
        eta, res = simulated_pick([res for _, res in sweep(base, "eta", grid, range(6))],
                                  grid)
        ref_eta, ref = self.loop_grid_search(
            lambda e: sweep_config(base, "eta", e), range(6), grid)
        assert eta == ref_eta
        assert_results_equal(res, ref)

    def test_first_value_wins_ties(self):
        # Noiseless and started at the optimum: every step size has exact
        # plateau 0.
        base = make_cfg("alone", alpha=0.0, sigma0=0.0, sigma1=0.0, x0=0.0, T=50)
        grid = (0.1, 0.05, 0.2)
        for eta in grid:
            assert not expected_test_loss(sweep_config(base, "eta", eta)).any()
        assert figures._exact_pick(base, grid) == 0.1


class TestExactPick:
    """fig2's step sizes, picked by the exact plateau, against the pick of
    the lowest simulated plateau over fig2's whole grid."""

    @staticmethod
    def picks(horizon, seeds):
        """Per tuned config of fig2, (exact pick, simulated pick), the
        latter from fig2's 8 grid configs, which fig2 itself does not
        simulate, run here as one kernel call."""
        grid = figures.ETA_GRID
        bases = figures._fig2_configs(horizon)[:2]
        results = simulator._replicate(
            [sweep_config(base, "eta", eta) for base in bases for eta in grid], seeds)
        return [(figures._exact_pick(base), simulated_pick(results[i:i + len(grid)], grid)[0])
                for base, i in zip(bases, (0, len(grid)))]

    @pytest.mark.parametrize("horizon,seeds", [(500, range(4)), (2000, range(4)),
                                               (5000, range(20))],
                             ids=["T500-seeds0-3", "T2000-seeds0-3", "T5000-seeds0-19"])
    def test_same_pick_as_the_simulated_grid(self, horizon, seeds):
        for exact, simulated in self.picks(horizon, seeds):
            assert exact == simulated

    def test_lucky_seeds(self):
        # Seeds 5000-5003 give alone at eta = 1e-2 a low simulated plateau
        # by chance; its exact plateau is higher than the exact pick's.
        base = figures._fig2_configs(500)[0]
        (exact, simulated), _ = self.picks(500, range(5000, 5004))
        assert (exact, simulated) == (1e-3, 1e-2)
        start = simulator._plateau_start(500)
        plateau = {eta: expected_test_loss(sweep_config(base, "eta", eta))[start:].mean()
                   for eta in (exact, simulated)}
        assert plateau[exact] < plateau[simulated]

    @pytest.mark.parametrize("horizon", [500, 200_000])
    def test_window_is_the_curve_slice(self, horizon):
        """The plateau window `_exact_pick` forms alone has the bits of the
        whole curve's slice, and the one call over the grid has, for each
        config, the bits of its own `expected_test_loss(cfg, start)` and of
        its window mean: for each fig2 base over its grid, and for a d = 3,
        K = 2 wga config at two step sizes."""
        start = simulator._plateau_start(horizon)
        wga = dataclasses.replace(TestExpectedTestLoss.cfg("wga", 3, 2), horizon=horizon)
        inputs = [(base, figures.ETA_GRID) for base in figures._fig2_configs(horizon)[:2]]
        for base, grid in inputs + [(wga, (0.05, 0.02))]:
            cfgs = [sweep_config(base, "eta", eta) for eta in grid]
            curves = simulator._expected_losses(cfgs, start)
            plateaus = figures._exact_plateaus(base, grid)
            for cfg, curve, plateau in zip(cfgs, curves, plateaus, strict=True):
                own = expected_test_loss(cfg, start)
                np.testing.assert_array_equal(own, expected_test_loss(cfg)[start:])
                np.testing.assert_array_equal(curve, own)
                assert plateau == own.mean()

    def test_one_form_per_pick(self, monkeypatch):
        """`_exact_pick` reads its whole grid from one `_affine_form` call."""
        calls = []
        form = simulator._affine_form

        def counted(cfgs, *args):
            calls.append(len(cfgs))
            return form(cfgs, *args)
        monkeypatch.setattr(simulator, "_affine_form", counted)
        for base in figures._fig2_configs(500)[:2]:
            calls.clear()
            figures._exact_pick(base)
            assert calls == [len(figures.ETA_GRID)]


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
        cfgs = sorted((sweep_config(cfg, "eta", eta) for eta in (0.05, 1.4, 2.06, 2.5)
                       for cfg in self.kinds(d)),
                      key=lambda cfg: simulator.AGGREGATORS.index(cfg.aggregator))
        set_chunk(monkeypatch, 256 // d, len(cfgs) * len(self.SEEDS), d)
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
                             0.05, 400, np.full(3, 4.0), **kw)
        return ([cfg("alone", 0.5), cfg("wga", 0.5)]
                + [cfg("bc", 0.6, 0.2, c0_policy=p) for p in simulator.C0_POLICIES])

    def test_two_collaborators_over_odd_chunks(self, monkeypatch):
        # At d = 3 a chunk holds 256 // 3 = 85 steps, an odd count, so
        # every other chunk starts at an odd step.  eta = 2.5 diverges in
        # the first chunk, 1.4 in a later one.
        cfgs = sorted((sweep_config(cfg, "eta", eta) for eta in (0.05, 1.4, 2.5)
                       for cfg in self.two_collaborator_kinds()),
                      key=lambda cfg: simulator.AGGREGATORS.index(cfg.aggregator))
        set_chunk(monkeypatch, 85, len(cfgs) * len(self.SEEDS), 3)
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
    """The kernel forms each config's seed sums and each seed's plateau
    window as it goes, and keeps no per-step rows unless asked; its
    aggregates are those of the stacked traces bit for bit."""

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
        # reduction would add pairwise.  The call has 4 configs x 8 seeds.
        set_chunk(monkeypatch, 256, 4 * len(self.SEEDS))
        for T in (600, 513):
            self.assert_streamed_equals_reduce(kernel_calls, T)

    def assert_streamed_equals_reduce(self, kernel_calls, T):
        """Each config's aggregates against those of its seeds' stacked
        stride-1 traces: np.mean over the seeds that did not diverge, and
        each one's mean over the plateau window."""
        cfgs = [make_cfg("bc", alpha=0.6, beta=0.2, T=T, c0_policy="zero"),
                make_cfg("alone", alpha=0.0, T=T), self.partly_diverging(T),
                make_cfg("wga", alpha=0.5, T=T, sigma0=3.0)]
        kernel_calls.clear()
        results = simulator._replicate(cfgs, self.SEEDS)
        # One call for the batch, and one replay of the diverging config.
        assert kernel_calls == [4, 1]
        start = simulator._plateau_start(T)
        for cfg, res in zip(cfgs, results, strict=True):
            [traces] = batch_traces([cfg], self.SEEDS)
            kept = [tr for tr in traces if not tr.diverged]
            assert res.seeds == self.SEEDS and res.traces is None
            np.testing.assert_array_equal(res.mean_test_loss,
                                          np.mean([tr.test_loss for tr in kept], axis=0))
            np.testing.assert_array_equal(res.mean_grad_norm_sq,
                                          np.mean([tr.grad_norm_sq for tr in kept], axis=0))
            np.testing.assert_array_equal(res.per_seed_plateau,
                                          [tr.test_loss[start:].mean() for tr in kept])
            np.testing.assert_array_equal(res.per_seed_final_gap, [tr.final_gap for tr in kept])
            assert res.diverged_seeds == [s for s, tr in zip(self.SEEDS, traces) if tr.diverged]
            np.testing.assert_allclose(res.avg_grad_sq_mean,
                                       np.mean([tr.grad_norm_sq[:T].mean() for tr in kept]),
                                       rtol=1e-12, atol=0)
        assert results[2].diverged_seeds == [1]
        # The config with a diverged seed is its run over the others.
        survivors = run_replicated(cfgs[2], [s for s in self.SEEDS if s != 1])
        for name in ("mean_test_loss", "mean_grad_norm_sq", "per_seed_plateau",
                     "per_seed_final_gap"):
            np.testing.assert_array_equal(getattr(results[2], name), getattr(survivors, name))
        for name in ("plateau_mean", "plateau_se", "final_gap_mean", "final_gap_se",
                     "avg_grad_sq_mean", "avg_grad_sq_se"):
            assert getattr(results[2], name) == getattr(survivors, name)

    def test_cli_writes_the_diverged_seeds_rows(self, tmp_path, capsys):
        """`cosgd run` writes every seed's rows at its stride, those of the
        diverged seed frozen from its last step on."""
        cfg = self.partly_diverging()
        # The same runs from the CLI's flags: alone reads the main task alone.
        assert cli.main(["run", "--aggregator", "alone", "--sigma", "1e9", "--eta", "2",
                         "--x0", "0.95e12", "--T", "600", "--seeds", "0-7",
                         "--csv-stride", "7", "--out-dir", str(tmp_path)]) == 0
        assert "diverged seeds: [1]" in capsys.readouterr().out
        for seed in self.SEEDS:
            tr = run(dataclasses.replace(cfg, seed=seed))
            assert tr.diverged == (seed == 1)
            write_csv(str(tmp_path / "expected.csv"), ["step", "test_loss", "grad_norm_sq"],
                      (np.arange(0, 601, 7), tr.test_loss[::7], tr.grad_norm_sq[::7]))
            assert ((tmp_path / f"trace_seed{seed}.csv").read_bytes()
                    == (tmp_path / "expected.csv").read_bytes())

    def test_cli_run_holds_its_rows_at_the_stride(self, tmp_path):
        """`cosgd run` over 64 seeds at T = 50 000 and stride 10 peaks below
        one (lanes, T+1) float64 array: each lane's rows are kept at the
        stride, and only its plateau window at every step."""
        T, lanes = 50_000, 64
        tracemalloc.start()
        try:
            code = cli.main(["run", "--aggregator", "bc", "--alpha", "0.9090909090909091",
                             "--beta", "1e-4", "--eta", "1e-4", "--T", str(T),
                             "--seeds", f"0-{lanes - 1}", "--csv-stride", "10",
                             "--out-dir", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(list(tmp_path.glob("trace_seed*.csv"))) == lanes
        assert peak < lanes * (T + 1) * 8, peak / 1e6

    def test_all_seeds_diverged(self):
        cfgs = [make_cfg("wga", T=40), make_cfg("alone", alpha=0.0, a1=1.0, eta=2.5e12, T=40)]
        messages = []
        for keep_traces in (False, True):
            with pytest.raises(simulator.AllSeedsDiverged) as err:
                simulator._replicate(cfgs, [0, 1], keep_traces=keep_traces)
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
        """Axis reductions over rows read in place, as views of a (2,
        lanes, T+1) array, or over the rows of the seeds that did not
        diverge, give the bits of a mean per row (pairwise over the row)
        and of np.mean over the listed rows; `_reduce` so takes each
        seed's plateau from its window."""
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
        """Kept traces are views of the kernel's rows: a 64-seed
        `run_replicated` with its traces kept at stride 1 allocates at most
        1.2x the kernel's (2, 64, T+1) rows at its peak.  A stacked copy
        of the seeds' losses alone would add 0.5x."""
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

    def test_batch_spans_the_horizon_only_in_its_outputs(self):
        """Building a loop batch without rows allocates its plateau windows
        and seed sums, and under a stated bound beside them: every other
        array spans one chunk of steps, one draw block of each stream, or
        one value per lane.  fig2's whole eta grid and bc (9 configs, 20
        seeds, T = 200 000) take chunks of 91 steps, in draw blocks of 3
        chunks, and at most 0.1x their 57.6 MB of outputs beside them.
        `cosgd run`'s one bc config over 256 seeds at T = 10 000 and d = 1
        takes chunks of 64 steps, in draw blocks of 4 chunks, and under 3
        MB beside its 2.2 MB of outputs, 1 MB of it the blocks (2 streams
        x 256 seeds x 256 steps)."""
        T = 200_000
        fig2 = ([make_cfg("alone", alpha=0.0, eta=eta, T=T) for eta in figures.ETA_GRID]
                + [make_cfg("wga", eta=eta, T=T) for eta in figures.ETA_GRID]
                + [make_cfg("bc", beta=1e-4, eta=1e-4, T=T, c0_policy="zero")])
        wide = [make_cfg("bc", alpha=0.9090909090909091, beta=1e-3, eta=1e-3, T=10_000,
                         c0_policy="warm_start")]
        for cfgs, seeds, chunk, block, outputs_mb, rest_mb in (
                (fig2, range(20), 91, 273, 57.6, 5.76), (wide, range(256), 64, 256, 2.2, 3.0)):
            tracemalloc.start()
            try:
                batch = simulator._Batch(cfgs, seeds, None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (batch.chunk, batch.buf.shape[2]) == (chunk, block)
            outputs = batch.window.nbytes + batch.sums.nbytes + batch.grad_sums.nbytes
            assert round(outputs / 1e6, 1) == outputs_mb
            assert peak - outputs < rest_mb * 1e6, (peak - outputs) / 1e6
            del batch  # fig2's outputs, before the next batch is built


class TestOneCallPerFigure:
    @pytest.mark.parametrize("name,configs", [("fig2", 3), ("fig3", 4), ("fig4", 5),
                                              ("fig5", 3)])
    def test_figure_is_one_streamed_call(self, tmp_path, monkeypatch, steps_run, name,
                                         configs):
        """One kernel call per figure, without rows, and its one chunk
        takes the affine step."""
        calls = []
        original = simulator._run_batch

        def counting(cfgs, seeds, stride=None, affine=False):
            calls.append((len(cfgs), stride, affine))
            return original(cfgs, seeds, stride, affine)
        monkeypatch.setattr(simulator, "_run_batch", counting)
        getattr(figures, name)(str(tmp_path), horizon=30, seeds=[0, 1])
        assert calls == [(configs, None, True)]
        assert steps_run == ["affine_step"]


class TestStages:
    """`_run_batch` runs each chunk of steps through `_Batch`'s stages,
    which profilers and other step forms look up by name."""

    @staticmethod
    def mixed():
        """Alone, wga and bc lanes, those at eta = 2.5 diverging in the
        first chunk while the others run on."""
        return sorted((sweep_config(cfg, "eta", eta) for eta in (0.05, 2.5)
                       for cfg in TestMixedBatch.kinds(1)),
                      key=lambda cfg: simulator.AGGREGATORS.index(cfg.aggregator))

    @pytest.mark.parametrize("rows", [False, True])
    @pytest.mark.parametrize("cfgs,stepped,affine", [
        pytest.param(mixed(), [0, 256, 512], False, id="cfgs0-stepped0"),
        # The same batch on the affine step: each of its configs, bc under
        # every c0_policy among them, is in the affine class.
        pytest.param(mixed(), [0, 256, 512], True, id="affine-cfgs0-stepped0"),
        # Every lane dies in the first chunk: the later ones draw nothing.
        pytest.param([make_cfg("alone", alpha=0.0, a1=1.0, eta=2.5e12)], [0], False,
                     id="cfgs1-stepped1"),
        pytest.param([make_cfg("alone", alpha=0.0, a1=1.0, eta=2.5e12)], [0], True,
                     id="affine-cfgs1-stepped1"),
    ])
    def test_each_stage_once_per_chunk(self, monkeypatch, cfgs, stepped, affine, rows):
        # Chunks of 256 steps; T = 700 ends on a chunk of 188.
        cfgs = [dataclasses.replace(cfg, horizon=700) for cfg in cfgs]
        seeds, stride = [0, 3, 5], 3 if rows else None
        set_chunk(monkeypatch, 256, len(cfgs) * len(seeds))
        plain = simulator._run_batch(cfgs, seeds, stride, affine)
        assert any((out[3] < 700).any() for out in plain)
        step = "affine_step" if affine else "step"
        calls = []
        # Each stage in call order, with its chunk's first step t0, or for
        # `draw` its chunk's step count n.
        for name in ("draw", "step", "affine_step", "freeze", "record"):
            def wrapper(batch, *args, stage=getattr(simulator._Batch, name), name=name):
                calls.append((name, args[0] if name == "draw" else args[1]))
                return stage(batch, *args)
            monkeypatch.setattr(simulator._Batch, name, wrapper)
        wrapped = simulator._run_batch(cfgs, seeds, stride, affine)
        want = []
        for t0, n in ((0, 256), (256, 256), (512, 188)):
            if t0 in stepped:
                want += [("draw", n), (step, t0)]
            want += [("freeze", t0), ("record", t0)]
        assert calls == want
        for rows, plain_rows in zip(wrapped, plain, strict=True):
            for out, plain_out in zip(rows, plain_rows, strict=True):
                if plain_out is None:
                    assert out is None
                else:
                    np.testing.assert_array_equal(out, plain_out)


@st.composite
def affine_batches(draw):
    """A batch of the affine class and its 3 seeds: d and K in {1, 2, 3};
    curvatures over two decades and noise stds over three, optima and x_0
    in [-5, 5]; 1 to 4 configs of alone, wga and bc, sorted by kind, each
    with its own tau on the simplex, alpha in [0, 1), beta in (0, 1], c_0
    under any c0_policy and eta over three decades up to 2.2 / lambda_max,
    so that some lanes diverge; configs `_validate` rejects are left out.
    T is 1, 2, k - 1, k + 1 or chunk + 1 for the block length k, set by d,
    and the batch's chunk at a long horizon, the loop's rounded up to
    whole blocks."""
    d, K = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def values(lo, hi, n):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    def task():
        return QuadraticTask(10.0 ** values(-1, 1, d), values(-5, 5, d),
                             noise_std=10.0 ** draw(st.floats(-2, 1)))
    main, colls, x0 = task(), [task() for _ in range(K)], values(-5, 5, d)
    cfgs = []
    for _ in range(draw(st.integers(1, 4))):
        kind, tau = draw(st.sampled_from(["alone", "wga", "bc"])), values(0.01, 1.0, K)
        w = CollaborationWeights(
            0.0 if kind == "alone" else draw(st.floats(0.0, 1.0, exclude_max=True)),
            tau / tau.sum(), draw(st.floats(0.0, 1.0, exclude_min=True)) if kind == "bc" else None)
        # lambda_max, the largest curvature h of the mixed gradient's x term.
        h = (1.0 - w.alpha) * main.curvature + w.alpha * tau_sum(w.tau, [c.curvature for c in colls])
        cfg = RunConfig(main, colls, kind, w, 10.0 ** draw(st.floats(-3, 0)) * 2.2 / h.max(), 1,
                        x0, c0_policy=draw(st.sampled_from(["first_bias", "zero", "warm_start"])))
        try:
            simulator._validate(cfg)
        except ValueError:
            continue
        cfgs.append(cfg)
    assume(cfgs)
    cfgs.sort(key=lambda cfg: simulator.AGGREGATORS.index(cfg.aggregator))
    seeds = draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=3, max_size=3, unique=True))
    k = math.isqrt(max(2, 256 // d) - 1) + 1
    chunk = k * -(-max(simulator._CHUNK_DRAWS // (len(cfgs) * len(seeds) * d), 2) // k)
    T = draw(st.sampled_from([1, 2, k - 1, k + 1, chunk + 1]))
    return [dataclasses.replace(cfg, horizon=T) for cfg in cfgs], seeds


class TestAffineStep:
    """`_Batch.affine_step` against the loop: one step of the form on
    the same normals, whole runs on the same seeds, and the configs that
    keep the loop."""

    # The affine step rounds in another order than the loop, so runs on
    # the same seeds agree to a relative RTOL, and below a loss of ATOL,
    # the floor for bc lanes near zero loss, to ATOL.
    RTOL, ATOL = 1e-9, 1e-12
    Z = 4.0  # |seed mean plateau - exact plateau| <= Z sample SE
    SEEDS = range(20)

    @staticmethod
    def kinds(d, eta=0.05, T=5000):
        """Alone, wga, and bc with c_0 zero and warm-started, at d
        dimensions and K = 2 collaborators whose curvature, optima, noise
        and tau all differ."""
        main = QuadraticTask(np.linspace(1.0, 1.5, d), np.zeros(d), noise_std=2.0)
        colls = [QuadraticTask(np.linspace(2.0, 1.2, d) * (1.0 + 0.25 * j),
                               np.full(d, 0.5 - j), noise_std=3.0 / (1 + j))
                 for j in range(2)]

        def cfg(aggregator, alpha, beta=None, **kw):
            return RunConfig(main, colls, aggregator,
                             CollaborationWeights(alpha, [0.3, 0.7], beta=beta),
                             eta, T, np.full(d, 4.0), **kw)
        return [cfg("alone", 0.0), cfg("wga", 0.6), cfg("bc", 0.6, 0.2, c0_policy="zero"),
                cfg("bc", 0.6, 0.2, c0_policy="warm_start")]

    @pytest.mark.parametrize("d", [1, 3])
    def test_form_is_one_loop_step(self, d):
        """s + (A - I) s + b + B z, for s = (x, c) off the fixed point and
        z one step's unit normals, is the loop's step from (x, c) on the
        same normals, to 1e-12 (a few ulps of the step's O(1) terms)."""
        cfgs, seeds = self.kinds(d), [0, 7]
        loop, batch = simulator._Batch(cfgs, seeds, None), simulator._Batch(cfgs, seeds, None, True)
        assert batch.affine and not loop.affine
        L, B, form = batch.L, batch.B, batch.form
        rng = np.random.default_rng(1)
        x, c = rng.normal(0.0, 2.0, (L, d)), np.zeros((L, d))
        c[L - B:] = rng.normal(0.0, 2.0, (B, d))
        loop.draw(1)
        batch.draw(1)
        unit = batch.spread[:1]
        assert batch.eta_all is None  # A, b and B hold the step sizes
        np.testing.assert_array_equal(loop.spread[:1], unit * loop.stds)
        loop.X[0], loop.c[:] = x, c[L - B:]
        loop.step(loop.X[:2], 1)
        s = np.stack([x, c])
        want = (s + form.diag * s + form.off * s[::-1] + form.b
                + np.sum(form.B * unit[0], axis=1))
        np.testing.assert_allclose(want[0], loop.X[1], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(want[1, L - B:], loop.c, rtol=1e-12, atol=1e-12)
        assert not want[1, :L - B].any()  # alone and wga lanes keep c = 0

    def assert_close(self, affine, loop):
        np.testing.assert_allclose(affine, loop, rtol=self.RTOL, atol=self.ATOL)

    def assert_results_close(self, affine, loop):
        for name in ("mean_test_loss", "mean_grad_norm_sq", "per_seed_plateau",
                     "per_seed_final_gap"):
            self.assert_close(getattr(affine, name), getattr(loop, name))
        assert affine.diverged_seeds == loop.diverged_seeds

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5"])
    def test_figure_against_the_loop(self, tmp_path, monkeypatch, name):
        """Each figure's curves, simulated with the affine step, against
        the loop on the same seeds; and its alone and wga plateaus against
        their exact value."""
        ran = []

        def replicate(cfgs, seeds, *args, **kwargs):
            ran.append((cfgs, seeds, simulator._replicate(cfgs, seeds, *args, **kwargs)))
            return ran[-1][2]
        monkeypatch.setattr(figures, "_replicate", replicate)
        getattr(figures, name)(str(tmp_path), horizon=5000, seeds=self.SEEDS)
        [(cfgs, seeds, results)] = ran
        assert not any(simulator._outside_affine_class(cfgs))
        for cfg, affine, loop in zip(cfgs, results, simulator._replicate(cfgs, seeds),
                                     strict=True):
            self.assert_results_close(affine, loop)
            if cfg.aggregator != "bc":
                exact = expected_test_loss(cfg)[simulator._plateau_start(cfg.horizon):].mean()
                assert abs(affine.plateau_mean - exact) <= self.Z * affine.plateau_se

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(affine_batches())
    def test_fuzzed_batches_against_the_loop(self, batch):
        """Per config, each seed completes as many steps on the affine step
        as on the loop, and a completed seed's window, gradient sum and
        final iterate agree."""
        cfgs, seeds = batch
        assert not any(simulator._outside_affine_class(cfgs))
        affine, loop = (simulator._run_batch(cfgs, seeds, None, flag) for flag in (True, False))
        for out, ref in zip(affine, loop, strict=True):
            np.testing.assert_array_equal(out[3], ref[3])
            ok = out[3] == cfgs[0].horizon
            for i in (1, 2, 4):
                self.assert_close(out[i][ok], ref[i][ok])

    def test_mixed_batch_against_the_loop(self):
        """At d = 3 and K = 2, every output of a batch of each kind, at a
        step size that converges and at one whose lanes diverge: a
        diverging lane completes as many steps and is frozen at the same
        iterate as under the loop."""
        cfgs = sorted((sweep_config(cfg, "eta", eta) for eta in (0.05, 1.7)
                       for cfg in self.kinds(3)),
                      key=lambda cfg: simulator.AGGREGATORS.index(cfg.aggregator))
        assert self.assert_batch_close(cfgs, range(8)) > 0

    def assert_batch_close(self, cfgs, seeds) -> int:
        """Every output of one batch on the affine step against the loop,
        each lane's steps completed equal; returns how many lanes died."""
        assert simulator._Batch(cfgs, seeds, 1, True).affine
        affine, loop = (simulator._run_batch(cfgs, seeds, 1, flag) for flag in (True, False))
        died = 0
        for out, ref in zip(affine, loop, strict=True):
            means, window, grad_sums, steps, finals, rows, _ = out
            np.testing.assert_array_equal(steps, ref[3])
            died += int((steps < cfgs[0].horizon).sum())
            for value, want in zip((means, window, grad_sums, finals, rows),
                                   (ref[0], ref[1], ref[2], ref[4], ref[5])):
                self.assert_close(value, want)
        return died

    @pytest.mark.parametrize("T", [1, 2, 9, 11, 351, 361],
                             ids=["1", "2", "k-1", "k+1", "chunk+1", "chunk+k+1"])
    def test_short_blocks_and_chunks(self, T):
        """Horizons whose one chunk, or last chunk, is shorter than a
        block or not a multiple of k, for k = 10 at d = 3 and this batch's
        chunk of 350 steps at a long horizon, the loop's 341 rounded up to
        whole blocks: the blocks past the last step read zero normals."""
        cfgs, seeds = self.kinds(3), range(4)
        batch = simulator._Batch(cfgs, seeds, None, True)
        assert (batch.chunk, batch.work.shape[0]) == (350, 10)
        self.assert_batch_close([dataclasses.replace(cfg, horizon=T) for cfg in cfgs], seeds)

    def test_batch_without_bc_lanes(self):
        """Alone and wga lanes only, as in fig4: the state is x alone, and
        the last chunk is shorter than the others."""
        cfgs = [dataclasses.replace(cfg, horizon=1000) for cfg in self.kinds(3)[:2]]
        batch = simulator._Batch(cfgs, range(4), None, True)
        assert batch.state.shape[1] == 1 and batch.A_blocks[1] is None
        self.assert_batch_close(cfgs, range(4))

    @pytest.mark.parametrize("kind,eta", [(0, 2.01), (1, 1.12), (2, 1.1)],
                             ids=["alone", "wga", "bc"])
    def test_one_lane_diverges_in_a_late_block(self, kind, eta):
        """One lane whose one chunk is the whole horizon, 1024 blocks of
        k = 16 steps, leaves the box several blocks in: it completes as
        many steps as under the loop."""
        cfg = self.kinds(1, eta=eta, T=16384)[kind]
        batch = simulator._Batch([cfg], [0], None, True)
        assert (batch.chunk, batch.work.shape[0]) == (16384, 16)
        assert self.assert_batch_close([cfg], [0]) == 1

    def test_overflowing_powers_keep_the_loop(self, steps_run):
        """A config whose A^k is beyond the float range is outside the class
        and runs the loop, bit for bit: here x stays at its optimum 0, where
        inf times 0 would be nan."""
        cfg = make_cfg("alone", alpha=0.0, sigma0=0.0, x0=0.0, eta=1e20, T=300)
        assert simulator._outside_affine_class([cfg])[0].startswith("affine step")
        res = simulator._replicate([cfg], [0], keep_traces=True, affine=True)[0]
        assert set(steps_run) == {"step"}
        assert not res.diverged_seeds and not res.mean_test_loss.any()
        loop = simulator._replicate([cfg], [0], keep_traces=True)[0]
        assert_results_equal(res, loop)
        assert_traces_equal(res.traces[0], loop.traces[0])

    def test_diverged_seeds_replay_on_the_step_taken(self, kernel_calls):
        """Q's seeds that diverge on the affine step are left out of its
        seed means by a replay on that step, so its result is bitwise that
        of its seeds that do not diverge, run alone.  P's powers leave the
        float range, so beside Q it runs the loop, bitwise as alone, while
        Q keeps the affine step; beside batch-mates of the class, too, Q's
        result is its own."""
        P = make_cfg("alone", alpha=0.0, sigma0=0.0, x0=0.0, eta=1e20, T=1000)
        Q = make_cfg("alone", alpha=0.0, sigma0=5e11, eta=0.5, T=1000)
        seeds = range(8)
        alone = simulator._replicate([Q], seeds, affine=True)[0]
        assert alone.diverged_seeds == [0, 1, 3, 5, 7]
        assert_results_equal(dataclasses.replace(alone, diverged_seeds=[]),
                             simulator._replicate([Q], [2, 4, 6], affine=True)[0])
        kernel_calls.clear()
        beside = simulator._replicate([P, Q], seeds, affine=True)
        calls = kernel_calls[:]
        assert_results_equal(beside[1], alone)
        assert_results_equal(beside[0], simulator._replicate([P], seeds)[0])
        assert sorted(calls) == [1, 1, 1]  # P's loop, Q's affine step and Q's replay
        mates = [Q, make_cfg("wga", T=1000),
                 make_cfg("bc", alpha=0.6, beta=0.2, T=1000, c0_policy="zero")]
        assert_results_equal(simulator._replicate(mates, seeds, affine=True)[0], alone)

    @pytest.mark.parametrize("outside", [
        dict(aggregator="oracle_bc", oracle_v=1.5),
        dict(aggregator="wga", main_task=QuadraticTask(1.0, 0.0, noise_std=1.0,
                                                       noise_scale=0.5)),
        # The form's sum_k tau_k a_k x_k* is inf, times an alone config's tau of 0.
        dict(aggregator="alone", collaborators=[QuadraticTask(1e308, -100.0, noise_std=1.0)]),
    ], ids=["oracle_bc", "scaled_noise", "overflowing_form"])
    def test_outside_the_class_keeps_the_loop(self, steps_run, outside):
        """Asked for the affine step, a config outside its class runs the
        loop, every lane equal to the reference loop bit for bit, while
        its batch-mates of the class take the affine step, each bitwise as
        run alone."""
        inside = [make_cfg("alone", alpha=0.0, T=60), make_cfg("wga", alpha=0.6, T=60),
                  make_cfg("bc", alpha=0.6, beta=0.2, T=60, c0_policy="zero")]
        odd = dataclasses.replace(make_cfg(T=60), **outside)
        assert simulator._outside_affine_class([odd])[0]
        seeds = [0, 12]
        results = simulator._replicate([odd, *inside], seeds, keep_traces=True, affine=True)
        ran = steps_run[:]
        reference = TestReferenceEquivalence()
        for seed, tr in zip(seeds, results[0].traces, strict=True):
            with np.errstate(over="ignore", invalid="ignore"):  # an unread gradient may overflow
                want = reference.reference_run(dataclasses.replace(odd, seed=seed))
            np.testing.assert_array_equal(tr.test_loss, want)
        for cfg, res in zip(inside, results[1:], strict=True):
            own = simulator._replicate([cfg], seeds, keep_traces=True, affine=True)[0]
            assert_results_equal(res, own)
            for tr, want in zip(res.traces, own.traces, strict=True):
                assert_traces_equal(tr, want)
        assert sorted(ran) == ["affine_step", "step"]
