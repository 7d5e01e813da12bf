import numpy as np
import pytest

from cosgd.objective import (QuadraticTask, eval_loss, noise_std, similarity_params,
                             true_gradient)
from cosgd.rng import agent_stream
from reference_rules import gradient_noise_std, mean_estimation_task, sample_gradient


def task(a, xstar, sigma=0.0, scale=0.0):
    return QuadraticTask(curvature=a, optimum=xstar, noise_std=sigma,
                         noise_scale=scale)


class TestQuadraticTask:
    def test_rejects_nonpositive_curvature(self):
        with pytest.raises(ValueError):
            task(0.0, 0.0)
        with pytest.raises(ValueError):
            task([1.0, -1.0], [0.0, 0.0])

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            task(1.0, 0.0, sigma=-1.0)
        with pytest.raises(ValueError):
            task(1.0, 0.0, scale=-0.5)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            task([1.0, 2.0], [0.0])

    def test_smoothness_and_pl(self):
        t = task([1.0, 3.0], [0.0, 0.0])
        assert t.smoothness == 3.0
        assert t.pl_constant == 1.0


class TestEvalLoss:
    def test_at_optimum(self):
        assert eval_loss(task(1.0, 0.0), 0.0) == 0.0

    def test_unit_curvature(self):
        assert eval_loss(task(1.0, 0.0), 2.0) == 2.0

    def test_default_collaborator(self):
        assert eval_loss(task(2.0, 2.0), 0.0) == 4.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_loss(task(1.0, 0.0), [1.0, 2.0])


class TestTrueGradient:
    def test_values(self):
        assert true_gradient(task(1.0, 0.0), 3.0) == pytest.approx([3.0])
        assert true_gradient(task(2.0, 2.0), 2.0) == pytest.approx([0.0])
        assert true_gradient(task(2.0, 2.0), 0.0) == pytest.approx([-4.0])

    def test_multidim(self):
        g = true_gradient(task([1.0, 2.0], [0.0, 1.0]), [2.0, 3.0])
        assert g == pytest.approx([2.0, 4.0])


class TestSampleGradient:
    def test_noiseless_is_exact(self):
        t = task(2.0, 2.0)
        s = sample_gradient(t, 0.0, agent_stream(0, 0))
        assert isinstance(s, np.ndarray)
        np.testing.assert_array_equal(s, true_gradient(t, 0.0))

    def test_unbiased_clt(self):
        t = task(1.0, 0.0, sigma=10.0)
        g = agent_stream(7, 0)
        draws = np.array([sample_gradient(t, 3.0, g)[0]
                          for _ in range(10 ** 5)])
        assert abs(draws.mean() - 3.0) < 3 * 10.0 / np.sqrt(10 ** 5)

    def test_variance_law_with_scale(self):
        # sigma=1, M=1, ||grad||^2 = 4 -> variance 5
        t = task(1.0, 0.0, sigma=1.0, scale=1.0)
        g = agent_stream(3, 0)
        x = 2.0
        draws = np.array([sample_gradient(t, x, g)[0]
                          for _ in range(10 ** 5)])
        assert draws.var() == pytest.approx(5.0, rel=0.1)

    def test_variance_law_multidim_isotropic(self):
        t = task([1.0, 1.0], [0.0, 0.0], sigma=2.0, scale=3.0)
        grad = true_gradient(t, [1.0, 1.0])
        std = gradient_noise_std(t, grad)
        # per-coordinate variance sigma^2 + M ||grad||^2 / d = 4 + 3*2/2
        assert std[0] ** 2 == pytest.approx(7.0)

    def test_deterministic_given_stream(self):
        t = task(1.0, 0.0, sigma=5.0)
        s1 = sample_gradient(t, 1.5, agent_stream(11, 2))
        s2 = sample_gradient(t, 1.5, agent_stream(11, 2))
        np.testing.assert_array_equal(s1, s2)


class TestNoiseStdOut:
    def test_same_bits_into_out(self):
        # The kernel's per-lane form: (A, L, 1) var and scale, (A, L, d) grad.
        rng = np.random.default_rng(4)
        var, scale = rng.uniform(0.5, 4.0, (2, 3, 5, 1))
        grad = rng.normal(0.0, 1e3, (3, 5, 2))
        out, tmp = np.empty((3, 5, 1)), np.empty((3, 5, 2))
        expected = noise_std(var, scale, grad, 2)
        assert noise_std(var, scale, grad, 2, out, tmp) is out
        assert out.tobytes() == expected.tobytes()


class TestSimilarityParams:
    def test_default_instance(self):
        sim = similarity_params(task(1.0, 0.0), [task(2.0, 2.0)], [1.0])
        assert sim.hessian_dissimilarity == 1.0
        assert sim.grad_offset_sq == pytest.approx(16.0)
        assert sim.smoothness == 1.0
        assert sim.pl_constant == 1.0
        assert sim.grad_scale_mismatch == pytest.approx(1.0)

    def test_identical_collaborator(self):
        sim = similarity_params(task(1.5, 0.5), [task(1.5, 0.5)], [1.0])
        assert sim.hessian_dissimilarity == 0.0
        assert sim.grad_offset_sq == 0.0
        assert sim.grad_scale_mismatch == 0.0

    def test_small_delta_big_zeta_family(self):
        dp, zp = 0.25, 7.0
        coll = task(1.0 + dp, zp / (1.0 + dp))
        sim = similarity_params(task(1.0, 0.0), [coll], [1.0])
        assert sim.hessian_dissimilarity == pytest.approx(dp)
        assert sim.grad_offset_sq == pytest.approx(zp ** 2)

    def test_empty_collaborators(self):
        with pytest.raises(ValueError):
            similarity_params(task(1.0, 0.0), [], [])

    def test_tau_off_simplex(self):
        with pytest.raises(ValueError):
            similarity_params(task(1.0, 0.0), [task(2.0, 2.0)], [0.5])

    def test_gradient_similarity_inequality(self):
        # With the exact constants, the similarity inequality holds in its
        # factor-2 split form at every point, with equality at x = x_0*.
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.integers(1, 4)
            main = task(rng.uniform(0.5, 3.0, d), rng.uniform(-2, 2, d))
            coll = task(rng.uniform(0.5, 3.0, d), rng.uniform(-2, 2, d))
            sim = similarity_params(main, [coll], [1.0])
            m, z = sim.grad_scale_mismatch, sim.grad_offset_sq
            for x in rng.uniform(-10, 10, size=(50, d)):
                diff = true_gradient(coll, x) - true_gradient(main, x)
                lhs = float(np.dot(diff, diff))
                g0 = true_gradient(main, x)
                assert lhs <= 2 * m * float(np.dot(g0, g0)) + 2 * z + 1e-9
            at_opt = true_gradient(coll, main.optimum) - true_gradient(main, main.optimum)
            assert float(np.dot(at_opt, at_opt)) == pytest.approx(z)


class TestMeanEstimationTask:
    def test_definitional(self):
        t = mean_estimation_task(0.0, 1.0)
        assert t.curvature[0] == 1.0
        assert t.optimum[0] == 0.0
        assert t.noise_std == 1.0

    def test_one_smooth_one_pl(self):
        t = mean_estimation_task(3.0, 2.0)
        assert t.smoothness == 1.0 and t.pl_constant == 1.0

    def test_zeta_between_two_means(self):
        t0, t1 = mean_estimation_task(1.0, 1.0), mean_estimation_task(4.0, 1.0)
        sim = similarity_params(t0, [t1], [1.0])
        assert sim.grad_offset_sq == pytest.approx(9.0)

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            mean_estimation_task(0.0, -1.0)
