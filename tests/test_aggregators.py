import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosgd.aggregators import CollaborationWeights, check_alpha_guard, mix, tau_sum
from cosgd.objective import QuadraticTask, true_gradient
from cosgd.rng import agent_stream
from reference_rules import (bc_combine, bc_update, gradient_noise_std, oracle_bc_combine,
                             sample_gradient, wga_combine)


def gs(v):
    return np.atleast_1d(np.asarray(v, float))


def sample_batch(task, x, stream, n):
    """n `sample_gradient` calls on `stream` as one (n, 1) batch: one
    generator call draws the same normals, and the arithmetic is the same."""
    grad = true_gradient(task, x)
    return grad + stream.standard_normal((n, 1)) * gradient_noise_std(task, grad)


def assert_first_rows_are_samples(task, x, batch, stream):
    """The batch's first rows are `sample_gradient` calls on a fresh stream."""
    np.testing.assert_array_equal(batch[:3], [sample_gradient(task, x, stream)
                                              for _ in range(3)])


class TestCollaborationWeights:
    def test_valid(self):
        w = CollaborationWeights(0.5, [0.25, 0.75], beta=0.1)
        assert w.n_collaborators == 2

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            CollaborationWeights(1.5, [1.0])
        with pytest.raises(ValueError):
            CollaborationWeights(-0.1, [1.0])

    def test_tau_simplex(self):
        with pytest.raises(ValueError):
            CollaborationWeights(0.5, [0.7, 0.7])
        with pytest.raises(ValueError):
            CollaborationWeights(0.5, [1.5, -0.5])

    def test_beta_range(self):
        with pytest.raises(ValueError):
            CollaborationWeights(0.5, [1.0], beta=0.0)
        with pytest.raises(ValueError):
            CollaborationWeights(0.5, [1.0], beta=1.5)

    def test_alpha_guard(self):
        with pytest.raises(ValueError):
            check_alpha_guard(0.6, 4.0)  # 0.6 >= 1/2
        check_alpha_guard(0.4, 4.0)
        check_alpha_guard(1.0, 0.0)


def list_tau_sum(tau, gs):
    """The per-term form: each tau_k g_k formed on its own, added left to
    right from k = 0."""
    acc = tau[0] * gs[0]
    for k in range(1, len(gs)):
        acc = acc + tau[k] * gs[k]
    return acc


@st.composite
def tau_sum_inputs(draw):
    """Per-lane tau (K, L, 1) and gradients (K, L, d), K up to 8; L = d = 1
    included."""
    k, lanes, d = draw(st.integers(1, 8)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = st.floats(-1e6, 1e6, allow_subnormal=True)
    tau = np.array(draw(st.lists(st.floats(0, 1), min_size=k * lanes,
                                 max_size=k * lanes))).reshape(k, lanes, 1)
    gs = np.array(draw(st.lists(values, min_size=k * lanes * d,
                                max_size=k * lanes * d))).reshape(k, lanes, d)
    return tau, gs


class TestTauSum:
    """The kernel's stacked form keeps the rounding of the per-term form."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(tau_sum_inputs())
    def test_stacked_equals_list_form(self, inputs):
        tau, gs = inputs
        expected = list_tau_sum(list(tau), list(gs)).tobytes()
        assert tau_sum(tau, gs).tobytes() == expected
        for lane in range(gs.shape[1]):
            # A list caller's (K,) tau and K vectors, one lane at a time.
            assert tau_sum(tau[:, lane, 0], list(gs[:, lane])).tobytes() \
                == list_tau_sum(tau[:, lane, 0].tolist(), list(gs[:, lane])).tobytes()

    def test_single_element_rows_add_left_to_right(self):
        # With one element per term numpy would sum the 8 terms pairwise:
        # ((a + b) + (c + d)) + ... rounds differently from the chain.
        tau = np.full((8, 1, 1), 0.125)
        gs = np.array([1.0, 1e16, -1e16, 1.0, 1.0, 1.0, 1.0, 1.0]).reshape(8, 1, 1)
        chain = list_tau_sum(list(tau), list(gs))
        assert tau_sum(tau, gs).tobytes() == chain.tobytes()


class TestOutBuffers:
    """With `out` the cores give the bits they return without it, and
    write them into the buffers given, as the kernel calls them."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_tau_sum(self, k):
        rng = np.random.default_rng(k)
        tau = rng.dirichlet(np.ones(k * 4)).reshape(k, 4, 1)
        gs = rng.normal(0.0, 1e3, (k, 4, 2))
        out = np.empty((k, 4, 2))
        result = tau_sum(tau, gs, out)
        assert result.tobytes() == tau_sum(tau, gs).tobytes()
        assert out[0].tobytes() == result.tobytes() and np.shares_memory(result, out)

    def test_mix(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0.0, 1.0, (5, 1))
        a, b = rng.normal(0.0, 1e3, (2, 5, 3))
        expected = mix(1.0 - w, w, a, b)
        out, tmp = np.empty((5, 3)), np.empty((5, 3))
        assert mix(1.0 - w, w, a, b, out, tmp) is out
        assert out.tobytes() == expected.tobytes()
        # In place, over both operands.
        assert mix(1.0 - w, w, a, b, a, b) is a
        assert a.tobytes() == expected.tobytes()


class TestWgaCombine:
    def test_alpha_zero(self):
        w = CollaborationWeights(0.0, [1.0])
        np.testing.assert_array_equal(wga_combine(gs([2.0]), [gs([9.0])], w), [2.0])

    def test_full_delegation(self):
        w = CollaborationWeights(1.0, [1.0])
        np.testing.assert_array_equal(wga_combine(gs([2.0]), [gs([5.0])], w), [5.0])

    def test_weighted_mix(self):
        w = CollaborationWeights(0.5, [0.5, 0.5])
        out = wga_combine(gs([2.0]), [gs([4.0]), gs([8.0])], w)
        np.testing.assert_allclose(out, [4.0])

    def test_length_mismatch(self):
        w = CollaborationWeights(0.5, [0.5, 0.5])
        with pytest.raises(ValueError):
            wga_combine(gs([2.0]), [gs([4.0])], w)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(-100, 100), min_size=n, max_size=n),
            st.lists(st.floats(-100, 100), min_size=n, max_size=n),
            st.lists(st.floats(-100, 100), min_size=n, max_size=n),
            st.lists(st.floats(-100, 100), min_size=n, max_size=n))),
           st.floats(0, 1))
    def test_linear_superposition(self, vecs, alpha):
        u0, u1, v0, v1 = map(np.array, vecs)
        w = CollaborationWeights(alpha, [1.0])
        lhs = wga_combine(gs(u0 + v0), [gs(u1 + v1)], w)
        rhs = wga_combine(gs(u0), [gs(u1)], w) + wga_combine(gs(v0), [gs(v1)], w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_unbiased_and_variance(self):
        t0 = QuadraticTask(1.0, 0.0, noise_std=2.0)
        t1 = QuadraticTask(2.0, 2.0, noise_std=3.0)
        w = CollaborationWeights(0.6, [1.0])
        x = 1.0
        n = 10 ** 5
        g0 = sample_batch(t0, x, agent_stream(5, 0), n)
        g1 = sample_batch(t1, x, agent_stream(5, 1), n)
        assert_first_rows_are_samples(t0, x, g0, agent_stream(5, 0))
        assert_first_rows_are_samples(t1, x, g1, agent_stream(5, 1))
        outs = wga_combine(g0, [g1], w)[:, 0]
        target = (0.4 * true_gradient(t0, x) + 0.6 * true_gradient(t1, x))[0]
        var = 0.4 ** 2 * 4.0 + 0.6 ** 2 * 9.0
        assert abs(outs.mean() - target) < 3 * np.sqrt(var / n)
        assert outs.var() == pytest.approx(var, rel=0.1)


class TestBcCombine:
    def test_perfect_correction(self):
        t0 = QuadraticTask(1.0, 0.0)
        t1 = QuadraticTask(2.0, 2.0)
        x = 3.0
        g0, g1 = true_gradient(t0, x), true_gradient(t1, x)
        w = CollaborationWeights(0.7, [1.0], beta=0.5)
        out, b = bc_combine(gs(g0), [gs(g1)], w, g1 - g0)
        np.testing.assert_allclose(out, g0)
        np.testing.assert_allclose(b, g1 - g0)

    def test_alpha_zero(self):
        w = CollaborationWeights(0.0, [1.0], beta=0.5)
        out, _ = bc_combine(gs([2.0]), [gs([100.0])], w, gs([55.0]))
        np.testing.assert_array_equal(out, [2.0])

    def test_worked_example(self):
        w = CollaborationWeights(1.0, [1.0], beta=0.5)
        out, b = bc_combine(gs([1.0]), [gs([4.0])], w, gs([3.0]))
        np.testing.assert_allclose(out, [1.0])
        np.testing.assert_allclose(b, [3.0])

    def test_purity(self):
        w = CollaborationWeights(0.5, [1.0], beta=0.5)
        c = gs([1.0])
        before = c.copy()
        r1 = bc_combine(gs([1.0]), [gs([4.0])], w, c)
        r2 = bc_combine(gs([1.0]), [gs([4.0])], w, c)
        np.testing.assert_array_equal(c, before)
        np.testing.assert_array_equal(r1[0], r2[0])


class TestBcUpdate:
    def test_full_replacement(self):
        c = bc_update(gs([9.0]), gs([4.0]), beta=1.0)
        np.testing.assert_array_equal(c, [4.0])

    def test_midpoint(self):
        c = bc_update(gs([2.0]), gs([4.0]), beta=0.5)
        np.testing.assert_array_equal(c, [3.0])

    def test_geometric_convergence(self):
        c = gs([0.0])
        beta, b = 0.3, 5.0
        for k in range(1, 30):
            c = bc_update(c, gs([b]), beta)
            expected = b * (1 - (1 - beta) ** k)
            assert c[0] == pytest.approx(expected)

    def test_beta_bounds(self):
        with pytest.raises(ValueError):
            bc_update(gs([0.0]), gs([1.0]), beta=0.0)
        with pytest.raises(ValueError):
            bc_update(gs([0.0]), gs([1.0]), beta=1.2)

    def test_does_not_mutate_input(self):
        c = gs([2.0])
        bc_update(c, gs([4.0]), beta=0.5)
        np.testing.assert_array_equal(c, [2.0])


class TestBcTelescoping:
    def test_deterministic_beta_one(self):
        # With sigma = 0 and beta = 1 the correction telescopes: from step 1
        # onward g(x_t) = grad f_0(x_t) + alpha [bias(x_t) - bias(x_{t-1})];
        # with delta = 0 the bias is constant, so g = grad f_0 exactly.
        for a1, exact in ((1.0, True), (3.0, False)):
            t0 = QuadraticTask(1.0, 0.0)
            t1 = QuadraticTask(a1, 2.0)
            w = CollaborationWeights(0.5, [1.0], beta=1.0)
            x, eta = 4.0, 0.1
            c = None
            prev_bias = None
            for step in range(6):
                g0, g1 = true_gradient(t0, x), true_gradient(t1, x)
                bias = g1 - g0
                if c is None:
                    c = bias
                out, b = bc_combine(g0, [g1], w, c)
                if step >= 1:
                    expected = true_gradient(t0, x) + 0.5 * (bias - prev_bias)
                    np.testing.assert_allclose(out, expected, atol=1e-12)
                    if exact:
                        np.testing.assert_allclose(out, true_gradient(t0, x),
                                                   atol=1e-12)
                c = bc_update(c, b, 1.0)
                prev_bias = bias
                x = x - eta * out[0]


class TestOracleBcCombine:
    def test_exact_when_noiseless(self):
        t0 = QuadraticTask(1.0, 0.0)
        t1 = QuadraticTask(2.0, 2.0)
        x = 3.0
        w = CollaborationWeights(0.8, [1.0])
        bias = true_gradient(t1, x) - true_gradient(t0, x)
        out = oracle_bc_combine(gs(true_gradient(t0, x)), [gs(true_gradient(t1, x))],
                                w, bias, agent_stream(0, 0, 1).standard_normal(1),
                                v=0.0)
        np.testing.assert_allclose(out, true_gradient(t0, x))

    def test_unbiased_and_variance(self):
        t0 = QuadraticTask(1.0, 0.0, noise_std=2.0)
        t1 = QuadraticTask(2.0, 2.0, noise_std=3.0)
        alpha, v = 0.6, 1.5
        w = CollaborationWeights(alpha, [1.0])
        x = 1.0
        bias = true_gradient(t1, x) - true_gradient(t0, x)
        n = 10 ** 5
        g0 = sample_batch(t0, x, agent_stream(9, 0), n)
        g1 = sample_batch(t1, x, agent_stream(9, 1), n)
        assert_first_rows_are_samples(t0, x, g0, agent_stream(9, 0))
        assert_first_rows_are_samples(t1, x, g1, agent_stream(9, 1))
        z = agent_stream(9, 0, 1).standard_normal((n, 1))
        outs = oracle_bc_combine(g0, [g1], w, bias, z, v)[:, 0]
        target = true_gradient(t0, x)[0]
        var = (1 - alpha) ** 2 * 4.0 + alpha ** 2 * (9.0 + v ** 2 / 1)
        assert abs(outs.mean() - target) < 3 * np.sqrt(var / n)
        assert outs.var() == pytest.approx(var, rel=0.1)

    def test_negative_v_rejected(self):
        w = CollaborationWeights(0.5, [1.0])
        with pytest.raises(ValueError):
            oracle_bc_combine(gs([1.0]), [gs([2.0])], w, gs([1.0]),
                              agent_stream(0, 0, 1).standard_normal(1), v=-1.0)
