"""The paper's update rules one sample at a time: the tests' reference.

The package runs Alone, WGA, BC and oracle BC only as the simulator's
lane arithmetic over the cores of `cosgd.aggregators` (`tau_sum`, `mix`,
`oracle_noise_std`) and `cosgd.objective` (`noise_std`).  The rules here
call the same cores on plain arrays (with leading batch axes allowed),
each after checking its inputs, so a step written with them has the
kernel's bits while sharing none of its buffers, lane layout or chunking:

  - `sample_gradient` draws one stochastic gradient, true gradient plus
    noise of total variance sigma^2 + M ||grad||^2 split over the d
    coordinates (`gradient_noise_std`);
  - `wga_combine`, `bc_combine` with `bc_update`, and `oracle_bc_combine`
    form the pseudo-gradient; Alone needs no rule, since g = g_0.

The combine functions are pure; `bc_update` returns the next c_t as a
fresh array.  `mean_estimation_task` is the 1D mean-estimation task the
acceptance criteria use.
"""

import numpy as np

from cosgd.aggregators import CollaborationWeights, mix, oracle_noise_std, tau_sum
from cosgd.objective import QuadraticTask, noise_std, true_gradient


def gradient_noise_std(task: QuadraticTask, grad: np.ndarray) -> np.ndarray:
    """Per-coordinate noise std at a point with true gradient `grad`.

    Total noise variance sigma^2 + M ||grad||^2 split evenly across the
    d coordinates.  `grad` may carry leading batch axes.
    """
    return noise_std(task.noise_std ** 2, task.noise_scale, grad, task.dim)


def sample_gradient(task: QuadraticTask, x, rng: np.random.Generator) -> np.ndarray:
    """Unbiased stochastic gradient: true gradient plus Gaussian noise.

    Consumes exactly `dim` standard normals from `rng`, so the t-th call
    on a fresh stream reproduces step t of a simulation.
    """
    grad = true_gradient(task, x)
    return grad + rng.standard_normal(task.dim) * gradient_noise_std(task, grad)


def mean_estimation_task(mu: float, sigma: float) -> QuadraticTask:
    """1D task f(x) = 1/2 (x - mu)^2 with gradient samples x - z, z ~ N(mu, sigma^2)."""
    return QuadraticTask(curvature=1.0, optimum=float(mu), noise_std=float(sigma))


def _tau_average(gks, tau: np.ndarray) -> np.ndarray:
    if len(gks) != tau.shape[0]:
        raise ValueError("number of collaborator gradients must match tau")
    return tau_sum(tau, gks)


def wga_combine(g0, gks, w: CollaborationWeights) -> np.ndarray:
    """g = (1-alpha) g_0 + alpha sum_k tau_k g_k."""
    return mix(1.0 - w.alpha, w.alpha, g0, _tau_average(gks, w.tau))


def bc_combine(g0, gks, w: CollaborationWeights, c):
    """Corrected pseudo-gradient and the observed bias b_t.

    g = (1-alpha) g_0 + alpha (g_avg - c_t),  b_t = g_avg - g_0.
    Feed b_t to `bc_update` after the step.
    """
    gavg = _tau_average(gks, w.tau)
    return mix(1.0 - w.alpha, w.alpha, g0, gavg - c), gavg - g0


def bc_update(c, b, beta: float) -> np.ndarray:
    """EMA step c_{t+1} = (1-beta) c_t + beta b_t."""
    if not (0.0 < beta <= 1.0):
        raise ValueError("beta must lie in (0, 1]")
    return mix(1.0 - beta, beta, c, b)


def oracle_bc_combine(g0, gks, w: CollaborationWeights, true_bias,
                      z, v: float) -> np.ndarray:
    """BC with a noisy unbiased bias oracle.

    c_oracle = true_bias + n, where n is Gaussian with total variance
    v^2/N split across coordinates, independent of the gradient samples;
    `z` holds its pre-drawn standard normals, shaped like g_0.
    """
    if not v >= 0:
        raise ValueError("v must be >= 0")
    gavg = _tau_average(gks, w.tau)
    c_oracle = true_bias + z * oracle_noise_std(v, len(gks), g0.shape[-1])
    return mix(1.0 - w.alpha, w.alpha, g0, gavg - c_oracle)
