"""Gradient-combination rules producing the pseudo-gradient g(x_t).

Four strategies:
  - alone: ignore collaborators, g = g_0
  - weighted gradient averaging (WGA): g = (1-a) g_0 + a sum_k tau_k g_k
  - bias correction (BC): WGA with the collaborator average shifted by an
    EMA estimate c_t of the gradient bias sum_k tau_k grad f_k - grad f_0
  - oracle BC: the bias estimate comes from a noisy oracle instead of the
    EMA, making the combined estimator exactly unbiased

The rules take and return plain arrays (with leading batch axes
allowed): gradients g_0 and g_k, and the bias estimate c_t.  Alone needs
no rule, since g = g_0.  All combine functions are pure; `bc_update`
returns the next c_t as a fresh array.  Each checks its inputs, then
calls the validation-free cores `tau_sum`, `mix` and `oracle_noise_std`,
which the simulator's kernel calls on its per-lane arrays as well, the
first through its adds, `tau_chain`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .objective import _as_vector


@dataclass
class CollaborationWeights:
    """alpha in [0,1], tau on the simplex over collaborators, EMA rate beta."""

    alpha: float
    tau: np.ndarray
    beta: float | None = None

    def __post_init__(self):
        self.tau = _as_vector(self.tau)
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if not (np.all(self.tau >= 0) and abs(self.tau.sum() - 1.0) <= 1e-12):
            raise ValueError("tau must be nonnegative and sum to 1")
        if self.beta is not None and not (0.0 < self.beta <= 1.0):
            raise ValueError("beta must lie in (0, 1]")

    @property
    def n_collaborators(self) -> int:
        return self.tau.shape[0]


def pl_guard(alpha: float, m: float) -> float:
    """1 - alpha^2 m, the factor the WGA analyses divide by."""
    return 1.0 - alpha ** 2 * m


def check_alpha_guard(alpha: float, m: float) -> float:
    """pl_guard(alpha, m), checked: for WGA with m > 0 the theory requires
    alpha < 1/sqrt(m), so a guard > 0, in floats as well."""
    guard = pl_guard(alpha, m)
    if m > 0 and (alpha >= 1.0 / np.sqrt(m) or not guard > 0):
        raise ValueError(f"alpha={alpha} >= 1/sqrt(m)={1.0 / np.sqrt(m):.6g}: "
                         "WGA guarantee is vacuous in this regime")
    return guard


def tau_sum(tau, gs, out=None):
    """sum_k tau_k g_k, accumulated left to right from k = 0.

    `gs` is K arrays of one shape or their (K, ...) stack; `tau` is (K,)
    or already broadcasts against the stack, as the kernel's (K, L, 1)
    does.  The K products are formed in one multiply; the adds stay a
    left-to-right chain, since a numpy sum over k rounds differently
    (pairwise when the rest of the shape is a single element).  Given
    `out`, shaped like the products, the products go there and the sum
    is `out[0]`.
    """
    gs = np.asarray(gs)
    tau = np.asarray(tau)
    if tau.ndim < gs.ndim:
        tau = tau.reshape(tau.shape + (1,) * (gs.ndim - tau.ndim))
    prods = np.multiply(tau, gs, out)
    return tau_chain(prods[0, ...], prods[1:])  # a 0-d view, not a scalar, for (K,) gs


def tau_chain(acc, rest):
    """acc + rest[0] + rest[1] + ..., left to right, written over `acc`:
    the adds of `tau_sum`.  The kernel forms the products itself, into
    a buffer whose rows it has split once, so that a step makes the K
    products and the K - 1 adds and nothing else."""
    for row in rest:
        np.add(acc, row, acc)
    return acc


def mix(one_minus_w, w, a, b, out=None, tmp=None):
    """(1-w) a + w b: the alpha mix of the combine rules and the beta EMA
    step of the bias estimate.  1-w is passed in so that the kernel can
    precompute it per lane.  Given `out` and `tmp`, (1-w) a is written
    to `out`, w b to `tmp`, and their sum to `out`; either may be the
    operand it replaces."""
    return np.add(np.multiply(one_minus_w, a, out),
                  np.multiply(w, b, tmp), out)


def oracle_noise_std(v: float, n: int, d: int) -> float:
    """Per-coordinate std v/sqrt(N d) of the bias oracle's noise: total
    variance v^2/N split over d coordinates."""
    return v / math.sqrt(n * d)


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
