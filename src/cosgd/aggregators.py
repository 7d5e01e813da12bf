"""Gradient-combination rules producing the pseudo-gradient g(x_t).

Four strategies:
  - alone: ignore collaborators, g = g_0
  - weighted gradient averaging (WGA): g = (1-a) g_0 + a sum_k tau_k g_k
  - bias correction (BC): WGA with the collaborator average shifted by an
    EMA estimate c_t of the gradient bias sum_k tau_k grad f_k - grad f_0
  - oracle BC: the bias estimate comes from a noisy oracle instead of the
    EMA, making the combined estimator exactly unbiased

All combine functions are pure; `bc_update` is the only state transition
and returns a fresh BcState.  Gradient arguments may be GradientSample
or plain arrays (with leading batch axes).  Each checks its inputs, then
calls the validation-free cores `tau_sum`, `mix` and `oracle_noise_std`,
which the simulator's kernel calls on its per-lane arrays as well.
"""

import math
from dataclasses import dataclass

import numpy as np

from .objective import GradientSample, _as_vector


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


def check_alpha_guard(alpha: float, m: float) -> None:
    """For WGA with m > 0 the theory requires alpha < 1/sqrt(m)."""
    if m > 0 and alpha >= 1.0 / np.sqrt(m):
        raise ValueError(
            f"alpha={alpha} >= 1/sqrt(m)={1.0 / np.sqrt(m):.6g}: "
            "WGA guarantee is vacuous in this regime")


@dataclass
class BcState:
    """Running bias estimate c_t."""

    bias_estimate: np.ndarray

    def __post_init__(self):
        self.bias_estimate = np.asarray(self.bias_estimate, dtype=float)


def _value(g) -> np.ndarray:
    return g.value if isinstance(g, GradientSample) else np.asarray(g, dtype=float)


def tau_sum(tau, gs):
    """sum_k tau_k g_k, accumulated left to right from k = 0."""
    acc = tau[0] * gs[0]
    for k in range(1, len(gs)):
        acc = acc + tau[k] * gs[k]
    return acc


def mix(one_minus_w, w, a, b):
    """(1-w) a + w b: the alpha mix of the combine rules and the beta EMA
    step of the bias estimate.  1-w is passed in so that the kernel can
    precompute it per lane."""
    return one_minus_w * a + w * b


def oracle_noise_std(v: float, n: int, d: int) -> float:
    """Per-coordinate std v/sqrt(N d) of the bias oracle's noise: total
    variance v^2/N split over d coordinates."""
    return v / math.sqrt(n * d)


def _tau_average(gks, tau: np.ndarray) -> np.ndarray:
    if len(gks) != tau.shape[0]:
        raise ValueError("number of collaborator gradients must match tau")
    return tau_sum(tau, [_value(g) for g in gks])


def alone_combine(g0) -> np.ndarray:
    """g = g_0, collaborators ignored."""
    return _value(g0)


def wga_combine(g0, gks, w: CollaborationWeights) -> np.ndarray:
    """g = (1-alpha) g_0 + alpha sum_k tau_k g_k."""
    return mix(1.0 - w.alpha, w.alpha, _value(g0), _tau_average(gks, w.tau))


def bc_combine(g0, gks, w: CollaborationWeights, state: BcState):
    """Corrected pseudo-gradient and the observed bias b_t.

    g = (1-alpha) g_0 + alpha (g_avg - c_t),  b_t = g_avg - g_0.
    Does not mutate `state`; feed b_t to `bc_update` after the step.
    """
    g0v = _value(g0)
    gavg = _tau_average(gks, w.tau)
    combined = mix(1.0 - w.alpha, w.alpha, g0v, gavg - state.bias_estimate)
    return combined, gavg - g0v


def bc_update(state: BcState, observed_bias, beta: float) -> BcState:
    """EMA step c_{t+1} = (1-beta) c_t + beta b_t."""
    if not (0.0 < beta <= 1.0):
        raise ValueError("beta must lie in (0, 1]")
    b = np.asarray(observed_bias, dtype=float)
    return BcState(bias_estimate=mix(1.0 - beta, beta, state.bias_estimate, b))


def oracle_bc_combine(g0, gks, w: CollaborationWeights, true_bias,
                      oracle_noise, v: float) -> np.ndarray:
    """BC with a noisy unbiased bias oracle.

    c_oracle = true_bias + n, where n is Gaussian with total variance
    v^2/N split across coordinates, independent of the gradient samples.
    `oracle_noise` is either a Generator or pre-drawn standard normals of
    the same shape as g_0.
    """
    if not v >= 0:
        raise ValueError("v must be >= 0")
    g0v = _value(g0)
    gavg = _tau_average(gks, w.tau)
    if isinstance(oracle_noise, np.random.Generator):
        z = oracle_noise.standard_normal(g0v.shape)
    else:
        z = np.asarray(oracle_noise, dtype=float)
    c_oracle = (np.asarray(true_bias, dtype=float)
                + z * oracle_noise_std(v, len(gks), g0v.shape[-1]))
    return mix(1.0 - w.alpha, w.alpha, g0v, gavg - c_oracle)
