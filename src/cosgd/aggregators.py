"""Gradient-combination rules producing the pseudo-gradient g(x_t).

Four strategies:
  - alone: ignore collaborators, g = g_0
  - weighted gradient averaging (WGA): g = (1-a) g_0 + a sum_k tau_k g_k
  - bias correction (BC): WGA with the collaborator average shifted by an
    EMA estimate c_t of the gradient bias sum_k tau_k grad f_k - grad f_0
  - oracle BC: the bias estimate comes from a noisy oracle instead of the
    EMA, making the combined estimator exactly unbiased

The module holds the collaboration weights and the validation-free cores
of these rules, which the simulator's kernel calls on its per-lane
arrays: `tau_sum` (through its adds, `tau_chain`), `mix`, the alpha mix
and the EMA step, and `oracle_noise_std`.  `float_sq`, `pl_guard` and
`check_alpha_guard` serve the schedules, the bounds and the config checks.
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


def float_sq(x):
    """x ** 2 of a float or, elementwise, of an array, rounded as a Python
    float's `**` rounds it (libm pow).  An array's `** 2` is x * x, which
    differs from pow in the last bit for some x; np.float_power does not."""
    return np.float_power(x, 2.0) if isinstance(x, np.ndarray) else x ** 2


def pl_guard(alpha, m):
    """1 - alpha^2 m, the factor the WGA analyses divide by; it broadcasts."""
    return 1.0 - float_sq(alpha) * m


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

