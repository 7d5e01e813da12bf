"""Right-hand sides of the convergence guarantees, with explicit constants.

All formulas keep the exact constants from the analysis (the recursion
constant c, eta_max, the sqrt(2) factors) rather than big-O shapes, so
empirical runs can be checked for dominance:

  - bound_wga_nonconvex: upper bound on (1/T) sum_t E||grad f_0(x_t)||^2
  - bound_wga_pl / bound_oracle: upper bounds on E[f_0(x_T) - f_0^*]
  - bound_bc: upper bound on (1/(4T)) sum_t E||grad f_0(x_t)||^2
"""

from dataclasses import dataclass, replace

import numpy as np

from .aggregators import check_alpha_guard
from .schedules import (ScheduleInputs, alpha_opt_wga_m0, bc_step_cap,
                        combined_variance, eta_max, sigma_tilde_sq,
                        speedup_factor, zeta_tilde_sq)


@dataclass
class BoundInputs:
    """ScheduleInputs plus the run's actual hyperparameters.

    e0: E||c_0 - bias(x_0)||^2, initial bias-estimate error (BC)
    c: recursion constant, 2 in the additive-noise model, 4 otherwise
    """

    base: ScheduleInputs
    eta: float
    beta: float = 0.0
    e0: float = 0.0
    c: int = 2

    def __post_init__(self):
        if not 0 < self.eta < np.inf:
            raise ValueError("eta must be finite and > 0")
        if not (0 <= self.beta < np.inf and 0 <= self.e0 < np.inf):
            raise ValueError("beta and e0 must be finite and >= 0")
        if self.c not in (2, 4):
            raise ValueError("c must be 2 or 4")


def bound_wga_nonconvex(b: BoundInputs) -> float:
    """[F_0/(eta_max T) + sqrt(2 L F_0 sigma_tilde^2 / T) + alpha^2 zeta^2 / 2]
    * c / (1 - alpha^2 m), valid for the prescribed nonconvex step size."""
    s = b.base
    guard = check_alpha_guard(s.alpha, s.sim.grad_scale_mismatch)
    L, T = s.sim.smoothness, s.horizon
    core = (s.f0_gap / (eta_max(s) * T)
            + np.sqrt(2.0 * L * s.f0_gap * sigma_tilde_sq(s) / T)
            + 0.5 * s.alpha ** 2 * s.sim.grad_offset_sq)
    return float(core * b.c / guard)


def bound_wga_pl(b: BoundInputs) -> float:
    """Geometric PL bound at the step size actually used:

    (1 - 2 mu eta (1-alpha^2 m)/c)^T F_0
      + c [alpha^2 zeta^2 + L eta sigma_tilde^2] / (4 mu (1-alpha^2 m)).
    """
    s = b.base
    guard = check_alpha_guard(s.alpha, s.sim.grad_scale_mismatch)
    mu, L = s.sim.pl_constant, s.sim.smoothness
    if b.eta > eta_max(s):
        raise ValueError("eta exceeds eta_max; bound not valid")
    rho = 1.0 - 2.0 * mu * b.eta * guard / b.c
    floor = b.c * (s.alpha ** 2 * s.sim.grad_offset_sq
                   + L * b.eta * sigma_tilde_sq(s)) / (4.0 * mu * guard)
    return float(rho ** s.horizon * s.f0_gap + floor)


def bound_wga_pl_decreasing(b: BoundInputs, t0: int, f_t0: float | None = None) -> float:
    """Decreasing-step PL bound, no hidden logarithmic factors:

    c alpha^2 zeta^2 / (4 mu (1-alpha^2 m))
      + c^2 L sigma_tilde^2 / (2 mu^2 (1-alpha^2 m)^2 T)
      + t_0^2 F_{t_0} / T^2.
    """
    s = b.base
    guard = check_alpha_guard(s.alpha, s.sim.grad_scale_mismatch)
    mu, L, T = s.sim.pl_constant, s.sim.smoothness, s.horizon
    f_t0 = s.f0_gap if f_t0 is None else float(f_t0)
    return float(b.c * s.alpha ** 2 * s.sim.grad_offset_sq / (4.0 * mu * guard)
                 + b.c ** 2 * L * sigma_tilde_sq(s) / (2.0 * mu ** 2 * guard ** 2 * T)
                 + t0 ** 2 * f_t0 / T ** 2)


def bound_oracle(b: BoundInputs) -> float:
    """Oracle-BC PL bound: (1 - 2 eta mu / c)^T F_0 + c L eta sigma_tilde^2(alpha) / (4 mu),
    with the oracle variance v^2/N folded into sigma_tilde^2.  No zeta or m
    terms: the oracle removes the bias entirely."""
    s = b.base
    mu, L = s.sim.pl_constant, s.sim.smoothness
    if b.eta > eta_max(replace(s, alpha=0.0)):
        raise ValueError("eta exceeds eta_max; bound not valid")
    rho = 1.0 - 2.0 * b.eta * mu / b.c
    floor = b.c * L * b.eta * combined_variance(
        s.alpha, s.sigma0_sq, s.sigma_a_sq + s.oracle_var / s.n_collaborators) / (4.0 * mu)
    return float(rho ** s.horizon * s.f0_gap + floor)


def bound_bc(b: BoundInputs) -> float:
    """BC bound on (1/(4T)) sum_t E||grad f_0(x_t)||^2:

    F_0/(eta T) + 4 alpha^2 E_0/(beta T)
      + 12 alpha^2 ((s^2)(zeta_tilde^2/T + s^2))^{1/3} (delta eta)^{2/3}
      + L sigma^2(alpha) eta / 2 + 10 alpha^2 delta^2 sigma^2(alpha) eta^2,

    with s^2 = sigma_0^2 + sigma_a^2 and sigma^2(alpha) the combined
    pseudo-gradient variance."""
    s = b.base
    a, delta = s.alpha, s.sim.hessian_dissimilarity
    L, T = s.sim.smoothness, s.horizon
    if b.eta > 1.0 / L + 1e-15:
        raise ValueError("eta exceeds 1/L; bound not valid")
    if b.eta > bc_step_cap(a, delta) + 1e-15:
        raise ValueError("eta exceeds 1/(6 alpha^2 delta^2); bound not valid")
    s_sq = s.sigma0_sq + s.sigma_a_sq
    sig_alpha = sigma_tilde_sq(s)
    ema_term = 0.0
    if a > 0 and b.e0 > 0:
        if b.beta <= 0:
            return float("inf")
        ema_term = 4.0 * a ** 2 * b.e0 / (b.beta * T)
    drift = 12.0 * a ** 2 * (s_sq * (zeta_tilde_sq(s) / T + s_sq)) ** (1.0 / 3.0) \
        * (delta * b.eta) ** (2.0 / 3.0)
    return float(s.f0_gap / (b.eta * T) + ema_term + drift
                 + L * sig_alpha * b.eta / 2.0
                 + 10.0 * (a * delta) ** 2 * sig_alpha * b.eta ** 2)


def gainfactor_surface(n_grid, ratio_grid) -> np.ndarray:
    """Speedup factor 1/(1 - alpha_opt) over a grid of N (columns) and
    r = L sigma_0^2 / (mu T zeta^2) (rows), in the m = 0 regime where
    alpha_opt = (1 + 1/N + 1/r)^{-1}."""
    out = np.empty((len(ratio_grid), len(n_grid)))
    for i, r in enumerate(ratio_grid):
        if r <= 0:
            raise ValueError("ratio grid entries must be > 0")
        for j, n in enumerate(n_grid):
            # alpha_opt_wga_m0 with mu zeta^2 T/(L sigma_0^2) = 1/r
            alpha = alpha_opt_wga_m0(int(n), mu=1.0, L=1.0, zeta_sq=1.0 / r,
                                     sigma0_sq=1.0, T=1)
            out[i, j] = speedup_factor(alpha)
    return out
