"""Theory-prescribed hyperparameters: step sizes, EMA rates, collaboration
weights, collaborator mixtures, and speedup factors.

Conventions used throughout:
  sigma_tilde^2(alpha) = (1-alpha)^2 sigma_0^2 + alpha^2 sigma_a^2
  zeta_tilde^2 = 2 (1+m) E||grad f_0(x_0)||^2 + 2 zeta^2
  eta_max = min(1/L, (1 - alpha^2 m) / (2 L M))  (second term only if M > 0)
where sigma_a^2 = sum_k tau_k^2 sigma_k^2 is the variance of the weighted
collaborator average and M is the gradient-norm noise-scale cap
(SimilarityParams.noise_scale_cap).
"""

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .aggregators import check_alpha_guard, float_sq, pl_guard
from .objective import (QuadraticTask, SimilarityParams, eval_loss,
                        similarity_params, true_gradient, _as_vector)


@dataclass
class ScheduleInputs:
    """Everything the schedule formulas need.

    f0_gap: F_0 = f_0(x_0) - f_0^* estimate
    sigma0_sq: own-gradient noise variance
    sigma_a_sq: variance of the weighted collaborator average
    oracle_var: v^2, bias-oracle noise variance (oracle setting only)
    grad0_sq: E||grad f_0(x_0)||^2 estimate
    n_collaborators: N
    """

    sim: SimilarityParams
    horizon: int
    f0_gap: float
    sigma0_sq: float
    sigma_a_sq: float
    alpha: float
    oracle_var: float = 0.0
    grad0_sq: float = 0.0
    n_collaborators: int = 1

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        for name in ("f0_gap", "sigma0_sq", "sigma_a_sq", "oracle_var", "grad0_sq"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha must be in [0, 1]")
        if self.n_collaborators < 1:
            raise ValueError("n_collaborators must be >= 1")


def schedule_inputs(main: QuadraticTask, collaborators, weights, horizon: int,
                    x0, oracle_var: float = 0.0) -> ScheduleInputs:
    """Build ScheduleInputs with exact quadratic-task quantities.

    For tasks with noise_scale M_k > 0 the collaborator-average variance
    absorbs the point-independent part 2 M_k zeta_k^2 of the scaled noise,
    which keeps the downstream bounds valid under the relaxed noise model.
    """
    sim = similarity_params(main, collaborators, weights.tau)
    x0 = _as_vector(x0)
    g0 = true_gradient(main, x0)
    tau = weights.tau
    # tau_k * tau_k, not tau_k ** 2: a scalar `**` calls pow, an ulp off on some tau_k.
    sig_a = float(sum(
        tau[k] * tau[k] * (c.noise_std ** 2 + 2.0 * c.noise_scale * sim.grad_offsets_sq[k])
        for k, c in enumerate(collaborators)))
    return ScheduleInputs(
        sim=sim,
        horizon=int(horizon),
        f0_gap=eval_loss(main, x0),
        sigma0_sq=main.noise_std ** 2,
        sigma_a_sq=sig_a,
        alpha=weights.alpha,
        oracle_var=float(oracle_var),
        grad0_sq=float(np.dot(g0, g0)),
        n_collaborators=len(collaborators),
    )


def bc_step_cap(alpha: float, delta: float) -> float:
    """1/(6 alpha^2 delta^2), the BC step-size cap; inf unless alpha > 0
    and the product is > 0 (delta = 0, or the product underflows).
    alpha delta is squared as one product, so that a square of either
    factor alone cannot overflow or underflow when the product fits."""
    try:  # `**`, not `*`: glibc's pow can differ from x * x by an ulp
        denom = 6.0 * (alpha * delta) ** 2
    except OverflowError:
        denom = math.inf
    return 1.0 / denom if alpha > 0 and denom > 0 else np.inf


def combined_variance(alpha, sigma0_sq, sigma_a_sq):
    """sigma_tilde^2 = (1-alpha)^2 sigma_0^2 + alpha^2 sigma_a^2; it broadcasts."""
    return float_sq(1.0 - alpha) * sigma0_sq + float_sq(alpha) * sigma_a_sq


def sigma_tilde_sq(inputs: ScheduleInputs) -> float:
    """(1-alpha)^2 sigma_0^2 + alpha^2 sigma_a^2."""
    return combined_variance(inputs.alpha, inputs.sigma0_sq, inputs.sigma_a_sq)


def zeta_tilde_sq(inputs: ScheduleInputs) -> float:
    """2 (1+m) E||grad f_0(x_0)||^2 + 2 zeta^2."""
    m = inputs.sim.grad_scale_mismatch
    return 2.0 * (1.0 + m) * inputs.grad0_sq + 2.0 * inputs.sim.grad_offset_sq


def eta_max(inputs: ScheduleInputs) -> float:
    """min(1/L, (1 - alpha^2 m)/(2 L M)), second term only when M > 0."""
    sim = inputs.sim
    cap = 1.0 / sim.smoothness
    if sim.noise_scale_cap > 0:
        guard = pl_guard(inputs.alpha, sim.grad_scale_mismatch)
        cap = min(cap, guard / (2.0 * sim.smoothness * sim.noise_scale_cap))
    return cap


def eta_wga_nonconvex(inputs: ScheduleInputs) -> float:
    """min(eta_max, sqrt(2 F_0 / (L sigma_tilde^2 T)))."""
    check_alpha_guard(inputs.alpha, inputs.sim.grad_scale_mismatch)
    cap = eta_max(inputs)
    # Zero when sigma_tilde^2 is, or is so small that the product underflows.
    denom = inputs.sim.smoothness * sigma_tilde_sq(inputs) * inputs.horizon
    if denom == 0.0:
        return cap
    return min(cap, float(np.sqrt(2.0 * inputs.f0_gap / denom)))


def eta_wga_pl(inputs: ScheduleInputs) -> float:
    """min(1/L, log(max(1, 2 mu F_0 T / (3 L sigma_tilde^2))) / ((1-alpha^2 m) mu T)).

    Returns 0 when the log argument clamps to 1 (the guarantee is vacuous
    there); callers should fall back to eta_wga_nonconvex.
    """
    guard = check_alpha_guard(inputs.alpha, inputs.sim.grad_scale_mismatch)
    L, mu, T = inputs.sim.smoothness, inputs.sim.pl_constant, inputs.horizon
    denom = 3.0 * L * sigma_tilde_sq(inputs)
    arg = np.inf if denom == 0.0 else 2.0 * mu * inputs.f0_gap * T / denom
    log_term = float(np.log(max(1.0, arg)))
    if log_term == 0.0:
        return 0.0
    return min(eta_max(inputs), log_term / (guard * mu * T))


def _decreasing_pl_raw(inputs: ScheduleInputs, c: int):
    """t -> c (2t+1) / (2 mu (1-alpha^2 m) (t+1)^2), unclamped, guard checked."""
    scale = 2.0 * inputs.sim.pl_constant * check_alpha_guard(
        inputs.alpha, inputs.sim.grad_scale_mismatch)
    return lambda t: c * (2.0 * t + 1.0) / (scale * (t + 1.0) ** 2)


def eta_decreasing_pl(t, inputs: ScheduleInputs, c: int = 2):
    """Decreasing PL schedule eta_t = c (2t+1) / (2 mu (1-alpha^2 m) (t+1)^2),
    clamped at eta_max.  `t` may be an array of steps."""
    if np.any(np.asarray(t) < 0):
        raise ValueError("t must be >= 0")
    return np.minimum(_decreasing_pl_raw(inputs, c)(t), eta_max(inputs))


def decreasing_pl_start_index(inputs: ScheduleInputs, c: int = 2) -> int:
    """Smallest t_0 at which the unclamped decreasing schedule fits under
    eta_max; the decreasing-step bound restarts its analysis there."""
    raw, cap = _decreasing_pl_raw(inputs, c), eta_max(inputs)
    return next(t for t in itertools.count() if not raw(t) > cap)


def beta_bc(inputs: ScheduleInputs, eta: float) -> float:
    """min(1, (10 delta^2 (zeta_tilde^2/T + s^2) / s^2)^{1/3} eta^{2/3})
    with s^2 = sigma_0^2 + sigma_a^2.

    Returns 1 when s^2 = 0 and 0 (with a warning) when delta = 0: a zero
    beta freezes the bias estimate, so figure reproductions override it.
    """
    if eta <= 0:
        raise ValueError("eta must be > 0")
    s_sq = inputs.sigma0_sq + inputs.sigma_a_sq
    if s_sq == 0.0:
        return 1.0
    delta = inputs.sim.hessian_dissimilarity
    if delta == 0.0:
        warnings.warn("delta = 0 makes the prescribed beta 0, freezing the "
                      "bias estimate; set beta explicitly", stacklevel=2)
        return 0.0
    num = 10.0 * delta ** 2 * (zeta_tilde_sq(inputs) / inputs.horizon + s_sq)
    return min(1.0, float((num / s_sq) ** (1.0 / 3.0) * eta ** (2.0 / 3.0)))


def eta_bc(inputs: ScheduleInputs) -> float:
    """min(1/L, 1/(6 alpha^2 delta^2), sqrt(2 F_0 / (L sigma^2(alpha) T)))."""
    L, T = inputs.sim.smoothness, inputs.horizon
    a, delta = inputs.alpha, inputs.sim.hessian_dissimilarity
    terms = [1.0 / L, bc_step_cap(a, delta)]
    denom = L * sigma_tilde_sq(inputs) * T
    if denom > 0:
        terms.append(float(np.sqrt(2.0 * inputs.f0_gap / denom)))
    return min(terms)


def _checked(domain, values, finite: bool) -> list:
    """`values` as float arrays, each inside its (name, op, bound) of
    `domain` and, given `finite`, finite; else a ValueError that names
    the first argument outside, also one beyond the float range."""
    arrays = []
    for (name, op, low), v in zip(domain, values):
        try:
            v = np.asarray(v, dtype=float)
        except OverflowError:
            raise ValueError(f"{name} is beyond the float range") from None
        inside = v > low if op == ">" else v >= low
        if not np.all(inside & np.isfinite(v) if finite else inside):
            raise ValueError(f"{name} must be {'finite and ' if finite else ''}{op} {low:g}")
        arrays.append(v)
    return arrays


# Each argument of alpha_opt_wga_m0: its name, and the bound it must keep.
_WGA_M0_DOMAIN = (("N", ">=", 1), ("mu", ">", 0), ("L", ">", 0), ("zeta_sq", ">=", 0),
                  ("sigma0_sq", ">=", 0), ("T", ">", 0))


def alpha_opt_wga_m0(N, mu, L, zeta_sq, sigma0_sq: float, T):
    """Optimal WGA weight for m = 0: (1 + 1/N + mu zeta^2 T / (L sigma_0^2))^{-1}.

    Returns 0 when sigma_0^2 = 0 (no variance to reduce, bias only hurts).
    Every argument but sigma_0^2 may be an array; they broadcast.  An
    argument outside its domain (`_WGA_M0_DOMAIN`), or NaN, is a
    ValueError; zeta^2 and sigma_0^2 may be inf.
    """
    _checked(_WGA_M0_DOMAIN, (N, mu, L, zeta_sq, sigma0_sq, T), finite=False)
    if sigma0_sq == 0.0:
        return 0.0
    return 1.0 / (1.0 + 1.0 / N + mu * zeta_sq * T / (L * sigma0_sq))


def alpha_opt_oracle(N: int, v_sq: float, sigma0_sq: float) -> float:
    """Optimal weight with a bias oracle: N / (N + 1 + v^2/sigma_0^2)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if sigma0_sq == 0.0:
        return 0.0
    return N / (N + 1.0 + v_sq / sigma0_sq)


def oracle_sigma_tilde_sq_opt(N: int, v_sq: float, sigma0_sq: float) -> float:
    """sigma_tilde^2 at alpha_opt_oracle, every agent's noise variance
    sigma_0^2: sigma_0^2 (1 + v^2/sigma_0^2) / (N + 1 + v^2/sigma_0^2)."""
    alpha = alpha_opt_oracle(N, v_sq, sigma0_sq)
    return combined_variance(alpha, sigma0_sq, (sigma0_sq + v_sq) / N)


def tau_qp(sigmas_sq, zetas_sq, coeff: float) -> np.ndarray:
    """Exact minimizer of sum_k coeff tau_k^2 sigma_k^2 + tau_k zeta_k^2
    over the simplex, via KKT water-filling.

    Coordinates with coeff sigma_k^2 = 0 are linear in tau_k and absorb
    mass only at the water level lambda = zeta_k^2; ties are split
    equally.  coeff = L / (mu T (1 - alpha^2 m)).
    """
    s = _as_vector(sigmas_sq)
    z = _as_vector(zetas_sq)
    if s.shape != z.shape:
        raise ValueError("sigmas_sq and zetas_sq must have equal length")
    if not all(np.all((0 <= v) & (v < np.inf)) for v in (s, z, coeff)):
        raise ValueError("sigmas_sq, zetas_sq and coeff must be finite and >= 0")
    n = s.shape[0]
    with np.errstate(over="ignore"):
        q = 2.0 * coeff * s  # derivative of the quadratic part is q_k tau_k
    if not np.all(np.isfinite(q)):
        raise ValueError("2 coeff sigma_k^2 overflows a float")
    # Scaling the objective keeps its minimizer; in [0, 1] no sum below
    # overflows.
    top = max(q.max(), z.max())
    if top > 0:
        q, z = q / top, z / top
    pos = q > 0

    tau = np.zeros(n)
    if not pos.any():
        winners = z == z.min()
        tau[winners] = 1.0 / winners.sum()
        return tau

    # tau_k(lam) = max(0, (lam - z_k) / q_k) for the strictly quadratic
    # coordinates.  With r_k = q_min / q_k in (0, 1], their mass at lam is
    # sum_k r_k max(0, lam - z_k) / q_min, so mass >= 1 is compared as
    # sum_k r_k max(0, lam - z_k) >= q_min, free of 1 / q_k overflow.
    idx = np.flatnonzero(pos)[np.argsort(z[pos], kind="stable")]
    zq, qq = z[idx], q[idx]
    q_min = qq.min()
    r = q_min / qq
    lam_cap = z[~pos].min() if (~pos).any() else np.inf

    def fills(lam, m):
        """Whether the first m quadratic coordinates hold mass >= 1 at lam."""
        return np.sum(r[:m] * np.maximum(0.0, lam - zq[:m])) >= q_min

    if lam_cap < np.inf and not fills(lam_cap, len(idx)):
        # The level stops at the smallest linear zeta^2, where the linear
        # coordinates take the mass left over.
        tau[idx] = np.maximum(0.0, lam_cap - zq) / qq
        linear_winners = ~pos & (z == lam_cap)
        tau[linear_winners] = max(0.0, 1.0 - tau.sum()) / linear_winners.sum()
    else:
        # The first m coordinates are active, m the fewest that fill up
        # to the next zeta^2.  Their level solves sum_k (lam - z_k) / q_k
        # = 1, which gives tau_k = (r_k + sum_j r_j (z_j - z_k) / q_k) /
        # sum_j r_j: differences of z, not lam - z_k, so a q_k far below
        # the precision of z_k still gets its share.
        m = next(m for m in range(1, len(idx) + 1)
                 if m == len(idx) or fills(zq[m], m))
        za, ra = zq[:m], r[:m]
        spread = (ra * (za - za[:, None])).sum(axis=1)
        tau[idx[:m]] = np.maximum(0.0, ra + spread / qq[:m]) / ra.sum()
    # Normalize away accumulated rounding (sum is 1 up to fp error).
    return tau / tau.sum()


def tau_qp_objective(tau, sigmas_sq, zetas_sq, coeff: float) -> float:
    tau = _as_vector(tau)
    return float(np.sum(coeff * tau ** 2 * _as_vector(sigmas_sq) + tau * _as_vector(zetas_sq)))


def speedup_factor(alpha_opt):
    """Collaborative speedup 1/(1 - alpha_opt); it broadcasts."""
    if not np.all((0.0 <= alpha_opt) & (alpha_opt < 1.0)):
        raise ValueError("alpha_opt must lie in [0, 1)")
    return 1.0 / (1.0 - alpha_opt)


def wga_pl_terms(alpha, m, sigma0_sq, sigma1_sq, N) -> tuple:
    """(1 - alpha^2 m) and sigma_tilde^2(alpha) = (1-alpha)^2 sigma_0^2
    + alpha^2 sigma_1^2/N, for N collaborators of noise variance
    sigma_1^2 averaged with equal weights; they broadcast."""
    return pl_guard(alpha, m), combined_variance(alpha, sigma0_sq, sigma1_sq / N)


# Each argument of alpha_opt_wga_general: its name, and the bound it must
# keep, besides being finite.
_WGA_GENERAL_DOMAIN = (("m", ">=", 0), ("zeta_sq", ">=", 0), ("sigma0_sq", ">=", 0),
                       ("sigma1_sq", ">=", 0), ("mu", ">", 0), ("L", ">", 0),
                       ("T", ">", 0), ("N", ">=", 1))


def alpha_opt_wga_general(m, zeta_sq, sigma0_sq, sigma1_sq, mu, L, T, N):
    """argmin over alpha in (0, min(1, 1/sqrt(m))) of the PL WGA rate

        L sigma_tilde^2(alpha) / (mu^2 T (1-alpha^2 m)^2)
        + alpha^2 zeta^2 / (mu (1-alpha^2 m)),

    with sigma_tilde^2(alpha) = (1-alpha)^2 sigma_0^2 + alpha^2 sigma_1^2/N.
    Golden-section search to 1e-10 (the objective is unimodal here); the
    interior point that survives an iteration keeps its value, so each
    iteration evaluates one new point.

    The arguments broadcast, and one search runs over the whole grid: an
    element whose interval is narrow enough stops moving, at the iteration
    where a search of it alone would stop, so each element's bits do not
    depend on the grid.  Scalar arguments give a float."""
    args = np.broadcast_arrays(*_checked(_WGA_GENERAL_DOMAIN, (
        m, zeta_sq, sigma0_sq, sigma1_sq, mu, L, T, N), finite=True))
    shape = args[0].shape
    m, zeta_sq, sigma0_sq, sigma1_sq, mu, L, T, N = [v.ravel() for v in args]
    sigma_a_sq = sigma1_sq / N

    def objective(a):
        guard, st = pl_guard(a, m), combined_variance(a, sigma0_sq, sigma_a_sq)
        return L * st / (scale * float_sq(guard)) + a * a * zeta_sq / (mu * guard)

    lo = np.zeros_like(m)
    with np.errstate(divide="ignore"):  # m = 0: 1/sqrt(m) = inf, and hi = 1
        hi = np.minimum(1.0, 1.0 / np.sqrt(m))
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    c = hi - (hi - lo) / phi
    d = lo + (hi - lo) / phi
    # Every element takes every iteration, also once it has stopped;
    # `kept` holds its interval from the last iteration it took live.
    live, kept = np.ones(m.shape, bool), np.array([lo, hi])
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            scale = float_sq(mu) * T
            fc, fd = objective(c), objective(d)
            while (live := live & (hi - lo > 1e-10)).any():
                left = fc < fd
                hi, lo = np.where(left, d, hi), np.where(left, lo, c)
                step = (hi - lo) / phi
                new = np.where(left, hi - step, lo + step)
                f = objective(new)
                c, d = np.where(left, new, d), np.where(left, c, new)
                fc, fd = np.where(left, f, fd), np.where(left, fc, f)
                np.copyto(kept, (lo, hi), where=live)
    except FloatingPointError as err:
        raise ValueError(f"the WGA rate leaves the float range here ({err})") from None
    lo, hi = kept
    alpha = ((lo + hi) / 2.0).reshape(shape)
    return float(alpha) if alpha.ndim == 0 else alpha
