"""Agent objectives: diagonal quadratics with Gaussian gradient noise.

Each agent k minimizes f_k(x) = 1/2 (x - x_k*)^T A_k (x - x_k*) with A_k
diagonal and positive.  Stochastic gradients are the true gradient plus
zero-mean Gaussian noise whose total variance is

    sigma_k^2 + M_k * ||grad f_k(x)||^2,

split isotropically across coordinates; `noise_std` forms its std per
coordinate.  The module also computes the closed-form similarity
constants (L, mu, m, zeta_k^2, delta) between a main agent and its
collaborators; these drive all schedules and bounds.
"""

import math
from dataclasses import dataclass

import numpy as np


def _as_vector(v) -> np.ndarray:
    return np.atleast_1d(np.asarray(v, dtype=float))


@dataclass
class QuadraticTask:
    """Diagonal quadratic objective with a Gaussian gradient oracle.

    curvature: diagonal of A_k (positive, per dimension; scalar ok in 1D)
    optimum: minimizer x_k*
    noise_std: sigma_k, std of the additive gradient noise
    noise_scale: M_k, coefficient of the gradient-norm-proportional
        variance term (0 gives the plain additive-noise model)
    """

    curvature: np.ndarray
    optimum: np.ndarray
    noise_std: float = 0.0
    noise_scale: float = 0.0

    def __post_init__(self):
        self.curvature = _as_vector(self.curvature)
        self.optimum = _as_vector(self.optimum)
        if self.curvature.shape != self.optimum.shape:
            raise ValueError("curvature and optimum must have the same dimension")
        if not np.all((self.curvature > 0) & (self.curvature < np.inf)):
            raise ValueError("curvature entries must be finite and strictly positive")
        if not np.all(np.isfinite(self.optimum)):
            raise ValueError("optimum entries must be finite")
        if not (self.noise_std >= 0 and self.noise_std * self.noise_std < math.inf):
            raise ValueError("noise_std must be >= 0 and its square finite")
        if not 0 <= self.noise_scale < math.inf:
            raise ValueError("noise_scale must be finite and >= 0")

    @property
    def dim(self) -> int:
        return self.curvature.shape[0]

    @property
    def smoothness(self) -> float:
        return float(self.curvature.max())

    @property
    def pl_constant(self) -> float:
        return float(self.curvature.min())


@dataclass
class SimilarityParams:
    """Inter-agent constants for a (main, collaborators) group.

    smoothness: L of the main task
    pl_constant: mu of the main task
    grad_scale_mismatch: m in ||grad f_k - grad f_0||^2 <= m||grad f_0||^2 + zeta_k^2,
        worst case over collaborators and dimensions
    grad_offset_sq: zeta^2 = sum_k tau_k zeta_k^2
    grad_offsets_sq: per-collaborator zeta_k^2
    hessian_dissimilarity: delta, max-abs curvature gap vs the main task
    noise_scale_cap: valid constant M with E||noise(g)||^2 <=
        M ||grad f_0||^2 + const for the combined pseudo-gradient;
        equals M_0 + 2(1+m) sum_k tau_k^2 M_k (0 in the additive model)
    """

    smoothness: float
    pl_constant: float
    grad_scale_mismatch: float
    grad_offset_sq: float
    grad_offsets_sq: np.ndarray
    hessian_dissimilarity: float
    noise_scale_cap: float = 0.0

    def __post_init__(self):
        self.grad_offsets_sq = _as_vector(self.grad_offsets_sq)
        if not (0 < self.smoothness < np.inf and 0 < self.pl_constant < np.inf):
            raise ValueError("smoothness and pl_constant must be finite and > 0")
        for name in ("grad_scale_mismatch", "grad_offset_sq",
                     "hessian_dissimilarity", "noise_scale_cap"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not np.all((0 <= self.grad_offsets_sq) & (self.grad_offsets_sq < np.inf)):
            raise ValueError("grad_offsets_sq must be finite and >= 0")
        if self.pl_constant > self.smoothness:
            raise ValueError("pl_constant must not exceed smoothness")


def eval_loss(task: QuadraticTask, x) -> float:
    """Noiseless loss 1/2 sum_d a_d (x_d - x*_d)^2."""
    x = _as_vector(x)
    if x.shape[-1] != task.dim:
        raise ValueError("dimension mismatch")
    d = x - task.optimum
    return float(0.5 * np.sum(task.curvature * d * d, axis=-1))


def true_gradient(task: QuadraticTask, x) -> np.ndarray:
    """Exact gradient A (x - x*)."""
    x = _as_vector(x)
    if x.shape[-1] != task.dim:
        raise ValueError("dimension mismatch")
    return task.curvature * (x - task.optimum)


def noise_std(var, scale, grad: np.ndarray, d: int, out=None,
              tmp=None) -> np.ndarray:
    """sqrt(var + scale ||grad||^2 / d), the noise std per coordinate at a
    true gradient `grad`; `var`, `scale` and `grad` broadcast.  Given
    `out`, shaped like the result, and `tmp`, shaped like `grad`, it
    writes grad * grad to `tmp` and the rest to `out`, and returns `out`."""
    # np.sum without its Python wrapper: the same reduction, once per step.
    gsq = np.add.reduce(np.multiply(grad, grad, tmp), axis=-1,
                        keepdims=True, out=out)
    std = np.divide(np.multiply(scale, gsq, out), d, out)
    return np.sqrt(np.add(var, std, out), out)


def similarity_params(main: QuadraticTask, collaborators, tau) -> SimilarityParams:
    """Closed-form similarity constants for quadratics.

    zeta_k^2 = ||A_k (x_k* - x_0*)||^2 and m is the tightest
    dimension-wise bound max_k max_d ((a_k,d - a_0,d)/a_0,d)^2, a
    worst-case-over-collaborators convention.  delta is the max-abs
    curvature gap.  With these constants the gradient-similarity
    inequality holds exactly at every point.
    """
    collaborators = list(collaborators)
    if not collaborators:
        raise ValueError("need at least one collaborator")
    tau = _as_vector(tau)
    if tau.shape[0] != len(collaborators):
        raise ValueError("tau length must match number of collaborators")
    if np.any(tau < 0) or abs(tau.sum() - 1.0) > 1e-12:
        raise ValueError("tau must be on the simplex")
    for c in collaborators:
        if c.dim != main.dim:
            raise ValueError("all tasks must share the main task's dimension")

    a0 = main.curvature
    m = 0.0
    delta = 0.0
    zetas = np.empty(len(collaborators))
    # A constant beyond the float range becomes inf; for m, the WGA alpha
    # guard then rejects every alpha > 0.
    with np.errstate(over="ignore"):
        for k, c in enumerate(collaborators):
            diff = c.curvature - a0
            m = max(m, float(np.max((diff / a0) ** 2)))
            delta = max(delta, float(np.max(np.abs(diff))))
            off = c.curvature * (c.optimum - main.optimum)
            zetas[k] = float(np.dot(off, off))
    cap = main.noise_scale + 2.0 * (1.0 + m) * float(
        np.sum(tau ** 2 * np.array([c.noise_scale for c in collaborators])))
    return SimilarityParams(
        smoothness=main.smoothness,
        pl_constant=main.pl_constant,
        grad_scale_mismatch=m,
        grad_offset_sq=float(np.dot(tau, zetas)),
        grad_offsets_sq=zetas,
        hessian_dissimilarity=delta,
        noise_scale_cap=cap,
    )

