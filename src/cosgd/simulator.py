"""Training-loop simulator with deterministic seeded replication.

A run executes x_{t+1} = x_t - eta_t g(x_t) for T steps, where g is the
configured aggregator's pseudo-gradient built from per-agent stochastic
gradients.  Every agent's noise comes from its own counter-based stream
keyed by (seed, agent), so:

  - runs are bit-reproducible and independent of batching,
  - methods compared under the same seed share random numbers,
  - alpha = 0 reproduces the Alone trace bit-for-bit (collaborator
    streams are drawn either way).

Seeds and swept configs are vectorized through one kernel: a lane is one
(config, seed) pair, every per-step operation is elementwise across
lanes and each config's parameters are broadcast over its own lanes,
which makes a batched run bitwise equal to the corresponding single
runs.  Each step applies the combine rules of `aggregators` and the
noise model of `objective` through their arithmetic cores.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng as rng_mod
from .aggregators import (CollaborationWeights, check_alpha_guard, mix,
                          oracle_noise_std, tau_sum, wga_combine)
from .objective import (QuadraticTask, _as_vector, gradient_noise_std,
                        noise_std, similarity_params, true_gradient)
from .schedules import ScheduleInputs, eta_decreasing_pl

AGGREGATORS = ("alone", "wga", "bc", "oracle_bc")
C0_POLICIES = ("first_bias", "zero", "warm_start")

DIVERGENCE_LIMIT = 1e12
# The plateau metric averages the test loss over this final share of steps.
PLATEAU_FRACTION = 0.1
# Standard normals per agent in one noise pre-draw chunk.  A chunk spans
# _CHUNK_DRAWS // (lanes * d) steps, so its memory stays flat as lanes
# widen.
_CHUNK_DRAWS = 1 << 14


class AllSeedsDiverged(RuntimeError):
    """Every seed of a config left the divergence box, so it has no
    seed aggregates."""


@dataclass
class DecreasingPlSchedule:
    """Step-size schedule eta_t from the decreasing PL analysis."""

    inputs: ScheduleInputs
    c: int = 2

    def values(self, horizon: int) -> np.ndarray:
        return eta_decreasing_pl(np.arange(horizon), self.inputs, self.c)


@dataclass
class RunConfig:
    main_task: QuadraticTask
    collaborators: list
    aggregator: str
    weights: CollaborationWeights
    step_size: float | DecreasingPlSchedule
    horizon: int
    x0: np.ndarray
    seed: int = 0
    c0_policy: str = "first_bias"
    warm_start_samples: int = 8
    oracle_v: float = 0.0
    iterate_stride: int = 0  # 0: do not record iterates

    def __post_init__(self):
        self.x0 = _as_vector(self.x0)
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"aggregator must be one of {AGGREGATORS}")
        if self.c0_policy not in C0_POLICIES:
            raise ValueError(f"c0_policy must be one of {C0_POLICIES}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.warm_start_samples < 1:
            raise ValueError("warm_start_samples must be >= 1")
        if not self.oracle_v >= 0:
            raise ValueError("oracle_v must be >= 0")
        if not (isinstance(self.step_size, DecreasingPlSchedule)
                or 0 < self.step_size < math.inf):
            raise ValueError("step_size must be finite and > 0")
        if not np.all(np.isfinite(self.x0)):
            raise ValueError("x0 entries must be finite")
        for task in [self.main_task] + list(self.collaborators):
            if task.dim != self.x0.shape[0]:
                raise ValueError("all tasks must match the dimension of x0")
        if self.aggregator != "alone":
            if len(self.collaborators) != self.weights.n_collaborators:
                raise ValueError("tau length must match number of collaborators")


@dataclass
class Trace:
    """Per-step metrics of one run (arrays of length T+1, step 0 included)."""

    test_loss: np.ndarray
    grad_norm_sq: np.ndarray
    final_gap: float
    iterates: np.ndarray | None = None
    diverged: bool = False
    steps_completed: int = 0


@dataclass
class RunResult:
    """Seed-aggregated outcome of replicated runs."""

    final_gap_mean: float
    final_gap_se: float | None
    avg_grad_sq_mean: float
    avg_grad_sq_se: float | None
    plateau_mean: float
    plateau_se: float | None
    mean_test_loss: np.ndarray
    mean_grad_norm_sq: np.ndarray
    seeds: list
    diverged_seeds: list
    per_seed_final_gap: np.ndarray
    per_seed_plateau: np.ndarray
    traces: list | None = None


def _step_sizes(cfg: RunConfig) -> np.ndarray:
    if isinstance(cfg.step_size, DecreasingPlSchedule):
        return cfg.step_size.values(cfg.horizon)
    return np.full(cfg.horizon, float(cfg.step_size))


def _validate(cfg: RunConfig) -> None:
    if cfg.aggregator == "wga" and cfg.weights.alpha > 0:
        sim = similarity_params(cfg.main_task, cfg.collaborators, cfg.weights.tau)
        check_alpha_guard(cfg.weights.alpha, sim.grad_scale_mismatch)
    if cfg.aggregator == "bc" and cfg.weights.beta is None:
        raise ValueError("BC requires weights.beta")


def _batch_key(cfg: RunConfig) -> tuple:
    """Configs with equal keys share one kernel call.

    They agree on everything that shapes the kernel's arrays or picks a
    code path; all other parameters are broadcast per lane.
    """
    agents = [cfg.main_task] + list(cfg.collaborators)
    return (cfg.aggregator, cfg.horizon, cfg.main_task.dim, len(agents),
            cfg.c0_policy, cfg.iterate_stride,
            tuple(task.noise_scale == 0 for task in agents))


@dataclass
class _Lanes:
    """Per-lane parameters of a batch, lane axis first.

    A lane is one (config, seed) pair; each config's values are repeated
    over its seeds.  Per-agent entries are lists indexed by agent (main
    task first), per-collaborator ones by collaborator.  Entries a mode
    does not use are None.
    """

    curv: list  # (L, d) curvature
    opt: list  # (L, d) optimum
    std: list  # (L, 1) noise_std, the whole noise std of an additive agent
    var: list  # (L, 1) noise_std ** 2
    scale: list  # (L, 1) noise_scale
    tau: list | None  # (L, 1)
    alpha: np.ndarray  # (L, 1)
    one_minus_alpha: np.ndarray  # (L, 1)
    beta: np.ndarray | None  # (L, 1)
    one_minus_beta: np.ndarray | None  # (L, 1)
    oracle_std: np.ndarray | None  # (L, 1)
    cfg: np.ndarray  # (L,) index of the lane's config

    @classmethod
    def build(cls, cfgs, n_seeds: int) -> "_Lanes":
        def col(values):
            return np.repeat(np.asarray(values, dtype=float), n_seeds)[:, None]

        def rows(vectors):
            return np.repeat(np.stack(vectors), n_seeds, axis=0)

        agents = [[cfg.main_task] + list(cfg.collaborators) for cfg in cfgs]
        n_agents = len(agents[0])
        d = cfgs[0].main_task.dim
        ws = [cfg.weights for cfg in cfgs]
        mode = cfgs[0].aggregator
        per_agent = range(n_agents)
        return cls(
            curv=[rows([ts[a].curvature for ts in agents]) for a in per_agent],
            opt=[rows([ts[a].optimum for ts in agents]) for a in per_agent],
            std=[col([ts[a].noise_std for ts in agents]) for a in per_agent],
            var=[col([ts[a].noise_std ** 2 for ts in agents]) for a in per_agent],
            scale=[col([ts[a].noise_scale for ts in agents]) for a in per_agent],
            tau=None if mode == "alone" else
            [col([w.tau[k] for w in ws]) for k in range(n_agents - 1)],
            alpha=col([w.alpha for w in ws]),
            one_minus_alpha=col([1.0 - w.alpha for w in ws]),
            beta=col([w.beta for w in ws]) if mode == "bc" else None,
            one_minus_beta=col([1.0 - w.beta for w in ws]) if mode == "bc" else None,
            oracle_std=col([oracle_noise_std(cfg.oracle_v, n_agents - 1, d)
                            for cfg in cfgs]) if mode == "oracle_bc" else None,
            cfg=np.repeat(np.arange(len(cfgs)), n_seeds),
        )


def _draw(gens, n: int, d: int) -> np.ndarray:
    """(n, lanes, d): the next n steps of normals from each lane's stream."""
    z = np.empty((len(gens), n, d))
    for j, gen in enumerate(gens):
        gen.standard_normal(out=z[j])
    return z.transpose(1, 0, 2)


def _run_batch(cfgs, seeds) -> list:
    """Run configs that share a `_batch_key` under many seeds, as the
    lanes of one vectorized kernel.

    Returns, per config, one Trace per seed, bitwise identical to running
    each (config, seed) alone: every per-step operation is elementwise
    across lanes, and each lane draws from its own streams.  A lane that
    diverges is frozen at its last iterate inside the box; it is found
    once per pre-draw chunk and stays in the batch, which leaves the
    other lanes' bits untouched.
    """
    for cfg in cfgs:
        _validate(cfg)
    seeds = [int(s) for s in seeds]
    S = len(seeds)
    L = len(cfgs) * S
    first = cfgs[0]
    d = first.main_task.dim
    T = first.horizon
    n_agents = 1 + len(first.collaborators)
    mode = first.aggregator
    additive = [task.noise_scale == 0
                for task in [first.main_task] + list(first.collaborators)]
    etas = np.stack([_step_sizes(cfg) for cfg in cfgs], axis=1)  # (T, configs)
    p = _Lanes.build(cfgs, S)

    gens = [[rng_mod.agent_stream(s, a) for _ in cfgs for s in seeds]
            for a in range(n_agents)]
    oracle_gens = None
    if mode == "oracle_bc":
        oracle_gens = [rng_mod.agent_stream(s, 0, rng_mod.ORACLE_CONTEXT)
                       for _ in cfgs for s in seeds]

    # Loss and gradient norm are computed per chunk from the recorded
    # iterates, with the same elementwise arithmetic as a per-step pass.
    a0 = p.curv[0]
    opt0 = p.opt[0]
    test_loss = np.empty((L, T + 1))
    grad_sq = np.empty((L, T + 1))
    stride = first.iterate_stride
    iterates = np.empty((L, T // stride + 1, d)) if stride else None

    def record(X, t0):
        """Metrics of the iterates X[i] of steps t0 + i, all lanes."""
        m = X.shape[0]
        diff0 = X - opt0
        g0_true = a0 * diff0
        test_loss[:, t0:t0 + m] = (0.5 * np.sum(g0_true * diff0, axis=-1)).T
        grad_sq[:, t0:t0 + m] = np.sum(g0_true * g0_true, axis=-1).T
        if stride:
            skip = -t0 % stride
            k0 = (t0 + skip) // stride
            snaps = X[skip::stride]
            iterates[:, k0:k0 + snaps.shape[0]] = snaps.transpose(1, 0, 2)

    x = np.repeat(np.stack([cfg.x0 for cfg in cfgs]), S, axis=0)
    steps_completed = np.full(L, T)
    dead = np.zeros(L, dtype=bool)
    frozen = np.empty((L, d))  # a dead lane's last iterate inside the box

    def freeze(X, t0):
        """Freeze each lane at its last iterate inside the box.

        X[j + 1] is the iterate after step t0 + j.  A lane whose X[j + 1]
        leaves the box |x| <= DIVERGENCE_LIMIT, or is not finite, completed
        t0 + j steps and holds X[j] from row j + 1 on; a lane frozen in
        an earlier chunk holds its frozen iterate in every row.
        """
        out = ~np.all(np.abs(X[1:]) <= DIVERGENCE_LIMIT, axis=-1) & ~dead
        X[:, dead] = frozen[dead]
        for lane in np.flatnonzero(out.any(axis=0)):
            j = out[:, lane].argmax()
            steps_completed[lane] = t0 + j
            frozen[lane] = X[j, lane]
            X[j + 1:, lane] = frozen[lane]
            dead[lane] = True

    c_state = None
    if mode == "bc":
        if first.c0_policy == "zero":
            c_state = np.zeros((L, d))
        elif first.c0_policy == "warm_start":
            c_state = np.concatenate([_warm_start_bias(cfg, seeds) for cfg in cfgs])
        # first_bias: set at t = 0 from the first round's samples.

    noise = None

    def sample(a, grad, i):
        """Agent a's stochastic gradient at true gradient `grad`."""
        if additive[a]:  # normals pre-scaled by noise_std
            return grad + noise[a][i]
        return grad + noise[a][i] * noise_std(p.var[a], p.scale[a], grad, d)

    chunk = max(1, _CHUNK_DRAWS // (L * d))
    for t0 in range(0, T, chunk):
        n = min(chunk, T - t0)
        X = np.empty((n + 1, L, d))
        if dead.all():
            X[:] = frozen
            record(X[:n], t0)
            continue
        # Pre-draw this chunk's normals, scaled for pure-additive agents.
        noise = []
        for a in range(n_agents):
            z = _draw(gens[a], n, d)
            noise.append(z * p.std[a] if additive[a] else z)
        z_oracle = _draw(oracle_gens, n, d) if oracle_gens is not None else None
        eta = etas[t0:t0 + n][:, p.cfg][:, :, None]

        # Lanes are independent, so a dead lane's overflow and NaNs stay
        # in its own row until `freeze` replaces them.
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n):
                X[i] = x
                diff0 = x - p.opt[0]
                g0_true = p.curv[0] * diff0
                g0 = sample(0, g0_true, i)
                if mode == "alone":
                    g = g0
                else:
                    grads = [p.curv[a] * (x - p.opt[a]) for a in range(1, n_agents)]
                    samples = [sample(a, ga, i) for a, ga in enumerate(grads, 1)]
                    gavg = tau_sum(p.tau, samples)
                    if mode == "wga":
                        g = mix(p.one_minus_alpha, p.alpha, g0, gavg)
                    elif mode == "bc":
                        b = gavg - g0
                        if c_state is None:  # first_bias policy, t == 0
                            c_state = b
                        g = mix(p.one_minus_alpha, p.alpha, g0, gavg - c_state)
                        c_state = mix(p.one_minus_beta, p.beta, c_state, b)
                    else:  # oracle_bc
                        true_bias = tau_sum(p.tau, grads) - g0_true
                        c_oracle = true_bias + z_oracle[i] * p.oracle_std
                        g = mix(p.one_minus_alpha, p.alpha, g0, gavg - c_oracle)
                x = x - eta[i] * g
        X[n] = x
        freeze(X, t0)
        record(X[:n], t0)

    record(X[n:], T)  # the last chunk's X[n] is the iterate after step T

    out = []
    for c in range(len(cfgs)):
        traces = []
        for l in range(c * S, (c + 1) * S):
            traces.append(Trace(
                test_loss=test_loss[l],
                grad_norm_sq=grad_sq[l],
                final_gap=float(test_loss[l, T]),
                iterates=iterates[l] if stride else None,
                diverged=bool(steps_completed[l] < T),
                steps_completed=int(steps_completed[l]),
            ))
        out.append(traces)
    return out


def _warm_start_bias(cfg: RunConfig, seeds) -> np.ndarray:
    """c_0 = average of `warm_start_samples` bias samples at x_0, one row
    per seed, drawn from dedicated warm-start streams (keeps the main
    gradient streams aligned).  Sample k of agent a is the k-th
    `sample_gradient` call at x_0 on that agent's stream."""
    K = cfg.warm_start_samples
    samples = []
    for a, task in enumerate([cfg.main_task] + list(cfg.collaborators)):
        z = np.stack([rng_mod.agent_stream(s, a, rng_mod.WARMSTART_CONTEXT)
                      .standard_normal((K, task.dim)) for s in seeds])
        grad = true_gradient(task, cfg.x0)
        samples.append(grad + z * gradient_noise_std(task, grad))  # (S, K, d)
    bias = tau_sum(cfg.weights.tau, samples[1:]) - samples[0]
    acc = np.zeros((len(seeds), cfg.main_task.dim))
    for k in range(K):  # summed in sample order, as one seed at a time
        acc += bias[:, k]
    return acc / K


def run(cfg: RunConfig) -> Trace:
    """Execute one seeded run; a pure function of the config."""
    return _run_batch([cfg], [cfg.seed])[0][0]


def _mean_se(values: np.ndarray):
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) >= 2 else None
    return mean, se


def _reduce(cfg: RunConfig, seeds: list, traces: list,
            keep_traces: bool) -> RunResult:
    """Seed aggregates of one config's traces."""
    T = cfg.horizon
    tail = max(1, int(round(PLATEAU_FRACTION * T)))
    ok = [tr for tr in traces if not tr.diverged]
    diverged_seeds = [s for s, tr in zip(seeds, traces) if tr.diverged]
    if not ok:
        step = ("a decreasing PL schedule"
                if isinstance(cfg.step_size, DecreasingPlSchedule)
                else f"eta={cfg.step_size:g}")
        longest = max(tr.steps_completed for tr in traces)
        raise AllSeedsDiverged(f"all seeds diverged at {step}: the longest run "
                               f"completed {longest} of {T} steps")

    final_gaps = np.array([tr.final_gap for tr in ok])
    avg_grads = np.array([tr.grad_norm_sq[:T].mean() for tr in ok])
    plateaus = np.array([tr.test_loss[T + 1 - tail:].mean() for tr in ok])
    mean_trace = np.mean([tr.test_loss for tr in ok], axis=0)
    mean_grad_trace = np.mean([tr.grad_norm_sq for tr in ok], axis=0)

    fg_mean, fg_se = _mean_se(final_gaps)
    ag_mean, ag_se = _mean_se(avg_grads)
    pl_mean, pl_se = _mean_se(plateaus)
    return RunResult(
        final_gap_mean=fg_mean, final_gap_se=fg_se,
        avg_grad_sq_mean=ag_mean, avg_grad_sq_se=ag_se,
        plateau_mean=pl_mean, plateau_se=pl_se,
        mean_test_loss=mean_trace,
        mean_grad_norm_sq=mean_grad_trace,
        seeds=list(seeds), diverged_seeds=diverged_seeds,
        per_seed_final_gap=final_gaps, per_seed_plateau=plateaus,
        traces=traces if keep_traces else None,
    )


def _replicate(cfgs: list, seeds, keep_traces: bool = False) -> list:
    """One RunResult per config, in input order, with one kernel call per
    group of configs that share a `_batch_key`."""
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    groups = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault(_batch_key(cfg), []).append(i)
    results = [None] * len(cfgs)
    for members in groups.values():
        batch = _run_batch([cfgs[i] for i in members], seeds)
        for i, traces in zip(members, batch):
            results[i] = _reduce(cfgs[i], seeds, traces, keep_traces)
    return results


def run_replicated(cfg: RunConfig, seeds, keep_traces: bool = False) -> RunResult:
    """Independent runs per seed, aggregated mean/SE.

    Diverged seeds are reported and excluded from the aggregates.  The
    plateau metric is the mean test loss over the final `PLATEAU_FRACTION`
    of steps.  Results are gathered in input order.
    """
    return _replicate([cfg], seeds, keep_traces)[0]


SWEEP_AXES = ("zeta", "N", "alpha", "beta", "eta", "delta", "sigma", "T")


def sweep_config(base: RunConfig, axis: str, value, alpha_rule: str | None = None) -> RunConfig:
    """Variant of `base` with one swept parameter.

    zeta: rebuild each collaborator optimum so zeta_k = value (1D only)
    N: averaged-collaborator noise sigma/sqrt(N); with
       alpha_rule="n_over_n_plus_1" also alpha = N/(N+1)
    delta: collaborator curvature a_0 + delta, optimum moved to keep zeta_k
    sigma: main noise value, collaborator noise rescaled proportionally
    alpha/beta/eta/T: direct replacements
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; valid axes: {SWEEP_AXES}")
    cfg = base
    if axis == "zeta":
        if base.main_task.dim != 1:
            raise ValueError("zeta sweep requires 1D tasks")
        colls = [replace(c, optimum=base.main_task.optimum + value / c.curvature)
                 for c in base.collaborators]
        return replace(cfg, collaborators=colls)
    if axis == "N":
        n = int(value)
        if n < 1:
            raise ValueError("N must be >= 1")
        sigma = base.main_task.noise_std
        colls = [replace(c, noise_std=sigma / math.sqrt(n))
                 for c in base.collaborators]
        cfg = replace(cfg, collaborators=colls)
        if alpha_rule == "n_over_n_plus_1":
            cfg = replace(cfg, weights=replace(base.weights, alpha=n / (n + 1.0)))
        elif alpha_rule is not None:
            raise ValueError(f"unknown alpha_rule {alpha_rule!r}")
        return cfg
    if axis == "alpha":
        return replace(cfg, weights=replace(base.weights, alpha=float(value)))
    if axis == "beta":
        return replace(cfg, weights=replace(base.weights, beta=float(value)))
    if axis == "eta":
        return replace(cfg, step_size=float(value))
    if axis == "delta":
        if base.main_task.dim != 1:
            raise ValueError("delta sweep requires 1D tasks")
        a_new = base.main_task.curvature + float(value)
        colls = []
        for c in base.collaborators:
            zeta_k = c.curvature * (c.optimum - base.main_task.optimum)
            colls.append(replace(c, curvature=a_new,
                                 optimum=base.main_task.optimum + zeta_k / a_new))
        return replace(cfg, collaborators=colls)
    if axis == "sigma":
        old = base.main_task.noise_std
        colls = []
        for c in base.collaborators:
            ratio = c.noise_std / old if old > 0 else 1.0
            colls.append(replace(c, noise_std=float(value) * ratio))
        return replace(cfg, main_task=replace(base.main_task, noise_std=float(value)),
                       collaborators=colls)
    # axis == "T"
    return replace(cfg, horizon=int(value))


def sweep(base: RunConfig, axis: str, values, seeds,
          alpha_rule: str | None = None) -> list:
    """(value, RunResult) per swept value, in input order.

    Swept configs run as lanes of one kernel call where their shapes
    allow (a T sweep or mixed aggregators fall back to one call per
    group); each result equals its own `run_replicated` bit for bit.
    """
    values = list(values)
    cfgs = [sweep_config(base, axis, v, alpha_rule) for v in values]
    return list(zip(values, _replicate(cfgs, seeds)))


def _mean_mix(cfg: RunConfig, value) -> np.ndarray:
    """The Alone/WGA combine rule applied to the noise-free per-agent
    values `value(task)`."""
    v0 = value(cfg.main_task)
    if cfg.aggregator == "alone":
        return v0
    return wga_combine(v0, [value(c) for c in cfg.collaborators], cfg.weights)


def mean_dynamics_oracle(cfg: RunConfig, T: int | None = None) -> np.ndarray:
    """Exact expected-iterate sequence for Alone/WGA with constant step.

    Noise is additive and zero-mean, so E[x_t] follows the affine
    recursion E[x_{t+1}] = E[x_t] - eta [(1-a) A_0 (E-x_0*)
    + a sum_k tau_k A_k (E-x_k*)].  Unsupported for BC (the bias-estimate
    state couples to the noise history).
    """
    if cfg.aggregator not in ("alone", "wga"):
        raise ValueError("mean dynamics oracle supports alone and wga only")
    if isinstance(cfg.step_size, DecreasingPlSchedule):
        raise ValueError("mean dynamics oracle requires a constant step size")
    T = cfg.horizon if T is None else int(T)
    eta = float(cfg.step_size)
    out = np.empty((T + 1, cfg.main_task.dim))
    out[0] = cfg.x0
    for t in range(T):
        g = _mean_mix(cfg, lambda task: true_gradient(task, out[t]))
        out[t + 1] = out[t] - eta * g
    return out


def mean_fixed_point(cfg: RunConfig) -> np.ndarray:
    """Fixed point of the mean dynamics: the weighted optimum
    ((1-a) A_0 x_0* + a sum tau_k A_k x_k*) / ((1-a) A_0 + a sum tau_k A_k)."""
    return (_mean_mix(cfg, lambda task: task.curvature * task.optimum)
            / _mean_mix(cfg, lambda task: task.curvature))
