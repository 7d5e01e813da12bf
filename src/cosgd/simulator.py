"""Training-loop simulator with deterministic seeded replication.

A run executes x_{t+1} = x_t - eta_t g(x_t) for T steps, where g is the
configured aggregator's pseudo-gradient built from per-agent stochastic
gradients.  Every agent's noise comes from its own counter-based stream
keyed by (seed, agent), so:

  - runs are bit-reproducible and independent of batching,
  - methods compared under the same seed share random numbers,
  - alpha = 0 reproduces the Alone trace bit-for-bit: Alone reads only
    the main task's stream, and no other stream shifts its draws.

Seeds and configs are vectorized through one kernel: a lane is one
(config, seed) pair, every per-step operation is elementwise across
lanes and each config's parameters are broadcast over its own lanes,
which makes a batched run bitwise equal to the corresponding single
runs.  Alone, WGA and BC share one step rule (Alone is WGA with alpha = 0,
WGA is BC with c = 0 and beta = 0); Oracle BC runs in calls of its own.
The configs of a batch share each (seed, agent) draw, which is spread
over their lanes.  The agents share one leading array axis, so a step
forms every agent's gradient and noise with one numpy call each, and
applies the combine rules of `aggregators` and the noise model of
`objective` through their arithmetic cores.
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
# The longest horizon whose (T+1)-long float64 trace numpy can index.
MAX_HORIZON = np.iinfo(np.intp).max // 8 - 1
# The plateau metric averages the test loss over this final share of steps.
PLATEAU_FRACTION = 0.1
# Standard normals per agent in one noise pre-draw chunk, once spread
# over the lanes.  A chunk spans _CHUNK_DRAWS // (lanes * d) steps, so its
# memory stays flat as lanes widen, but at least 256 // d steps: Philox
# costs about 1.5x as much per normal at 64 normals per call as at 256.
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
        for key, lo, hi in (("horizon", 1, MAX_HORIZON), ("warm_start_samples", 1, math.inf),
                            ("iterate_stride", 0, math.inf)):
            value = getattr(self, key)
            if not (isinstance(value, (int, np.integer)) and lo <= value <= hi):
                raise ValueError(f"{key} must be an integer in [{lo}, {hi}]")
        if not 0 <= self.oracle_v < math.inf:
            raise ValueError("oracle_v must be finite and >= 0")
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
    avg_grad_sq_mean: float | None  # None from a streamed run
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
    code path; all other parameters, the aggregator among them unless it
    is oracle_bc, are per lane.
    """
    agents = [cfg.main_task] + list(cfg.collaborators)
    return (cfg.aggregator == "oracle_bc", cfg.horizon, cfg.main_task.dim,
            len(agents), cfg.iterate_stride,
            tuple(task.noise_scale == 0 for task in agents))


@dataclass
class _Lanes:
    """Per-lane parameters of a batch: the lane axis L, after the agent
    axis where there is one.

    A lane is one (config, seed) pair; each config's values are repeated
    over its seeds, and each kind's lanes are one slice.  Per-agent arrays
    stack the A agents on a leading axis, the collaborators first and the
    main task last; per-collaborator ones stack the K = A - 1
    collaborators.  Alone lanes hold placeholders alpha = 0 and tau = 0:
    their step takes g_0 itself.  The mix weights stack each lane's alpha
    over the bc lanes' beta.  The weights a step multiplies by, tau and
    the mix weights, span all d coordinates, so that their products take
    numpy's loop for same-shape contiguous operands.
    """

    curv: np.ndarray  # (A, L, d) curvature
    opt: np.ndarray  # (A, L, d) optimum
    std: np.ndarray  # (A, L, 1) noise_std, the whole noise std of an additive agent
    # (A, L, 1) noise_std ** 2 of a scaled-noise agent.  An additive agent
    # has 1 here and noise_scale 0, so that `noise_std` is exactly 1 for
    # it and its pre-scaled normals pass through a batch that also has
    # scaled-noise agents unchanged.
    var: np.ndarray
    scale: np.ndarray  # (A, L, 1) noise_scale
    tau: np.ndarray  # (K, L, d)
    w: np.ndarray  # (L + B, d): alpha, then beta of the B bc lanes
    one_minus_w: np.ndarray  # (L + B, d)
    oracle_std: np.ndarray | None  # (L, 1), oracle_bc only

    @classmethod
    def build(cls, cfgs, n_seeds: int) -> "_Lanes":
        d = cfgs[0].main_task.dim

        def col(values, width=1):
            """(L, width), or (A, L, width) from (A, configs) values."""
            return np.repeat(np.repeat(np.asarray(values, dtype=float), n_seeds,
                                       axis=-1)[..., None], width, axis=-1)

        # tasks[a][c]: agent a of config c.
        tasks = list(zip(*[list(cfg.collaborators) + [cfg.main_task] for cfg in cfgs]))
        n_agents = len(tasks)
        collab = [cfg.weights if cfg.aggregator != "alone" else None for cfg in cfgs]
        betas = [cfg.weights.beta for cfg in cfgs if cfg.aggregator == "bc"]

        def per_agent(value):
            return [[value(t) for t in ts] for ts in tasks]

        def vectors(value):
            """(A, L, d) of the per-task vectors `value(task)`."""
            return np.repeat(np.array(per_agent(value), dtype=float), n_seeds,
                             axis=1)

        return cls(
            curv=vectors(lambda t: t.curvature),
            opt=vectors(lambda t: t.optimum),
            std=col(per_agent(lambda t: t.noise_std)),
            var=col(per_agent(lambda t: t.noise_std ** 2 if t.noise_scale else 1.0)),
            scale=col(per_agent(lambda t: t.noise_scale)),
            tau=col([[w.tau[k] if w else 0.0 for w in collab]
                     for k in range(n_agents - 1)], d),
            w=col([w.alpha if w else 0.0 for w in collab] + betas, d),
            one_minus_w=col([1.0 - w.alpha if w else 1.0 for w in collab]
                            + [1.0 - b for b in betas], d),
            oracle_std=col([oracle_noise_std(cfg.oracle_v, n_agents - 1, d)
                            for cfg in cfgs])
            if cfgs[0].aggregator == "oracle_bc" else None,
        )


def _draw(gens, z: np.ndarray) -> np.ndarray:
    """Fill z, (rows, S, n, d), with the next n steps of normals from the
    streams `gens[row][seed]`; returns its (n, rows, S, d) view."""
    for row, z_row in zip(gens, z):
        for gen, out in zip(row, z_row):
            gen.standard_normal(out=out)
    return z.transpose(2, 0, 1, 3)


def _plateau_start(T: int) -> int:
    """First step of the plateau window, the last PLATEAU_FRACTION of T."""
    return T + 1 - max(1, int(round(PLATEAU_FRACTION * T)))


def _run_batch(cfgs, seeds, streamed: bool = False) -> list:
    """Run configs that share a `_batch_key`, ordered by kind (alone |
    wga | bc), under many seeds, as the lanes of one vectorized kernel.

    Returns per config, in both modes, (losses, grad_norms, steps,
    iterates, means): views of the call's own arrays, one row per seed.
    The full path keeps each seed's whole loss and gradient-norm traces.
    `streamed` keeps only its losses over the plateau window (the last
    columns from step `kept` on), and adds the lanes' losses and norms to
    per-config seed sums as it goes, which it returns as the (2, T+1)
    means, diverged seeds included; its grad_norms are None.  Each row is
    bitwise identical to running that (config, seed) alone: every
    per-step operation is elementwise across lanes, and each lane reads
    its own seed's streams.  A lane that diverges is frozen at its last
    iterate inside the box; it is found once per pre-draw chunk and stays
    in the batch, which leaves the other lanes' bits untouched.
    """
    for cfg in cfgs:
        _validate(cfg)
    seeds = [int(s) for s in seeds]
    S, C = len(seeds), len(cfgs)
    L = C * S
    first = cfgs[0]
    d, T = first.main_task.dim, first.horizon
    n_agents = 1 + len(first.collaborators)
    n_alone = sum(cfg.aggregator == "alone" for cfg in cfgs) * S
    bc_cfgs = [cfg for cfg in cfgs if cfg.aggregator == "bc"]
    B = len(bc_cfgs) * S
    oracle = first.aggregator == "oracle_bc"
    # A batch of alone lanes forms, and draws, only the main task's gradient.
    used = 1 if n_alone == L else n_agents
    p = _Lanes.build(cfgs, S)

    # One stream per (seed, row), drawn once for all configs; the row
    # axis holds the used agents in `_Lanes` order, then the oracle's for
    # oracle_bc.
    gens = [[rng_mod.agent_stream(s, a) for s in seeds]
            for a in [*range(1, n_agents), 0][n_agents - used:]]
    if oracle:
        gens.append([rng_mod.agent_stream(s, 0, rng_mod.ORACLE_CONTEXT)
                     for s in seeds])

    etas = np.stack([_step_sizes(cfg) for cfg in cfgs], axis=1)  # (T, configs)
    # Each lane's loss and gradient norm from step `kept` on; streamed, only
    # its losses over the plateau window, next to each config's seed sums,
    # which `record` writes a chunk of steps at a time.
    kept = _plateau_start(T) if streamed else 0
    traces = np.empty((1 if streamed else 2, L, T + 1 - kept))
    sums = np.empty((2, C, T + 1)) if streamed else None
    stride = first.iterate_stride
    iterates = np.empty((L, T // stride + 1, d)) if stride else None

    # At least two steps, so that every block of seed sums spans two or
    # more steps (see `record`).
    chunk = min(T, max(_CHUNK_DRAWS // (L * d), 256 // d, 2))
    # Loss and gradient norm are computed per chunk from the recorded
    # iterates, with the same elementwise arithmetic as a per-step pass,
    # lane-major from the first operation on, as the outputs are.  The
    # last chunk also records the iterate after step T.
    a0, opt0 = p.curv[-1][:, None], p.opt[-1][:, None]
    metric_work = np.empty((2, L * (chunk + 1) * d))
    metric_rows = np.empty((2, L * (chunk + 1)))

    def record(X, t0):
        """Metrics of the iterates X[i] of steps t0 + i, all lanes.  An
        iterate inside the box may still have a loss or gradient norm
        beyond the float range, which is recorded as inf."""
        m = X.shape[0]
        diff0, g0_true = (work[:L * m * d].reshape(L, m, d) for work in metric_work)
        rows = metric_rows[:, :L * m].reshape(2, L, m)
        with np.errstate(over="ignore"):
            np.subtract(X.transpose(1, 0, 2), opt0, diff0)
            np.multiply(a0, diff0, g0_true)
            np.add.reduce(np.multiply(g0_true, diff0, diff0), axis=-1, out=rows[0])
            np.multiply(0.5, rows[0], rows[0])
            np.add.reduce(np.multiply(g0_true, g0_true, g0_true), axis=-1, out=rows[1])
            lo = max(t0, kept)
            if t0 + m > kept:
                traces[:, :, lo - kept:t0 + m - kept] = rows[:len(traces), :, lo - t0:]
            if streamed:
                # Over a block of two or more steps, a reduction over the
                # seed axis adds the seeds to 0 one at a time, in seed
                # order, as np.mean over stacked traces does; over one
                # step numpy would add the contiguous seeds pairwise.
                np.add.reduce(rows.reshape(2, C, S, m), axis=2, out=sums[:, :, t0:t0 + m])
        if stride:
            skip = -t0 % stride
            k0 = (t0 + skip) // stride
            snaps = X[skip::stride]
            iterates[:, k0:k0 + snaps.shape[0]] = snaps.transpose(1, 0, 2)

    steps_completed = np.full(L, T)
    dead = np.zeros(L, dtype=bool)
    frozen = np.empty((L, d))  # a dead lane's last iterate inside the box
    magnitude = np.empty((chunk, L, d))

    def freeze(X, t0):
        """Freeze each lane at its last iterate inside the box.

        X[j + 1] is the iterate after step t0 + j.  A lane whose X[j + 1]
        leaves the box |x| <= DIVERGENCE_LIMIT, or is not finite, completed
        t0 + j steps and holds X[j] from row j + 1 on; a lane frozen in
        an earlier chunk holds its frozen iterate in every row.
        """
        mag = np.abs(X[1:], out=magnitude[:len(X) - 1])
        if not dead.any() and mag.max() <= DIVERGENCE_LIMIT:
            return  # a NaN or inf maximum falls through
        out = ~np.all(mag <= DIVERGENCE_LIMIT, axis=-1)
        if dead.any():
            out &= ~dead
            X[:, dead] = frozen[dead]
        for lane in np.flatnonzero(out.any(axis=0)):
            j = out[:, lane].argmax()
            steps_completed[lane] = t0 + j
            frozen[lane] = X[j, lane]
            X[j + 1:, lane] = frozen[lane]
            dead[lane] = True

    buf = np.empty((len(gens), S, chunk, d))  # reused by every chunk
    # The normals step-major, spread over the configs' lanes, so that a
    # step reads each row contiguously.  A one-config call at d = 1 reads
    # `buf` in place: there the transposing copy costs about what it saves
    # the steps, and would add a buffer the size of `buf`.
    spread = np.empty((chunk, len(gens), C, S, d)) if C > 1 or d > 1 else None
    eta_all = np.empty((chunk, L, d))  # each lane's step sizes, full width
    curv, opt, var, scale, std = (v[n_agents - used:]
                                  for v in (p.curv, p.opt, p.var, p.scale, p.std))
    scaled_noise = bool(scale.any())
    # The noise rows scaled per chunk by each lane's std: the additive
    # agents' and the oracle's.  A scaled-noise agent's std is formed per step.
    stds = [(a, std[a]) for a in range(used) if scale[a, 0, 0] == 0]
    stds += [(used, p.oracle_std)] if oracle else []

    # The step's work buffers, which every step overwrites.  Row X[i] of a
    # chunk is the iterate before its step i.  G holds the used agents'
    # samples, g_0 last, and then the bc lanes' c; P[:, :L] holds the
    # products of the collaborator average, which is P[0, :L], and P[0, L:]
    # the bc lanes' b.  So one mix over the lanes past the alone ones
    # writes both c_{t+1} and g over its first operand, and an alone
    # lane's g is its g_0.
    X_all = np.empty((chunk + 1, L, d))
    X_all[0] = np.repeat(np.stack([cfg.x0 for cfg in cfgs]), S, axis=0)
    grads = np.empty((used, L, d))
    G = np.empty((used * L + B, d))
    P = np.empty((max(used - 1, 1), L + B, d))  # unread by alone-only batches
    samples, c, b = G[:used * L].reshape(used, L, d), G[used * L:], P[0, L:]
    g = samples[-1]
    coll, prods, tau = samples[:-1, n_alone:], P[:, n_alone:L], p.tau[:, n_alone:]
    g0_bc, gavg_bc = g[L - B:], P[0, L - B:L]
    mix_a, mix_b = G[(used - 1) * L + n_alone:], P[0, n_alone:]
    one_minus_w, w = p.one_minus_w[n_alone:], p.w[n_alone:]
    if scaled_noise:
        std_buf, sq = np.empty((used, L, 1)), np.empty((used, L, d))
    bias = np.empty((used - 1, L, d)) if oracle else None

    # The bc lanes' bias estimate: zero, warm-started, or set at t = 0.
    c[:] = 0.0
    warm = [j for j, cfg in enumerate(bc_cfgs) if cfg.c0_policy == "warm_start"]
    if warm:
        normals = _warm_start_normals(
            n_agents, seeds, max(bc_cfgs[j].warm_start_samples for j in warm), d)
        for j in warm:
            c[j * S:(j + 1) * S] = _warm_start_bias(bc_cfgs[j], seeds, normals)
    first_bias = np.repeat([cfg.c0_policy == "first_bias" for cfg in bc_cfgs], S)
    at_t0 = True

    for t0 in range(0, T, chunk):
        n = min(chunk, T - t0)
        X = X_all[:n + 1]
        recorded = X if t0 + n == T else X[:n]  # the last chunk's include step T's
        if dead.all():
            X[:] = frozen
            record(recorded, t0)
            continue
        # Pre-draw this chunk's normals, spread them over the configs'
        # lanes and scale them.
        z = _draw(gens, buf[:, :, :n])
        if spread is not None:
            np.copyto(spread[:n], z[:, :, None])
            z = spread[:n].reshape(n, len(gens), L, d)
        for row, lane_std in stds:
            z[:, row] *= lane_std
        eta = eta_all[:n]
        np.copyto(eta.reshape(n, C, S, d), etas[t0:t0 + n, :, None, None])

        # Lanes are independent, so a dead lane's overflow and NaNs stay
        # in its own row until `freeze` replaces them.  z[:, -1] is the
        # oracle's row for oracle_bc, and unread otherwise.
        with np.errstate(over="ignore", invalid="ignore"):
            for x, x_next, z_i, z_oracle, eta_i in zip(
                    X[:-1], X[1:], z[:, :used], z[:, -1], eta):
                # Each used agent's true and stochastic gradient.
                np.multiply(curv, np.subtract(x, opt, grads), grads)
                if scaled_noise:
                    np.multiply(z_i, noise_std(var, scale, grads, d, std_buf, sq), sq)
                    np.add(grads, sq, samples)
                else:
                    np.add(grads, z_i, samples)
                if used > 1:
                    # g = (1-a) g_0 + a (g_avg - c), with c = 0 on wga lanes.
                    gavg = tau_sum(tau, coll, prods)
                    if oracle:
                        true_bias = tau_sum(tau, grads[:-1], bias)
                        np.subtract(true_bias, grads[-1], true_bias)
                        np.add(true_bias, z_oracle, true_bias)
                        np.subtract(gavg, true_bias, gavg)
                    elif B:
                        np.subtract(gavg_bc, g0_bc, b)
                        if at_t0:
                            c[first_bias] = b[first_bias]
                            at_t0 = False
                        np.subtract(gavg_bc, c, gavg_bc)
                    mix(one_minus_w, w, mix_a, mix_b, mix_a, mix_b)
                np.subtract(x, np.multiply(eta_i, g, x_next), x_next)
        freeze(X, t0)
        record(recorded, t0)
        X_all[0] = X[n]

    if streamed:
        sums /= S
    blocks = [slice(k * S, (k + 1) * S) for k in range(C)]
    return [(traces[0, lanes], None if streamed else traces[1, lanes],
             steps_completed[lanes], iterates[lanes] if stride else None,
             sums[:, k] if streamed else None)
            for k, lanes in enumerate(blocks)]


def _warm_start_normals(n_agents: int, seeds, k: int, d: int) -> list:
    """Per agent, the (S, k, d) normals of the first k warm-start samples
    of each seed, from the dedicated warm-start streams (which keep the
    main gradient streams aligned).  A sample count below k uses a prefix
    of these, as its own streams would draw it."""
    return [np.stack([rng_mod.agent_stream(s, a, rng_mod.WARMSTART_CONTEXT)
                      .standard_normal((k, d)) for s in seeds])
            for a in range(n_agents)]


def _warm_start_bias(cfg: RunConfig, seeds, normals) -> np.ndarray:
    """c_0 = average of `warm_start_samples` bias samples at x_0, one row
    per seed.  Sample k of agent a is the k-th `sample_gradient` call at
    x_0 on that agent's warm-start stream.  `normals` are those of
    `_warm_start_normals` for at least `warm_start_samples` samples, so
    that the configs of a batch share one draw."""
    K = cfg.warm_start_samples
    tasks = [cfg.main_task] + list(cfg.collaborators)
    # A gradient beyond the float range makes c_0 inf or nan, and the
    # kernel then freezes the lane at x_0, as it would any diverged lane.
    with np.errstate(over="ignore", invalid="ignore"):
        samples = []
        for task, z in zip(tasks, normals):
            grad = true_gradient(task, cfg.x0)
            samples.append(grad + z[:, :K] * gradient_noise_std(task, grad))  # (S, K, d)
        bias = tau_sum(cfg.weights.tau, samples[1:]) - samples[0]
        acc = np.zeros((len(seeds), cfg.main_task.dim))
        for k in range(K):  # summed in sample order, as one seed at a time
            acc += bias[:, k]
        return acc / K


def _traces(rows) -> list:
    """One Trace per seed of a full-path `_run_batch` output, as views."""
    losses, norms, steps, iterates, _ = rows
    T = losses.shape[1] - 1
    iterates = [None] * len(steps) if iterates is None else iterates
    return [Trace(test_loss=loss, grad_norm_sq=norm, final_gap=float(loss[T]), iterates=x,
                  diverged=bool(s < T), steps_completed=int(s))
            for loss, norm, s, x in zip(losses, norms, steps, iterates)]


def run(cfg: RunConfig) -> Trace:
    """Execute one seeded run; a pure function of the config."""
    return _traces(_run_batch([cfg], [cfg.seed])[0])[0]


def _mean_se(values: np.ndarray):
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) >= 2 else None
    return mean, se


def _reduce(cfg: RunConfig, seeds: list, rows, keep_traces: bool = False) -> RunResult:
    """Seed aggregates of one config's `_run_batch` output, read in place.

    Diverged seeds are left out: a streamed config with one is replayed on
    the full path, exactly (the streams are counter-based).  A streamed
    result has no traces and no avg_grad_sq (a pairwise mean over T)."""
    losses, norms, steps, _, means = rows
    T = cfg.horizon
    ok = steps == T
    if not ok.any():
        step = ("a decreasing PL schedule"
                if isinstance(cfg.step_size, DecreasingPlSchedule)
                else f"eta={cfg.step_size:g}")
        raise AllSeedsDiverged(f"all seeds diverged at {step}: the longest run "
                               f"completed {steps.max()} of {T} steps")
    if not ok.all():
        if means is not None:
            return _reduce(cfg, seeds, _run_batch([cfg], seeds)[0])
        losses, norms = losses[ok], norms[ok]
    final_gaps = losses[:, -1].copy()
    plateaus = losses[:, _plateau_start(T) - (T + 1):].mean(axis=1)
    avg_grad = (None, None) if norms is None else _mean_se(norms[:, :T].mean(axis=1))
    if means is None:
        means = losses.mean(axis=0), norms.mean(axis=0)
    return RunResult(*_mean_se(final_gaps), *avg_grad, *_mean_se(plateaus), *means,
                     list(seeds), [s for s, good in zip(seeds, ok) if not good],
                     final_gaps, plateaus, _traces(rows) if keep_traces else None)


def _replicate(cfgs: list, seeds, keep_traces: bool = False,
               streamed: bool = False) -> list:
    """One RunResult per config, in input order, with one kernel call per
    group of configs that share a `_batch_key`.  `streamed`, the figures'
    path, holds seed sums in place of the traces (see `_run_batch`)."""
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    groups = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault(_batch_key(cfg), []).append(i)
    results = [None] * len(cfgs)
    for members in groups.values():
        members.sort(key=lambda i: AGGREGATORS.index(cfgs[i].aggregator))
        batch = _run_batch([cfgs[i] for i in members], seeds, streamed)
        for i, rows in zip(members, batch):
            results[i] = _reduce(cfgs[i], seeds, rows, keep_traces)
    return results


def run_replicated(cfg: RunConfig, seeds, keep_traces: bool = False) -> RunResult:
    """Independent runs per seed, aggregated mean/SE.

    Diverged seeds are reported and excluded from the aggregates.  The
    plateau metric is the mean test loss over the final `PLATEAU_FRACTION`
    of steps.  Results are gathered in input order.
    """
    return _replicate([cfg], seeds, keep_traces)[0]


SWEEP_AXES = ("zeta", "N", "alpha", "beta", "eta", "delta", "sigma", "T")


def sweep_names(values) -> list:
    """Each swept value as output files and labels name it: `%g`, six
    significant digits.  Values that are not numbers, or that print alike
    and so would share one output file, are a ValueError."""
    try:
        names = [f"{v:g}" for v in values]
    except (TypeError, ValueError):
        raise ValueError(f"sweep values must be numbers, got {values!r}") from None
    alike = sorted({name for name in names if names.count(name) > 1})
    if alike:
        raise ValueError("sweep values must differ to 6 significant digits, which "
                         f"name their outputs; repeated: {', '.join(alike)}")
    return names


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
    allow (a T sweep makes one call per horizon); each result equals its
    own `run_replicated` bit for bit.
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

    Noise is zero-mean, so E[x_t] follows the affine recursion
    E[x_{t+1}] = E[x_t] - eta h (E[x_t] - x_bar), with h the mixed
    curvature (1-a) A_0 + a sum_k tau_k A_k and x_bar = mean_fixed_point:
    E[x_t] = x_bar + (1 - eta h)^t (x_0 - x_bar).  BC is not covered:
    its mean is affine too, but in the joint state (x_t, c_t), which this
    recursion in x alone does not track.
    """
    if cfg.aggregator not in ("alone", "wga"):
        raise ValueError("mean dynamics oracle supports alone and wga only")
    if isinstance(cfg.step_size, DecreasingPlSchedule):
        raise ValueError("mean dynamics oracle requires a constant step size")
    T = cfg.horizon if T is None else int(T)
    h = _mean_mix(cfg, lambda task: task.curvature)
    x_bar = mean_fixed_point(cfg)
    t = np.arange(T + 1)[:, None]
    return x_bar + (1.0 - float(cfg.step_size) * h) ** t * (cfg.x0 - x_bar)


def mean_fixed_point(cfg: RunConfig) -> np.ndarray:
    """Fixed point of the mean dynamics: the weighted optimum
    ((1-a) A_0 x_0* + a sum tau_k A_k x_k*) / ((1-a) A_0 + a sum tau_k A_k)."""
    return (_mean_mix(cfg, lambda task: task.curvature * task.optimum)
            / _mean_mix(cfg, lambda task: task.curvature))
