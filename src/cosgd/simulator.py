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
runs.  The four aggregators share one step rule (Alone is WGA with
alpha = 0, WGA is BC with c = 0 and beta = 0, and Oracle BC is BC whose
c is the oracle's noisy true bias), so configs share a call whenever
their arrays have the same shape, whatever their aggregators and noise
models.  The configs of a batch share each (seed, agent) draw, which
is spread over their lanes.  The agents share one leading array axis,
so a step forms every agent's gradient and noise with one numpy call
each, and applies the combine rules of `aggregators` and the noise
model of `objective` through their arithmetic cores.  A kernel call is
one `_Batch`, which sets each bc lane's c_0 before step 0 and runs its
stages `draw`, `step`, `freeze` and `record` once per chunk of steps.

Configs of the affine class (`_outside_affine_class`) can take a second
step, `affine_step`, when the caller asks for it, in a batch of their
own: each lane then follows s_{t+1} = A s_t + b + B z_t, s = (x, c),
from its `_AffineForm`, solved a chunk at a time in blocks from the
powers of A.  Its values agree with the loop's only to rounding; the
figures ask for it, and `run`, `run_replicated` and `sweep` keep the
loop.  The exact Alone/WGA moments (`_exact_mean`) read the same form,
for a list of configs in one call.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import rng as rng_mod
from .aggregators import (CollaborationWeights, check_alpha_guard, float_sq, mix,
                          oracle_noise_std, tau_chain, tau_sum)
from .objective import QuadraticTask, _as_vector, noise_std, similarity_params
from .schedules import ScheduleInputs, combined_variance, eta_decreasing_pl

AGGREGATORS = ("alone", "wga", "bc", "oracle_bc")
C0_POLICIES = ("first_bias", "zero", "warm_start")

DIVERGENCE_LIMIT = 1e12
# The longest horizon whose (T+1)-long float64 trace numpy can index.
MAX_HORIZON = np.iinfo(np.intp).max // 8 - 1
# The plateau metric averages the test loss over this final share of steps.
PLATEAU_FRACTION = 0.1
# Standard normals per agent in one chunk of steps, once spread over the
# lanes.  A chunk spans _CHUNK_DRAWS // (lanes * d) steps, at least 2 (an
# affine batch's in whole blocks), so that its buffers stay flat as lanes
# widen.  Its draws come in blocks of whole chunks of at least 256 // d
# steps: Philox costs about 1.5x as much per normal at 64 normals per call
# as at 256.  The first block is drawn before step 0, for first_bias's c_0.
_CHUNK_DRAWS = 1 << 14


class AllSeedsDiverged(RuntimeError):
    """Every seed of a config left the divergence box, so it has no
    seed aggregates."""


@dataclass
class DecreasingPlSchedule:
    """Step-size schedule eta_t from the decreasing PL analysis."""

    inputs: ScheduleInputs
    c: int = 2

    def values(self, horizon: int, start: int = 0) -> np.ndarray:
        """eta_t for t = start .. horizon - 1."""
        return eta_decreasing_pl(np.arange(start, horizon), self.inputs, self.c)


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

    def __post_init__(self):
        self.x0 = _as_vector(self.x0)
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"aggregator must be one of {AGGREGATORS}")
        if self.c0_policy not in C0_POLICIES:
            raise ValueError(f"c0_policy must be one of {C0_POLICIES}")
        for key, lo, hi in (("horizon", 1, MAX_HORIZON), ("warm_start_samples", 1, math.inf)):
            value = getattr(self, key)
            if not (isinstance(value, (int, np.integer)) and lo <= value <= hi):
                raise ValueError(f"{key} must be an integer in [{lo}, {hi}]")
        if not 0 <= self.oracle_v < math.inf:
            raise ValueError("oracle_v must be finite and >= 0")
        if not (isinstance(self.step_size, DecreasingPlSchedule)
                or 0 < self.step_size < math.inf):
            raise ValueError("step_size must be finite and > 0")
        if not np.all(np.abs(self.x0) <= DIVERGENCE_LIMIT):
            raise ValueError(f"x0 entries must be finite and within {DIVERGENCE_LIMIT:g}")
        for task in [self.main_task] + list(self.collaborators):
            if task.dim != self.x0.shape[0]:
                raise ValueError("all tasks must match the dimension of x0")
        # A live lane's x lies in the box, so the squared gradient norm of a
        # task the aggregator reads is at most d max_j (a_j (limit + |x*_j|))^2.
        read = [self.main_task, *([] if self.aggregator == "alone" else self.collaborators)]
        with np.errstate(over="ignore"):
            if not all(np.isfinite(task.dim * np.max(np.square(
                    task.curvature * (DIVERGENCE_LIMIT + np.abs(task.optimum)))))
                    for task in read):
                raise ValueError("a task's squared gradient norm in the box "
                                 f"|x| <= {DIVERGENCE_LIMIT:g} overflows a float")
        if self.aggregator != "alone":
            if len(self.collaborators) != self.weights.n_collaborators:
                raise ValueError("tau length must match number of collaborators")


@dataclass
class Trace:
    """One run's metrics at steps 0, s, 2s, ... <= T (s = 1 for `run`) and final iterate."""

    test_loss: np.ndarray
    grad_norm_sq: np.ndarray
    final_gap: float
    final_iterate: np.ndarray
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


def _step_sizes(cfg: RunConfig, t0: int, n: int) -> np.ndarray:
    """The sizes of steps t0 .. t0 + n - 1."""
    if isinstance(cfg.step_size, DecreasingPlSchedule):
        return cfg.step_size.values(t0 + n, start=t0)
    return np.full(n, float(cfg.step_size))


def _validate(cfg: RunConfig) -> None:
    if cfg.aggregator == "wga" and cfg.weights.alpha > 0:
        sim = similarity_params(cfg.main_task, cfg.collaborators, cfg.weights.tau)
        check_alpha_guard(cfg.weights.alpha, sim.grad_scale_mismatch)
    if cfg.aggregator == "bc" and cfg.weights.beta is None:
        raise ValueError("BC requires weights.beta")


def _batch_key(cfg: RunConfig) -> tuple:
    """Configs with equal keys share one kernel call: the key is the shape
    of its arrays (horizon, dimension and agent count), and every other
    parameter, the aggregator and noise model among them, is per lane."""
    return cfg.horizon, cfg.main_task.dim, 1 + len(cfg.collaborators)


def _outside_affine_class(cfgs) -> list:
    """Why each of configs that share a `_batch_key` is outside the affine
    step's class, or None: bc, under any c0_policy, is in it.  A config
    whose `_AffineForm` or powers A^j - I (`_powers`) leave the float
    range is outside it too, since they would turn a zero state into nan
    where the loop's iterate stays finite.  Both are formed once, on the
    config axis, with every agent and a c row, so that the rule reads
    each config alone: a batch's form holds these values, or some of
    their rows."""
    reasons = []
    for cfg in cfgs:
        _validate(cfg)  # as `_Batch` does first: bc without beta has no form
        if any(task.noise_scale != 0 for task in [cfg.main_task, *cfg.collaborators]):
            reasons.append("affine step requires additive noise on every agent")
        elif isinstance(cfg.step_size, DecreasingPlSchedule):
            reasons.append("affine step requires a constant step size")
        elif cfg.aggregator == "oracle_bc":
            reasons.append("affine step takes alone, wga, and bc")
        else:
            reasons.append(None)
    inside = [i for i, why in enumerate(reasons) if why is None]
    if inside:
        with np.errstate(over="ignore", invalid="ignore"):
            form = _affine_form([cfgs[i] for i in inside], 1 + len(cfgs[0].collaborators), 2)
            powers = _powers(1.0 + form.diag, form.off, _block_length(cfgs[0].main_task.dim))
        # Each array's config axis is its second last.
        finite = np.all([np.isfinite(a).all(axis=-1).reshape(-1, len(inside)).all(axis=0)
                         for a in (*form, *powers)], axis=0)
        for i, ok in zip(inside, finite):
            reasons[i] = None if ok else "affine step requires a form and powers in the float range"
    return reasons


def _per_agent(cfgs, used: int, value) -> np.ndarray:
    """value(task) of each config's last `used` agents, the main task last: (used, C, ...)."""
    return np.array([[value(task) for task in [*cfg.collaborators, cfg.main_task][-used:]]
                     for cfg in cfgs], dtype=float).swapaxes(0, 1)


class _AffineForm(NamedTuple):
    """One step s_{t+1} = A s_t + b + B z_t, per coordinate, held as A - I.

    s is (x, c), or x alone when no config is bc, and z holds the used
    agents' unit normals.  With H = (1-a) a_0 + a sum_k tau_k a_k,
    D = sum_k tau_k a_k - a_0 and e = sum_k tau_k a_k x_k* - a_0 x_0*:

        A - I = [[-eta H, eta a], [beta D, -beta]]
        b = [eta ((1-a) a_0 x_0* + a sum_k tau_k a_k x_k*), -beta e]

    and B's column for z_0 is [-eta (1-a) s_0, -beta s_0], for z_k
    [-eta a tau_k s_k, beta tau_k s_k].  Alone configs have a = 0, and
    alone and wga configs beta = 0, so that their c stays 0.  Held apart
    from I, -eta H keeps the digits that set where x settles."""

    diag: np.ndarray  # (rows, C, d): (A - I)[x, x] over (A - I)[c, c]
    off: np.ndarray | None  # (2, C, d): A[x, c] over A[c, x]; None without c
    b: np.ndarray  # (rows, C, d)
    B: np.ndarray  # (rows, used, C, d)


def _step_weights(cfgs, K: int) -> np.ndarray:
    """Each config's (eta, beta, alpha, tau_1 .. tau_K) as `_AffineForm` reads them: (K + 3, C)."""
    return np.array([[_step_sizes(cfg, 0, 1)[0], cfg.weights.beta if cfg.aggregator == "bc"
                      else 0.0, *([0.0] * (K + 1) if cfg.aggregator == "alone" else
                                  [cfg.weights.alpha, *cfg.weights.tau])] for cfg in cfgs]).T


def _affine_form(cfgs, used: int, rows: int) -> _AffineForm:
    """Each config's `_AffineForm`, on the config axis C, for a step that
    reads the last `used` of its agents, with s = x (rows 1) or (x, c)
    (rows 2), from the cores the loop reads; eta is the size of step 0,
    which is every step's in the affine class."""
    ones = np.ones((len(cfgs), cfgs[0].main_task.dim))  # spreads each value over the coordinates
    (eta, beta, alpha), tau = np.split(ones * _step_weights(cfgs, used - 1)[..., None], [3])
    curv = _per_agent(cfgs, used, lambda t: t.curvature)
    curv_opt = curv * _per_agent(cfgs, used, lambda t: t.optimum)
    # sum_k tau_k a_k and sum_k tau_k a_k x_k*.
    sum_a, sum_ax = (tau_sum(tau, v[:-1]) if used > 1 else 0.0 * ones for v in (curv, curv_opt))
    H = mix(1.0 - alpha, alpha, curv[-1], sum_a)
    # tau_k s_k, then s_0.
    noise = np.concatenate([tau, ones[None]]) * _per_agent(cfgs, used, lambda t: [t.noise_std])
    return _AffineForm(
        np.stack([-(eta * H), -beta])[:rows],
        np.stack([eta * alpha, beta * (sum_a - curv[-1])]) if rows > 1 else None,
        np.stack([eta * mix(1.0 - alpha, alpha, curv_opt[-1], sum_ax),
                  -beta * (sum_ax - curv_opt[-1])])[:rows],
        np.stack([-eta * np.concatenate([alpha * noise[:-1], (1.0 - alpha) * noise[-1:]]),
                  beta * np.concatenate([noise[:-1], -noise[-1:]])])[:rows])


def _powers(diag, off, k: int) -> tuple:
    """A^1 - I .. A^k - I of a step whose A is (diag, off), stacked as (diag,
    off) pairs, A^j - I at row j - 1.  Held apart from I, a power keeps the
    digits of its distance from I, which sets where a slow lane settles.
    With D = A - I, formed from A to keep the figures' bits, A^(j+1) - I =
    A (A^j - I) + D; the product A M has diagonal A_d M_d + A_o M_o' and
    off-diagonal A_d M_o + A_o M_d', ' swapping x and c; without c, A_d M_d."""
    pow_diag = np.empty((k,) + diag.shape)
    pow_off = None if off is None else np.empty((k,) + off.shape)
    pow_diag[0] = D = diag - 1.0
    if off is not None:
        pow_off[0] = off
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, k):
            pow_diag[j] = diag * pow_diag[j - 1] + D
            if off is not None:
                pow_diag[j] += off * pow_off[j - 1][::-1]
                pow_off[j] = diag * pow_off[j - 1] + off * pow_diag[j - 1][::-1] + off
    return pow_diag, pow_off


def _block_length(d: int) -> int:
    """k = ceil(sqrt(max(2, 256 // d))), the affine step's block of steps in dimension d."""
    return math.isqrt(max(2, 256 // d) - 1) + 1


def _plateau_start(T: int) -> int:
    """First step of the plateau window, the last PLATEAU_FRACTION of T."""
    return T + 1 - max(1, int(round(PLATEAU_FRACTION * T)))


class _Batch:
    """One `_run_batch` call: its per-lane parameters, its buffers, and
    the stages each chunk of steps runs through.

    A lane is one (config, seed) pair; each config's values are repeated
    over its seeds, and each kind's lanes are one slice of the lane axis
    L, which follows the agent axis where there is one.  Per-agent arrays
    stack the used agents on a leading axis, the collaborators first and
    the main task last; per-collaborator ones stack the K collaborators.
    tau and the mix weights skip the alone lanes, whose step takes g_0
    itself; the mix weights stack the other lanes' alpha over the bc
    lanes' beta.  Every operand a step multiplies by (tau, the mix
    weights, the step sizes and the normals) spans all d coordinates, so
    that its products take numpy's loop for same-shape contiguous
    operands.  Every buffer is allocated here, once per call, and only
    the seed sums and the rows at a stride span the horizon; the others
    span one chunk of steps, whose length follows memory (`_CHUNK_DRAWS`),
    one block of draws per stream, whole chunks of at least 256 // d
    steps, or one value per lane.  Before step 0 the batch draws the first
    block and sets every bc lane's c_0, so both steps start from the whole
    state.  The stages pass nothing but these buffers: `draw` fills
    `spread` from the block, which the step reads, and `freeze` and
    `record` read X, whose X[0] ends as each lane's final iterate.
    Given `affine`, for configs that must all be in the affine class, the
    batch also builds its `_AffineForm` and steps with `affine_step`,
    which solves a chunk as m blocks of k = ceil(sqrt(max(2, 256 // d)))
    steps from each lane's powers A^j - I, j = 1 .. k (`_powers`), built
    here.  Its chunk, in whole blocks, puts them at multiples of k from
    step 0, so a lane's bits follow from its config, seed, k and T alone.
    """

    def __init__(self, cfgs, seeds, stride: int | None, affine: bool = False):
        for cfg in cfgs:
            _validate(cfg)
        seeds = [int(s) for s in seeds]
        self.S, self.C = S, C = len(seeds), len(cfgs)
        self.L = L = C * S
        first = cfgs[0]
        self.d, self.T = d, T = first.main_task.dim, first.horizon
        n_agents = 1 + len(first.collaborators)
        collab = [cfg for cfg in cfgs if cfg.aggregator != "alone"]
        bc_cfgs = [cfg for cfg in collab if cfg.aggregator == "bc"]
        n_alone = L - len(collab) * S
        self.B = B = len(bc_cfgs) * S
        self.O = O = sum(cfg.aggregator == "oracle_bc" for cfg in collab) * S
        # A batch of alone lanes forms, and draws, only the main task's gradient.
        self.used = used = 1 if not collab else n_agents
        K = used - 1

        def col(values, width=1):
            """(L, width), or (A, L, width) from (A, configs) values."""
            return np.repeat(np.repeat(np.asarray(values, dtype=float), S,
                                       axis=-1)[..., None], width, axis=-1)

        self.curv, self.opt = (np.repeat(_per_agent(cfgs, used, value), S, axis=1)
                               for value in (lambda t: t.curvature, lambda t: t.optimum))
        self.var = col(_per_agent(cfgs, used, lambda t: t.noise_std ** 2))
        self.scale = scale = col(_per_agent(cfgs, used, lambda t: t.noise_scale))
        self.scaled_noise = scaled_noise = bool(scale.any())
        betas = [cfg.weights.beta for cfg in bc_cfgs]
        self.tau = col([[cfg.weights.tau[k] for cfg in collab] for k in range(K)], d)
        self.w = col([cfg.weights.alpha for cfg in collab] + betas, d)
        self.one_minus_w = col([1.0 - cfg.weights.alpha for cfg in collab]
                               + [1.0 - b for b in betas], d)

        # At least two steps, so that every block of seed sums spans two or
        # more steps (see `record`).
        floor = 256 // d  # steps whose draw fills 256 normals per stream
        self.chunk = chunk = min(T, max(_CHUNK_DRAWS // (L * d), 2))
        self.affine = affine
        if affine:
            self.form = form = _AffineForm(*(None if a is None else np.repeat(a, S, axis=-2)
                                             for a in _affine_form(cfgs, used, 1 + bool(B))))
            A = 1.0 + form.diag, form.off  # 1 + (-eta H) has the bits of 1 - eta H
            k = _block_length(d)
            self.powers = _powers(*A, k)
            self.chunk = chunk = k * -(-chunk // k)  # in whole blocks
        self.stds = None if scaled_noise or affine else col(
            _per_agent(cfgs, used, lambda t: t.noise_std))

        # One stream per (seed, row), drawn once for all configs: the used
        # agents', then the oracle's if there are oracle_bc lanes.  `draw`
        # spreads every row over every lane.  It scales the agents' rows
        # unless the batch has scaled noise, whose stds `step` forms, or
        # takes the affine step, whose B holds them; it scales the oracle's
        # row only on the lanes that read it, the oracle_bc lanes, the last O.
        self.gens = [[rng_mod.agent_stream(s, a) for s in seeds]
                     for a in [*range(1, n_agents), 0][n_agents - used:]]
        if O:
            self.gens.append([rng_mod.agent_stream(s, 0, rng_mod.ORACLE_CONTEXT)
                              for s in seeds])
            self.oracle_std = col([oracle_noise_std(cfg.oracle_v, K, d)
                                   for cfg in cfgs[C - O // S:]])
        self.cfgs = cfgs

        # Each stream's block of draws, whole chunks of at least `floor`
        # steps, which `fill` draws, the first before step 0 and then in
        # `draw` once all its steps are read, the last with the `left` steps
        # not yet drawn; `at` is its next unread step.
        block = min(T, -(-max(floor, chunk) // chunk) * chunk)
        self.buf = np.empty((len(self.gens), S, block, d))
        self.left = T
        # The normals step-major and spread over the lanes, (steps, rows,
        # L, d), so that a step reads each row contiguously; the affine
        # step's blocks read all m k rows, where those past a last chunk's
        # steps are zero or an earlier chunk's and reach no output.
        self.spread = np.zeros((chunk, len(self.gens), L, d))
        # Each lane's step sizes, formed by `step`; the affine step's form holds them.
        self.eta_all = None if affine else np.empty((chunk, L, d))

        # The outputs, which `record` writes a chunk of steps at a time
        # (see `_run_batch`); the window starts at step `kept`.
        self.kept, self.stride = _plateau_start(T), stride
        self.sums = np.empty((2, C, T + 1))
        self.window = np.empty((L, T + 1 - self.kept))
        self.grad_sums = np.zeros(L)
        self.rows = None if stride is None else np.empty((2, L, T // stride + 1))
        self.metric_work = np.empty((2, L * (chunk + 1) * d))
        self.metric_rows = np.empty((2, L * (chunk + 1)))

        self.steps_completed = np.full(L, T)
        self.dead = np.zeros(L, dtype=bool)
        self.frozen = np.empty((L, d))  # a dead lane's last iterate inside the box
        self.magnitude = np.empty((chunk, L, d))

        # The step's work buffers, which every step overwrites.  Row X[i]
        # of a chunk is the iterate before its step i.  G holds the used
        # agents' samples, g_0 last, then c: the bc lanes', then the oracle
        # lanes', which is the first row of the oracle's K products.
        # P[:, :L] holds the products of the collaborator average, which
        # is P[0, :L], and P[0, L:] the bc lanes' b.  So one mix over the
        # lanes past the alone ones and the bc lanes' c writes g and c_{t+1}
        # over its first operand, and an alone lane's g is its g_0.
        # `state[0] = state[n]` carries a chunk's last state to the next.
        # The affine step stacks each lane's c under its x, per step, and
        # writes all m k rows of its blocks.
        self.state = np.empty((chunk + 1, 1 + bool(affine and B), L, d))
        self.X = self.state[:, 0]
        self.X[0] = np.repeat(np.stack([cfg.x0 for cfg in cfgs]), S, axis=0)
        self.grads = np.empty((used, L, d))
        G = np.empty((used * L + B + K * O, d))
        P = np.empty((max(K, 1), L + B, d))  # unread by alone-only batches
        self.samples = samples = G[:used * L].reshape(used, L, d)
        self.c = c = G[used * L:used * L + B + O]
        self.b = P[0, L:]
        self.coll, self.prods = samples[:-1, n_alone:], P[:, n_alone:L]
        self.g0_bc, self.gavg_bc = samples[-1, L - B - O:L - O], P[0, L - B - O:L - O]
        self.gavg_c = P[0, L - B - O:L]
        self.oracle_prods = G[used * L + B:].reshape(K, O, d)
        self.tau_oracle = self.tau[:, L - n_alone - O:]
        self.mix_a, self.mix_b = G[(used - 1) * L + n_alone:used * L + B], P[0, n_alone:]
        self.std_buf, self.sq = ((np.empty((used, L, 1)), np.empty((used, L, d)))
                                 if scaled_noise else (None, None))

        # The bc lanes' c_0: the mean of a config's bias samples g_avg - g_0
        # at x_0, each agent's the true gradient plus a normal times its
        # `noise_std` (sqrt(fl(σ²)) is σ, so an additive agent's has the
        # loop's bits), summed in order: none under `zero`, step 0's own
        # under `first_bias`, and under `warm_start` a prefix of one draw of
        # the warm-start streams, made first.  A gradient beyond the float range freezes the lane at x_0.
        n_warm = max([cfg.warm_start_samples for cfg in bc_cfgs if cfg.c0_policy == "warm_start"]
                     or [0])
        warm = n_warm and np.stack([[rng_mod.agent_stream(s, a, rng_mod.WARMSTART_CONTEXT)
                                     .standard_normal((n_warm, d)) for s in seeds]
                                    for a in [*range(1, n_agents), 0]])  # (used, S, k, d)
        self.fill()
        bc, c[:] = slice(L - B - O, L - O), 0.0
        tau_bc = self.tau[:, bc.start - n_alone:bc.stop - n_alone, None]
        with np.errstate(over="ignore", invalid="ignore"):
            grads = self.curv[:, bc, None] * (self.X[0, bc, None] - self.opt[:, bc, None])
            std = noise_std(self.var[:, bc, None], self.scale[:, bc, None], grads, d)
            for j, cfg in enumerate(bc_cfgs):
                if cfg.c0_policy != "zero":
                    z = (self.buf[:used, :, :1] if cfg.c0_policy == "first_bias"
                         else warm[:, :, :cfg.warm_start_samples])
                    lanes = slice(j * S, (j + 1) * S)
                    samples = grads[:, lanes] + z * std[:, lanes]
                    bias = tau_sum(tau_bc[:, lanes], samples[:-1]) - samples[-1]
                    np.divide(np.add.accumulate(bias, axis=1)[:, -1], bias.shape[1], c[lanes])

        if affine:
            if B:
                self.state[0, 1, :L - B] = 0.0
                self.state[0, 1, L - B:] = c
            m, rows = chunk // k, self.state.shape[1]
            # Block-major, so that each step of the local pass reads and
            # writes contiguous rows: work[j, :, b] is block b's step j,
            # first u_{bk+j} and then w_{b,j}.  A is repeated over the
            # blocks, to the shape of what it multiplies.
            self.work = np.empty((k, rows, m, L, d))
            self.A_blocks = tuple(None if a is None else np.repeat(a[:, None], m, axis=1)
                                  for a in A)
            self.off_term = np.empty((rows, m, L, d))
            self.starts = np.empty((m + 1, rows, L, d))  # S_b, each block's start, and S_m
            self.carry = np.empty((rows, L, d))

    def fill(self) -> None:
        """Each stream's next block of `buf`, one `standard_normal` call per stream."""
        for row, row_block in zip(self.gens, self.buf[:, :, :self.left]):
            for gen, out in zip(row, row_block):
                gen.standard_normal(out=out)
        self.at, self.left = 0, self.left - min(self.left, self.buf.shape[2])

    def draw(self, n: int) -> None:
        """The normals of a chunk's n steps, spread into spread[:n], (n,
        rows, L, d): every stream's row over every lane, the used agents'
        then the oracle's.  They are the next n steps of `buf`, whose
        first block `__init__` draws and which a chunk that starts a later
        block first refills (`fill`).  The agents' rows are scaled by
        `stds`, where the batch holds them, and the oracle's row by each
        oracle_bc lane's std on those lanes, the last O."""
        used, O, L = self.used, self.O, self.L
        if self.at == self.buf.shape[2]:
            self.fill()
        buf, z = self.buf[:, :, self.at:self.at + n], self.spread[:n]
        self.at += n
        np.copyto(z.reshape(n, len(buf), self.C, self.S, self.d),
                  buf.transpose(2, 0, 1, 3)[:, :, None])
        if self.stds is not None:
            z[:, :used] *= self.stds
        if O:
            z[:, used, L - O:] *= self.oracle_std

    def step(self, X, t0: int) -> None:
        """Steps t0 .. t0 + n - 1 from X[0], written to X[1:], on the
        normals `draw` left in spread[:n] and the step sizes formed here.

        Lanes are independent, so a dead lane's overflow and NaNs stay in
        its own row until `freeze` replaces them."""
        curv, opt, grads, samples, d = self.curv, self.opt, self.grads, self.samples, self.d
        var, scale, std_buf, sq = self.var, self.scale, self.std_buf, self.sq
        tau, coll, prods, c, b = self.tau, self.coll, self.prods, self.c, self.b
        tau_oracle, oracle_prods = self.tau_oracle, self.oracle_prods
        g0_bc, gavg_bc, gavg_c = self.g0_bc, self.gavg_bc, self.gavg_c
        mix_a, mix_b, one_minus_w, w = self.mix_a, self.mix_b, self.one_minus_w, self.w
        used, scaled_noise, B, O, L = self.used, self.scaled_noise, self.B, self.O, self.L
        # Each tau sum's first product row, which ends as the sum, and the rest.
        gavg, gavg_rest = prods[0], tuple(prods[1:])
        c_oracle, oracle_rest = c[B:], tuple(oracle_prods[1:])
        g, true_coll, true_g0 = samples[-1], grads[:-1, L - O:], grads[-1, L - O:]
        n = len(X) - 1
        z, eta = self.spread[:n], self.eta_all[:n]
        np.copyto(eta.reshape(n, self.C, self.S, d), np.stack(
            [_step_sizes(cfg, t0, n) for cfg in self.cfgs], axis=1)[:, :, None, None])
        with np.errstate(over="ignore", invalid="ignore"):
            # The agents' rows, and the oracle's on the oracle_bc lanes.
            for x, x_next, z_i, z_oracle_i, eta_i in zip(
                    X[:-1], X[1:], z[:, :used], z[:, -1, L - O:], eta):
                # Each used agent's true and stochastic gradient.
                np.multiply(curv, np.subtract(x, opt, grads), grads)
                if scaled_noise:
                    np.multiply(z_i, noise_std(var, scale, grads, d, std_buf, sq), sq)
                    np.add(grads, sq, samples)
                else:
                    np.add(grads, z_i, samples)
                if used > 1:
                    # g = (1-a) g_0 + a (g_avg - c), with c = 0 on wga lanes.
                    np.multiply(tau, coll, prods)
                    tau_chain(gavg, gavg_rest)
                    if O:
                        # The oracle's c: the true bias plus the oracle's noise.
                        np.multiply(tau_oracle, true_coll, oracle_prods)
                        tau_chain(c_oracle, oracle_rest)
                        np.subtract(c_oracle, true_g0, c_oracle)
                        np.add(c_oracle, z_oracle_i, c_oracle)
                    if B:
                        np.subtract(gavg_bc, g0_bc, b)
                    if B or O:
                        np.subtract(gavg_c, c, gavg_c)
                    mix(one_minus_w, w, mix_a, mix_b, mix_a, mix_b)
                np.subtract(x, np.multiply(eta_i, g, x_next), x_next)

    def affine_step(self, X, t0: int) -> None:
        """Steps t0 .. t0 + n - 1 in the affine form s_{t+1} = A s_t + u_t,
        as m blocks of k steps: every u_t = b + B z_t of the chunk first,
        then w_{b,j} = A w_{b,j-1} + u_{bk+j} of each block from a zero
        start, all blocks at once; then the starts S_{b+1} = A^k S_b +
        w_{b,k-1} from S_0 = s_{t0} up to S_m; then every x_{bk+j+1}, the
        x row of A^{j+1} S_b + w_{b,j}, added as S_{b+1} is, so that a
        block's last is S_{b+1}'s, and S_m's c: the next chunk starts from
        S_m.  That is about 2 sqrt(n) passes of a few numpy calls, not n.
        The normals are read from the spread buffer, whose rows past step n
        reach no output; the iterates land in X, the stacked state's x, where
        `freeze` and `record` read them; A, b and B hold the step sizes."""
        form, (diag, off), work = self.form, self.A_blocks, self.work
        k, rows, m, L, d = work.shape
        (pow_diag, pow_off), starts = self.powers, self.starts
        off_term, carry = self.off_term, self.carry
        z_blocks = self.spread.reshape(m, k, self.used, L, d)
        np.add(np.einsum("rald,bjald->jrbld", form.B, z_blocks, out=work), form.b[:, None], work)
        with np.errstate(over="ignore", invalid="ignore"):
            for w, w_next in zip(work[:-1], work[1:]):
                np.add(w_next, np.multiply(diag, w, off_term), w_next)
                if off is not None:  # A[x, c] c and A[c, x] x, from the reversed stack
                    np.add(w_next, np.multiply(off, w[::-1], off_term), w_next)
            # S_{b+1} = ((w_{b,k-1} + (A^k - I) S_b) + A^k_o S_b') + S_b, from
            # w_{b,k-1} copied to contiguous rows.
            starts[0] = self.state[0]
            np.copyto(starts[1:], work[-1].transpose(1, 0, 2, 3))
            for start, start_next in zip(starts[:-1], starts[1:]):
                np.add(start_next, np.multiply(pow_diag[-1], start, carry), start_next)
                if off is not None:
                    np.add(start_next, np.multiply(pow_off[-1], start[::-1], carry), start_next)
                np.add(start_next, start, start_next)
            # x_{bk+j+1} = ((w_{b,j}[x] + (A^{j+1} - I)[x, x] x_b) + A^{j+1}[x, c] c_b)
            # + x_b, with (x_b, c_b) = S_b, in the carry's order, step-major.
            x_rows = self.state[1:, 0].reshape(m, k, L, d).transpose(1, 0, 2, 3)
            w_x, (x_b, *c_b) = work[:, 0], starts[:-1].transpose(1, 0, 2, 3)
            np.add(w_x, np.multiply(pow_diag[:, 0, None], x_b, x_rows), w_x)
            if off is not None:
                np.add(w_x, np.multiply(pow_off[:, 0, None], c_b[0], x_rows), w_x)
            np.add(w_x, x_b, x_rows)
            self.state[-1, 1:] = starts[-1, 1:]  # the next chunk's c, S_m's

    def freeze(self, X, t0: int) -> None:
        """Freeze each lane at its last iterate inside the box.

        X[j + 1] is the iterate after step t0 + j.  A lane whose X[j + 1]
        leaves the box |x| <= DIVERGENCE_LIMIT, or is not finite, completed
        t0 + j steps and holds X[j] from row j + 1 on; a lane frozen in
        an earlier chunk holds its frozen iterate in every row, also in a
        chunk that was not stepped because every lane is dead.
        """
        dead, frozen = self.dead, self.frozen
        if dead.all():
            X[:] = frozen
            return
        mag = np.abs(X[1:], out=self.magnitude[:len(X) - 1])
        if not dead.any() and mag.max() <= DIVERGENCE_LIMIT:
            return  # a NaN or inf maximum falls through
        out = ~np.all(mag <= DIVERGENCE_LIMIT, axis=-1)
        if dead.any():
            out &= ~dead
            X[:, dead] = frozen[dead]
        for lane in np.flatnonzero(out.any(axis=0)):
            j = out[:, lane].argmax()
            self.steps_completed[lane] = t0 + j
            frozen[lane] = X[j, lane]
            X[j + 1:, lane] = frozen[lane]
            dead[lane] = True

    def record(self, X, t0: int) -> None:
        """Metrics of the iterates X[i] of steps t0 + i, all lanes.

        Loss and gradient norm are formed with the same elementwise
        arithmetic as a per-step pass, lane-major from the first operation
        on, as the outputs are.  An iterate inside the box may still have
        a loss or gradient norm beyond the float range, which is recorded
        as inf."""
        L, d, kept, stride = self.L, self.d, self.kept, self.stride
        m = X.shape[0]
        diff0, g0_true = (work[:L * m * d].reshape(L, m, d) for work in self.metric_work)
        rows = self.metric_rows[:, :L * m].reshape(2, L, m)
        with np.errstate(over="ignore"):
            np.subtract(X.transpose(1, 0, 2), self.opt[-1][:, None], diff0)
            np.multiply(self.curv[-1][:, None], diff0, g0_true)
            np.add.reduce(np.multiply(g0_true, diff0, diff0), axis=-1, out=rows[0])
            np.multiply(0.5, rows[0], rows[0])
            np.add.reduce(np.multiply(g0_true, g0_true, g0_true), axis=-1, out=rows[1])
            # Over a block of two or more steps, a reduction over the seed
            # axis adds the seeds to 0 one at a time, in seed order, as
            # np.mean over stacked traces does; over one step numpy would
            # add the contiguous seeds pairwise.
            np.add.reduce(rows.reshape(2, self.C, self.S, m), axis=2,
                          out=self.sums[:, :, t0:t0 + m])
            if t0 + m > kept:
                lo = max(t0, kept)
                self.window[:, lo - kept:t0 + m - kept] = rows[0, :, lo - t0:]
            if stride is not None:  # from step t0 + skip, the chunk's first on the stride
                skip = -t0 % stride
                picked = rows[:, :, skip::stride]
                self.rows[:, :, (t0 + skip) // stride:][:, :, :picked.shape[2]] = picked
            # Last, as it overwrites the norms: steps before T in step order, whatever the chunks.
            norms = rows[1, :, :self.T - t0]
            norms[:, 0] += self.grad_sums
            self.grad_sums[:] = np.add.accumulate(norms, axis=1, out=norms)[:, -1]

    def outputs(self) -> list:
        """Per config, (means, window, grad sums, steps, final iterates,
        rows, affine) as views of the call's arrays; see `_run_batch`.  The
        final iterates are copied out of X[0], so that no view holds all of X."""
        S, sums, rows, final = self.S, self.sums, self.rows, self.X[0].copy()
        sums /= S
        blocks = [slice(k * S, (k + 1) * S) for k in range(self.C)]
        return [(sums[:, k], self.window[lanes], self.grad_sums[lanes],
                 self.steps_completed[lanes], final[lanes],
                 None if rows is None else rows[:, lanes], self.affine)
                for k, lanes in enumerate(blocks)]


def _run_batch(cfgs, seeds, stride: int | None = None, affine: bool = False) -> list:
    """Run configs that share a `_batch_key`, ordered by kind (alone |
    wga | bc | oracle_bc), under many seeds, as the lanes of one
    `_Batch`, one chunk of steps at a time: with `affine_step` given
    `affine`, for configs all of the affine class, else with `step`.

    Returns per config, as views of the call's arrays, (means, window, grad
    sums, steps, final iterates, rows, affine): the (2, T+1) seed means of
    loss and gradient norm, diverged seeds included, and per seed its losses
    over the plateau window, its gradient norms summed over steps 0 .. T-1,
    its steps completed, its final iterate (x_T, or a frozen diverged one)
    and, given a stride s, its (2, T // s + 1) loss and gradient norm at
    steps 0, s, 2s, ...; and whether it took the affine step.  Each seed's
    values are bitwise those of its (config, seed) run alone on the same
    step: every per-step operation is elementwise across lanes, each lane
    reads its own seed's streams, a diverged lane is frozen in its row,
    and the affine step's blocks sit at multiples of a k that d sets.
    """
    batch = _Batch(cfgs, seeds, stride, affine)
    step = batch.affine_step if batch.affine else batch.step
    T = batch.T
    for t0 in range(0, T, batch.chunk):
        n = min(batch.chunk, T - t0)
        X = batch.X[:n + 1]
        if not batch.dead.all():  # a chunk of only dead lanes draws nothing
            batch.draw(n)
            step(X, t0)
        batch.freeze(X, t0)
        batch.record(X if t0 + n == T else X[:n], t0)  # the last chunk's include step T's
        batch.state[0] = batch.state[n]
    return batch.outputs()


def _traces(out) -> list:
    """One Trace per seed of a `_run_batch` output with rows, as views."""
    means, window, _, steps, finals, (losses, norms), _ = out
    T = means.shape[1] - 1
    return [Trace(test_loss=loss, grad_norm_sq=norm, final_gap=float(w[-1]),
                  final_iterate=x, diverged=bool(s < T), steps_completed=int(s))
            for loss, norm, w, s, x in zip(losses, norms, window, steps, finals)]


def run(cfg: RunConfig) -> Trace:
    """Execute one seeded run; a pure function of the config, whose seed sums are its rows."""
    out = _run_batch([cfg], [cfg.seed])[0]
    return _traces((*out[:5], out[0][:, None], out[6]))[0]


def _mean_se(values: np.ndarray):
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) >= 2 else None
    return mean, se


def _reduce(cfg: RunConfig, seeds: list, out) -> RunResult:
    """Seed aggregates of one config's `_run_batch` output, and a Trace per
    seed if it has rows.  Diverged seeds are left out: the seed means are
    then replayed over the others on the step the batch took (the streams
    are counter-based), exactly (see `_run_batch`)."""
    means, window, grad_sums, steps, _, rows, affine = out
    T = cfg.horizon
    ok = steps == T
    if not ok.any():
        step = ("a decreasing PL schedule"
                if isinstance(cfg.step_size, DecreasingPlSchedule)
                else f"eta={cfg.step_size:g}")
        raise AllSeedsDiverged(f"all seeds diverged at {step}: the longest run "
                               f"completed {steps.max()} of {T} steps")
    if not ok.all():
        means = _run_batch([cfg], [s for s, good in zip(seeds, ok) if good], None, affine)[0][0]
        window, grad_sums = window[ok], grad_sums[ok]
    final_gaps, plateaus = window[:, -1].copy(), window.mean(axis=1)
    return RunResult(*_mean_se(final_gaps), *_mean_se(grad_sums / T), *_mean_se(plateaus),
                     *means, list(seeds), [s for s, good in zip(seeds, ok) if not good],
                     final_gaps, plateaus, None if rows is None else _traces(out))


def _replicate(cfgs: list, seeds, keep_traces: bool = False, trace_stride: int = 1,
               affine: bool = False) -> list:
    """One RunResult per config, in input order, with one kernel call per
    group of configs that share a `_batch_key`.  Given `affine`, a group's
    configs of the affine class take the affine step in one call and its
    others the loop in another, so each config's step is its own."""
    if not (isinstance(trace_stride, (int, np.integer)) and trace_stride >= 1):
        raise ValueError(f"trace_stride must be an integer >= 1, got {trace_stride!r}")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    if why := rng_mod.repeated_seeds(seeds):
        raise ValueError(why)
    groups = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault(_batch_key(cfg), []).append(i)
    results = [None] * len(cfgs)
    for members in groups.values():
        inside = ([why is None for why in _outside_affine_class([cfgs[i] for i in members])]
                  if affine else [False] * len(members))
        for step in (True, False):  # one batch per step taken
            batch = sorted((i for i, ok in zip(members, inside) if ok == step),
                           key=lambda i: AGGREGATORS.index(cfgs[i].aggregator))
            if batch:
                outs = _run_batch([cfgs[i] for i in batch], seeds,
                                  trace_stride if keep_traces else None, step)
                for i, out in zip(batch, outs):
                    results[i] = _reduce(cfgs[i], seeds, out)
    return results


def run_replicated(cfg: RunConfig, seeds, keep_traces: bool = False,
                   trace_stride: int = 1) -> RunResult:
    """Independent runs per seed, aggregated mean/SE.

    Diverged seeds are reported and excluded from the aggregates.  The
    plateau metric is the mean test loss over the final `PLATEAU_FRACTION`
    of steps.  Results are gathered in input order.  `keep_traces` keeps a
    Trace per seed, with rows at steps 0, s, 2s, ... for s = `trace_stride`.
    """
    return _replicate([cfg], seeds, keep_traces, trace_stride)[0]


SWEEP_AXES = ("zeta", "N", "alpha", "beta", "eta", "delta", "sigma", "T")


def sweep_names(values) -> list:
    """Each swept value as output files and labels name it: `%g`, six
    significant digits.  Values that are not numbers, or that print alike
    and so would share one output file, are a ValueError."""
    try:
        names = [f"{v:g}" for v in values]
    except (TypeError, ValueError, OverflowError):
        raise ValueError("sweep values must be numbers in the float range, "
                         f"got {values!r}") from None
    alike = sorted({name for name in names if names.count(name) > 1})
    if alike:
        raise ValueError("sweep values must differ to 6 significant digits, which "
                         f"name their outputs; repeated: {', '.join(alike)}")
    return names


def sweep_config(base: RunConfig, axis: str, value, alpha_rule: str | None = None) -> RunConfig:
    """Variant of `base` with one swept parameter.

    zeta: rebuild each collaborator optimum so zeta_k = value (1D only)
    N: averaged-collaborator noise sigma/sqrt(N); with
       alpha_rule="n_over_n_plus_1", the only rule, also alpha = N/(N+1)
    delta: collaborator curvature a_0 + delta, optimum moved to keep zeta_k
    sigma: main noise value, collaborator noise rescaled proportionally
    alpha/beta/eta/T: direct replacements; N and T must be integral
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; valid axes: {SWEEP_AXES}")
    if alpha_rule is not None and (axis, alpha_rule) != ("N", "n_over_n_plus_1"):
        raise ValueError(f"alpha_rule {alpha_rule!r} does not apply to sweep axis {axis!r}")
    if axis in ("N", "T") and value % 1 != 0:  # nan for inf and nan
        raise ValueError(f"{axis} must be an integer, got {value!r}")
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
        if alpha_rule is not None:
            cfg = replace(cfg, weights=replace(base.weights, alpha=n / (n + 1.0)))
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


def _exact_mean(cfgs, steps) -> tuple:
    """(A, x_bar = -(A - I)^-1 b, E[x_t] = x_bar + A^t (x_0 - x_bar) for t in `steps`) of alone
    and wga configs that share a `_batch_key`, 1x1 per coordinate, from one `_affine_form` call."""
    if any(cfg.aggregator not in ("alone", "wga") for cfg in cfgs):
        raise ValueError("mean dynamics oracle supports alone and wga only")
    if len(steps) and any(isinstance(cfg.step_size, DecreasingPlSchedule) for cfg in cfgs):
        raise ValueError("mean dynamics oracle requires a constant step size")
    form = _affine_form(cfgs, 1 + len(cfgs[0].collaborators), 1)
    A, x_bar = 1.0 + form.diag[0][:, None], (-form.b[0] / form.diag[0])[:, None]
    x0 = np.array([cfg.x0 for cfg in cfgs])[:, None]
    return A, x_bar, x_bar + A ** np.asarray(steps)[:, None] * (x0 - x_bar)


def mean_dynamics_oracle(cfg: RunConfig) -> np.ndarray:
    """Exact E[x_t] = x_bar + (1 - eta h)^t (x_0 - x_bar), t = 0 .. T, for Alone/WGA with a
    constant step (noise is zero-mean): h = (1-a) A_0 + a sum_k tau_k A_k and x_bar is
    `mean_fixed_point`.  BC's mean is affine in (x_t, c_t), which x alone does not track."""
    return _exact_mean([cfg], np.arange(cfg.horizon + 1))[2][0]


def mean_fixed_point(cfg: RunConfig) -> np.ndarray:
    """Fixed point -(A - I)^-1 b of the Alone/WGA mean dynamics at step 0 (a ValueError for
    BC): ((1-a) A_0 x_0* + a sum tau_k A_k x_k*) / ((1-a) A_0 + a sum tau_k A_k)."""
    return _exact_mean([cfg], ())[1][0, 0]


def _expected_losses(cfgs, start: int) -> np.ndarray:
    """`expected_test_loss(cfg, start)` of configs that share a `_batch_key`, a row each."""
    if not (isinstance(start, (int, np.integer)) and 0 <= start <= cfgs[0].horizon):
        raise ValueError(f"start must be an integer in [0, {cfgs[0].horizon}], got {start!r}")
    if any(task.noise_scale != 0 for cfg in cfgs for task in [cfg.main_task, *cfg.collaborators]):
        raise ValueError("expected test loss requires additive noise on every agent")
    t = np.arange(start, cfgs[0].horizon + 1)[:, None]
    r, _, mu = _exact_mean(cfgs, t[:, 0])
    (eta, _, alpha), tau = np.split(_step_weights(cfgs, len(cfgs[0].collaborators)), [3])
    sq = float_sq(_per_agent(cfgs, 1 + len(tau), lambda task: task.noise_std))
    s_sq = combined_variance(alpha, sq[-1], tau_sum(tau * tau, sq[:-1]) if len(tau) else 0.0)
    r_sq = r ** 2
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        geometric = np.where(r_sq == 1.0, t, (1.0 - r_sq ** t) / (1.0 - r_sq))
    variance = (float_sq(eta) * s_sq)[:, None, None] * geometric
    a, opt = (np.array([getattr(cfg.main_task, key) for cfg in cfgs])[:, None]
              for key in ("curvature", "optimum"))
    return 0.5 * np.sum(a * ((mu - opt) ** 2 + variance), axis=-1)


def expected_test_loss(cfg: RunConfig, start: int = 0) -> np.ndarray:
    """Exact E[loss_t], t = start .. T, an integer in [0, T], for Alone/WGA with a constant
    step and additive noise on every agent; a window has the bits of the curve's slice.
    The run is linear-Gaussian: per coordinate, x_t has mean mu_t (`mean_dynamics_oracle`)
    and variance P_t = eta^2 s^2 (1 - r^(2t)) / (1 - r^2), or eta^2 s^2 t where r^2 = 1,
    with r = 1 - eta h and s^2 = `schedules.combined_variance` of sigma_0^2 and sigma_a^2 =
    sum_k tau_k^2 sigma_k^2.  The loss is 1/2 sum_j a_0j ((mu_tj - x_0j*)^2 + P_tj)."""
    return _expected_losses([cfg], start)[0]
