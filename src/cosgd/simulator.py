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
one `_Batch`, whose stages `draw`, `step`, `freeze` and `record` each
run once per chunk of steps.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng as rng_mod
from .aggregators import (CollaborationWeights, check_alpha_guard, mix,
                          oracle_noise_std, tau_chain, tau_sum)
from .objective import (QuadraticTask, _as_vector, gradient_noise_std,
                        noise_std, similarity_params, true_gradient)
from .schedules import (ScheduleInputs, eta_decreasing_pl, schedule_inputs,
                        sigma_tilde_sq)

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
    """Per-step metrics of one run (arrays of length T+1, step 0 included)
    and its final iterate: x_T, or a diverged run's frozen iterate."""

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
    the traces and seed sums span the horizon: the step sizes are formed
    per chunk, and X[0] ends as each lane's final iterate.
    """

    def __init__(self, cfgs, seeds, streamed: bool):
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

        # tasks[a][c]: used agent a of config c.
        tasks = list(zip(*[list(cfg.collaborators) + [cfg.main_task]
                           for cfg in cfgs]))[n_agents - used:]

        def per_agent(value):
            return [[value(t) for t in ts] for ts in tasks]

        self.curv, self.opt = (np.repeat(np.array(per_agent(value), dtype=float), S, axis=1)
                               for value in (lambda t: t.curvature, lambda t: t.optimum))
        self.var = col(per_agent(lambda t: t.noise_std ** 2))
        self.scale = scale = col(per_agent(lambda t: t.noise_scale))
        self.scaled_noise = scaled_noise = bool(scale.any())
        betas = [cfg.weights.beta for cfg in bc_cfgs]
        self.tau = col([[cfg.weights.tau[k] for cfg in collab] for k in range(K)], d)
        self.w = col([cfg.weights.alpha for cfg in collab] + betas, d)
        self.one_minus_w = col([1.0 - cfg.weights.alpha for cfg in collab]
                               + [1.0 - b for b in betas], d)

        # One stream per (seed, row), drawn once for all configs: the used
        # agents', then the oracle's if there are oracle_bc lanes.  `draw`
        # spreads the oracle's row over the oracle_bc lanes only, the last
        # O, and scales it by each lane's std; it scales the agents' rows,
        # spread over every lane, unless the batch has scaled noise, whose
        # stds `step` forms.
        self.gens = [[rng_mod.agent_stream(s, a) for s in seeds]
                     for a in [*range(1, n_agents), 0][n_agents - used:]]
        self.stds = None if scaled_noise else col(per_agent(lambda t: t.noise_std))
        if O:
            self.gens.append([rng_mod.agent_stream(s, 0, rng_mod.ORACLE_CONTEXT)
                              for s in seeds])
            self.oracle_std = col([oracle_noise_std(cfg.oracle_v, K, d)
                                   for cfg in cfgs[C - O // S:]])
        self.cfgs = cfgs

        # At least two steps, so that every block of seed sums spans two or
        # more steps (see `record`).
        self.chunk = chunk = min(T, max(_CHUNK_DRAWS // (L * d), 256 // d, 2))
        rows = len(self.gens)
        self.buf = np.empty((rows, S, chunk, d))  # each stream's draw
        # The normals step-major and spread over the lanes that read them,
        # so that a step reads each row contiguously.
        self.spread = np.empty((chunk, used, C, S, d))
        self.oracle_spread = np.empty((chunk, O // S, S, d))
        self.eta_all = np.empty((chunk, L, d))  # each lane's step sizes

        # Each lane's loss and gradient norm from step `kept` on; streamed,
        # only its losses over the plateau window, next to each config's
        # seed sums, which `record` writes a chunk of steps at a time.
        self.kept = _plateau_start(T) if streamed else 0
        self.traces = np.empty((1 if streamed else 2, L, T + 1 - self.kept))
        self.sums = np.empty((2, C, T + 1)) if streamed else None
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
        self.X = np.empty((chunk + 1, L, d))
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

        # The bc lanes' bias estimate: zero, warm-started, or set at t = 0.
        c[:] = 0.0
        warm = [j for j, cfg in enumerate(bc_cfgs) if cfg.c0_policy == "warm_start"]
        if warm:
            normals = _warm_start_normals(
                n_agents, seeds, max(bc_cfgs[j].warm_start_samples for j in warm), d)
            for j in warm:
                c[j * S:(j + 1) * S] = _warm_start_bias(bc_cfgs[j], seeds, normals)
        self.first_bias = np.repeat([cfg.c0_policy == "first_bias" for cfg in bc_cfgs], S)

    def draw(self, t0: int, n: int):
        """The normals of steps t0 .. t0 + n - 1, drawn, spread over the
        lanes that read them and scaled: the agents', (n, used, L, d), and
        the oracle's on the oracle_bc lanes, (n, O, d); and those steps'
        sizes, (n, L, d)."""
        used, O = self.used, self.O
        buf = self.buf[:, :, :n]
        for row, z_row in zip(self.gens, buf):
            for gen, out in zip(row, z_row):
                gen.standard_normal(out=out)
        np.copyto(self.spread[:n], buf[:used].transpose(2, 0, 1, 3)[:, :, None])
        z = self.spread[:n].reshape(n, used, self.L, self.d)
        if self.stds is not None:
            z *= self.stds
        z_oracle = self.oracle_spread[:n].reshape(n, O, self.d)
        if O:
            np.copyto(self.oracle_spread[:n], buf[used].transpose(1, 0, 2)[:, None])
            z_oracle *= self.oracle_std
        eta = self.eta_all[:n]
        steps = np.stack([_step_sizes(cfg, t0, n) for cfg in self.cfgs], axis=1)
        np.copyto(eta.reshape(n, self.C, self.S, self.d), steps[:, :, None, None])
        return z, z_oracle, eta

    def step(self, X, t0: int, z, z_oracle, eta) -> None:
        """Steps t0 .. t0 + n - 1 from X[0], written to X[1:].

        Lanes are independent, so a dead lane's overflow and NaNs stay in
        its own row until `freeze` replaces them.  z and z_oracle are the
        normals `draw` returns."""
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
        g, c_bc, first_bias = samples[-1], c[:B], self.first_bias
        true_coll, true_g0 = grads[:-1, L - O:], grads[-1, L - O:]
        at_t0 = t0 == 0
        with np.errstate(over="ignore", invalid="ignore"):
            for x, x_next, z_i, z_oracle_i, eta_i in zip(
                    X[:-1], X[1:], z, z_oracle, eta):
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
                        if at_t0:
                            c_bc[first_bias] = b[first_bias]
                            at_t0 = False
                    if B or O:
                        np.subtract(gavg_c, c, gavg_c)
                    mix(one_minus_w, w, mix_a, mix_b, mix_a, mix_b)
                np.subtract(x, np.multiply(eta_i, g, x_next), x_next)

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
        L, d, kept, traces, sums = self.L, self.d, self.kept, self.traces, self.sums
        m = X.shape[0]
        diff0, g0_true = (work[:L * m * d].reshape(L, m, d) for work in self.metric_work)
        rows = self.metric_rows[:, :L * m].reshape(2, L, m)
        with np.errstate(over="ignore"):
            np.subtract(X.transpose(1, 0, 2), self.opt[-1][:, None], diff0)
            np.multiply(self.curv[-1][:, None], diff0, g0_true)
            np.add.reduce(np.multiply(g0_true, diff0, diff0), axis=-1, out=rows[0])
            np.multiply(0.5, rows[0], rows[0])
            np.add.reduce(np.multiply(g0_true, g0_true, g0_true), axis=-1, out=rows[1])
            lo = max(t0, kept)
            if t0 + m > kept:
                traces[:, :, lo - kept:t0 + m - kept] = rows[:len(traces), :, lo - t0:]
            if sums is not None:
                # Over a block of two or more steps, a reduction over the
                # seed axis adds the seeds to 0 one at a time, in seed
                # order, as np.mean over stacked traces does; over one
                # step numpy would add the contiguous seeds pairwise.
                np.add.reduce(rows.reshape(2, self.C, self.S, m), axis=2,
                              out=sums[:, :, t0:t0 + m])

    def outputs(self) -> list:
        """Per config, (losses, grad_norms, steps, final iterates, means)
        as views of the call's arrays; see `_run_batch`.  The final
        iterates are copied out of X[0], so that no view holds all of X."""
        S, traces, sums, final = self.S, self.traces, self.sums, self.X[0].copy()
        if sums is not None:
            sums /= S
        blocks = [slice(k * S, (k + 1) * S) for k in range(self.C)]
        return [(traces[0, lanes], None if sums is not None else traces[1, lanes],
                 self.steps_completed[lanes], final[lanes],
                 None if sums is None else sums[:, k])
                for k, lanes in enumerate(blocks)]


def _run_batch(cfgs, seeds, streamed: bool = False) -> list:
    """Run configs that share a `_batch_key`, ordered by kind (alone |
    wga | bc | oracle_bc), under many seeds, as the lanes of one
    `_Batch`, one chunk of steps at a time.

    Returns per config (losses, grad_norms, steps, final iterates, means):
    views of the call's own arrays, one row per seed.  The full path
    keeps each seed's whole loss and gradient-norm traces.  `streamed`
    keeps only the losses over the plateau window and adds the lanes'
    losses and norms to per-config seed sums as it goes, which it returns
    as the (2, T+1) means, diverged seeds included; its grad_norms are
    None.  A lane's final iterate is x_T, or its frozen iterate if it
    diverged.  Each row is bitwise identical to running that (config, seed)
    alone: every per-step operation is elementwise across lanes, each
    lane reads its own seed's streams, and a diverged lane is frozen in
    its row, which leaves the other lanes' bits untouched.
    """
    batch = _Batch(cfgs, seeds, streamed)
    T = batch.T
    for t0 in range(0, T, batch.chunk):
        n = min(batch.chunk, T - t0)
        X = batch.X[:n + 1]
        if not batch.dead.all():  # a chunk of only dead lanes draws nothing
            batch.step(X, t0, *batch.draw(t0, n))
        batch.freeze(X, t0)
        batch.record(X if t0 + n == T else X[:n], t0)  # the last chunk's include step T's
        X[0] = X[n]
    return batch.outputs()


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
    losses, norms, steps, finals, _ = rows
    T = losses.shape[1] - 1
    return [Trace(test_loss=loss, grad_norm_sq=norm, final_gap=float(loss[T]),
                  final_iterate=x, diverged=bool(s < T), steps_completed=int(s))
            for loss, norm, s, x in zip(losses, norms, steps, finals)]


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


def _mean_terms(cfg: RunConfig) -> tuple:
    """(h, x_bar) = ((1-a) A_0 + a sum_k tau_k A_k, ((1-a) A_0 x_0* + a sum_k
    tau_k A_k x_k*) / h), mixed as WGA mixes gradients; a = 0 for Alone."""
    rows = np.array([[task.curvature, task.curvature * task.optimum]
                     for task in [cfg.main_task, *cfg.collaborators]])
    h, weighted = rows[0] if cfg.aggregator == "alone" else mix(
        1.0 - cfg.weights.alpha, cfg.weights.alpha, rows[0], tau_sum(cfg.weights.tau, rows[1:]))
    return h, weighted / h


def _mean_path(cfg: RunConfig, T: int) -> tuple:
    """(h, E[x_t] for t = 0 .. T) for Alone/WGA at a constant step."""
    if cfg.aggregator not in ("alone", "wga"):
        raise ValueError("mean dynamics oracle supports alone and wga only")
    if isinstance(cfg.step_size, DecreasingPlSchedule):
        raise ValueError("mean dynamics oracle requires a constant step size")
    h, x_bar = _mean_terms(cfg)
    t = np.arange(T + 1)[:, None]
    return h, x_bar + (1.0 - float(cfg.step_size) * h) ** t * (cfg.x0 - x_bar)


def mean_dynamics_oracle(cfg: RunConfig, T: int | None = None) -> np.ndarray:
    """Exact expected-iterate sequence for Alone/WGA with constant step.

    Noise is zero-mean, so E[x_t] follows the affine recursion
    E[x_{t+1}] = E[x_t] - eta h (E[x_t] - x_bar), with h the mixed
    curvature (1-a) A_0 + a sum_k tau_k A_k and x_bar = mean_fixed_point:
    E[x_t] = x_bar + (1 - eta h)^t (x_0 - x_bar).  BC is not covered:
    its mean is affine too, but in the joint state (x_t, c_t), which this
    recursion in x alone does not track.
    """
    return _mean_path(cfg, cfg.horizon if T is None else int(T))[1]


def mean_fixed_point(cfg: RunConfig) -> np.ndarray:
    """Fixed point of the mean dynamics: the weighted optimum
    ((1-a) A_0 x_0* + a sum tau_k A_k x_k*) / ((1-a) A_0 + a sum tau_k A_k)."""
    return _mean_terms(cfg)[1]


def expected_test_loss(cfg: RunConfig) -> np.ndarray:
    """Exact E[loss_t] for t = 0 .. T, for Alone/WGA with a constant step
    and additive noise on every agent.

    Such a run is linear-Gaussian.  Per coordinate, x_t has mean mu_t
    (`mean_dynamics_oracle`) and variance P_t = eta^2 s^2 (1 - r^(2t)) /
    (1 - r^2), or eta^2 s^2 t where r^2 = 1, with r = 1 - eta h.  s^2 is
    the combined gradient's noise variance, sigma_0^2 for Alone and
    `schedules.sigma_tilde_sq` for WGA.  The loss is 1/2 sum_j a_0j
    ((mu_tj - x_0j*)^2 + P_tj).
    """
    if any(task.noise_scale > 0 for task in [cfg.main_task, *cfg.collaborators]):
        raise ValueError("expected test loss requires additive noise on every agent")
    h, mu = _mean_path(cfg, cfg.horizon)
    eta = float(cfg.step_size)
    r_sq = (1.0 - eta * h) ** 2
    s_sq = cfg.main_task.noise_std ** 2 if cfg.aggregator == "alone" else sigma_tilde_sq(
        schedule_inputs(cfg.main_task, cfg.collaborators, cfg.weights, cfg.horizon, cfg.x0))
    t = np.arange(cfg.horizon + 1)[:, None]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        geometric = np.where(r_sq == 1.0, t, (1.0 - r_sq ** t) / (1.0 - r_sq))
    task = cfg.main_task
    variance = eta ** 2 * s_sq * geometric
    return 0.5 * np.sum(task.curvature * ((mu - task.optimum) ** 2 + variance), axis=1)
