"""Deterministic counter-based random streams.

Every stochastic draw in the library comes from a Philox stream keyed by
(seed, agent, context).  Streams for distinct keys are statistically
independent and reproducible regardless of execution order or thread
count, so a run is a pure function of its config.
"""

from collections import Counter

import numpy as np

# Stream contexts.  Gradient noise, oracle bias noise and warm-start bias
# samples live in disjoint streams so that enabling one feature never
# shifts the draws of another.
GRADIENT_CONTEXT = 0
ORACLE_CONTEXT = 1
WARMSTART_CONTEXT = 2

# Seeds lie in [0, SEED_LIMIT): a Philox key word holds 64 bits.
SEED_LIMIT = 1 << 64


def repeated_seeds(seeds) -> str | None:
    """Why `seeds` cannot be a run's seeds, each one independent run, or None."""
    repeated = ", ".join(str(s) for s, n in Counter(seeds).items() if n > 1)
    return f"seeds must differ, each being one run; repeated: {repeated}" if repeated else None


def agent_stream(seed: int, agent: int, context: int = GRADIENT_CONTEXT) -> np.random.Generator:
    """Generator for the (seed, agent, context) stream.

    The t-th standard normal drawn from this stream is, by construction,
    the noise used at step t for this agent.
    """
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed out of range [0, 2^64): {seed}")
    if agent < 0 or agent >= (1 << 32):
        raise ValueError(f"agent index out of range: {agent}")
    if context < 0 or context >= (1 << 32):
        raise ValueError(f"context out of range: {context}")
    # As uint64 words: numpy mangles a list entry at or above 2^63.
    key = np.array([seed, int(agent) | (int(context) << 32)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
