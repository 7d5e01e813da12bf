import numpy as np
import pytest

from cosgd.rng import (GRADIENT_CONTEXT, ORACLE_CONTEXT, SEED_LIMIT,
                       WARMSTART_CONTEXT, agent_stream)


class TestAgentStream:
    def test_reproducible(self):
        a = agent_stream(7, 3).standard_normal(16)
        b = agent_stream(7, 3).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_agents_independent(self):
        a = agent_stream(7, 0).standard_normal(16)
        b = agent_stream(7, 1).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_seeds_independent(self):
        a = agent_stream(7, 0).standard_normal(16)
        b = agent_stream(8, 0).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_contexts_independent(self):
        draws = [agent_stream(7, 0, ctx).standard_normal(16)
                 for ctx in (GRADIENT_CONTEXT, ORACLE_CONTEXT, WARMSTART_CONTEXT)]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[0], draws[2])
        assert not np.array_equal(draws[1], draws[2])

    def test_chunked_draws_match_one_shot(self):
        whole = agent_stream(5, 2).standard_normal(100)
        gen = agent_stream(5, 2)
        parts = np.concatenate([gen.standard_normal(30),
                                gen.standard_normal(50),
                                gen.standard_normal(20)])
        np.testing.assert_array_equal(whole, parts)

    def test_shaped_draws_match_flat(self):
        flat = agent_stream(5, 2).standard_normal(12)
        shaped = agent_stream(5, 2).standard_normal((3, 4)).ravel()
        np.testing.assert_array_equal(flat, shaped)

    def test_seed_range(self):
        """Seeds fill one 64-bit key word: a seed outside [0, 2^64) would
        alias one inside, so it is rejected.  Seeds from 2^63 on are keys
        of their own (a list key would cast them through a float)."""
        draws = [agent_stream(seed, 0).standard_normal(4).tobytes()
                 for seed in (0, 2 ** 63, 2 ** 63 + 1, SEED_LIMIT - 1)]
        assert len(set(draws)) == 4
        for seed in (-1, SEED_LIMIT, SEED_LIMIT + 7):
            with pytest.raises(ValueError, match="seed"):
                agent_stream(seed, 0)
