"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import sys
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracing  # noqa: E402


def span(id_, parent, start, end, layer="x", **attrs):
    return {"id": id_, "parent": parent, "start": start, "end": end,
            "layer": layer, "name": f"{layer}.op", "rep": 0, **attrs}


class SelfTime(unittest.TestCase):
    def test_covered_is_union_clipped_to_parent(self):
        self.assertEqual(tracing.covered_ns([], 0, 100), 0)
        self.assertEqual(tracing.covered_ns([(10, 20), (30, 40)], 0, 100), 20)
        # Overlap counts once; the part past the parent's end is dropped.
        self.assertEqual(tracing.covered_ns([(10, 30), (20, 50), (90, 120)], 0, 100), 50)
        self.assertEqual(tracing.covered_ns([(20, 50), (10, 30)], 0, 100), 40)
        self.assertEqual(tracing.covered_ns([(150, 160)], 0, 100), 0)

    def test_self_time_subtracts_direct_children_only(self):
        spans = [span(0, None, 0, 100),
                 span(1, 0, 10, 40),
                 span(2, 1, 15, 35),   # grandchild: only its parent loses it
                 span(3, 0, 30, 60),   # overlaps child 1 (pool threads)
                 span(4, 0, 80, 90)]
        got = tracing.self_times_ns(spans)
        self.assertEqual(got, {0: 100 - 50 - 10, 1: 30 - 20, 2: 20, 3: 30, 4: 10})
        # Self times of a tree partition the root's interval when children
        # do not overlap.
        tree = [span(0, None, 0, 100), span(1, 0, 10, 40), span(2, 1, 15, 35),
                span(3, 0, 50, 60)]
        self.assertEqual(sum(tracing.self_times_ns(tree).values()), 100)

    def test_simulator_self_time_excludes_rng_children(self):
        spans = [span(0, None, 0, 1000, "simulator", name="simulator.run_replicated",
                      aggregator="bc", lanes=4, horizon=10, diverged=0),
                 span(1, 0, 100, 300, "rng", name="rng.standard_normal", normals=80),
                 span(2, 0, 500, 600, "rng", name="rng.agent_stream")]
        m = tracing.layer_metrics(spans)
        self.assertEqual(m["simulator.self_s"], 700 / 1e9)
        self.assertAlmostEqual(m["simulator.ns_per_lane_step"], 700 / 40)
        self.assertAlmostEqual(m["simulator.bc.ns_per_lane_step"], 700 / 40)
        self.assertEqual(m["simulator.wga.ns_per_lane_step"], 0.0)
        self.assertEqual(m["rng.busy_s"], 300 / 1e9)
        self.assertAlmostEqual(m["rng.ns_per_normal"], 200 / 80)
        self.assertEqual(m["simulator.trace_bytes"], 2 * 11 * 4 * 8)

    def test_tracer_parents(self):
        tracer = tracing.Tracer(rep=3)

        def pool_work():
            with tracer.span("c", "rng"):
                pass

        with tracer.span("a", "cli"):
            with tracer.span("b", "figures"):
                pass
            t = threading.Thread(target=pool_work)
            t.start()
            t.join(timeout=10)
            self.assertFalse(t.is_alive())
        a, b, c = tracer.spans
        self.assertEqual((a["parent"], b["parent"], c["parent"]), (None, 0, 0))
        self.assertTrue(all(s["rep"] == 3 for s in tracer.spans))
        self.assertLessEqual(a["start"], b["start"])
        self.assertLessEqual(b["end"], a["end"])


class Percentiles(unittest.TestCase):
    def test_tail_rule_needs_ten_samples_beyond(self):
        cases = {1: None, 19: None, 20: 50.0, 39: 50.0, 40: 75.0, 99: 75.0,
                 100: 90.0, 199: 90.0, 200: 95.0, 1000: 99.0, 10000: 99.9}
        for n, p in cases.items():
            self.assertEqual(tracing.tail_percentile(n), p, n)

    def test_nearest_rank_and_median(self):
        values = list(range(100, 0, -1))
        self.assertEqual(tracing.percentile(values, 90), 90)
        self.assertEqual(tracing.percentile(values, 50), 50)
        self.assertEqual(tracing.percentile([7], 99.9), 7)
        self.assertEqual(tracing.median([3, 1, 2]), 2)
        self.assertEqual(tracing.median([4, 1, 3, 2]), 2.5)

    def test_summarize(self):
        s = tracing.summarize(range(1, 41))
        self.assertEqual((s["n"], s["median"], s["tail_p"], s["tail"]),
                         (40, 20.5, 75.0, 30))
        self.assertIsNone(tracing.summarize([1.0, 2.0])["tail"])


class GeneratorProxy(unittest.TestCase):
    def test_proxy_draws_the_same_bits(self):
        from cosgd import rng
        bare = rng.agent_stream(7, 2)
        proxy = tracing.GeneratorProxy(rng.agent_stream(7, 2), tracing.Tracer())
        for size in ((5, 3), 4, None):
            a, b = bare.standard_normal(size), proxy.standard_normal(size)
            self.assertEqual(repr(a), repr(b))
        # Methods other than standard_normal pass straight through.
        self.assertEqual(bare.random(3).tobytes(), proxy.random(3).tobytes())
        self.assertEqual(bare.standard_normal((2, 2)).tobytes(),
                         proxy.standard_normal((2, 2)).tobytes())
        self.assertEqual(sum(s["normals"] for s in proxy._tracer.spans), 15 + 4 + 1 + 4)

    def test_traced_run_is_bitwise_equal(self):
        import cosgd
        import cosgd.cli
        main = cosgd.QuadraticTask(1.0, 0.0, noise_std=1.0, noise_scale=0.5)
        coll = cosgd.QuadraticTask(2.0, 1.0, noise_std=0.5)
        w = cosgd.CollaborationWeights(0.5, [1.0], beta=0.1)
        cfg = cosgd.RunConfig(main, [coll], "bc", w, 0.01, 300, 1.0,
                              c0_policy="warm_start")
        plain = cosgd.simulator.run_replicated(cfg, range(5), keep_traces=True)
        tracer = tracing.Tracer()
        original = cosgd.rng.agent_stream
        with tracing.traced(cosgd, tracer):
            traced = cosgd.simulator.run_replicated(cfg, range(5), keep_traces=True)
        self.assertIs(cosgd.rng.agent_stream, original)
        for a, b in zip(plain.traces, traced.traces):
            self.assertEqual(a.test_loss.tobytes(), b.test_loss.tobytes())
        m = tracing.layer_metrics(tracer.spans)
        self.assertEqual(m["simulator.calls"], 1)
        self.assertEqual(m["simulator.lane_steps"], 5 * 300)
        # Gradient streams for 2 agents x 5 seeds, plus 2 x 5 warm-start.
        self.assertEqual(m["rng.streams"], 20)
        self.assertEqual(m["rng.normals"], 2 * 5 * 300 + 2 * 5 * 8)


if __name__ == "__main__":
    unittest.main()
