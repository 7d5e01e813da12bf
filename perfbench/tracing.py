"""Spans and per-layer counters recorded from outside the cosgd package.

`traced` swaps public callables for timing wrappers on the module where
the calling module looks them up (``cosgd.figures.run_replicated``,
``cosgd.cli.write_csv``, ``cosgd.rng.agent_stream``, ...) and puts the
originals back on exit.  Each call becomes one span: name, layer, start,
end, parent span and repetition id, kept in memory until the run ends.

This module imports neither numpy nor cosgd, so importing it costs the
benchmark's set-up measurement nothing.
"""

import math
import os
import threading
import time
from contextlib import contextmanager

# Percentiles the tail rule chooses from, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

FIGURE_FUNCTIONS = ("fig2", "fig3", "fig4", "fig5", "gainfactor", "sublinear")
AGGREGATORS = ("alone", "wga", "bc", "oracle_bc")


class Tracer:
    """In-memory span log for one repetition."""

    def __init__(self, rep: int = 0):
        self.rep = rep
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        """Record one span; the yielded dict takes extra attributes.

        A span opened on a worker thread with nothing open on that thread
        is parented to the main thread's innermost open span: the call
        that handed the work to the pool.
        """
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        rec = {"name": name, "layer": layer, "parent": parent, "rep": self.rep,
               "start": 0, "end": 0, **attrs}
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec["id"])
        rec["start"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            stack.pop()


class GeneratorProxy:
    """Stands in for the Generator `agent_stream` returns.

    `standard_normal` is delegated unchanged and timed; everything else
    is forwarded, so the proxy draws exactly the bits the bare Generator
    would.
    """

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        with self._tracer.span("rng.standard_normal", "rng") as rec:
            out = self._gen.standard_normal(*args, **kwargs)
        rec["normals"] = int(getattr(out, "size", 1))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


# --------------------------------------------------------------------------
# Span arithmetic


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times_ns(spans) -> dict:
    """Span id -> duration minus the part its child spans cover.

    Children may overlap (draws on two pool threads), so the covered part
    is the union of their intervals, not the sum of their durations.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered_ns(children.get(s["id"], ()), s["start"], s["end"])
            for s in spans}


# --------------------------------------------------------------------------
# Order statistics


def _rank(p: float, n: int) -> int:
    # Rounded first so that 99.9% of 10 000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n: int):
    """Highest percentile in TAIL_PERCENTILES with at least ten of `n`
    samples beyond it (above its nearest rank), or None."""
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= TAIL_MIN_BEYOND:
            return p
    return None


def summarize(values) -> dict:
    """Median, sample count and the tail percentile the rule allows."""
    values = list(values)
    if not values:
        return {"n": 0, "median": None, "tail_p": None, "tail": None}
    p = tail_percentile(len(values))
    return {"n": len(values), "median": median(values), "tail_p": p,
            "tail": None if p is None else percentile(values, p)}


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


# --------------------------------------------------------------------------
# Wrappers


def _lane_steps(result) -> int:
    return len(result.seeds) * (len(result.mean_test_loss) - 1)


@contextmanager
def _patched(patches):
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
    try:
        for obj, name, new in patches:
            setattr(obj, name, new)
        yield
    finally:
        for obj, name, old in reversed(saved):
            setattr(obj, name, old)


def _run_replicated_sites(cosgd) -> list:
    """(module, original) for every place `run_replicated` is looked up."""
    return [(cosgd.cli, cosgd.cli.run_replicated),
            (cosgd.figures, cosgd.figures.run_replicated),
            (cosgd.simulator, cosgd.simulator.run_replicated)]


@contextmanager
def observed(cosgd, calls: list):
    """Untraced runs: append (aggregator, diverged seed count) to `calls`
    for every `run_replicated` call.  Nothing is timed."""
    def make(fn):
        def run_replicated(cfg, seeds, *args, **kwargs):
            res = fn(cfg, seeds, *args, **kwargs)
            calls.append((cfg.aggregator, len(res.diverged_seeds)))
            return res
        return run_replicated
    with _patched([(mod, "run_replicated", make(fn))
                   for mod, fn in _run_replicated_sites(cosgd)]):
        yield


@contextmanager
def traced(cosgd, tracer: Tracer):
    """Wrap the calls between cosgd's modules with spans on `tracer`."""

    def plain(fn, name, layer):
        def wrapper(*args, **kwargs):
            with tracer.span(name, layer):
                return fn(*args, **kwargs)
        return wrapper

    def run_replicated(fn):
        def wrapper(cfg, seeds, *args, **kwargs):
            seeds = list(seeds)
            with tracer.span("simulator.run_replicated", "simulator",
                             aggregator=cfg.aggregator, lanes=len(seeds),
                             horizon=int(cfg.horizon)) as rec:
                res = fn(cfg, seeds, *args, **kwargs)
            rec["diverged"] = len(res.diverged_seeds)
            return res
        return wrapper

    def write_trace(fn):
        def wrapper(path, result, stride, *args, **kwargs):
            with tracer.span("figures.write_trace", "figures",
                             lane_steps=_lane_steps(result)):
                return fn(path, result, stride, *args, **kwargs)
        return wrapper

    def write_csv(fn):
        def wrapper(path, header, rows, *args, **kwargs):
            with tracer.span("csvio.write_csv", "csvio") as rec:
                counted = [0]

                def counting(it):
                    for row in it:
                        counted[0] += 1
                        yield row
                fn(path, header, counting(rows), *args, **kwargs)
            rec["rows"] = counted[0]
            rec["bytes"] = os.path.getsize(path)
        return wrapper

    def agent_stream(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("rng.agent_stream", "rng"):
                gen = fn(*args, **kwargs)
            return GeneratorProxy(gen, tracer)
        return wrapper

    sim_cls = cosgd.simulator.DecreasingPlSchedule
    patches = [(mod, "run_replicated", run_replicated(fn))
               for mod, fn in _run_replicated_sites(cosgd)]
    patches += [(mod, "sweep", plain(mod.sweep, "simulator.sweep", "simulator"))
                for mod in (cosgd.cli, cosgd.figures)]
    patches += [(cosgd.figures, name,
                 plain(getattr(cosgd.figures, name), f"figures.{name}", "figures"))
                for name in FIGURE_FUNCTIONS]
    patches += [
        (cosgd.figures, "_write_trace", write_trace(cosgd.figures._write_trace)),
        (cosgd.cli, "write_csv", write_csv(cosgd.cli.write_csv)),
        (cosgd.figures, "write_csv", write_csv(cosgd.figures.write_csv)),
        (cosgd.cli, "load_config",
         plain(cosgd.cli.load_config, "config.load_config", "config")),
        (cosgd.rng, "agent_stream", agent_stream(cosgd.rng.agent_stream)),
        (sim_cls, "values",
         plain(sim_cls.values, "schedules.decreasing_pl_values", "schedules")),
        (cosgd.bounds, "gainfactor_surface",
         plain(cosgd.bounds.gainfactor_surface, "bounds.gainfactor_surface",
               "bounds")),
    ]
    with _patched(patches):
        yield


# --------------------------------------------------------------------------
# Per-layer metrics of one traced repetition


def layer_metrics(spans) -> dict:
    """Per-layer metrics (names as in BENCHMARK.json) from one repetition.

    A metric of a layer the workload does not run reads 0.
    """
    self_ns = self_times_ns(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def layer_self_s(layer):
        return sum(self_ns[s["id"]] for s in spans if s["layer"] == layer) / 1e9

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    out = {}
    draws = by_name.get("rng.standard_normal", [])
    streams = by_name.get("rng.agent_stream", [])
    normals = sum(s["normals"] for s in draws)
    draw_ns = sum(dur(s) for s in draws)
    out["rng.normals"] = normals
    out["rng.streams"] = len(streams)
    out["rng.busy_s"] = (draw_ns + sum(dur(s) for s in streams)) / 1e9
    out["rng.ns_per_normal"] = ratio(draw_ns, normals)

    calls = by_name.get("simulator.run_replicated", [])
    sim_self_s = layer_self_s("simulator")
    lane_steps = sum(s["lanes"] * s["horizon"] for s in calls)
    steps = sum(s["horizon"] for s in calls)
    out["simulator.calls"] = len(calls)
    out["simulator.lane_steps"] = lane_steps
    out["simulator.self_s"] = sim_self_s
    out["simulator.us_per_step"] = ratio(sim_self_s, steps, 1e6)
    out["simulator.ns_per_lane_step"] = ratio(sim_self_s, lane_steps, 1e9)
    for agg in AGGREGATORS:
        mine = [s for s in calls if s["aggregator"] == agg]
        out[f"simulator.{agg}.ns_per_lane_step"] = ratio(
            sum(self_ns[s["id"]] for s in mine),
            sum(s["lanes"] * s["horizon"] for s in mine))
    call_ms = [dur(s) / 1e6 for s in calls]
    out["simulator.call_ms.p50"] = median(call_ms) if call_ms else 0.0
    out["simulator.call_ms.max"] = max(call_ms) if call_ms else 0.0
    out["simulator.diverged_seeds"] = sum(s["diverged"] for s in calls)
    # Computed, not measured: the float64 test-loss and gradient-norm
    # traces each call allocates, 2 * (T+1) * S * 8 bytes.
    out["simulator.trace_bytes"] = sum(2 * (s["horizon"] + 1) * s["lanes"] * 8
                                       for s in calls)

    kept = sum(s["lane_steps"] for s in by_name.get("figures.write_trace", []))
    out["figures.self_s"] = layer_self_s("figures")
    out["figures.kept_lane_step_fraction"] = ratio(kept, lane_steps)
    out["figures.sublinear_s"] = sum(
        dur(s) for s in by_name.get("figures.sublinear", [])) / 1e9

    writes = by_name.get("csvio.write_csv", [])
    rows = sum(s["rows"] for s in writes)
    csv_ns = sum(dur(s) for s in writes)
    out["csvio.files"] = len(writes)
    out["csvio.rows"] = rows
    out["csvio.bytes"] = sum(s["bytes"] for s in writes)
    out["csvio.busy_s"] = csv_ns / 1e9
    out["csvio.ns_per_row"] = ratio(csv_ns, rows)

    out["schedules.decreasing_pl_s"] = sum(
        dur(s) for s in by_name.get("schedules.decreasing_pl_values", [])) / 1e9
    out["bounds.gainfactor_s"] = sum(
        dur(s) for s in by_name.get("bounds.gainfactor_surface", [])) / 1e9
    out["cli.self_s"] = layer_self_s("cli")
    out["config.load_config_s"] = sum(
        dur(s) for s in by_name.get("config.load_config", [])) / 1e9
    return out
