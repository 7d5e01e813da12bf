"""The benchmark's tracer (perfbench/tracing.py) wraps cosgd callables by
module attribute.  A refactor that moves or renames one of them must fail
here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import cosgd
from cosgd import bounds, cli, figures, rng, simulator

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

SITES = (
    [(cli, name) for name in ("run_replicated", "sweep", "write_csv", "load_config")]
    + [(figures, name) for name in ("run_replicated", "sweep", "_write_trace",
                                    "write_csv") + figures.FIGURES]
    + [(simulator, "run_replicated"), (rng, "agent_stream"),
       (simulator.DecreasingPlSchedule, "values"), (bounds, "gainfactor_surface")]
)


def test_tracer_wraps_and_restores(tmp_path):
    """Entering `traced` looks up every site it patches; each of SITES is
    wrapped inside and restored on exit, and a CLI run records spans."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = [getattr(owner, name) for owner, name in SITES]
    tracer = tracing.Tracer()
    with tracing.traced(cosgd, tracer):
        assert all(getattr(owner, name) is not old
                   for (owner, name), old in zip(SITES, before))
        assert cli.main(["run", "--T", "20", "--seeds", "0-1",
                         "--out-dir", str(tmp_path)]) == 0
    assert [getattr(owner, name) for owner, name in SITES] == before
    names = {span["name"] for span in tracer.spans}
    assert {"simulator.run_replicated", "csvio.write_csv",
            "rng.agent_stream", "rng.standard_normal"} <= names
