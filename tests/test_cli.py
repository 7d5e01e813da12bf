import csv
import json
import math

import pytest

from cosgd import figures
from cosgd.aggregators import CollaborationWeights
from cosgd.cli import main
from cosgd.config import (ConfigError, ExperimentConfig, load_config,
                          save_config)
from cosgd.objective import QuadraticTask
from cosgd.schedules import schedule_inputs
from cosgd.simulator import DecreasingPlSchedule, RunConfig


def run_cli(*argv):
    return main(list(argv))


def read_bytes(path):
    return path.read_bytes()


class TestRunCommand:
    def test_trivial_run_hits_optimum(self, tmp_path):
        code = run_cli("run", "--aggregator", "alone", "--sigma", "0",
                       "--eta", "1", "--T", "2", "--seeds", "0", "--x0", "5",
                       "--csv-stride", "1", "--out-dir", str(tmp_path))
        assert code == 0
        with open(tmp_path / "trace_seed0.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["step"] for r in rows] == ["0", "1", "2"]
        assert float(rows[0]["test_loss"]) == 12.5
        assert float(rows[1]["test_loss"]) == 0.0

    def test_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ("run", "--aggregator", "wga", "--alpha", "0.5", "--T", "200",
                "--seeds", "0-3", "--csv-stride", "1")
        assert run_cli(*args, "--out-dir", str(out1)) == 0
        assert run_cli(*args, "--out-dir", str(out2)) == 0
        for name in ("trace_seed0.csv", "aggregate_trace.csv", "aggregate.csv"):
            assert read_bytes(out1 / name) == read_bytes(out2 / name)

    def test_worker_count_invisible_in_output(self, tmp_path):
        out1, out4 = tmp_path / "w1", tmp_path / "w4"
        args = ("run", "--aggregator", "bc", "--alpha", "0.5", "--beta", "0.1",
                "--T", "200", "--seeds", "0-7", "--csv-stride", "1")
        assert run_cli(*args, "--workers", "1", "--out-dir", str(out1)) == 0
        assert run_cli(*args, "--workers", "4", "--out-dir", str(out4)) == 0
        assert read_bytes(out1 / "aggregate_trace.csv") == \
            read_bytes(out4 / "aggregate_trace.csv")

    def test_seed_list_spec(self, tmp_path):
        assert run_cli("run", "--T", "10", "--seeds", "0,5,9",
                       "--out-dir", str(tmp_path)) == 0
        for s in (0, 5, 9):
            assert (tmp_path / f"trace_seed{s}.csv").exists()

    @pytest.mark.parametrize("argv,message", [
        (("run", "--aggregator", "alone", "--sigma", "0", "--eta", "1e13",
          "--T", "5", "--seeds", "0"), "at eta=1e+13: the longest run completed 0 of 5"),
        (("run", "--aggregator", "alone", "--eta", "2.5", "--T", "200",
          "--seeds", "0-1"), "at eta=2.5: the longest run completed"),
        (("run", "--config", "CONFIG"), "at eta=2.5: the longest run completed"),
    ], ids=["eta=1e13", "eta=2.5", "config-sweep"])
    def test_all_diverged_is_reported_outcome(self, tmp_path, capsys, argv, message):
        """A config whose seeds all diverge is a configuration error whose
        message names the step size and how far the longest run got."""
        cfg = TestConfigFile().make_config(sweep_axis="eta",
                                           sweep_values=[1e-3, 2.5])
        save_config(cfg, str(tmp_path / "cfg.json"))
        argv = [str(tmp_path / "cfg.json") if a == "CONFIG" else a for a in argv]
        assert run_cli(*argv, "--out-dir", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: all seeds diverged ") and message in err

    def test_bad_flag_value_is_config_error(self, tmp_path):
        assert run_cli("run", "--T", "ten", "--out-dir", str(tmp_path)) == 1


class TestInputContract:
    """Bad seed specs, strides and parameters are configuration errors
    (exit 1), caught before any run starts."""

    @pytest.mark.parametrize("flags", [
        ("--N", "0"),
        ("--T", "0"),
        ("--aggregator", "bc"),  # no --beta
        ("--eta", "nan"),
        ("--eta", "-1"),
        ("--sigma", "nan"),
        ("--zeta", "nan"),
        ("--x0", "nan"),
        ("--workers", "x"),
    ], ids=lambda flags: "=".join(flags))
    def test_bad_inline_parameter(self, tmp_path, capsys, flags):
        assert run_cli("run", "--T", "10", "--seeds", "0", *flags,
                       "--out-dir", str(tmp_path)) == 1
        assert "config error:" in capsys.readouterr().err

    def test_config_sweep_value(self, tmp_path, capsys):
        d = TestConfigFile().make_config().to_dict()
        d["sweep"] = {"axis": "N", "values": [1, 0, 10]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        assert run_cli("run", "--config", str(path),
                       "--out-dir", str(tmp_path)) == 1
        assert "N must be >= 1" in capsys.readouterr().err

    def test_config_beta_sweep_over_base_without_beta(self, tmp_path):
        d = TestConfigFile().make_config().to_dict()
        d["aggregator"] = "bc"
        d["weights"]["beta"] = None
        d["sweep"] = {"axis": "beta", "values": [0.1, 1.0]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        assert run_cli("run", "--config", str(path),
                       "--out-dir", str(tmp_path)) == 0
        d.pop("sweep")
        path.write_text(json.dumps(d))
        assert run_cli("run", "--config", str(path),
                       "--out-dir", str(tmp_path)) == 1

    def test_reversed_seed_range(self, tmp_path):
        assert run_cli("run", "--T", "10", "--seeds", "5-2",
                       "--out-dir", str(tmp_path)) == 1

    def test_negative_seed(self, tmp_path):
        assert run_cli("run", "--T", "10", "--seeds=-3",
                       "--out-dir", str(tmp_path)) == 1

    def test_empty_seed_spec(self, tmp_path):
        assert run_cli("run", "--T", "10", "--seeds", "",
                       "--out-dir", str(tmp_path)) == 1

    def test_figure_seed_spec(self, tmp_path):
        assert run_cli("figure", "fig5", "--T", "10", "--seeds", "3-1",
                       "--out-dir", str(tmp_path)) == 1

    def test_run_zero_csv_stride(self, tmp_path):
        assert run_cli("run", "--T", "10", "--seeds", "0", "--csv-stride", "0",
                       "--out-dir", str(tmp_path)) == 1

    def test_figure_zero_csv_stride(self, tmp_path):
        assert run_cli("figure", "fig5", "--T", "10", "--seeds", "0",
                       "--csv-stride", "0", "--out-dir", str(tmp_path)) == 1

    def test_config_zero_csv_stride(self, tmp_path):
        d = TestConfigFile().make_config().to_dict()
        d["csv_stride"] = 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        assert run_cli("run", "--config", str(path),
                       "--out-dir", str(tmp_path)) == 1

    @pytest.mark.parametrize("key,value", [
        ("seeds", ["a"]),
        ("seeds", [-1]),
        ("seeds", 3),
        ("workers", "x"),
        ("collaborators", 5),
        ("sweep", {"axis": "eta", "values": 3}),
        ("out_dir", 5),
    ], ids=lambda v: json.dumps(v))
    def test_config_bad_field(self, tmp_path, capsys, key, value):
        d = TestConfigFile().make_config().to_dict()
        d[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        assert run_cli("run", "--config", str(path),
                       "--out-dir", str(tmp_path)) == 1
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("bounds", "wga-pl", "--T", "0"),
        ("bounds", "bc", "--N", "0"),
        ("bounds", "oracle", "--mu", "2"),
        ("tau", "--sigmas", "a", "--zetas", "1"),
        ("tau", "--sigmas", "1", "--zetas", "1", "--mu", "0"),
        ("tau", "--sigmas", "1", "--zetas", "1", "--T", "0"),
        ("bounds", "wga-pl", "--mu", "0"),
        ("bounds", "wga-nc", "--L", "0", "--mu", "0"),
        ("bounds", "bc", "--eta", "nan"),
        ("bounds", "wga-nc", "--F0", "nan"),
        ("tau", "--sigmas", "inf", "--zetas", "1"),
        ("bounds", "wga-nc", "--L", "inf", "--mu", "1"),
        ("bounds", "wga-pl", "--alpha", "-1"),
        ("bounds", "bc", "--alpha", "2", "--delta", "1"),
        ("bounds", "gainfactor"),
    ], ids=" ".join)
    def test_bad_bounds_or_tau_input(self, capsys, argv):
        assert run_cli(*argv) == 1
        assert "config error:" in capsys.readouterr().err


class TestWorkersInput:
    """`workers` is accepted only as the --workers flag and the JSON key:
    it is ignored, and a value above 1 warns once."""

    @pytest.mark.parametrize("argv", [
        ("run", "--T", "10", "--seeds", "0-1", "--workers", "3"),
        ("figure", "fig5", "--T", "10", "--workers", "3"),
        ("run", "--config", "CONFIG"),
    ], ids=" ".join)
    def test_above_one_warns(self, tmp_path, argv):
        d = TestConfigFile().make_config().to_dict()
        d["workers"] = 3
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        argv = [str(path) if a == "CONFIG" else a for a in argv]
        with pytest.warns(FutureWarning, match="workers is deprecated") as record:
            assert run_cli(*argv, "--out-dir", str(tmp_path / "out")) == 0
        assert len([w for w in record if w.category is FutureWarning]) == 1


class TestConfigFile:
    def make_config(self, **kw):
        run = RunConfig(
            main_task=QuadraticTask(1.0, 0.0, noise_std=1.0),
            collaborators=[QuadraticTask(2.0, 2.0, noise_std=0.5)],
            aggregator="wga",
            weights=CollaborationWeights(0.5, [1.0]),
            step_size=1e-3, horizon=100, x0=3.0)
        return ExperimentConfig(run=run, seeds=[0, 1, 2], **kw)

    def test_round_trip_identity(self, tmp_path):
        cfg = self.make_config(csv_stride=5, out_dir="somewhere")
        path = tmp_path / "cfg.json"
        save_config(cfg, str(path))
        again = load_config(str(path))
        assert again.to_dict() == cfg.to_dict()

    def test_sweep_round_trip(self, tmp_path):
        cfg = self.make_config(sweep_axis="alpha", sweep_values=[0.0, 0.5])
        path = tmp_path / "cfg.json"
        save_config(cfg, str(path))
        again = load_config(str(path))
        assert again.sweep_axis == "alpha"
        assert again.sweep_values == [0.0, 0.5]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = self.make_config()
        d = cfg.to_dict()
        d["horizn"] = 50
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        assert run_cli("run", "--config", str(path),
                       "--out-dir", str(tmp_path)) == 1
        with pytest.raises(ConfigError, match="horizn"):
            load_config(str(path))

    def test_unknown_nested_key_rejected(self, tmp_path):
        d = self.make_config().to_dict()
        d["weights"]["gamma"] = 0.1
        with pytest.raises(ConfigError, match="gamma"):
            ExperimentConfig.from_dict(d)

    def test_schedule_step_size_has_no_json_form(self):
        cfg = self.make_config()
        r = cfg.run
        r.step_size = DecreasingPlSchedule(schedule_inputs(
            r.main_task, r.collaborators, r.weights, 100, r.x0))
        with pytest.raises(ConfigError, match="no JSON form"):
            cfg.to_dict()

    def test_missing_file(self, tmp_path):
        assert run_cli("run", "--config", str(tmp_path / "nope.json")) == 1

    def test_run_from_config_with_sweep(self, tmp_path):
        cfg = self.make_config(sweep_axis="alpha", sweep_values=[0.0, 0.5])
        path = tmp_path / "cfg.json"
        save_config(cfg, str(path))
        assert run_cli("run", "--config", str(path),
                       "--out-dir", str(tmp_path)) == 0
        with open(tmp_path / "aggregate.csv") as fh:
            labels = {r["label"] for r in csv.DictReader(fh)}
        assert labels == {"alpha=0", "alpha=0.5"}


class TestFigureCommand:
    def test_unknown_name_lists_valid(self, tmp_path, capsys):
        assert run_cli("figure", "nope", "--out-dir", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "fig2" in err and "gainfactor" in err

    def test_gainfactor_writes_csv(self, tmp_path):
        assert run_cli("figure", "gainfactor", "--out-dir", str(tmp_path)) == 0
        with open(tmp_path / "gainfactor.csv") as fh:
            header = next(csv.reader(fh))
        assert header[0] == "ratio" and header[1] == "N1"

    def test_sublinear_writes_csv(self, tmp_path):
        assert run_cli("figure", "sublinear", "--out-dir", str(tmp_path)) == 0
        assert list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5"])
    def test_single_seed_summary_has_nan_se(self, tmp_path, name):
        """One seed has no standard error: the summary says nan."""
        assert run_cli("figure", name, "--seeds", "3", "--T", "200",
                       "--out-dir", str(tmp_path)) == 0
        with open(tmp_path / f"{name}_summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["plateau_se"] == "nan" for r in rows)

    @pytest.mark.parametrize("name,traces", [
        ("fig2", {"alone": "alone", "wga": "wga", "bc": "bc"}),
        ("fig3", {f"zeta{z}": f"zeta={z}" for z in (1, 4, 16, 64)}),
        ("fig4", {"alone": "alone",
                  **{f"zeta{z}": f"zeta={z}" for z in (1, 4, 16, 64)}}),
        ("fig5", {f"N{n}": f"N={n}" for n in (1, 10, 100)}),
    ], ids=["fig2", "fig3", "fig4", "fig5"])
    def test_outputs_agree(self, tmp_path, capsys, name, traces):
        """The figure writes one trace per curve, a summary and a plot
        script naming each trace under its label, and prints the summary
        rows exactly as the CSV holds them."""
        assert run_cli("figure", name, "--seeds", "0-2", "--T", "200",
                       "--out-dir", str(tmp_path)) == 0
        files = {f"{name}_{suffix}.csv" for suffix in traces}
        assert {p.name for p in tmp_path.iterdir()} == \
            files | {f"{name}_summary.csv", f"{name}.gp"}
        plot = (tmp_path / f"{name}.gp").read_text().splitlines()[-1]
        assert plot == "plot " + ", ".join(
            f"'{name}_{suffix}.csv' using 1:2 with lines title '{label}'"
            for suffix, label in traces.items())
        with open(tmp_path / f"{name}_summary.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        printed = [line.split(" ") for line in capsys.readouterr().out.splitlines()
                   if not line.startswith((f"{name}: chosen", "wrote "))]
        assert printed == rows and len(rows) == len(traces)

    def test_never_reached_plateau_prints_minus_one(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(figures, "time_to_plateau", lambda trace, plateau: None)
        assert run_cli("figure", "fig3", "--seeds", "0-2", "--T", "200",
                       "--out-dir", str(tmp_path)) == 0
        with open(tmp_path / "fig3_summary.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        printed = [line.split(" ") for line in capsys.readouterr().out.splitlines()[:-1]]
        assert printed == rows and [r[-1] for r in rows] == ["-1"] * 4


class TestBoundsCommand:
    def test_wga_pl_value(self, capsys):
        assert run_cli("bounds", "wga-pl", "--T", "3", "--F0", "4.5",
                       "--eta", "0.1", "--sigma0-sq", "1",
                       "--sigma-a-sq", "0", "--alpha", "0") == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(0.9 ** 3 * 4.5 + 0.05)

    def test_invalid_eta_is_config_error(self):
        assert run_cli("bounds", "wga-pl", "--eta", "5.0") == 1

    def test_underflowing_bc_cap(self, capsys):
        # 6 alpha^2 delta^2 rounds to 0: no cap, and a finite bound.
        assert run_cli("bounds", "bc", "--alpha", "1e-200", "--delta", "1e-200") == 0
        assert math.isfinite(float(capsys.readouterr().out))



class TestTauCommand:
    def test_symmetric_split(self, capsys):
        assert run_cli("tau", "--sigmas", "1,1", "--zetas", "0,0") == 0
        out = capsys.readouterr().out
        assert "0.5 0.5" in out

    def test_noisier_collaborator_downweighted(self, capsys):
        assert run_cli("tau", "--sigmas", "1,100", "--zetas", "0,0",
                       "--T", "10") == 0
        line = capsys.readouterr().out.splitlines()[0]
        t1, t2 = map(float, line.split()[1:])
        assert t1 > t2

    def test_guard_violation(self):
        assert run_cli("tau", "--sigmas", "1", "--zetas", "0",
                       "--alpha", "0.9", "--m", "2.0") == 1


class TestEnvOutDir:
    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COSGD_OUT_DIR", str(tmp_path))
        assert run_cli("run", "--T", "10", "--seeds", "0") == 0
        assert (tmp_path / "aggregate.csv").exists()
