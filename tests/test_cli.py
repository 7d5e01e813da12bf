import csv
import json

import pytest

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

    def test_all_diverged_is_internal_error(self, tmp_path):
        code = run_cli("run", "--aggregator", "alone", "--sigma", "0",
                       "--eta", "1e13", "--T", "5", "--seeds", "0",
                       "--out-dir", str(tmp_path))
        assert code == 2

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
    ], ids=" ".join)
    def test_bad_bounds_or_tau_input(self, capsys, argv):
        assert run_cli(*argv) == 1
        assert "config error:" in capsys.readouterr().err


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
        cfg = self.make_config(workers=2, csv_stride=5, out_dir="somewhere")
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
        files = list(tmp_path.glob("*.csv"))
        assert files

    def test_sublinear_writes_csv(self, tmp_path):
        assert run_cli("figure", "sublinear", "--out-dir", str(tmp_path)) == 0
        assert list(tmp_path.glob("*.csv"))


class TestBoundsCommand:
    def test_wga_pl_value(self, capsys):
        assert run_cli("bounds", "wga-pl", "--T", "3", "--F0", "4.5",
                       "--eta", "0.1", "--sigma0-sq", "1",
                       "--sigma-a-sq", "0", "--alpha", "0") == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(0.9 ** 3 * 4.5 + 0.05)

    def test_invalid_eta_is_config_error(self):
        assert run_cli("bounds", "wga-pl", "--eta", "5.0") == 1

    def test_gainfactor_heatmap(self, tmp_path):
        assert run_cli("bounds", "gainfactor", "--out-dir", str(tmp_path)) == 0
        with open(tmp_path / "gainfactor.csv") as fh:
            header = next(csv.reader(fh))
        assert header[0] == "ratio" and header[1] == "N1"

    def test_gainfactor_same_bytes_as_figure(self, tmp_path):
        assert run_cli("bounds", "gainfactor", "--out-dir", str(tmp_path / "b")) == 0
        assert run_cli("figure", "gainfactor", "--out-dir", str(tmp_path / "f")) == 0
        assert read_bytes(tmp_path / "b" / "gainfactor.csv") == \
            read_bytes(tmp_path / "f" / "gainfactor.csv")


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
