import contextlib
import csv
import io
import json
import math
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosgd import cli, figures, simulator
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
        with pytest.warns(FutureWarning, match="workers is deprecated"):
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
        ("--a0", "inf"),
        ("--sigma", "1e200"),  # its square is beyond the floats
        ("--N", "1" + "0" * 400),
    ], ids=lambda flags: "=".join(flags)[:20])
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

    @pytest.mark.parametrize("axis,rule", [("eta", "bogus"), ("eta", "n_over_n_plus_1"),
                                           ("N", "bogus")])
    def test_config_sweep_alpha_rule(self, tmp_path, capsys, axis, rule):
        """alpha_rule sets alpha from N, so on any other axis it is an
        error, as is a rule that does not exist."""
        d = TestConfigFile().make_config().to_dict()
        d["sweep"] = {"axis": axis, "values": [2, 3], "alpha_rule": rule}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), "--out-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"alpha_rule {rule!r} does not apply to sweep axis {axis!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("axis,values,message", [
        ("eta", [0.01, 0.0100000001], "significant digits, which name their "
                                      "outputs; repeated: 0.01"),
        ("N", [10, 10.0, 3], "repeated: 10"),
        ("eta", ["0.01"], "sweep values must be numbers"),
        ("T", [10 ** 400], "sweep values must be numbers in the float range"),
    ], ids=["eta-6-digits", "N-int-and-float", "eta-string", "T-beyond-float"])
    def test_config_sweep_values_need_distinct_names(self, tmp_path, capsys, axis,
                                                     values, message):
        """Each swept value names its trace file and aggregate rows by %g,
        so values that print alike, or do not print as numbers, are
        rejected before any run writes a file."""
        d = TestConfigFile().make_config().to_dict()
        d["sweep"] = {"axis": axis, "values": values}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), "--out-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not out.exists()

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

    @pytest.mark.parametrize("argv", [
        ("figure", "fig2", "--seeds", str(2 ** 64)),
        ("run", "--seeds", f"{2 ** 64 - 1}-{2 ** 64}"),
        ("run", "--seeds", f"0,{2 ** 64 + 5}"),
        ("run", "--config", "CONFIG"),
    ], ids=["figure", "range", "list", "json"])
    def test_seed_beyond_64_bits(self, tmp_path, capsys, argv):
        """A seed of 2^64 or more would alias a smaller one in the 64-bit
        stream key, so it is a config error."""
        d = TestConfigFile().make_config().to_dict()
        d["seeds"] = [0, 2 ** 64]
        (tmp_path / "cfg.json").write_text(json.dumps(d))
        argv = [str(tmp_path / "cfg.json") if a == "CONFIG" else a for a in argv]
        out = tmp_path / "out"
        assert run_cli(*argv, "--T", "5", "--out-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "2^64" in err and not out.exists()

    def test_largest_seed_runs(self, tmp_path):
        assert run_cli("run", "--T", "5", "--seeds", f"{2 ** 64 - 2}-{2 ** 64 - 1}",
                       "--out-dir", str(tmp_path)) == 0
        assert (tmp_path / f"trace_seed{2 ** 64 - 1}.csv").exists()

    @pytest.mark.parametrize("sweep,message", [
        ({"axis": "T", "values": []}, "sweep.values must not be empty"),
        ({"axis": "T"}, "sweep.values must not be empty"),
        ({"axis": "bogus", "values": []}, "sweep.axis must be one of"),
        ({"values": [1]}, "sweep.axis must be one of"),
    ], ids=["empty", "no-values", "bad-axis-empty", "no-axis"])
    def test_config_sweep_needs_axis_and_values(self, tmp_path, capsys, sweep,
                                                message):
        d = TestConfigFile().make_config().to_dict()
        d["sweep"] = sweep
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), "--out-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not out.exists()

    HUGE = "1" + "0" * 300

    @pytest.mark.parametrize("argv", [
        ("run", "--config", "CONFIG", "1e300"),
        ("run", "--config", "CONFIG", "1" + "0" * 30),
        ("run", "--T", HUGE),
        ("figure", "fig2", "--T", HUGE),
        ("run", "--T", str(10 ** 15)),
        ("figure", "fig2", "--T", str(10 ** 15)),
        ("run", "--config", "CONFIG", str(10 ** 15)),
    ], ids=["json-1e300", "json-digits", "run-digits", "figure-digits",
            "run-no-memory", "figure-no-memory", "json-no-memory"])
    def test_horizon_too_large(self, tmp_path, capsys, argv):
        """A horizon numpy cannot index is rejected by RunConfig; one it can
        index but not allocate (10^15 steps: 7 PiB of step sizes, which no
        allocator grants) fails at its first allocation.  Both are config
        errors naming the horizon, before any file is written."""
        argv = list(argv)
        if "CONFIG" in argv:  # the JSON config, not --seeds, sets the seeds
            d = TestConfigFile().make_config().to_dict()
            d["horizon"], d["seeds"] = None, [0]
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(d).replace('"horizon": null',
                                                  f'"horizon": {argv.pop()}'))
            argv[argv.index("CONFIG")] = str(path)
        else:
            argv += ["--seeds", "0"]
        out = tmp_path / "out"
        assert run_cli(*argv, "--out-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "horizon" in err
        assert "Traceback" not in err and not out.exists()

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

    @pytest.mark.parametrize("key,raw", [
        ("horizon", "1e400"),
        ("warm_start_samples", "1e400"),
        ("csv_stride", "1e400"),
        ("seeds", "[1e400]"),
        ("horizon", "10.5"),
        ("step_size", '"0.01"'),
        ("oracle_v", "1e400"),
        ("iterate_stride", "1"),  # an unknown key: RunConfig has no such field
    ], ids=lambda v: v)
    def test_config_bad_number(self, tmp_path, capsys, key, raw):
        """JSON numbers (1e400 is inf) that do not fit their key fail as
        config errors naming the key, before any run starts."""
        d = TestConfigFile().make_config().to_dict()
        d["aggregator"], d[key] = "oracle_bc", None
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d).replace(f'"{key}": null', f'"{key}": {raw}'))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), "--out-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert "Traceback" not in err and not out.exists()

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
        ("tau", "--sigmas", "1", "--zetas", "1", "--T", "1" + "0" * 400),
        ("tau", "--sigmas", "1e308", "--zetas", "1", "--T", "1", "--mu", "1e-300"),
    ], ids=lambda argv: " ".join(argv)[:40])
    def test_bad_bounds_or_tau_input(self, capsys, argv):
        assert run_cli(*argv) == 1
        assert "config error:" in capsys.readouterr().err

    def test_overflowing_bc_cap_names_the_step_cap(self, capsys):
        # 6 alpha^2 delta^2 overflows to inf, which caps eta at 0.
        assert run_cli("bounds", "bc", "--alpha", "0.5", "--delta=1e308") == 1
        assert "eta exceeds 1/(6 alpha^2 delta^2)" in capsys.readouterr().err


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

    def test_failed_save_keeps_the_saved_file(self, tmp_path):
        """A config that cannot be saved leaves the file it would have
        replaced as it was, and no temp file beside it."""
        path = tmp_path / "cfg.json"
        save_config(self.make_config(), str(path))
        saved = path.read_bytes()
        cfg = self.make_config()
        r = cfg.run
        r.step_size = DecreasingPlSchedule(schedule_inputs(
            r.main_task, r.collaborators, r.weights, 100, r.x0))
        with pytest.raises(ConfigError, match="no JSON form"):
            save_config(cfg, str(path))
        assert path.read_bytes() == saved
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_missing_file(self, tmp_path):
        assert run_cli("run", "--config", str(tmp_path / "nope.json")) == 1

    @pytest.mark.parametrize("flags,named", [
        (("--T", "7", "--seeds", "0-5", "--aggregator", "bc", "--csv-stride", "3"),
         "--T, --seeds, --aggregator, --csv-stride"),
        (("--T", "100"), "--T"),  # the config's own value, given again
        (("--x0=3", "--eta", "1e-3"), "--x0, --eta"),
        (("--se", "0"), "--seeds"),  # an abbreviation
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
    def test_run_flags_beside_config_rejected(self, tmp_path, capsys, flags, named):
        """The JSON config sets every run parameter, so a run flag beside
        --config, which the run would not use, is a config error naming it."""
        path = tmp_path / "cfg.json"
        save_config(self.make_config(), str(path))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), *flags,
                       "--out-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {named} cannot be given with --config")
        assert not out.exists()

    def test_out_dir_and_workers_beside_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        save_config(self.make_config(), str(path))
        assert run_cli("run", "--config", str(path), "--workers", "1",
                       "--out-dir", str(tmp_path / "out")) == 0
        assert (tmp_path / "out" / "aggregate.csv").exists()

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

    @pytest.mark.parametrize("name", ["gainfactor", "sublinear"])
    def test_unsimulated_figures_ignore_run_flags(self, tmp_path, name):
        """gainfactor and sublinear simulate nothing: --T, --seeds and
        --csv-stride are accepted and change no byte."""
        plain, flagged = tmp_path / "plain", tmp_path / "flagged"
        assert run_cli("figure", name, "--out-dir", str(plain)) == 0
        assert run_cli("figure", name, "--T", "5", "--seeds", "3", "--csv-stride", "3",
                       "--out-dir", str(flagged)) == 0
        files = sorted(p.name for p in plain.iterdir())
        assert files == sorted(p.name for p in flagged.iterdir())
        assert all(read_bytes(plain / f) == read_bytes(flagged / f) for f in files)

    def test_help_says_what_unsimulated_figures_ignore(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("figure", "--help")
        help_text = " ".join(capsys.readouterr().out.split())
        assert ("gainfactor and sublinear simulate nothing and ignore --T, "
                "--seeds and --csv-stride") in help_text

    @pytest.mark.parametrize("make", [
        lambda out: figures.fig3(out, zetas=[1, 1.0000001], horizon=50, seeds=[0]),
        lambda out: figures.fig5(out, ns=[10, 10.0], horizon=50, seeds=[0]),
    ], ids=["fig3", "fig5"])
    def test_swept_values_named_before_any_run(self, tmp_path, monkeypatch, make):
        """Swept values that print alike are rejected before the kernel
        runs and before any file is written."""
        def no_run(cfgs, seeds):
            raise AssertionError("the kernel ran before the values were named")
        monkeypatch.setattr(simulator, "_run_batch", no_run)
        with pytest.raises(ValueError, match="repeated"):
            make(str(tmp_path))
        assert not list(tmp_path.iterdir())

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

    @pytest.mark.parametrize("argv", [
        ("--alpha", "1e-170", "--delta", "1e160", "--eta", "1e-3"),  # cap 1.7e19
        ("--delta", "1e308"),  # alpha = 0: delta plays no part
    ], ids=" ".join)
    def test_alpha_delta_squared_as_one_product(self, capsys, argv):
        # alpha delta fits a float although delta^2 does not.
        assert run_cli("bounds", "bc", *argv) == 0
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

    @pytest.mark.parametrize("flags", [
        ("--m", "-3"),
        ("--mu", "2", "--L", "1"),
        ("--L", "0"),
        # alpha = 1/sqrt(m) to a rounding: the guard is a few ulps above 0.
        ("--alpha", "0.19250009809305813", "--m", "26.985973509249394"),
        # alpha < 1/sqrt(m) in floats, but 1 - alpha^2 m rounds to 0.
        ("--alpha", "5.955531625532372e-06", "--m", "28194145040.749027"),
    ], ids=" ".join)
    def test_rejects_what_bounds_rejects(self, capsys, flags):
        """tau reads L, mu, m and the alpha guard as `bounds` does, and
        fails with the same message."""
        assert run_cli("bounds", "wga-pl", *flags) == 1
        message = capsys.readouterr().err
        assert message.startswith("config error:")
        assert run_cli("tau", "--sigmas", "1,4", "--zetas", "0.1,0", *flags) == 1
        assert capsys.readouterr().err == message

    def test_underflowing_guard_term_is_config_error(self, capsys):
        # mu T (1 - alpha^2 m) = 5e-324 * 0.028 rounds to 0.
        assert run_cli("tau", "--sigmas", "1", "--zetas", "0", "--mu", "5e-324",
                       "--T", "1", "--alpha", "0.9", "--m", "1.2") == 1
        assert "config error: inputs out of range" in capsys.readouterr().err


class TestParserReuse:
    """`main` builds its parser once per process and parses every call
    with it."""

    ARGVS = [("figure", "fig5", "--T", "30", "--seeds", "0-1", "--out-dir", "out"),
             ("run", "--aggregator", "wga", "--alpha", "0.5", "--T", "30",
              "--seeds", "0-1", "--out-dir", "out"),
             ("run", "--T", "30", "--no-such-flag")]

    def session(self, where, capsys, monkeypatch, fresh):
        """(exit code, stdout, stderr) of each call in ARGVS, run in
        `where`, and the bytes of the files they write; `fresh` builds a
        new parser for every call."""
        where.mkdir()
        monkeypatch.chdir(where)
        runs = []
        for argv in self.ARGVS:
            if fresh:
                cli._parser.cache_clear()
            runs.append((run_cli(*argv), *capsys.readouterr()))
        return runs, {p.name: p.read_bytes() for p in (where / "out").iterdir()}

    def test_calls_in_a_row_keep_codes_and_outputs(self, tmp_path, capsys, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        try:
            fresh = self.session(tmp_path / "fresh", capsys, monkeypatch, fresh=True)
            assert len(builds) == 3
            cli._parser.cache_clear()
            shared = self.session(tmp_path / "shared", capsys, monkeypatch, fresh=False)
            assert len(builds) == 4
        finally:
            cli._parser.cache_clear()
        assert shared == fresh
        runs, files = shared
        assert [code for code, _, _ in runs] == [0, 0, 1]
        assert "unrecognized arguments: --no-such-flag" in runs[2][2]
        assert "fig5_summary.csv" in files and "trace_seed1.csv" in files


class TestEnvOutDir:
    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COSGD_OUT_DIR", str(tmp_path))
        assert run_cli("run", "--T", "10", "--seeds", "0") == 0
        assert (tmp_path / "aggregate.csv").exists()


# Numbers as argv strings: plausible values, or edge cases: non-finite
# values, signed zeros, negatives, huge and tiny magnitudes, integers too
# wide for a float and arbitrary floats.
PLAUSIBLE = st.one_of(st.floats(0.01, 2.0).map(repr), st.integers(1, 20).map(str))
EDGES = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "0", "-0", "-1", "1e308",
                     "-1e308", "1e400", "1e-320", "1e-300", "1e300"]),
    st.integers(-10 ** 400, 10 ** 400).map(str),
    st.floats().map(repr))


def weighted(valid):
    """`valid` three times in four and an edge case otherwise, so that
    most inputs of several numbers still pass validation."""
    return st.integers(0, 3).flatmap(lambda k: EDGES if k == 3 else valid)


NUMBERS = weighted(PLAUSIBLE)
BOUND_FLAGS = ("--L", "--mu", "--m", "--zeta-sq", "--delta", "--T", "--F0",
               "--sigma0-sq", "--sigma-a-sq", "--alpha", "--v-sq", "--grad0-sq",
               "--N", "--eta", "--beta", "--E0", "--c")
TAU_FLAGS = ("--L", "--mu", "--T", "--alpha", "--m")
RUN_FLAGS = ("--a0", "--x0star", "--a1", "--zeta", "--sigma", "--N", "--alpha",
             "--eta", "--x0", "--oracle-v")


def flag_values(flags):
    """`--flag=value` for up to three of `flags`, each with a drawn number
    (joined by `=`, so that a negative value is not read as a flag)."""
    return st.lists(st.tuples(st.sampled_from(flags), NUMBERS), unique_by=lambda p: p[0],
                    max_size=3).map(lambda pairs: [f"{f}={v}" for f, v in pairs])


@st.composite
def bounds_argv(draw):
    which = draw(st.sampled_from(("wga-nc", "wga-pl", "oracle", "bc")))
    return ["bounds", which] + draw(flag_values(BOUND_FLAGS))


@st.composite
def tau_argv(draw):
    # Equal lengths three times in four; 0 entries is the empty list.
    n = draw(st.integers(0, 4))
    extra = int(draw(st.integers(0, 3)) == 3)
    sigmas, zetas = (",".join(draw(st.lists(NUMBERS, min_size=n + k, max_size=n + k)))
                     for k in (0, extra))
    return (["tau", f"--sigmas={sigmas}", f"--zetas={zetas}"]
            + draw(flag_values(TAU_FLAGS)))


@st.composite
def run_argv(draw):
    aggregator = draw(st.sampled_from(("alone", "wga", "bc", "oracle_bc")))
    policy = draw(st.sampled_from(("first_bias", "zero", "warm_start")))
    seeds = draw(st.sampled_from(("0", "3", "0-1", "2,7", "5-6", "1-0", "", "x")))
    T = draw(st.integers(0, 3).flatmap(
        lambda k: st.sampled_from([0, -1]) if k == 3 else st.integers(1, 50)))
    # A --beta of its own, so that most bc inputs are complete.
    beta = draw(weighted(st.floats(0.01, 1.0).map(repr)))
    return (["run", "--aggregator", aggregator, "--c0-policy", policy,
             f"--seeds={seeds}", f"--T={T}", f"--beta={beta}"]
            + draw(flag_values(RUN_FLAGS)))


@st.composite
def figure_argv(draw):
    """A figure name (or junk), --T (1-50, or an edge case), --seeds (at
    most 3 valid seeds, or an edge case) and maybe --csv-stride."""
    name = draw(st.integers(0, 3).flatmap(lambda k: st.sampled_from(
        ("fig1", "FIG2", "", "fig2 ") if k == 3 else figures.FIGURES)))
    T = draw(st.integers(0, 3).flatmap(lambda k: st.sampled_from(
        ["0", "-3", "1e400", "2.5", "ten", "9" * 300]) if k == 3
        else st.integers(1, 50).map(str)))
    valid_seeds = st.one_of(
        st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=3, unique=True)
        .map(lambda seeds: ",".join(map(str, seeds))),
        st.tuples(st.integers(0, 2 ** 64 - 3), st.integers(0, 2))
        .map(lambda p: f"{p[0]}-{p[0] + p[1]}"))
    seeds = draw(st.integers(0, 3).flatmap(lambda k: st.sampled_from(
        ["3-1", "-1", "0,-2", str(2 ** 64), f"{2 ** 64 - 1}-{2 ** 64}", "x", "",
         "0-", "1.5"]) if k == 3 else valid_seeds))
    argv = ["figure", name, f"--T={T}", f"--seeds={seeds}"]
    if draw(st.booleans()):
        argv.append(f"--csv-stride={draw(st.sampled_from(['1', '3', '100', '0', '-1', 'x']))}")
    return argv


# JSON values: plausible ones three times in four, else an edge case:
# non-finite numbers, the literal 1e400 (which JSON readers take as inf),
# negatives, fractions, strings and lists, nested ones too.
RAW_1E400 = "<1e400>"  # written as the bare JSON number 1e400
JSON_PLAUSIBLE = st.one_of(st.floats(0.01, 2.0), st.integers(1, 20))
JSON_EDGES = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, RAW_1E400, -1, -0.5, 0.5,
                     2.5, "1", "x", [], [[1.0]], [1.0, [2.0]]]),
    st.lists(JSON_PLAUSIBLE, min_size=1, max_size=2))
JSON_VALUES = st.integers(0, 3).flatmap(
    lambda k: JSON_EDGES if k == 3 else JSON_PLAUSIBLE)
TASK_KEYS = ("curvature", "optimum", "noise_std", "noise_scale")
JSON_PATHS = (
    [(key,) for key in ("main_task", "collaborators", "aggregator", "weights",
                        "step_size", "horizon", "x0", "seeds", "c0_policy",
                        "warm_start_samples", "oracle_v", "sweep", "out_dir",
                        "workers", "csv_stride")]
    + [("weights", key) for key in ("alpha", "tau", "beta")]
    + [("main_task", key) for key in TASK_KEYS]
    + [("collaborators", 0, key) for key in TASK_KEYS])
SWEEP_PATHS = [("sweep", "axis"), ("sweep", "values"), ("sweep", "values", 0)]


@st.composite
def json_config(draw):
    """The text of a small valid config (T <= 50, at most 2 seeds, maybe a
    sweep) with up to three keys, at any depth, set to drawn values."""
    d = {"main_task": {"curvature": [1.0], "optimum": [0.0], "noise_std": 1.0},
         "collaborators": [{"curvature": [2.0], "optimum": [2.0], "noise_std": 0.5}],
         "aggregator": draw(st.sampled_from(simulator.AGGREGATORS)),
         "weights": {"alpha": 0.5, "tau": [1.0], "beta": 0.2},
         "step_size": 0.01, "horizon": draw(st.integers(1, 50)), "x0": [3.0],
         "seeds": draw(st.sampled_from([[0], [3], [0, 1]])),
         "c0_policy": draw(st.sampled_from(simulator.C0_POLICIES))}
    paths = JSON_PATHS
    if draw(st.booleans()):
        d["sweep"] = {"axis": draw(st.sampled_from(simulator.SWEEP_AXES)),
                      "values": draw(st.lists(JSON_PLAUSIBLE, min_size=1, max_size=2))}
        paths = paths + SWEEP_PATHS
    # Deepest first, so that a key's parent is still an object or list.
    for *parents, leaf in sorted(draw(st.lists(st.sampled_from(paths), max_size=3,
                                               unique=True)), key=len, reverse=True):
        node = d
        for key in parents:
            node = node[key]
        node[leaf] = draw(JSON_VALUES)
    return json.dumps(d).replace(f'"{RAW_1E400}"', "1e400")


class TestExitCodeFuzz:
    """The exit-code contract holds for every input: 0 or 1, never 2, no
    traceback and no RuntimeWarning (which this class makes an error, so
    that it would surface as an internal error)."""

    @staticmethod
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", FutureWarning)  # a JSON `workers` > 1
            code = main(argv)
        assert code in (0, 1), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue() + out.getvalue()

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(argv=st.one_of(bounds_argv(), tau_argv()))
    @example(argv=["bounds", "bc", "--alpha=0.5", "--delta=1e308"])
    def test_bounds_and_tau(self, argv):
        self.check(argv)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(argv=run_argv())
    def test_run(self, argv):
        with tempfile.TemporaryDirectory() as out:
            self.check(argv + ["--out-dir", out])

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(text=json_config())
    def test_run_config(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/cfg.json"
            with open(path, "w") as fh:
                fh.write(text)
            self.check(["run", "--config", path, "--out-dir", f"{tmp}/out"])

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(argv=figure_argv())
    def test_figure(self, argv):
        with tempfile.TemporaryDirectory() as out:
            self.check(argv + ["--out-dir", out])
