"""JSON experiment configs mirroring RunConfig, with strict validation.

Unknown keys are rejected at every nesting level so that typos fail fast
instead of silently running with defaults.  parse -> serialize -> parse
is the identity.
"""

import json
import warnings
from dataclasses import dataclass, field

from .aggregators import CollaborationWeights
from .csvio import CSV_STRIDE
from .objective import QuadraticTask
from .simulator import DecreasingPlSchedule, RunConfig, _validate, sweep_config


class ConfigError(ValueError):
    """Invalid experiment configuration."""


_TASK_KEYS = {"curvature", "optimum", "noise_std", "noise_scale"}
_WEIGHT_KEYS = {"alpha", "tau", "beta"}
_SWEEP_KEYS = {"axis", "values", "alpha_rule"}
_TOP_KEYS = {"main_task", "collaborators", "aggregator", "weights",
             "step_size", "horizon", "x0", "seeds", "c0_policy",
             "warm_start_samples", "oracle_v", "iterate_stride",
             "sweep", "out_dir", "workers", "csv_stride"}


def _check_keys(d: dict, allowed: set, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _as_int(value, where: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


def deprecated_workers(value) -> int:
    """The ignored `workers` input (the --workers flag and the JSON key): an
    integer that warns above 1, from this one line so it is shown once."""
    workers = _as_int(value, "workers")
    if workers > 1:
        warnings.warn("workers is deprecated and ignored: seeds and swept "
                      "configs already run as lanes of one kernel call",
                      FutureWarning)
    return workers


def _check_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list")
    return value


def _parse_task(d: dict, where: str) -> QuadraticTask:
    _check_keys(d, _TASK_KEYS, where)
    try:
        return QuadraticTask(curvature=d["curvature"], optimum=d["optimum"],
                             noise_std=d.get("noise_std", 0.0),
                             noise_scale=d.get("noise_scale", 0.0))
    except KeyError as e:
        raise ConfigError(f"{where} missing key {e}") from e
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


def _task_dict(t: QuadraticTask) -> dict:
    return {"curvature": list(map(float, t.curvature)),
            "optimum": list(map(float, t.optimum)),
            "noise_std": float(t.noise_std),
            "noise_scale": float(t.noise_scale)}


@dataclass
class ExperimentConfig:
    """A RunConfig plus replication, sweep and output settings."""

    run: RunConfig
    seeds: list
    sweep_axis: str | None = None
    sweep_values: list = field(default_factory=list)
    sweep_alpha_rule: str | None = None
    out_dir: str | None = None
    csv_stride: int = CSV_STRIDE

    def to_dict(self) -> dict:
        r = self.run
        if isinstance(r.step_size, DecreasingPlSchedule):
            raise ConfigError("a DecreasingPlSchedule step size has no JSON form")
        d = {
            "main_task": _task_dict(r.main_task),
            "collaborators": [_task_dict(c) for c in r.collaborators],
            "aggregator": r.aggregator,
            "weights": {"alpha": float(r.weights.alpha),
                        "tau": list(map(float, r.weights.tau)),
                        "beta": None if r.weights.beta is None else float(r.weights.beta)},
            "step_size": float(r.step_size),
            "horizon": int(r.horizon),
            "x0": list(map(float, r.x0)),
            "seeds": [int(s) for s in self.seeds],
            "c0_policy": r.c0_policy,
            "warm_start_samples": int(r.warm_start_samples),
            "oracle_v": float(r.oracle_v),
            "iterate_stride": int(r.iterate_stride),
            "csv_stride": int(self.csv_stride),
        }
        if self.sweep_axis is not None:
            d["sweep"] = {"axis": self.sweep_axis,
                          "values": list(self.sweep_values),
                          "alpha_rule": self.sweep_alpha_rule}
        if self.out_dir is not None:
            d["out_dir"] = self.out_dir
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _check_keys(d, _TOP_KEYS, "config")
        for key in ("main_task", "collaborators", "aggregator", "weights",
                    "step_size", "horizon", "x0"):
            if key not in d:
                raise ConfigError(f"config missing required key {key!r}")
        main = _parse_task(d["main_task"], "main_task")
        colls = [_parse_task(c, f"collaborators[{i}]")
                 for i, c in enumerate(_check_list(d["collaborators"],
                                                   "collaborators"))]
        wd = d["weights"]
        _check_keys(wd, _WEIGHT_KEYS, "weights")
        sweep_axis = None
        sweep_values: list = []
        sweep_rule = None
        if "sweep" in d:
            _check_keys(d["sweep"], _SWEEP_KEYS, "sweep")
            sweep_axis = d["sweep"].get("axis")
            if sweep_axis is None:
                raise ConfigError("sweep requires an axis")
            sweep_values = _check_list(d["sweep"].get("values", []),
                                       "sweep.values")
            sweep_rule = d["sweep"].get("alpha_rule")
        try:
            weights = CollaborationWeights(alpha=wd.get("alpha", 0.0),
                                           tau=wd.get("tau", [1.0]),
                                           beta=wd.get("beta"))
            run = RunConfig(
                main_task=main, collaborators=colls,
                aggregator=d["aggregator"], weights=weights,
                step_size=float(d["step_size"]), horizon=int(d["horizon"]),
                x0=d["x0"], c0_policy=d.get("c0_policy", "first_bias"),
                warm_start_samples=int(d.get("warm_start_samples", 8)),
                oracle_v=float(d.get("oracle_v", 0.0)),
                iterate_stride=int(d.get("iterate_stride", 0)))
            # Check every config the run will execute, before any runs.
            for cfg in ([run] if sweep_axis is None else
                        [sweep_config(run, sweep_axis, v, sweep_rule)
                         for v in sweep_values]):
                _validate(cfg)
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e)) from e
        seeds = [_as_int(s, "seeds")
                 for s in _check_list(d.get("seeds", [0]), "seeds")]
        if not seeds or min(seeds) < 0:
            raise ConfigError(f"seeds must be one or more integers >= 0, got {seeds}")
        csv_stride = _as_int(d.get("csv_stride", CSV_STRIDE), "csv_stride")
        if csv_stride < 1:
            raise ConfigError(f"csv_stride must be >= 1, got {csv_stride}")
        out_dir = d.get("out_dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {out_dir!r}")
        deprecated_workers(d.get("workers", 1))
        return cls(run=run, seeds=seeds, sweep_axis=sweep_axis,
                   sweep_values=sweep_values, sweep_alpha_rule=sweep_rule,
                   out_dir=out_dir, csv_stride=csv_stride)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON in {path}: {e}") from e
    return ExperimentConfig.from_dict(data)


def save_config(cfg: ExperimentConfig, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
