"""Benchmark harness: sweep grids, JSONL records, aggregate and plot CSVs, CLI.

Subcommands: gen (instances), run (one method on one instance), bench (a full
sweep), report (recompute aggregates/plots from an existing records file).
Every cell's seed derives from the master seed, the sweep point, and the
instance index, so reruns are byte-identical; wall-clock metadata is confined
to meta.json.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import itertools
import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import __version__
from .baselines import DEFAULT_N_FIX, GdConfig, optimize_exp_bo, optimize_exp_gd
from .bo import RunResult, optimize_map_bo, run_result_to_dict, trials_to_jsonl
from .graph import (WEIGHT_SCHEMES, MaxCutInstance, assign_weights, from_json,
                    random_regular, to_json, with_optimum)
from .resources import build_report, pooled_savings
from .shots import AdaptiveConfig
from .simulator import MAX_QUBITS, NoiseSpec
from .stage2 import AmplifyConfig, amplify

METHODS = ("map_bo", "exp_bo", "exp_gd")
DEGREE = 3  # every instance is 3-regular, as in the paper's MaxCut experiments
# record key of each sweep axis -> the ExperimentConfig field holding its values
_AXES = {"n": "n_values", "p": "p_values", "lambda": "noise_lambdas"}


class _Sweep(NamedTuple):
    key: str | None        # record key of the swept axis; None sweeps nothing
    grid: tuple            # preset values of each _AXES field, in _AXES order
    curve_csv: str | None  # plot CSV of accuracy and shots along the axis

    @property
    def preset(self) -> dict:
        return dict(zip(_AXES.values(), self.grid))


# the one axis each experiment sweeps; every other axis uses its first value
_SWEEPS = {
    "qubit_sweep": _Sweep("n", ((3, 4, 6, 8, 10, 12), (2,), (0.0,)), "qubit_curves.csv"),
    "depth_sweep": _Sweep("p", ((10,), (1, 2, 3, 4, 5, 6), (0.0,)), "depth_panels.csv"),
    "noise_sweep": _Sweep("lambda", ((10,), (2,), (0.0, 0.002, 0.004, 0.006, 0.008, 0.01)),
                          "noise_panels.csv"),
    "single": _Sweep(None, ((6,), (2,), (0.0,)), None),
}
EXPERIMENTS = tuple(_SWEEPS)

RECORD_KEYS = [
    "method", "n", "p", "lambda", "instance_seed", "run_seed",
    "final_mode_accuracy", "final_expectation_accuracy",
    "final_best_sample_accuracy", "total_shots", "optimization_shots",
    "final_eval_shots", "shots_to_threshold", "trials", "stop_reason",
    "avg_point_shots", "avg_distinct", "config_hash",
]

# the record keys after the six that name a cell, less the two that are not numbers
AGGREGATE_METRICS = [k for k in RECORD_KEYS[6:] if k not in ("stop_reason", "config_hash")]

TYPICAL_POINT_SHOT_BAND = (250.0, 400.0)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "qubit_sweep"  # the grid defaults are its preset
    n_values: tuple[int, ...] = _SWEEPS["qubit_sweep"].preset["n_values"]
    p_values: tuple[int, ...] = _SWEEPS["qubit_sweep"].preset["p_values"]
    noise_lambdas: tuple[float, ...] = _SWEEPS["qubit_sweep"].preset["noise_lambdas"]
    instances_per_point: int = 10
    weight_scheme: str = "unit"
    methods: tuple[str, ...] = METHODS
    threshold: float = 0.80
    t_max: int = 100
    n_fix: int = DEFAULT_N_FIX
    n_final: int = 5000
    stage2_enabled: bool = False
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)
    gd: GdConfig = field(default_factory=GdConfig)
    amplify_cfg: AmplifyConfig = field(default_factory=AmplifyConfig)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        # a repeated value would run the same cells twice
        for name in (*_AXES.values(), "methods"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must not be empty")
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat a value, got {values}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if not all(0.0 <= lam <= 1.0 for lam in self.noise_lambdas):
            raise ValueError(f"noise_lambdas must lie in [0, 1], got {self.noise_lambdas}")
        # checked here so a bad grid value fails before the first cell runs
        if not all(2 <= n <= MAX_QUBITS for n in self.n_values):
            raise ValueError(f"n_values must lie in [2, {MAX_QUBITS}], got {self.n_values}")
        if not all(p >= 1 for p in self.p_values):
            raise ValueError(f"p_values must be >= 1, got {self.p_values}")
        if self.weight_scheme not in WEIGHT_SCHEMES:
            raise ValueError(f"weight_scheme must be one of {WEIGHT_SCHEMES}, "
                             f"got {self.weight_scheme!r}")
        for name in ("instances_per_point", "t_max", "n_fix", "n_final"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (0.0 < self.threshold <= 1.0):
            raise ValueError("threshold must lie in (0, 1]")

    @classmethod
    def for_experiment(cls, experiment: str = "qubit_sweep", **overrides) -> ExperimentConfig:
        """Preset grid for each named sweep; explicit overrides win."""
        preset = _SWEEPS[experiment].preset if experiment in _SWEEPS else {}
        return cls(experiment=experiment, **{**preset, **overrides})

    @property
    def sweep(self) -> _Sweep:
        return _SWEEPS[self.experiment]

    def sweep_points(self) -> list[tuple[int, int, float]]:
        return list(itertools.product(*(
            getattr(self, name) if key == self.sweep.key else getattr(self, name)[:1]
            for key, name in _AXES.items())))

    def sweep_key(self, n: int, p: int, lam: float) -> str:
        key = self.sweep.key
        if key is None:
            return "single"
        value = dict(zip(_AXES, (n, p, lam)))[key]
        return f"{key}={value}"


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# INI section -> (ExperimentConfig field holding it, its config class)
_SECTIONS = {
    "adaptive": ("adaptive", AdaptiveConfig),
    "gd": ("gd", GdConfig),
    "stage2": ("amplify_cfg", AmplifyConfig),
}
# the ExperimentConfig fields that hold a section, so no [experiment] key
_NESTED = frozenset(name for name, _ in _SECTIONS.values())


def _section_kwargs(parser: configparser.ConfigParser, section: str, cls) -> dict:
    """Keyword arguments of cls from one INI section, each typed as its field's
    default; unknown keys raise."""
    defaults = cls()
    names = {f.name for f in fields(cls)} - _NESTED
    kwargs = {}
    for key, raw in parser.items(section):
        if key not in names:
            raise ValueError(f"unknown key {key!r} in section [{section}]")
        default = getattr(defaults, key)
        if isinstance(default, bool):
            # the stdlib's BOOLEAN_STATES, so a misspelt word raises
            kwargs[key] = parser.getboolean(section, key)
        elif isinstance(default, tuple):  # whitespace-separated scalars
            kwargs[key] = tuple(map(type(default[0]), raw.split()))
        else:
            kwargs[key] = type(default)(raw.strip())
    return kwargs


def _ini_settings(text: str) -> dict:
    """ExperimentConfig keywords from an INI, its [experiment] keys in file order;
    unknown sections and [DEFAULT] keys, which every section would inherit, raise."""
    parser = configparser.ConfigParser()
    parser.read_string(text)
    if parser.defaults():
        raise ValueError(f"unknown key {next(iter(parser.defaults()))!r} in section [DEFAULT]")
    settings: dict = {}
    for section in parser.sections():
        if section == "experiment":
            settings.update(_section_kwargs(parser, section, ExperimentConfig))
        elif section in _SECTIONS:
            name, cls = _SECTIONS[section]
            settings[name] = cls(**_section_kwargs(parser, section, cls))
        else:
            raise ValueError(f"unknown section [{section}]")
    return settings


def config_from_ini(text: str) -> ExperimentConfig:
    return ExperimentConfig.for_experiment(**_ini_settings(text))


def config_to_ini(cfg: ExperimentConfig) -> str:
    """Full resolved configuration, every default spelled out."""
    parser = configparser.ConfigParser()
    sections = {"experiment": cfg,
                **{section: getattr(cfg, name) for section, (name, _) in _SECTIONS.items()}}
    for section, obj in sections.items():
        parser.add_section(section)
        for f in fields(obj):
            if f.name in _NESTED:
                continue
            value = getattr(obj, f.name)
            if isinstance(value, tuple):
                value = " ".join(str(x) for x in value)
            parser.set(section, f.name, str(value))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def derive_seed(master: int, *parts) -> int:
    """Stable 63-bit seed from the master seed and any hashable labels."""
    text = "|".join([str(master), *[str(p) for p in parts]])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") % 2**63


def make_instance(cfg: ExperimentConfig, master_seed: int, n: int, p: int,
                  lam: float, index: int) -> MaxCutInstance:
    point = (n, p, lam)
    inst = random_regular(n, DEGREE, derive_seed(master_seed, point, index, "instance"))
    return with_optimum(assign_weights(inst, cfg.weight_scheme,
                                       derive_seed(master_seed, point, index, "weights")))


def run_method(cfg: ExperimentConfig, instance: MaxCutInstance, p: int, lam: float,
               method: str, seed: int,
               stage2_seed: int) -> tuple[RunResult, list[float] | None]:
    """One method on one instance, then stage 2 when enabled (map_bo only);
    returns (result, stage-2 probability trace or None)."""
    noise = NoiseSpec.for_circuit(lam, instance, p)  # refuses lam outside [0, 1]
    if method == "map_bo":
        result = optimize_map_bo(instance, p, cfg.adaptive, noise, cfg.t_max, seed,
                                 cfg.n_final)
    elif method == "exp_bo":
        result = optimize_exp_bo(instance, p, cfg.n_fix, noise, cfg.t_max, seed,
                                 cfg.n_final)
    elif method == "exp_gd":
        result = optimize_exp_gd(instance, p, cfg.n_fix, cfg.gd, noise, seed, cfg.n_final)
    else:
        raise ValueError(f"unknown method {method!r}")
    trace = None
    if cfg.stage2_enabled and method == "map_bo":
        _, trace = amplify(instance, result.best_params, result.final_eval.mode,
                           cfg.amplify_cfg, noise, stage2_seed, result.ledger)
    return result, trace


def run_cell(cfg: ExperimentConfig, master_seed: int, n: int, p: int, lam: float,
             index: int, method: str,
             instance: MaxCutInstance | None = None) -> tuple[dict, RunResult, list | None]:
    """One (sweep point, instance, method) cell; returns (record, result, trace)."""
    point = (n, p, lam)
    instance_seed = derive_seed(master_seed, point, index, "instance")
    if instance is None:
        instance = make_instance(cfg, master_seed, n, p, lam, index)
    run_seed = derive_seed(master_seed, point, index, method)
    result, trace = run_method(cfg, instance, p, lam, method, run_seed,
                               derive_seed(master_seed, point, index, "stage2"))
    ledger = result.ledger
    record = {
        "method": method,
        "n": n,
        "p": p,
        "lambda": lam,
        "instance_seed": instance_seed,
        "run_seed": run_seed,
        **build_report(instance, result, cfg.threshold),
        "optimization_shots": ledger.optimization_shots,
        "final_eval_shots": ledger.final_eval_shots,
        "trials": len(result.trials),
        "stop_reason": result.stop_reason,
        "avg_point_shots": ledger.avg_point_shots,
        "avg_distinct": ledger.avg_distinct,
        "config_hash": config_hash(cfg),
    }
    return {k: record[k] for k in RECORD_KEYS}, result, trace


def run_experiment(cfg: ExperimentConfig, master_seed: int):
    """All cells in deterministic order; returns (records, stage2_traces)."""
    records = []
    traces = []
    for n, p, lam in cfg.sweep_points():
        for index in range(cfg.instances_per_point):
            instance = make_instance(cfg, master_seed, n, p, lam, index)
            for method in cfg.methods:
                record, _, trace = run_cell(cfg, master_seed, n, p, lam, index,
                                            method, instance)
                records.append(record)
                if trace is not None:
                    traces.append({"n": n, "p": p, "lambda": lam,
                                   "instance_index": index, "trace": trace})
    return records, traces


def records_to_jsonl(records) -> str:
    return "".join(json.dumps({k: r[k] for k in RECORD_KEYS}) + "\n" for r in records)


def _group(records, cfg: ExperimentConfig):
    groups: dict[tuple[str, str], list] = {}
    for r in records:
        key = (cfg.sweep_key(r["n"], r["p"], r["lambda"]), r["method"])
        groups.setdefault(key, []).append(r)
    return groups


def _mean_std(values) -> tuple[float, float, int]:
    """(mean, population std, count) of the non-null values; NaN stats when none."""
    values = [x for x in values if x is not None]
    if not values:
        return float("nan"), float("nan"), 0
    return float(np.mean(values)), float(np.std(values)), len(values)


def aggregate_rows(records, cfg: ExperimentConfig) -> list[dict]:
    """Per (sweep_key, method, metric): mean, population std, count of non-null."""
    rows = []
    for (sweep_key, method), group in _group(records, cfg).items():
        for metric in AGGREGATE_METRICS:
            mean, std, count = _mean_std(r[metric] for r in group)
            rows.append({"sweep_key": sweep_key, "method": method, "metric": metric,
                         "mean": mean, "std": std, "count": count})
    return rows


def _write_csv(path: str, header: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _median_shots(group) -> float:
    """Median shots-to-threshold with unreached runs counted as infinity."""
    values = [float("inf") if r["shots_to_threshold"] is None
              else float(r["shots_to_threshold"]) for r in group]
    return float(np.median(values))


def _sweep_firsts(cfg: ExperimentConfig) -> dict[str, tuple[int, int, float]]:
    """Each sweep key, in sweep order, with the sweep point it labels."""
    return {cfg.sweep_key(*point): point for point in cfg.sweep_points()}


def _write_pareto(path: str, records, axis: str) -> None:
    """One row per run: method, its value on the axis, total shots, accuracy."""
    header = ["method", axis, "total_shots", "final_mode_accuracy"]
    _write_csv(path, header, [{k: r[k] for k in header} for r in records])


def write_plot_data(records, cfg: ExperimentConfig, plot_dir: str) -> None:
    """One CSV per figure; empty records still produce headers."""
    os.makedirs(plot_dir, exist_ok=True)
    groups = _group(records, cfg)
    axis = cfg.sweep.key

    threshold_rows = []
    curve_rows = []
    saving_rows = []
    for key in _sweep_firsts(cfg):
        medians = {}
        for method in cfg.methods:
            group = groups.get((key, method), [])
            if not group:
                continue
            medians[method] = _median_shots(group)
            mean_reached, _, reached = _mean_std(r["shots_to_threshold"] for r in group)
            threshold_rows.append({
                "sweep_key": key, "method": method,
                "median_shots_to_threshold": medians[method],
                "mean_shots_to_threshold": mean_reached,
                "reached": reached, "count": len(group),
            })
            if axis:
                acc_mean, acc_std, _ = _mean_std(r["final_mode_accuracy"] for r in group)
                shots_mean, shots_std, _ = _mean_std(r["total_shots"] for r in group)
                curve_rows.append({
                    axis: group[0][axis], "method": method,
                    "mean_final_mode_accuracy": acc_mean,
                    "std_final_mode_accuracy": acc_std,
                    "mean_total_shots": shots_mean,
                    "std_total_shots": shots_std,
                })
        map_med = medians.get("map_bo", np.inf)
        exp_med = medians.get("exp_bo", np.inf)
        if np.isfinite(map_med) and np.isfinite(exp_med) and exp_med > 0:
            saving_rows.append({"sweep_key": key, "saving_rate": 1.0 - map_med / exp_med})
    _write_csv(os.path.join(plot_dir, "threshold_shots.csv"),
               ["sweep_key", "method", "median_shots_to_threshold",
                "mean_shots_to_threshold", "reached", "count"], threshold_rows)
    _write_csv(os.path.join(plot_dir, "saving_rate.csv"),
               ["sweep_key", "saving_rate"], saving_rows)

    _write_pareto(os.path.join(plot_dir, "pareto.csv"), records, "n")
    if axis:
        _write_csv(os.path.join(plot_dir, cfg.sweep.curve_csv),
                   [axis, "method", "mean_final_mode_accuracy", "std_final_mode_accuracy",
                    "mean_total_shots", "std_total_shots"], curve_rows)
    if axis == "lambda":  # the noise figure also plots every run against its λ
        _write_pareto(os.path.join(plot_dir, "noise_pareto.csv"), records, "lambda")


def summarize(records, cfg: ExperimentConfig) -> dict:
    """Per-sweep-point savings ratios and the adaptive shot band flags.

    Sum(K_i) per run is reconstructed as round(avg_distinct * trials), which is
    exact for the BO methods (one adaptive point per trial).  Weights never
    change the edge set, so the first map_bo record's graph gives its count.
    """
    groups = _group(records, cfg)
    summary: dict = {"experiment": cfg.experiment, "sweep_points": []}
    for key, (n, p, lam) in _sweep_firsts(cfg).items():
        entry: dict = {"sweep_key": key, "n": n, "p": p, "lambda": lam}
        map_group = groups.get((key, "map_bo"), [])
        exp_group = groups.get((key, "exp_bo"), [])
        if map_group:
            avg_shots = float(np.mean([r["avg_point_shots"] for r in map_group]))
            entry["avg_point_shots"] = avg_shots
            entry["avg_point_shots_in_guard_band"] = bool(
                cfg.adaptive.pilot_shots <= avg_shots <= cfg.adaptive.max_shots)
            entry["avg_point_shots_in_typical_band"] = bool(
                TYPICAL_POINT_SHOT_BAND[0] <= avg_shots <= TYPICAL_POINT_SHOT_BAND[1])
        if map_group and exp_group:
            t_map = sum(r["trials"] for r in map_group)
            shots_map = sum(r["optimization_shots"] for r in map_group)
            shots_exp = sum(r["optimization_shots"] for r in exp_group)
            sum_k = sum(round(r["avg_distinct"] * r["trials"]) for r in map_group)
            num_edges = random_regular(n, DEGREE, map_group[0]["instance_seed"]).num_edges
            entry["s_q"], entry["s_cl"] = pooled_savings(
                shots_exp, shots_map, t_map, sum_k / t_map,
                num_edges, cfg.adaptive.bootstrap_resamples)
        summary["sweep_points"].append(entry)
    return summary


def write_report(records, cfg: ExperimentConfig, out_dir: str) -> None:
    """Everything derived from the records: aggregates, plot CSVs, summary."""
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "aggregates.csv"),
               ["sweep_key", "method", "metric", "mean", "std", "count"],
               aggregate_rows(records, cfg))
    write_plot_data(records, cfg, os.path.join(out_dir, "plots"))
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summarize(records, cfg), fh, indent=2)
        fh.write("\n")


def write_outputs(records, traces, cfg: ExperimentConfig, out_dir: str,
                  master_seed: int, elapsed: float | None = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "records.jsonl"), "w") as fh:
        fh.write(records_to_jsonl(records))
    write_report(records, cfg, out_dir)
    with open(os.path.join(out_dir, "config_resolved.ini"), "w") as fh:
        fh.write(config_to_ini(cfg))
    if traces:
        with open(os.path.join(out_dir, "stage2_traces.jsonl"), "w") as fh:
            fh.writelines(json.dumps(t) + "\n" for t in traces)
    # wall-clock data and provenance stay out of the deterministic artifacts;
    # the numpy version matters because records follow its Generator streams
    meta = {"version": __version__, "master_seed": master_seed,
            "config_hash": config_hash(cfg), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}
    if elapsed is not None:
        meta["elapsed_seconds"] = elapsed
        meta["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_records(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# each ExperimentConfig field a flag sets -> (flag, argparse keywords, grid):
# run and bench take the search flags, bench alone the grid ones, since run
# takes one instance and gets noise and depth from --noise and --depth
_FLAGS = {
    "t_max": ("--t-max", dict(type=int), False),
    "n_fix": ("--n-fix", dict(type=int), False),
    "n_final": ("--n-final", dict(type=int), False),
    "threshold": ("--threshold", dict(type=float), False),
    "stage2_enabled": ("--stage2", dict(action="store_true", default=None), False),
    "experiment": ("--experiment", dict(choices=EXPERIMENTS), True),
    "n_values": ("--n-values", dict(type=int, nargs="+"), True),
    "p_values": ("--p-values", dict(type=int, nargs="+"), True),
    "noise_lambdas": ("--lambdas", dict(type=float, nargs="+"), True),
    "instances_per_point": ("--instances", dict(type=int), True),
    "methods": ("--methods", dict(nargs="+", choices=METHODS), True),
    "weight_scheme": ("--weights", dict(choices=WEIGHT_SCHEMES), True),
}
# [experiment] keys that shape only a bench sweep: the grid flags' fields
_GRID_KEYS = tuple(name for name, (_, _, grid) in _FLAGS.items() if grid)


def _build_config(args) -> ExperimentConfig:
    """--config (read once) or the preset, then the flags; ignored INI keys warn."""
    ini: dict = {}
    if args.config:
        with open(args.config) as fh:
            ini = _ini_settings(fh.read())
    grid_keys = [key for key in ini if key in _GRID_KEYS]  # in file order
    named = ini.pop("experiment", "qubit_sweep")
    experiment = getattr(args, "experiment", None) or named  # a grid flag, absent on `run`
    preset = _SWEEPS[experiment].preset if experiment != named else {}  # beats the INI
    dropped = [key for key in grid_keys if key in preset]
    if dropped:
        print(f"warning: --experiment {experiment} replaces the [experiment] "
              f"keys {', '.join(dropped)} in {args.config} with its preset grid",
              file=sys.stderr)
    flags = {name: tuple(value) if isinstance(value, list) else value for name in _FLAGS
             if name != "experiment" and (value := getattr(args, name, None)) is not None}
    cfg = ExperimentConfig.for_experiment(experiment, **{**ini, **preset, **flags})
    if args.command == "run" and grid_keys:
        print(f"warning: run ignores the [experiment] keys {', '.join(grid_keys)} "
              f"in {args.config}; noise comes from --noise and depth from --depth",
              file=sys.stderr)
    return cfg


def _cmd_gen(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        seed = derive_seed(args.seed, "gen", args.n, i)
        inst = assign_weights(random_regular(args.n, DEGREE, seed), args.weights,
                              derive_seed(args.seed, "w", args.n, i))
        path = os.path.join(args.out, f"instance_n{args.n}_{i}.json")
        with open(path, "w") as fh:
            fh.write(to_json(inst, seed) + "\n")
        print(path)
    return 0


def _cmd_run(args) -> int:
    with open(args.instance) as fh:
        instance = with_optimum(from_json(fh.read()))
    cfg = _build_config(args)
    result, trace = run_method(cfg, instance, args.depth, args.noise, args.method,
                               args.seed, derive_seed(args.seed, "stage2"))
    payload = run_result_to_dict(result)
    payload["metrics"] = build_report(instance, result, cfg.threshold)
    if trace is not None:
        payload["stage2_trace"] = trace
    print(json.dumps(payload, indent=2))
    if args.trials_out:
        with open(args.trials_out, "w") as fh:
            fh.write(trials_to_jsonl(result.trials))
    return 0


def _cmd_bench(args) -> int:
    cfg = _build_config(args)
    ignored = [name for key, name in _AXES.items()
               if key != cfg.sweep.key and len(getattr(cfg, name)) > 1]
    if ignored:
        print(f"warning: bench runs only the first value of {', '.join(ignored)}, "
              f"which {cfg.experiment} does not sweep", file=sys.stderr)
    start = time.monotonic()
    records, traces = run_experiment(cfg, args.seed)
    write_outputs(records, traces, cfg, args.out, args.seed,
                  elapsed=time.monotonic() - start)
    print(f"{len(records)} records -> {os.path.join(args.out, 'records.jsonl')}")
    return 0


def _cmd_report(args) -> int:
    with open(os.path.join(args.indir, "config_resolved.ini")) as fh:
        cfg = config_from_ini(fh.read())
    records = load_records(os.path.join(args.indir, "records.jsonl"))
    meta_path = os.path.join(args.indir, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            made_with = json.load(fh).get("numpy")
        if made_with is not None and made_with != np.__version__:
            print(f"warning: records were made with numpy {made_with}, this is "
                  f"numpy {np.__version__}; reruns may not reproduce them",
                  file=sys.stderr)
    out = args.out or args.indir
    write_report(records, cfg, out)
    print(f"report written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modeqaoa",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate 3-regular MaxCut instances as JSON files")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--count", type=int, default=10)
    p_gen.add_argument("--weights", choices=WEIGHT_SCHEMES, default="unit")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_run = sub.add_parser("run", help="run one method on one instance file")
    p_run.add_argument("--instance", required=True)
    p_run.add_argument("--method", choices=METHODS, required=True)
    p_run.add_argument("--depth", type=int, default=2)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--noise", type=float, default=0.0)
    p_run.add_argument("--trials-out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="run a sweep and write all artifacts")
    p_bench.add_argument("--seed", type=int, required=True)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=_cmd_bench)
    for p_cmd in (p_run, p_bench):
        p_cmd.add_argument("--config", default=None, help="INI config file")
        for name, (flag, kwargs, grid) in _FLAGS.items():
            if p_cmd is p_bench or not grid:
                p_cmd.add_argument(flag, dest=name, **kwargs)

    p_report = sub.add_parser("report", help="recompute aggregates from records")
    p_report.add_argument("--indir", required=True)
    p_report.add_argument("--out", default=None)
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # run failure rather than bad usage
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
