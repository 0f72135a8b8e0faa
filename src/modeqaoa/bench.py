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
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .baselines import GdConfig, optimize_exp_bo, optimize_exp_gd
from .bo import (RunResult, StagnationConfig, TpeConfig, optimize_map_bo,
                 run_result_to_dict, trials_to_jsonl)
from .graph import (MaxCutInstance, assign_weights, from_json, random_regular,
                    to_json, with_optimum)
from .resources import build_report
from .shots import AdaptiveConfig
from .simulator import NoiseSpec
from .stage2 import AmplifyConfig, amplify

# preset (n, p, lambda) grid of each named sweep
GRIDS = {
    "qubit_sweep": dict(n_values=(3, 4, 6, 8, 10, 12), p_values=(2,),
                        noise_lambdas=(0.0,)),
    "depth_sweep": dict(n_values=(10,), p_values=(1, 2, 3, 4, 5, 6),
                        noise_lambdas=(0.0,)),
    "noise_sweep": dict(n_values=(10,), p_values=(2,),
                        noise_lambdas=(0.0, 0.002, 0.004, 0.006, 0.008, 0.01)),
    "single": dict(n_values=(6,), p_values=(2,), noise_lambdas=(0.0,)),
}
EXPERIMENTS = tuple(GRIDS)
METHODS = ("map_bo", "exp_bo", "exp_gd")

RECORD_KEYS = [
    "method", "n", "p", "lambda", "instance_seed", "run_seed",
    "final_mode_accuracy", "final_expectation_accuracy",
    "final_best_sample_accuracy", "total_shots", "optimization_shots",
    "final_eval_shots", "shots_to_threshold", "trials", "stop_reason",
    "avg_point_shots", "avg_distinct", "config_hash",
]

AGGREGATE_METRICS = [
    "final_mode_accuracy", "final_expectation_accuracy",
    "final_best_sample_accuracy", "total_shots", "optimization_shots",
    "final_eval_shots", "shots_to_threshold", "trials", "avg_point_shots",
    "avg_distinct",
]

TYPICAL_POINT_SHOT_BAND = (250.0, 400.0)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "qubit_sweep"
    n_values: tuple[int, ...] = (3, 4, 6, 8, 10, 12)
    p_values: tuple[int, ...] = (2,)
    noise_lambdas: tuple[float, ...] = (0.0,)
    instances_per_point: int = 10
    degree: int = 3
    weight_scheme: str = "unit"
    methods: tuple[str, ...] = METHODS
    threshold: float = 0.80
    t_max: int = 100
    n_fix: int = 1000
    n_final: int = 5000
    stage2_enabled: bool = False
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)
    tpe: TpeConfig = field(default_factory=TpeConfig)
    stagnation: StagnationConfig = field(default_factory=StagnationConfig)
    gd: GdConfig = field(default_factory=GdConfig)
    amplify_cfg: AmplifyConfig = field(default_factory=AmplifyConfig)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if self.instances_per_point < 1:
            raise ValueError("instances_per_point must be >= 1")
        if not (0.0 < self.threshold <= 1.0):
            raise ValueError("threshold must lie in (0, 1]")

    @classmethod
    def for_experiment(cls, name: str, **overrides) -> "ExperimentConfig":
        """Preset grid for each named sweep; explicit overrides win."""
        if name not in GRIDS:
            raise ValueError(f"unknown experiment {name!r}")
        return cls(experiment=name, **{**GRIDS[name], **overrides})

    def sweep_points(self) -> list[tuple[int, int, float]]:
        if self.experiment == "qubit_sweep":
            return [(n, self.p_values[0], self.noise_lambdas[0]) for n in self.n_values]
        if self.experiment == "depth_sweep":
            return [(self.n_values[0], p, self.noise_lambdas[0]) for p in self.p_values]
        if self.experiment == "noise_sweep":
            return [(self.n_values[0], self.p_values[0], lam) for lam in self.noise_lambdas]
        return [(self.n_values[0], self.p_values[0], self.noise_lambdas[0])]

    def sweep_key(self, n: int, p: int, lam: float) -> str:
        if self.experiment == "qubit_sweep":
            return f"n={n}"
        if self.experiment == "depth_sweep":
            return f"p={p}"
        if self.experiment == "noise_sweep":
            return f"lambda={lam}"
        return "single"


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# INI section -> (ExperimentConfig field holding it, its config class)
_SECTIONS = {
    "adaptive": ("adaptive", AdaptiveConfig),
    "tpe": ("tpe", TpeConfig),
    "stagnation": ("stagnation", StagnationConfig),
    "gd": ("gd", GdConfig),
    "stage2": ("amplify_cfg", AmplifyConfig),
}


def _parse_value(raw: str, annotation: str):
    """One INI value, typed by its dataclass field's annotation string."""
    if annotation == "bool":
        return raw.strip().lower() in ("1", "true", "yes", "on")
    if annotation == "int":
        return int(raw)
    if annotation == "float":
        return float(raw)
    if annotation == "str":
        return raw.strip()
    # tuple fields: whitespace-separated scalars
    parts = raw.split()
    if "int" in annotation:
        return tuple(int(x) for x in parts)
    if "float" in annotation:
        return tuple(float(x) for x in parts)
    return tuple(parts)


def _section_kwargs(parser: configparser.ConfigParser, section: str, cls) -> dict:
    """Typed keyword arguments of cls from one INI section; unknown keys raise."""
    types = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, raw in parser.items(section):
        if key not in types:
            raise ValueError(f"unknown key {key!r} in section [{section}]")
        kwargs[key] = _parse_value(raw, types[key])
    return kwargs


def config_from_ini(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    top: dict = {}
    if parser.has_section("experiment"):
        top = _section_kwargs(parser, "experiment", ExperimentConfig)
    for section, (name, cls) in _SECTIONS.items():
        if parser.has_section(section):
            top[name] = cls(**_section_kwargs(parser, section, cls))
    name = top.pop("experiment", "qubit_sweep")
    return ExperimentConfig.for_experiment(name, **top)


def config_to_ini(cfg: ExperimentConfig) -> str:
    """Full resolved configuration, every default spelled out."""
    parser = configparser.ConfigParser()
    nested = {name for name, _ in _SECTIONS.values()}
    sections = {"experiment": cfg,
                **{section: getattr(cfg, name) for section, (name, _) in _SECTIONS.items()}}
    for section, obj in sections.items():
        parser.add_section(section)
        for f in fields(obj):
            if f.name in nested:
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
    inst = random_regular(n, cfg.degree, derive_seed(master_seed, point, index, "instance"))
    if cfg.weight_scheme != "unit":
        inst = assign_weights(inst, cfg.weight_scheme,
                              derive_seed(master_seed, point, index, "weights"))
    return with_optimum(inst)


def run_method(cfg: ExperimentConfig, instance: MaxCutInstance, p: int, lam: float,
               method: str, seed: int,
               stage2_seed: int) -> tuple[RunResult, list[float] | None]:
    """One method on one instance, then stage 2 when enabled (map_bo only);
    returns (result, stage-2 probability trace or None)."""
    noise = NoiseSpec.for_circuit(lam, instance, p) if lam > 0 else None
    if method == "map_bo":
        result = optimize_map_bo(instance, p, cfg.adaptive, cfg.tpe, cfg.stagnation,
                                 noise, cfg.t_max, seed, cfg.n_final)
    elif method == "exp_bo":
        result = optimize_exp_bo(instance, p, cfg.n_fix, cfg.tpe, cfg.stagnation,
                                 noise, cfg.t_max, seed, cfg.n_final)
    elif method == "exp_gd":
        gd = replace(cfg.gd, shots_per_eval=cfg.n_fix)
        result = optimize_exp_gd(instance, p, gd, noise, seed, cfg.n_final)
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
    report = build_report(instance, result, cfg.threshold)
    ledger = result.ledger
    record = {
        "method": method,
        "n": n,
        "p": p,
        "lambda": lam,
        "instance_seed": instance_seed,
        "run_seed": run_seed,
        "final_mode_accuracy": report.final_mode_accuracy,
        "final_expectation_accuracy": report.final_expectation_accuracy,
        "final_best_sample_accuracy": report.final_best_sample_accuracy,
        "total_shots": ledger.total_shots,
        "optimization_shots": ledger.optimization_shots,
        "final_eval_shots": ledger.final_eval_shots,
        "shots_to_threshold": report.shots_to_threshold,
        "trials": len(result.trials),
        "stop_reason": result.stop_reason,
        "avg_point_shots": ledger.avg_point_shots,
        "avg_distinct": ledger.avg_distinct,
        "config_hash": config_hash(cfg),
    }
    return record, result, trace


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


def aggregate_rows(records, cfg: ExperimentConfig) -> list[dict]:
    """Per (sweep_key, method, metric): mean, population std, count of non-null."""
    rows = []
    for (sweep_key, method), group in _group(records, cfg).items():
        for metric in AGGREGATE_METRICS:
            values = [r[metric] for r in group if r[metric] is not None]
            if values:
                mean = float(np.mean(values))
                std = float(np.std(values))
            else:
                mean = std = float("nan")
            rows.append({"sweep_key": sweep_key, "method": method, "metric": metric,
                         "mean": mean, "std": std, "count": len(values)})
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


def write_plot_data(records, cfg: ExperimentConfig, plot_dir: str) -> None:
    """One CSV per figure; empty records still produce headers."""
    os.makedirs(plot_dir, exist_ok=True)
    groups = _group(records, cfg)
    sweep_keys = []
    for n, p, lam in cfg.sweep_points():
        key = cfg.sweep_key(n, p, lam)
        if key not in sweep_keys:
            sweep_keys.append(key)

    threshold_rows = []
    for key in sweep_keys:
        for method in cfg.methods:
            group = groups.get((key, method), [])
            if not group:
                continue
            reached = [r for r in group if r["shots_to_threshold"] is not None]
            mean_reached = (float(np.mean([r["shots_to_threshold"] for r in reached]))
                            if reached else float("nan"))
            threshold_rows.append({
                "sweep_key": key, "method": method,
                "median_shots_to_threshold": _median_shots(group),
                "mean_shots_to_threshold": mean_reached,
                "reached": len(reached), "count": len(group),
            })
    _write_csv(os.path.join(plot_dir, "threshold_shots.csv"),
               ["sweep_key", "method", "median_shots_to_threshold",
                "mean_shots_to_threshold", "reached", "count"], threshold_rows)

    saving_rows = []
    for key in sweep_keys:
        map_group = groups.get((key, "map_bo"), [])
        exp_group = groups.get((key, "exp_bo"), [])
        if not map_group or not exp_group:
            continue
        map_med = _median_shots(map_group)
        exp_med = _median_shots(exp_group)
        if np.isfinite(map_med) and np.isfinite(exp_med) and exp_med > 0:
            saving_rows.append({"sweep_key": key,
                                "saving_rate": 1.0 - map_med / exp_med})
    _write_csv(os.path.join(plot_dir, "saving_rate.csv"),
               ["sweep_key", "saving_rate"], saving_rows)

    pareto_rows = [{"method": r["method"], "n": r["n"],
                    "total_shots": r["total_shots"],
                    "final_mode_accuracy": r["final_mode_accuracy"]}
                   for r in records]
    _write_csv(os.path.join(plot_dir, "pareto.csv"),
               ["method", "n", "total_shots", "final_mode_accuracy"], pareto_rows)

    def _curve_rows(label_key, label_of):
        rows = []
        for key in sweep_keys:
            for method in cfg.methods:
                group = groups.get((key, method), [])
                if not group:
                    continue
                acc = [r["final_mode_accuracy"] for r in group]
                shots = [r["total_shots"] for r in group]
                rows.append({
                    label_key: label_of(group[0]), "method": method,
                    "mean_final_mode_accuracy": float(np.mean(acc)),
                    "std_final_mode_accuracy": float(np.std(acc)),
                    "mean_total_shots": float(np.mean(shots)),
                    "std_total_shots": float(np.std(shots)),
                })
        return rows

    curve_header = ["method", "mean_final_mode_accuracy", "std_final_mode_accuracy",
                    "mean_total_shots", "std_total_shots"]
    if cfg.experiment == "qubit_sweep":
        _write_csv(os.path.join(plot_dir, "qubit_curves.csv"),
                   ["n"] + curve_header, _curve_rows("n", lambda r: r["n"]))
    elif cfg.experiment == "depth_sweep":
        _write_csv(os.path.join(plot_dir, "depth_panels.csv"),
                   ["p"] + curve_header, _curve_rows("p", lambda r: r["p"]))
    elif cfg.experiment == "noise_sweep":
        _write_csv(os.path.join(plot_dir, "noise_panels.csv"),
                   ["lambda"] + curve_header,
                   _curve_rows("lambda", lambda r: r["lambda"]))
        noise_pareto = [{"method": r["method"], "lambda": r["lambda"],
                         "total_shots": r["total_shots"],
                         "final_mode_accuracy": r["final_mode_accuracy"]}
                        for r in records]
        _write_csv(os.path.join(plot_dir, "noise_pareto.csv"),
                   ["method", "lambda", "total_shots", "final_mode_accuracy"],
                   noise_pareto)


def _expected_edges(n: int, degree: int) -> int:
    if n * degree % 2 == 1 or n <= degree:
        return n * (n - 1) // 2
    return n * degree // 2


def summarize(records, cfg: ExperimentConfig) -> dict:
    """Per-sweep-point savings ratios and the adaptive shot band flags.

    Sum(K_i) per run is reconstructed as round(avg_distinct * trials), which is
    exact for the BO methods (one adaptive point per trial).
    """
    groups = _group(records, cfg)
    summary: dict = {"experiment": cfg.experiment, "sweep_points": []}
    for n, p, lam in cfg.sweep_points():
        key = cfg.sweep_key(n, p, lam)
        if any(e["sweep_key"] == key for e in summary["sweep_points"]):
            continue
        entry: dict = {"sweep_key": key, "n": n, "p": p, "lambda": lam}
        map_group = groups.get((key, "map_bo"), [])
        exp_group = groups.get((key, "exp_bo"), [])
        if map_group:
            avg_shots = float(np.mean([r["avg_point_shots"] for r in map_group]))
            entry["avg_point_shots"] = avg_shots
            entry["avg_point_shots_in_guard_band"] = bool(100.0 <= avg_shots <= 1200.0)
            entry["avg_point_shots_in_typical_band"] = bool(
                TYPICAL_POINT_SHOT_BAND[0] <= avg_shots <= TYPICAL_POINT_SHOT_BAND[1])
        if map_group and exp_group:
            t_map = sum(r["trials"] for r in map_group)
            t_exp = sum(r["trials"] for r in exp_group)
            shots_map = sum(r["optimization_shots"] for r in map_group)
            shots_exp = sum(r["optimization_shots"] for r in exp_group)
            sum_k = sum(round(r["avg_distinct"] * r["trials"]) for r in map_group)
            m = _expected_edges(n, cfg.degree)
            k_avg = sum_k / t_map
            b = cfg.adaptive.bootstrap_resamples
            entry["s_q"] = shots_exp / shots_map
            entry["s_cl"] = (shots_exp * m) / (shots_map + t_map * k_avg * m
                                               + b * t_map * k_avg)
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
            for t in traces:
                fh.write(json.dumps(t) + "\n")
    # wall-clock data stays out of the deterministic artifacts
    meta = {"version": __version__, "master_seed": master_seed,
            "config_hash": config_hash(cfg)}
    if elapsed is not None:
        meta["elapsed_seconds"] = elapsed
        meta["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_records(path: str) -> list[dict]:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _add_override_args(parser: argparse.ArgumentParser) -> None:
    """Config flags; each dest is the ExperimentConfig field it overrides."""
    parser.add_argument("--experiment", choices=EXPERIMENTS, default=None)
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--n-values", dest="n_values", type=int, nargs="+")
    parser.add_argument("--p-values", dest="p_values", type=int, nargs="+")
    parser.add_argument("--lambdas", dest="noise_lambdas", type=float, nargs="+")
    parser.add_argument("--instances", dest="instances_per_point", type=int)
    parser.add_argument("--methods", nargs="+", choices=METHODS)
    parser.add_argument("--t-max", type=int)
    parser.add_argument("--n-fix", type=int)
    parser.add_argument("--n-final", type=int)
    parser.add_argument("--threshold", type=float)
    parser.add_argument("--weights", dest="weight_scheme", choices=("unit", "uniform"))
    parser.add_argument("--stage2", dest="stage2_enabled", action="store_true",
                        default=None)


def _build_config(args) -> ExperimentConfig:
    if args.config:
        with open(args.config) as fh:
            cfg = config_from_ini(fh.read())
        if args.experiment and args.experiment != cfg.experiment:
            cfg = replace(cfg, experiment=args.experiment, **GRIDS[args.experiment])
    else:
        cfg = ExperimentConfig.for_experiment(args.experiment or "qubit_sweep")
    overrides = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
                 if f.name != "experiment" and getattr(args, f.name, None) is not None}
    return replace(cfg, **{k: tuple(v) if isinstance(v, list) else v
                           for k, v in overrides.items()})


def _cmd_gen(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        seed = derive_seed(args.seed, "gen", args.n, i)
        inst = random_regular(args.n, args.degree, seed)
        if args.weights != "unit":
            inst = assign_weights(inst, args.weights, derive_seed(args.seed, "w", args.n, i))
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
    payload["metrics"] = json.loads(build_report(instance, result, cfg.threshold).to_json())
    if trace is not None:
        payload["stage2_trace"] = trace
    print(json.dumps(payload, indent=2))
    if args.trials_out:
        with open(args.trials_out, "w") as fh:
            fh.write(trials_to_jsonl(result.trials))
    return 0


def _cmd_bench(args) -> int:
    cfg = _build_config(args)
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
    out = args.out or args.indir
    write_report(records, cfg, out)
    print(f"report written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modeqaoa",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate MaxCut instances as JSON files")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--degree", type=int, default=3)
    p_gen.add_argument("--count", type=int, default=10)
    p_gen.add_argument("--weights", choices=("unit", "uniform"), default="unit")
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
    _add_override_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="run a sweep and write all artifacts")
    p_bench.add_argument("--seed", type=int, required=True)
    p_bench.add_argument("--out", required=True)
    _add_override_args(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

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
