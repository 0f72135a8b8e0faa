"""The benchmark's workloads: seeded cell sets, output checks, deterministic metrics.

Every workload turns the seed into a fixed list of cells and runs them one
after another (a closed loop, one process, no worker threads) through the
library's public functions.  Each cell's output is checked, and the records of
a pass are written to a JSONL file whose sha256 identifies the pass's results.

- mode_vs_mean: map_bo and exp_bo on the same instances, the paper's headline
  comparison; the only workload that runs the adaptive shot loop, TPE suggest
  and the bootstrap in compute_stats at volume.
- gradient_ascent: exp_gd with parameter-shift Adam; the array-bound simulator
  path (evolve, sample, string-keyed expectation_estimate), no TPE and one
  bootstrap per cell.
- amplify_small: stage2.amplify from seeded random starts on small instances;
  thousands of calls on 64-256 amplitudes, where per-call overhead dominates.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from modeqaoa import bench, graph, simulator, stage2
from modeqaoa.bo import search_bounds
from modeqaoa.resources import ResourceLedger
from modeqaoa.simulator import NoiseSpec, QaoaParams

DEPTH = 2
LAMBDAS = (0.0, 0.01)
ACCURACIES = ("final_mode_accuracy", "final_expectation_accuracy",
              "final_best_sample_accuracy")
BO_METHODS = ("map_bo", "exp_bo")


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple[str, ...]  # bench.run_cell methods, or ("amplify",)
    n_values: tuple[int, ...]
    instances: int  # per (n, lambda)
    starts: int = 1  # amplify starts per instance

    def instance_keys(self) -> list[tuple[int, float, int]]:
        return [(n, lam, i) for n in self.n_values for lam in LAMBDAS
                for i in range(self.instances)]

    def cells(self) -> list[tuple[int, float, int, str, int]]:
        return [(n, lam, i, method, start) for n, lam, i in self.instance_keys()
                for method in self.methods for start in range(self.starts)]

    def smoke(self) -> "Workload":
        """One instance at n = 6 per lambda: the size the benchmark's tests run."""
        return replace(self, n_values=(6,), instances=1, starts=1)


WORKLOADS = {
    "mode_vs_mean": Workload("mode_vs_mean", BO_METHODS, (6, 10, 12), 4),
    "gradient_ascent": Workload("gradient_ascent", ("exp_gd",), (6, 10, 12), 1),
    "amplify_small": Workload("amplify_small", ("amplify",), (6, 8), 2, starts=5),
}


def config(workload: Workload) -> bench.ExperimentConfig:
    """ExperimentConfig defaults; only the grid names the workload's sizes."""
    return bench.ExperimentConfig(n_values=workload.n_values, noise_lambdas=LAMBDAS)


def clear_caches() -> None:
    """Drop the memoized cut tables and edge indicators so set-up pays for them."""
    for module in (graph, simulator):
        for obj in vars(module).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def build_instances(workload: Workload, cfg: bench.ExperimentConfig, seed: int):
    """Instances with their exact optimum and cut table; returns (instances, cut_table_s)."""
    instances = {}
    cut_table_s = 0.0
    for n, lam, i in workload.instance_keys():
        inst = bench.make_instance(cfg, seed, n, DEPTH, lam, i)
        start = time.perf_counter()
        graph.cut_values_table(inst)
        cut_table_s += time.perf_counter() - start
        instances[(n, lam, i)] = inst
    return instances, cut_table_s


def check_run(record: dict, ledger: ResourceLedger,
              cfg: bench.ExperimentConfig) -> list[str]:
    bad = []
    if record["total_shots"] != (record["optimization_shots"]
                                 + record["final_eval_shots"] + ledger.stage2_shots):
        bad.append("total_shots != optimization + final-eval + stage-2 shots")
    for key in ACCURACIES:
        value = record[key]
        # the final mode may be a trivial cut (all vertices on one side) when the
        # final distribution is nearly flat, as exp_gd leaves it on some seeds
        above_floor = value >= 0.0 if key == "final_mode_accuracy" else value > 0.0
        if not (above_floor and value <= 1.0):
            bad.append(f"{key} = {value!r} out of range")
    if record["method"] == "map_bo":
        low, high = cfg.adaptive.pilot_shots, cfg.adaptive.max_shots
        if not all(low <= s <= high for s in ledger.per_point_shots):
            bad.append(f"per-point shots outside [{low}, {high}]")
    return bad


def _amplify_cell(cfg, seed, n, lam, i, start, inst):
    acfg = cfg.amplify_cfg
    label = ("amplify", n, lam, i, start)
    bounds = search_bounds(DEPTH)
    rng = np.random.default_rng(bench.derive_seed(seed, *label))
    theta = rng.uniform(bounds[:, 0], bounds[:, 1])
    noise = NoiseSpec.for_circuit(lam, inst, DEPTH) if lam > 0 else None
    ledger = ResourceLedger()
    _, trace = stage2.amplify(inst, QaoaParams.from_vector(theta), inst.optimum[0],
                              acfg, noise, bench.derive_seed(seed, *label, "stage2"),
                              ledger)
    reevals = math.ceil(acfg.steps / acfg.reeval_period)
    record = {"method": "amplify", "n": n, "lambda": lam, "instance_index": i,
              "start": start, "theta": theta.tolist(),
              "stage2_shots": ledger.stage2_shots, "trace": trace}
    bad = []
    expected = (2 * acfg.steps + reevals) * acfg.shots_per_shift
    if ledger.stage2_shots != expected:
        bad.append(f"stage2_shots {ledger.stage2_shots} != {expected}")
    if len(trace) != reevals + 1:
        bad.append(f"trace has {len(trace)} entries, expected {reevals + 1}")
    return record, bad


def run_one(cfg, seed, cell, instances) -> tuple[dict, list[str]]:
    """One cell; returns (record, failed checks)."""
    n, lam, i, method, start = cell
    inst = instances[(n, lam, i)]
    if method == "amplify":
        return _amplify_cell(cfg, seed, n, lam, i, start, inst)
    record, result, _ = bench.run_cell(cfg, seed, n, DEPTH, lam, i, method, inst)
    bad = check_run(record, result.ledger, cfg)
    # extra keys stay out of records.jsonl, which keeps only bench.RECORD_KEYS
    record = dict(record, instance_index=i, num_edges=inst.num_edges,
                  bootstrap_ops=result.ledger.bootstrap_ops)
    return record, bad


@dataclass
class PassResult:
    records: list
    failures: list
    attempted: int
    digest: str
    records_bytes: int


def run_pass(workload: Workload, cfg, seed: int, instances, out_dir: str) -> PassResult:
    """Every cell once, then the records file; a cell that raises counts as failed."""
    records, failures = [], []
    cells = workload.cells()
    for cell in cells:
        try:
            record, bad = run_one(cfg, seed, cell, instances)
        except Exception:  # a failed cell is reported, the pass goes on
            record, bad = None, [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        if record is not None:
            records.append(record)
        if bad:
            failures.append({"cell": list(cell), "errors": bad})
    path = write_records(workload, cfg, seed, records, out_dir)
    with open(path, "rb") as fh:
        blob = fh.read()
    return PassResult(records, failures, len(cells),
                      hashlib.sha256(blob).hexdigest(), len(blob))


def write_records(workload: Workload, cfg, seed: int, records, out_dir: str) -> str:
    path = os.path.join(out_dir, "records.jsonl")
    if workload.methods == ("amplify",):
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    else:
        bench.write_outputs(records, [], cfg, out_dir, seed)
    return path


def _mean(values):
    return float(statistics.fmean(values)) if values else None


def quality_metrics(cfg, records) -> dict:
    """Shot and accuracy metrics of one pass; None where the workload has no such cells.

    They depend only on the seed, so a pure speed-up leaves them unchanged.
    """
    runs = [r for r in records if r["method"] != "amplify"]
    maps = [r for r in runs if r["method"] == "map_bo"]
    exps = [r for r in runs if r["method"] == "exp_bo"]
    bos = maps + exps
    amps = [r for r in records if r["method"] == "amplify"]
    out = {
        "mode_accuracy_mean": _mean([r["final_mode_accuracy"] for r in runs]),
        "s_q": None, "s_cl": None, "shots_to_threshold_p50": None,
        "target_prob_gain_mean": _mean([r["trace"][-1] - r["trace"][0] for r in amps]),
        "bo.trials_per_run": _mean([r["trials"] for r in bos]),
        "bo.stagnation_share": _mean([r["stop_reason"] == "stagnation" for r in bos]),
        "estimators.bootstrap_draws": sum(r.get("bootstrap_ops", 0) for r in runs),
    }
    if maps and exps:
        # bench.summarize's S_q and S_cl, with each side's costs pooled over every n
        b = cfg.adaptive.bootstrap_resamples
        out["s_q"] = (sum(r["optimization_shots"] for r in exps)
                      / sum(r["optimization_shots"] for r in maps))
        denominator = 0.0
        for r in maps:
            sum_k = round(r["avg_distinct"] * r["trials"])
            denominator += r["optimization_shots"] + sum_k * r["num_edges"] + b * sum_k
        out["s_cl"] = sum(r["optimization_shots"] * r["num_edges"] for r in exps) / denominator
    if maps:
        # unreached runs count as infinitely many shots, as in bench's plot data
        p50 = statistics.median(math.inf if r["shots_to_threshold"] is None
                                else r["shots_to_threshold"] for r in maps)
        out["shots_to_threshold_p50"] = None if math.isinf(p50) else float(p50)
    return out
