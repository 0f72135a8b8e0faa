#!/usr/bin/env python3
"""Seeded benchmark of the modeqaoa library: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload mode_vs_mean --seed 2024 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with no wrappers installed.
--trace 1 runs one untraced pass and one traced pass and reports the
per-layer metrics; the two passes must write identical records.  Every
metric's unit and direction come from BENCHMARK.json.  The last line of
standard output is the result as one JSON object; the line before it is the
full report (provenance, records digest, failed checks, shot metrics).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import modeqaoa; "
                "print(time.perf_counter() - t)")
# metrics that depend only on the seed; a pure speed-up leaves them unchanged
QUALITY = ("failed_share", "mode_accuracy_mean", "s_q", "s_cl",
           "shots_to_threshold_p50", "target_prob_gain_mean")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="mode_vs_mean, gradient_ascent, amplify_small or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring budget: passes repeat while another fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one n = 6 instance per lambda (the benchmark's tests)")
    return parser.parse_args(argv)


def provenance(seed: int) -> dict:
    import numpy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "git_commit": commit,
            "seed": seed, "threads": {v: os.environ[v] for v in THREAD_VARS}}


def import_seconds() -> float:
    """Median time of `import modeqaoa` (numpy included) in fresh interpreters."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def set_up(workloads, workload, cfg, seed):
    """Median over repeats of instance generation, with_optimum and cut tables."""
    build, cut = [], []
    for _ in range(SETUP_REPEATS):
        workloads.clear_caches()
        start = time.perf_counter()
        instances, cut_s = workloads.build_instances(workload, cfg, seed)
        build.append(time.perf_counter() - start)
        cut.append(cut_s)
    return instances, statistics.median(build), statistics.median(cut)


def timed_pass(workloads, workload, cfg, seed, instances, out_dir):
    """(pass result, wall seconds, process CPU seconds)."""
    start, cpu = time.perf_counter(), time.process_time()
    result = workloads.run_pass(workload, cfg, seed, instances, out_dir)
    return result, time.perf_counter() - start, time.process_time() - cpu


def layer_metrics(tracer, setup_tracer, first, traced_wall, untraced_wall,
                  cut_table_s) -> dict:
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts

    def per(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("estimators.compute_stats", "estimators.expectation_estimate",
                 "simulator.evolve", "simulator.sample", "shots.evaluate_point",
                 "bo.suggest", "baselines.parameter_shift_gradient",
                 "stage2.randomized_shift_gradient", "resources.build_report"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    points = calls["shots.evaluate_point"]
    m.update({
        "estimators.keys_per_stats": per(counts["estimators.stats_keys"],
                                         calls["estimators.compute_stats"]),
        "simulator.evolve.us_per_call": 1e6 * per(self_s["simulator.evolve"],
                                                  calls["simulator.evolve"]),
        "simulator.evolve.bytes_computed": counts["simulator.evolve.bytes_computed"],
        "simulator.outcome_distribution.self_s": self_s["simulator.outcome_distribution"],
        "simulator.sample.shots": counts["simulator.sample.shots"],
        "shots.accept_rate": per(counts["shots.accepted"], points),
        "shots.rounds_per_point": per(counts["shots.rounds"], points),
        "shots.shots_per_point": per(counts["shots.point_shots"], points),
        "baselines.evolves_per_gradient": per(counts["baselines.gradient_evolves"],
                                              calls["baselines.parameter_shift_gradient"]),
        "stage2.amplify.self_s": self_s["stage2.amplify"],
        "stage2.target_probability.calls": calls["stage2.target_probability"],
        "bench.run_cell.self_s": self_s["bench.run_cell"],
        "bench.write_outputs_s": self_s["bench.write_outputs"],
        "bench.records_bytes": first.records_bytes,
        "graph.with_optimum_s": setup_tracer.self_s["graph.with_optimum"] / SETUP_REPEATS,
        "graph.cut_values_table_s": cut_table_s,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_share": 1.0 - sum(self_s.values()) / traced_wall,
    })
    for layer, seconds in tracer.layer_self_s().items():
        m[f"{layer}.self_s"] = seconds
    return m


def run_workload(name, args, spec, workloads, tracer_mod):
    workload = workloads.WORKLOADS[name]
    if args.smoke:
        workload = workload.smoke()
    cfg = workloads.config(workload)
    setup_tracer = tracer_mod.Tracer()
    if args.trace:
        with setup_tracer:
            instances, build_s, cut_table_s = set_up(workloads, workload, cfg, args.seed)
        import_s = 0.0
    else:
        import_s = import_seconds()
        instances, build_s, cut_table_s = set_up(workloads, workload, cfg, args.seed)

    passes, walls, cpus = [], [], []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out_dir:
        begin = time.perf_counter()
        while True:
            done, wall, cpu = timed_pass(workloads, workload, cfg, args.seed,
                                         instances, out_dir)
            passes.append(done)
            walls.append(wall)
            cpus.append(cpu)
            if args.trace or time.perf_counter() - begin + min(walls) > args.seconds:
                break
        tracer = traced_wall = None
        if args.trace:
            with tracer_mod.Tracer() as tracer:
                done, traced_wall, _ = timed_pass(workloads, workload, cfg,
                                                  args.seed, instances, out_dir)
            passes.append(done)

    first = passes[0]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    # a pass whose records differ from the first (traced or repeated) failed whole
    failed += sum(p.attempted - len(p.failures) for p in passes[1:]
                  if p.digest != first.digest)
    quality = workloads.quality_metrics(cfg, first.records)
    quality["failed_share"] = failed / attempted

    units = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        values = layer_metrics(tracer, setup_tracer, first, traced_wall, walls[0],
                               cut_table_s)
        values.update({k: quality.get(k) or 0.0 for k in
                       ("bo.trials_per_run", "bo.stagnation_share",
                        "estimators.bootstrap_draws", *QUALITY)})
        names = [m["name"] for m in spec["per_layer"]]
    else:
        values = {"setup_s": import_s + build_s, "wall_s": statistics.median(walls),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        names = [m["name"] for m in spec["end_to_end"]]
    metrics = {k: {"value": float(values[k]), "unit": units[k]["unit"]} for k in names}
    # the report keeps None where the workload does not define a shot metric
    shown = {k: {**v, "better": units[k]["better"]} for k, v in metrics.items()}
    shown.update({k: {"value": quality[k], "unit": units[k]["unit"],
                      "better": units[k]["better"]} for k in QUALITY})

    report = {
        "workload": name, "cells": len(workload.cells()), "smoke": args.smoke,
        "trace": args.trace, "seconds": args.seconds,
        "pass_wall_s": walls, "pass_cpu_s": cpus, "traced_wall_s": traced_wall,
        "records_sha256": [p.digest for p in passes],
        "failures": [f for p in passes for f in p.failures],
        "trace_sites": sorted(tracer.sites) if tracer else None,
        "metrics": shown,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its temporary records directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # pinned before numpy is first imported, so BLAS starts single-threaded
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "modeqaoa" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(SRC))
    import tracer as tracer_mod
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    prov = provenance(args.seed)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        report, result = run_workload(name, args, spec, workloads, tracer_mod)
        report["provenance"] = prov
        for key, m in report["metrics"].items():
            print(f"{name:16s} {key:40s} {m['value']!s:>24s} {m['unit']:12s} "
                  f"({m['better']} is better)")
        print(f"{name:16s} records.jsonl sha256 {report['records_sha256'][0]}")
        print(json.dumps({"report": report}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(result if len(names) == 1 else combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
