"""Smoke tests of the benchmark itself, at one n = 6 instance per lambda.

Run from the repository root: python3 -m pytest perfbench
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REGISTERED = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9_.-]+")
DETERMINISTIC = ("failed_share", "mode_accuracy_mean", "s_q", "s_cl",
                 "shots_to_threshold_p50", "target_prob_gain_mean")
# where each caller looks the name up; a wrapper on the defining module misses them
IMPORT_SITES = {
    f"{site}.{name}"
    for names, sites in [
        (("outcome_distribution", "sample"), ("shots", "bo", "baselines", "stage2")),
        (("compute_stats",), ("shots", "bo", "baselines")),
        (("expectation_estimate",), ("baselines", "resources")),
        (("evaluate_point",), ("bo",)),
        (("build_report", "amplify", "with_optimum"), ("bench",)),
        (("evolve",), ("simulator",)),
        (("suggest",), ("bo",)),
        (("amplify", "randomized_shift_gradient", "target_probability"), ("stage2",)),
    ]
    for name in names for site in sites
}


def run(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def parsed(workload, trace):
    out = run(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def runs(request):
    """One untraced and two traced smoke runs of a workload."""
    return [parsed(request.param, trace) for trace in (0, 1, 1)]


def test_printed_metric_names_are_registered(runs):
    for report, result in runs:
        for name in [*report["metrics"], *result["metrics"]]:
            assert NAME.fullmatch(name) and name in REGISTERED, name
        for name, metric in result["metrics"].items():
            assert metric["unit"] == REGISTERED[name]["unit"]
    (_, plain), (_, traced), _ = runs
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_traced_records_match_untraced(runs):
    (plain_report, plain), (report, traced), _ = runs
    untraced_digest, traced_digest = report["records_sha256"]
    assert traced_digest == untraced_digest == plain_report["records_sha256"][0]
    assert plain["correct"] and traced["correct"]
    assert plain["failed"] == traced["failed"] == 0
    assert IMPORT_SITES <= set(report["trace_sites"])


def test_deterministic_metrics_repeat(runs):
    (plain_report, _), (report, traced), (again_report, again) = runs
    for name in DETERMINISTIC:
        values = {r["metrics"][name]["value"] for r in (plain_report, report, again_report)}
        assert len(values) == 1, name
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in ("count", "B", "shots", "ratio", "probability")
              and m["name"] != "trace.unattributed_share"]
    for name in counts:
        assert traced["metrics"][name]["value"] == again["metrics"][name]["value"], name


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run("mode_vs_mean", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert out.stdout == ""
