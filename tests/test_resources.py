import json

import numpy as np
import pytest

from modeqaoa.bo import Trial, optimize_map_bo
from modeqaoa.estimators import Counts
from modeqaoa.graph import MaxCutInstance, with_optimum
from modeqaoa.resources import (
    ResourceLedger, aux_accuracies, build_report,
    final_mode_accuracy, saving_ratios, shots_to_threshold,
)
from modeqaoa.simulator import QaoaParams


def synthetic_trial(i, y, shots=100):
    return Trial(index=i, params=QaoaParams((0.1,), (0.2,)), objective=y,
                 shots_used=shots, mode=0b0101, mode_cut=y)


def test_ledger_totals_and_averages():
    ledger = ResourceLedger()
    assert ledger.total_shots == 0
    assert ledger.avg_point_shots is None
    assert ledger.avg_distinct is None
    ledger.optimization_shots = 300
    ledger.final_eval_shots = 50
    ledger.stage2_shots = 20
    ledger.record_point(100, 4)
    ledger.record_point(200, 6)
    assert ledger.total_shots == 370
    assert ledger.avg_point_shots == 150.0
    assert ledger.avg_distinct == 5.0


def test_ledger_to_dict_serializable():
    ledger = ResourceLedger(optimization_shots=5)
    ledger.record_point(5, 1)
    d = ledger.to_dict()
    assert d["total_shots"] == 5
    json.dumps(d)


def test_shots_to_threshold_running_max(square):
    trials = [synthetic_trial(1, 2.0), synthetic_trial(2, 1.0),
              synthetic_trial(3, 4.0), synthetic_trial(4, 3.0)]
    # optimum is 4; threshold 0.5 crosses at trial 1, 1.0 at trial 3
    assert shots_to_threshold(trials, square, 0.5) == 100
    assert shots_to_threshold(trials, square, 0.9) == 300
    assert shots_to_threshold(trials, square, 1.0) == 300
    assert shots_to_threshold(trials, square, 1.01) is None
    assert shots_to_threshold([], square, 0.5) is None


def test_final_mode_accuracy(square):
    res = optimize_map_bo(square, depth=1, t_max=15, seed=0)
    acc = final_mode_accuracy(square, res.final_eval)
    assert acc == res.final_eval.mode_cut / 4.0


def test_aux_accuracies(square):
    counts = Counts.from_histogram({"0101": 1, "0001": 1})
    exp_acc, best_acc = aux_accuracies(square, counts)
    assert exp_acc == pytest.approx((4.0 + 2.0) / 2 / 4.0)
    assert best_acc == 1.0
    counts = Counts.from_histogram({"0000": 3})
    exp_acc, best_acc = aux_accuracies(square, counts)
    assert exp_acc == 0.0 and best_acc == 0.0


def test_saving_ratios_formulas():
    exp = ResourceLedger(optimization_shots=40 * 1000)
    for _ in range(40):
        exp.record_point(1000, 30)
    adp = ResourceLedger(optimization_shots=30 * 600)
    for _ in range(30):
        adp.record_point(600, 12)
    s_q, s_cl = saving_ratios(exp, 40, adp, 30, num_edges=9,
                              bootstrap_resamples=200)
    assert s_q == pytest.approx((40 * 1000) / (30 * 600), abs=1e-12)
    want_cl = (40 * 1000 * 9) / (30 * 600 + 30 * 12 * 9 + 200 * 30 * 12)
    assert s_cl == pytest.approx(want_cl, abs=1e-12)


def test_saving_ratios_validation():
    empty = ResourceLedger()
    filled = ResourceLedger(optimization_shots=100)
    filled.record_point(100, 5)
    with pytest.raises(ValueError):
        saving_ratios(filled, 0, filled, 1, 5, 200)
    with pytest.raises(ValueError):
        saving_ratios(filled, 1, empty, 1, 5, 200)


def test_build_report_roundtrip(square):
    res = optimize_map_bo(square, depth=1, t_max=15, seed=4)
    report = build_report(square, res, threshold=0.8)
    data = json.loads(json.dumps(report))
    assert data == report
    assert list(data) == ["final_mode_accuracy", "final_expectation_accuracy",
                          "final_best_sample_accuracy", "total_shots",
                          "shots_to_threshold"]
    assert 0.0 <= data["final_mode_accuracy"] <= 1.0
    assert data["total_shots"] == res.ledger.total_shots


def test_threshold_requires_positive_optimum():
    inst = with_optimum(MaxCutInstance.from_edges(2, [(0, 1, 0.0)]))
    with pytest.raises(ValueError):
        shots_to_threshold([synthetic_trial(1, 1.0)], inst, 0.5)
    with pytest.raises(ValueError):
        final_mode_accuracy(inst, None)
