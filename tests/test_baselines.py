import dataclasses
import inspect

import numpy as np
import pytest

from conftest import swept_rows
from modeqaoa import baselines, bo, shots
from modeqaoa.baselines import (
    GdConfig, _split_shots, fixed_shot_expectation_eval,
    optimize_exp_bo, optimize_exp_gd, parameter_shift_gradient,
)
from modeqaoa.bo import optimize_map_bo
from modeqaoa.graph import MaxCutInstance, assign_weights, random_regular, with_optimum
from modeqaoa.resources import ResourceLedger
from modeqaoa.simulator import (
    QaoaParams, exact_expectation, outcome_distribution,
)
from modeqaoa.stage2 import amplify


def fd_gradient(inst, params, h=1e-6):
    theta = params.to_vector()
    grad = np.zeros_like(theta)
    for k in range(len(theta)):
        up, dn = theta.copy(), theta.copy()
        up[k] += h
        dn[k] -= h
        f_up = exact_expectation(inst, outcome_distribution(
            inst, QaoaParams.from_vector(up)))
        f_dn = exact_expectation(inst, outcome_distribution(
            inst, QaoaParams.from_vector(dn)))
        grad[k] = (f_up - f_dn) / (2 * h)
    return grad


def test_gd_config_validation():
    GdConfig()
    with pytest.raises(ValueError):
        GdConfig(iterations=0)
    # a negative rate descends; Adam's moments are bo's constants
    for rate in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="learning_rate"):
            GdConfig(learning_rate=rate)
    GdConfig(learning_rate=0.0)


@pytest.mark.parametrize("entry", [optimize_map_bo, optimize_exp_gd, amplify])
def test_config_defaults_are_frozen(entry):
    # each config default is one instance shared by every call
    defaults = [p.default for p in inspect.signature(entry).parameters.values()
                if dataclasses.is_dataclass(p.default)]
    assert defaults
    for cfg in defaults:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, dataclasses.fields(cfg)[0].name, None)


def test_exp_gd_refuses_small_budget_before_charging(monkeypatch):
    # 10 shots cannot be split over 12 mixer gates or 18 edge gates
    inst = random_regular(12, 3, seed=0)
    evaluations = []
    evaluate = baselines.fixed_shot_expectation_eval
    monkeypatch.setattr(baselines, "fixed_shot_expectation_eval",
                        lambda *args: evaluations.append(args) or evaluate(*args))
    with pytest.raises(ValueError, match="cannot cover"):
        optimize_exp_gd(inst, 2, 10)
    for exact in (False, True):
        with pytest.raises(ValueError, match="n_fix must be >= 1"):
            optimize_exp_gd(inst, 1, 0, GdConfig(exact_gradient=exact))
    # an edgeless graph is refused for its weight, as the other methods refuse it
    with pytest.raises(ValueError, match="total weight must be positive"):
        optimize_exp_gd(MaxCutInstance.from_edges(4, []), 1, 100)
    assert evaluations == []
    result = optimize_exp_gd(inst, 1, 10, GdConfig(iterations=1, exact_gradient=True),
                             n_final=10)
    assert len(evaluations) == 1
    assert result.ledger.optimization_shots == 10


@pytest.mark.parametrize("method", ["map_bo", "exp_bo", "exp_gd"])
def test_methods_refuse_zero_total_weight_before_any_evaluation(monkeypatch, method):
    # every method's statistics divide by the total weight; exp_bo and exp_gd
    # used to spend their whole budget before failing in finish_run, map_bo
    # failed at its first point
    built = []
    for module in (bo, baselines, shots):
        monkeypatch.setattr(module, "outcome_distribution",
                            lambda *args: built.append(args) or outcome_distribution(*args))
    inst = MaxCutInstance.from_edges(6, [(0, 1, 0.0), (2, 3, 0.0)])
    run = {"map_bo": lambda: optimize_map_bo(inst, 2, t_max=20),
           "exp_bo": lambda: optimize_exp_bo(inst, 2, t_max=20),
           "exp_gd": lambda: optimize_exp_gd(inst, 2, gd_cfg=GdConfig(iterations=5))}[method]
    with pytest.raises(ValueError, match="total weight must be positive"):
        run()
    assert built == []


def test_coordinate_gates_layout(six_reg):
    params = QaoaParams((0.3, 0.5), (0.7, 1.1))
    depth = params.depth
    by_coord = {}
    for kind, layer, index, coeff, _, _ in swept_rows(six_reg, params):
        k = layer + (depth if kind == "gamma" else 0)
        by_coord.setdefault(k, []).append((kind, layer, index, coeff))
    beta_gates = by_coord[0]
    assert [index for _, _, index, _ in beta_gates] == list(range(6))
    assert all(kind == "beta" and layer == 0 and coeff == 1.0
               for kind, layer, _, coeff in beta_gates)
    gamma_gates = by_coord[3]
    assert [index for _, _, index, _ in gamma_gates] == list(range(six_reg.num_edges))
    assert all(kind == "gamma" and layer == 1 for kind, layer, _, _ in gamma_gates)
    assert all(coeff == 0.5 for *_, coeff in gamma_gates)  # unit weights
    # coordinate 4 does not exist at depth 2
    assert sorted(by_coord) == [0, 1, 2, 3]


def test_split_shots():
    assert _split_shots(10, 3) == [4, 3, 3]
    assert _split_shots(9, 3) == [3, 3, 3]
    with pytest.raises(ValueError):
        _split_shots(2, 3)
    with pytest.raises(ValueError, match="no generators"):
        _split_shots(10, 0)


def test_exact_gradient_matches_fd():
    inst = with_optimum(assign_weights(random_regular(6, 3, seed=2),
                                       "uniform", seed=4))
    params = QaoaParams((0.41, 0.77), (1.3, 2.6))
    grad = parameter_shift_gradient(inst, params, None, None, seed=0,
                                    ledger=ResourceLedger())
    want = fd_gradient(inst, params)
    assert np.max(np.abs(grad - want)) < 1e-6


def test_sampled_gradient_approaches_exact():
    inst = with_optimum(random_regular(4, 3, seed=1))
    params = QaoaParams((0.6,), (1.1,))
    exact = parameter_shift_gradient(inst, params, None, None, seed=0,
                                     ledger=ResourceLedger())
    reps = [parameter_shift_gradient(inst, params, 40_000, None, seed=s,
                                     ledger=ResourceLedger()) for s in range(8)]
    err = np.abs(np.mean(reps, axis=0) - exact)
    assert np.max(err) < 0.05


def test_sampled_gradient_ledger_charge():
    inst = with_optimum(random_regular(4, 3, seed=1))
    params = QaoaParams((0.6, 0.2), (1.1, 0.4))
    ledger = ResourceLedger()
    parameter_shift_gradient(inst, params, 800, None, seed=0, ledger=ledger)
    # 2p coordinates, 2 shifted evaluations each, shots split across gates
    assert ledger.optimization_shots == 2 * 4 * 800
    assert ledger.optimization_shots == sum(ledger.per_point_shots)
    assert ledger.classical_cut_ops == ledger.optimization_shots
    # every (gate, sign) pair builds one shifted distribution
    gates_per_layer = inst.n + inst.num_edges
    assert ledger.circuit_evaluations == 2 * 2 * gates_per_layer


def test_fixed_shot_eval_unbiased(six_reg):
    params = QaoaParams((0.5,), (1.2,))
    dist = outcome_distribution(six_reg, params)
    truth = exact_expectation(six_reg, dist)
    ledger = ResourceLedger()
    vals = [fixed_shot_expectation_eval(six_reg, params, 2000, None, s, ledger)[0]
            for s in range(30)]
    assert abs(np.mean(vals) - truth) < 0.1
    assert ledger.optimization_shots == 30 * 2000


def test_exp_bo_runs_and_accounts(six_reg):
    res = optimize_exp_bo(six_reg, depth=2, n_fix=500, t_max=12, seed=5)
    assert all(t.shots_used == 500 for t in res.trials)
    assert all(t.accepted for t in res.trials)
    assert res.ledger.optimization_shots == 500 * len(res.trials)
    assert res.ledger.optimization_shots == sum(res.ledger.per_point_shots)
    assert res.ledger.classical_cut_ops == res.ledger.optimization_shots
    assert res.final_counts.total == 5000
    # objective is the sampled mean, mode fields carry the histogram argmax
    for t in res.trials:
        assert 0.0 <= t.objective <= six_reg.total_weight
        assert 0 <= t.mode < 64


def test_exp_bo_deterministic(six_reg):
    a = optimize_exp_bo(six_reg, depth=1, n_fix=300, t_max=8, seed=2)
    b = optimize_exp_bo(six_reg, depth=1, n_fix=300, t_max=8, seed=2)
    assert [t.objective for t in a.trials] == [t.objective for t in b.trials]
    assert a.final_counts.histogram == b.final_counts.histogram


def test_exp_gd_improves_expectation():
    inst = with_optimum(random_regular(6, 3, seed=3))
    cfg = GdConfig(iterations=30, exact_gradient=True)
    res = optimize_exp_gd(inst, depth=1, n_fix=400, gd_cfg=cfg, seed=1)
    first = res.trials[0].objective
    assert res.best_objective > first
    # exact-gradient mode bills only the base evaluations
    assert res.ledger.optimization_shots == 30 * 400
    assert res.stop_reason == "budget"
    assert len(res.trials) == 30


def test_exp_gd_sampled_accounting():
    inst = with_optimum(random_regular(4, 3, seed=0))
    res = optimize_exp_gd(inst, depth=2, n_fix=200, gd_cfg=GdConfig(iterations=3), seed=0)
    # per iteration: base eval 200 + gradient 2*2p*200 = 200 + 3200
    per_iter = 200 + 2 * 4 * 200
    assert res.ledger.optimization_shots == 3 * per_iter
    assert res.ledger.optimization_shots == sum(res.ledger.per_point_shots)
    assert all(t.shots_used == per_iter for t in res.trials)


def test_exp_gd_deterministic():
    inst = with_optimum(random_regular(4, 3, seed=0))
    cfg = GdConfig(iterations=4)
    a = optimize_exp_gd(inst, depth=1, n_fix=150, gd_cfg=cfg, seed=7)
    b = optimize_exp_gd(inst, depth=1, n_fix=150, gd_cfg=cfg, seed=7)
    assert [t.objective for t in a.trials] == [t.objective for t in b.trials]
    assert a.best_params == b.best_params
