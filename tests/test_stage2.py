import math

import numpy as np
import pytest

from conftest import oracle_evolve
from modeqaoa.graph import bits_to_index, brute_force_optimum, random_regular, with_optimum
from modeqaoa.resources import ResourceLedger
from modeqaoa.simulator import (
    GateShift, QaoaParams, distribution, gate_coefficient, outcome_distribution,
)
from modeqaoa.stage2 import (
    AmplifyConfig, amplify, exact_gradient, randomized_shift_gradient,
    target_probability,
)


@pytest.fixture
def small():
    return with_optimum(random_regular(4, 3, seed=5))


def test_config_validation():
    AmplifyConfig()
    with pytest.raises(ValueError):
        AmplifyConfig(steps=-1)
    with pytest.raises(ValueError):
        AmplifyConfig(shots_per_shift=0)
    with pytest.raises(ValueError):
        AmplifyConfig(reeval_period=0)


def test_target_probability_exact(small):
    params = QaoaParams((0.5,), (1.0,))
    dist = outcome_distribution(small, params)
    bits, _ = brute_force_optimum(small)
    assert target_probability(small, params, bits) == pytest.approx(
        float(dist[int(bits, 2)]))
    with pytest.raises(ValueError):
        target_probability(small, params, "01")


def test_target_probability_sampled_converges(small):
    params = QaoaParams((0.5,), (1.0,))
    bits, _ = brute_force_optimum(small)
    truth = target_probability(small, params, bits)
    est = target_probability(small, params, bits, shots=100_000, seed=0)
    sigma = math.sqrt(truth * (1 - truth) / 100_000)
    assert abs(est - truth) < 5 * sigma + 1e-9


def test_exact_gradient_matches_fd(small):
    params = QaoaParams((0.6,), (1.3,))
    bits, _ = brute_force_optimum(small)
    grad = exact_gradient(small, params, bits)
    h = 1e-6
    theta = params.to_vector()
    for k in range(len(theta)):
        up, dn = theta.copy(), theta.copy()
        up[k] += h
        dn[k] -= h
        fd = (target_probability(small, QaoaParams.from_vector(up), bits)
              - target_probability(small, QaoaParams.from_vector(dn), bits)) / (2 * h)
        assert grad[k] == pytest.approx(fd, abs=1e-6)


def test_randomized_estimator_enumeration_average(small):
    # averaging the estimator over every (coordinate, gate) draw, weighted by
    # the uniform pick probabilities, reproduces the exact gradient exactly
    params = QaoaParams((0.6,), (1.3,))
    bits, _ = brute_force_optimum(small)
    exact = exact_gradient(small, params, bits)
    depth = params.depth

    def probability(kind, layer, index, angle):
        state = oracle_evolve(small, params, GateShift(kind, layer, index, angle))
        return float(distribution(state)[bits_to_index(bits)])

    avg = np.zeros(2 * depth)
    for k in range(2 * depth):
        if k < depth:
            kind, layer, g_k = "beta", k, small.n
        else:
            kind, layer, g_k = "gamma", k - depth, small.num_edges
        acc = 0.0
        for index in range(g_k):
            coeff = gate_coefficient(small, kind, index)
            plus = probability(kind, layer, index, np.pi / 2)
            minus = probability(kind, layer, index, -np.pi / 2)
            acc += (1.0 / g_k) * g_k * coeff * (plus - minus)
        avg[k] = acc
    assert np.max(np.abs(avg - exact)) < 1e-12


def test_randomized_gradient_checks_target_and_charges_ledger(small):
    params = QaoaParams((0.6,), (1.3,))
    bits, _ = brute_force_optimum(small)
    ledger = ResourceLedger()
    with pytest.raises(ValueError, match="target length"):
        randomized_shift_gradient(small, params, bits + "0", AmplifyConfig(), None, 0, ledger)
    assert ledger == ResourceLedger()
    randomized_shift_gradient(small, params, bits, AmplifyConfig(use_exact=True), None, 0,
                              ledger)
    assert (ledger.circuit_evaluations, ledger.stage2_shots) == (2, 0)
    randomized_shift_gradient(small, params, bits, AmplifyConfig(shots_per_shift=30), None, 0,
                              ledger)
    assert (ledger.circuit_evaluations, ledger.stage2_shots) == (4, 60)


def test_randomized_estimator_sampled_mean(small):
    params = QaoaParams((0.6,), (1.3,))
    bits, _ = brute_force_optimum(small)
    exact = exact_gradient(small, params, bits)
    cfg = AmplifyConfig(use_exact=True)
    sums = np.zeros(2)
    hits = np.zeros(2)
    for s in range(400):
        k, est = randomized_shift_gradient(small, params, bits, cfg, None,
                                           seed=s, ledger=ResourceLedger())
        sums[k] += est
        hits[k] += 1
    means = sums / np.maximum(hits, 1)
    # Monte Carlo over gate choice only (exact evals): loose bound
    assert np.max(np.abs(means - exact)) < 0.15


def test_amplify_increases_target_probability(small):
    bits, _ = brute_force_optimum(small)
    params = QaoaParams((0.4,), (0.9,))
    cfg = AmplifyConfig(steps=120, use_exact=True, learning_rate=0.05)
    out_params, trace = amplify(small, params, bits, cfg, seed=1)
    assert trace[-1] > trace[0]
    final = target_probability(small, out_params, bits)
    assert final > target_probability(small, params, bits)


def test_amplify_trace_layout_and_ledger(small):
    bits, _ = brute_force_optimum(small)
    params = QaoaParams((0.4,), (0.9,))
    cfg = AmplifyConfig(steps=25, reeval_period=10, shots_per_shift=50)
    ledger = ResourceLedger()
    _, trace = amplify(small, params, bits, cfg, seed=2, ledger=ledger)
    # initial exact entry + re-evals at steps 10, 20, 25
    assert len(trace) == 1 + math.ceil(25 / 10)
    assert ledger.stage2_shots == 2 * 25 * 50 + math.ceil(25 / 10) * 50
    assert all(0.0 <= p <= 1.0 for p in trace)


def test_amplify_zero_steps(small):
    bits, _ = brute_force_optimum(small)
    params = QaoaParams((0.4,), (0.9,))
    out_params, trace = amplify(small, params, bits,
                                AmplifyConfig(steps=0), seed=0)
    assert out_params == params
    assert len(trace) == 1


def test_amplify_deterministic(small):
    bits, _ = brute_force_optimum(small)
    params = QaoaParams((0.4,), (0.9,))
    cfg = AmplifyConfig(steps=20, shots_per_shift=80)
    a = amplify(small, params, bits, cfg, seed=3)
    b = amplify(small, params, bits, cfg, seed=3)
    assert a[0] == b[0]
    assert a[1] == b[1]
