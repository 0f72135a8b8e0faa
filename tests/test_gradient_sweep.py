"""The prefix-sharing shift sweep must reproduce per-gate evolution bit for bit."""
import numpy as np
import pytest

from modeqaoa.baselines import _split_shots, parameter_shift_gradient
from modeqaoa.estimators import expectation_estimate
from modeqaoa.graph import (MaxCutInstance, assign_weights, bits_to_index,
                            random_regular, with_optimum)
from modeqaoa.resources import ResourceLedger
from modeqaoa.simulator import (
    GateShift, NoiseSpec, QaoaParams, evolve, exact_expectation,
    outcome_distribution, sample, shifted_states,
)
from modeqaoa.stage2 import _gate_coefficient, exact_gradient

PARAMS = {
    1: QaoaParams((0.41,), (1.3,)),
    2: QaoaParams((0.41, 0.77), (1.3, 2.6)),
    # a zero beta exercises the mixer's early return on unshifted gates
    3: QaoaParams((0.41, 0.0, -0.35), (1.3, 2.6, 0.2)),
}


@pytest.fixture
def weighted6():
    return with_optimum(assign_weights(random_regular(6, 3, seed=2), "uniform", seed=4))


def _gates(instance, depth):
    """Per-gate oracle of the sweep order: coordinate, gate, then + before -."""
    for k in range(2 * depth):
        kind, layer = ("beta", k) if k < depth else ("gamma", k - depth)
        count = instance.n if kind == "beta" else instance.num_edges
        for index in range(count):
            yield k, kind, layer, index


def oracle_parameter_shift(instance, params, shots, noise, seed, ledger):
    """Parameter-shift gradient from one full evolution per gate and sign."""
    grad = np.zeros(2 * params.depth)
    ss = np.random.SeedSequence(seed)
    for k, kind, layer, index in _gates(instance, params.depth):
        count = instance.n if kind == "beta" else instance.num_edges
        part = None if shots is None else _split_shots(shots, count)[index]
        values = []
        for sign in (1.0, -1.0):
            gs = GateShift(kind, layer, index, sign * np.pi / 2.0)
            dist = outcome_distribution(instance, params, noise, shift=gs)
            ledger.circuit_evaluations += 1
            if part is None:
                values.append(exact_expectation(instance, dist))
            else:
                child = int(ss.spawn(1)[0].generate_state(1)[0])
                counts = sample(dist, part, child)
                ledger.optimization_shots += part
                ledger.classical_count_ops += part
                ledger.classical_cut_ops += part
                ledger.record_point(part, counts.distinct)
                values.append(expectation_estimate(instance, counts))
        grad[k] += _gate_coefficient(instance, kind, index) * (values[0] - values[1])
    return grad


def oracle_target_gradient(instance, params, target, noise):
    grad = np.zeros(2 * params.depth)
    for k, kind, layer, index in _gates(instance, params.depth):
        plus, minus = (
            float(outcome_distribution(instance, params, noise,
                                       shift=GateShift(kind, layer, index, a))
                  [bits_to_index(target)])
            for a in (np.pi / 2, -np.pi / 2))
        grad[k] += _gate_coefficient(instance, kind, index) * (plus - minus)
    return grad


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_swept_states_equal_evolve(weighted6, depth):
    params = PARAMS[depth]
    swept = list(shifted_states(weighted6, params))
    want = [(kind, layer, index, sign * np.pi / 2.0)
            for _, kind, layer, index in _gates(weighted6, depth)
            for sign in (1.0, -1.0)]
    assert [(s.kind, s.layer, s.index, s.angle) for s, _, _ in swept] == want
    for shift, coeff, state in swept:
        assert coeff == _gate_coefficient(weighted6, shift.kind, shift.index)
        assert np.array_equal(state, evolve(weighted6, params, shift))


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("shots", [None, 600])
@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_parameter_shift_gradient_matches_oracle(weighted6, depth, shots, lam):
    params = PARAMS[depth]
    noise = NoiseSpec.for_circuit(lam, weighted6, depth)
    got_ledger, want_ledger = ResourceLedger(), ResourceLedger()
    got = parameter_shift_gradient(weighted6, params, shots, noise, 11, got_ledger)
    want = oracle_parameter_shift(weighted6, params, shots, noise, 11, want_ledger)
    assert got.tobytes() == want.tobytes()
    assert got_ledger == want_ledger


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_exact_target_gradient_matches_oracle(weighted6, depth, lam):
    params = PARAMS[depth]
    noise = NoiseSpec.for_circuit(lam, weighted6, depth)
    target = weighted6.optimum[0]
    got = exact_gradient(weighted6, params, target, noise)
    want = oracle_target_gradient(weighted6, params, target, noise)
    assert got.tobytes() == want.tobytes()


def test_size_check_precedes_allocation():
    # one edge keeps the instance itself tiny; the check must fire before the
    # 2^25-entry cut table or any state is built
    inst = MaxCutInstance.from_edges(25, [(0, 1, 1.0)])
    params = QaoaParams((0.1, 0.2), (0.3, 0.4))
    with pytest.raises(ValueError, match=r"n=25.*512 MiB.*keeps 1 of them"):
        evolve(inst, params)
    with pytest.raises(ValueError, match=r"n=25.*512 MiB.*keeps 6 of them \(3072 MiB\)"):
        next(shifted_states(inst, params))
