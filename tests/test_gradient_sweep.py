"""The prefix-sharing shift sweep must reproduce per-gate evolution bit for bit."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modeqaoa.baselines import _split_shots, parameter_shift_gradient
from modeqaoa.estimators import expectation_estimate
from modeqaoa.graph import (MaxCutInstance, assign_weights, bits_to_index,
                            cut_values_table, random_regular, with_optimum)
from modeqaoa.resources import ResourceLedger
from modeqaoa.simulator import (
    GateShift, NoiseSpec, QaoaParams, evolve, exact_expectation, gate_coefficient,
    outcome_distribution, sample, shift_rule_gradient, shifted_states,
)
from modeqaoa.stage2 import exact_gradient

PARAMS = {
    1: QaoaParams((0.41,), (1.3,)),
    2: QaoaParams((0.41, 0.77), (1.3, 2.6)),
    # a zero beta exercises the mixer's early return on unshifted gates
    3: QaoaParams((0.41, 0.0, -0.35), (1.3, 2.6, 0.2)),
}


@pytest.fixture
def weighted6():
    return with_optimum(assign_weights(random_regular(6, 3, seed=2), "uniform", seed=4))


def oracle_mixer(amps, n, qubit, beta):
    """Per-qubit in-place exp(-i beta X) on qubit `qubit`, in the usual layout."""
    if beta == 0.0:
        return
    c = np.cos(beta)
    s = np.sin(beta)
    view = amps.reshape(2**qubit, 2, -1)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = c * a0 - 1j * s * a1
    view[:, 1, :] = c * a1 - 1j * s * a0


def oracle_evolve(instance, params, shift=None):
    """Layer-by-layer evolution with the per-qubit mixer and a full edge phase."""
    n = instance.n
    cuts = cut_values_table(instance)
    amps = np.full(2**n, 2.0 ** (-n / 2), dtype=complex)
    for layer in range(params.depth):
        amps = amps * np.exp(-1j * params.gammas[layer] * cuts)
        if shift is not None and shift.kind == "gamma" and shift.layer == layer:
            u, v, _ = instance.edges[shift.index]
            idx = np.arange(2**n, dtype=np.int64)
            indicator = (((idx >> (n - 1 - u)) ^ (idx >> (n - 1 - v))) & 1).astype(float)
            amps = amps * np.exp(-1j * shift.angle * indicator)
        for q in range(n):
            beta = params.betas[layer]
            if shift is not None and shift.kind == "beta" \
                    and shift.layer == layer and shift.index == q:
                beta = beta + shift.angle / 2.0
            oracle_mixer(amps, n, q, beta)
    return amps


def assert_same_bits(got, want):
    # compared as integers, so a flipped signed zero counts as a difference
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_kernel_matches_oracle(instance, params):
    assert_same_bits(evolve(instance, params), oracle_evolve(instance, params))
    for shift, _, state in shifted_states(instance, params):
        assert_same_bits(state, oracle_evolve(instance, params, shift))


def _regular(n, weights):
    degree = 1 if n == 2 else 2 if n % 2 else 3
    return assign_weights(random_regular(n, degree, seed=n), weights, seed=n)


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
        grad[k] += gate_coefficient(instance, kind, index) * (values[0] - values[1])
    return grad


def oracle_target_gradient(instance, params, target, noise):
    grad = np.zeros(2 * params.depth)
    for k, kind, layer, index in _gates(instance, params.depth):
        plus, minus = (
            float(outcome_distribution(instance, params, noise,
                                       shift=GateShift(kind, layer, index, a))
                  [bits_to_index(target)])
            for a in (np.pi / 2, -np.pi / 2))
        grad[k] += gate_coefficient(instance, kind, index) * (plus - minus)
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
        assert coeff == gate_coefficient(weighted6, shift.kind, shift.index)
        assert np.array_equal(state, evolve(weighted6, params, shift))


@pytest.mark.parametrize("weights", ["unit", "uniform"])
@pytest.mark.parametrize("n", range(2, 13))
def test_kernel_matches_per_qubit_oracle(n, weights):
    instance = _regular(n, weights)
    for params in PARAMS.values():
        assert_kernel_matches_oracle(instance, params)


_ANGLE = st.sampled_from([0.0, -0.0, np.pi / 4, -np.pi / 4]) | st.floats(-4.0, 4.0)


@given(st.integers(1, 3).flatmap(lambda p: st.tuples(
    st.lists(_ANGLE, min_size=p, max_size=p), st.lists(_ANGLE, min_size=p, max_size=p))))
@settings(max_examples=30, deadline=None)
def test_kernel_matches_per_qubit_oracle_any_angles(angles):
    # beta = -pi/4 turns the - shift of its mixers into the zero-angle copy
    betas, gammas = angles
    assert_kernel_matches_oracle(_regular(5, "uniform"), QaoaParams(tuple(betas), tuple(gammas)))


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
    with pytest.raises(ValueError, match=r"n=25.*512 MiB.*keeps 4 of them \(2048 MiB\)"):
        evolve(inst, params)
    with pytest.raises(ValueError, match=r"n=25.*512 MiB.*keeps 15 of them \(7680 MiB\)"):
        next(shifted_states(inst, params))


@pytest.mark.parametrize("depth", [1, 2])
def test_size_message_counts_peak_states(depth):
    # the counts in the size message are the measured peak of state-sized
    # arrays; at n = 14 numpy's ufunc buffer adds half a state at most
    inst = _regular(14, "uniform")
    params = PARAMS[depth]
    state_bytes = 2**14 * 16
    # fill the cut-table and edge-indicator caches, which the counts leave out
    shift_rule_gradient(inst, params, lambda shift, state: 0.0)
    for count, run in ((4, lambda: evolve(inst, params)),
                       (2 * depth + 11,
                        lambda: shift_rule_gradient(inst, params, lambda shift, state: 0.0))):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1] / state_bytes
        finally:
            tracemalloc.stop()
        assert count <= peak < count + 1
