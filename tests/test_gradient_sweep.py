"""The generator-row shift sweep must reproduce per-gate evolution.

Shifted distributions come from the identity p+- = (|a|^2 + |b|^2)/2 +-
Im(conj(a) b), not from the shifted states, so they match the per-gate
oracle to rounding (1e-15 absolute) rather than bit for bit."""
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import oracle_evolve
from modeqaoa import baselines, simulator
from modeqaoa.baselines import _split_shots, parameter_shift_gradient
from modeqaoa.estimators import Counts, expectation_estimate
from modeqaoa.graph import (MaxCutInstance, assign_weights, cut_values_table,
                            random_regular, with_optimum)
from modeqaoa.resources import ResourceLedger
from modeqaoa.simulator import (
    GATE_KINDS, GateShift, NoiseSpec, QaoaParams, TargetReader, apply_depolarizing,
    distribution, evolve, exact_expectation, gate_coefficient, gate_count, sample_indices,
    shift_rule_gradient, shifted_states,
)
from modeqaoa.stage2 import AmplifyConfig, amplify, exact_gradient

PARAMS = {
    1: QaoaParams((0.41,), (1.3,)),
    2: QaoaParams((0.41, 0.77), (1.3, 2.6)),
    # a zero beta exercises the mixer's early return on unshifted gates
    3: QaoaParams((0.41, 0.0, -0.35), (1.3, 2.6, 0.2)),
}


@pytest.fixture
def weighted6():
    return with_optimum(assign_weights(random_regular(6, 3, seed=2), "uniform", seed=4))


def assert_same_bits(got, want):
    # compared as integers, so a flipped signed zero counts as a difference
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_close_to_oracle(got, instance, params, shift):
    want = distribution(oracle_evolve(instance, params, shift))
    assert np.max(np.abs(got - want)) <= 1e-15


def _shifts(kind, layer, index):
    """The oracle's +pi/2 and -pi/2 shift of one gate."""
    return [GateShift(kind, layer, index, sign * np.pi / 2.0) for sign in (1.0, -1.0)]


def assert_kernel_matches_oracle(instance, params):
    assert_same_bits(evolve(instance, params), oracle_evolve(instance, params))
    for kind, layer, index, _, plus, minus in shifted_states(instance, params):
        for shift, probs in zip(_shifts(kind, layer, index), (plus, minus)):
            assert_close_to_oracle(probs, instance, params, shift)


def _regular(n, weights):
    degree = 1 if n == 2 else 2 if n % 2 else 3
    return assign_weights(random_regular(n, degree, seed=n), weights, seed=n)


def _gates(instance, depth):
    """Per-gate oracle of the sweep order: coordinate, then gate."""
    for k in range(2 * depth):
        kind, layer = ("beta", k) if k < depth else ("gamma", k - depth)
        count = instance.n if kind == "beta" else instance.num_edges
        for index in range(count):
            yield k, kind, layer, index


def oracle_parameter_shift(instance, params, shots, noise, seed, ledger):
    """Parameter-shift gradient from one full evolution per gate and sign."""
    grad = np.zeros(2 * params.depth)
    rng = np.random.default_rng(seed)
    for k, kind, layer, index in _gates(instance, params.depth):
        count = instance.n if kind == "beta" else instance.num_edges
        part = None if shots is None else _split_shots(shots, count)[index]
        values = []
        for gs in _shifts(kind, layer, index):
            dist = apply_depolarizing(distribution(oracle_evolve(instance, params, gs)), noise)
            ledger.circuit_evaluations += 1
            if part is None:
                values.append(exact_expectation(instance, dist))
            else:
                idx = sample_indices(dist, part, rng)
                ledger.optimization_shots += part
                ledger.classical_count_ops += part
                ledger.classical_cut_ops += part
                ledger.record_point(part, np.unique(idx).size)
                values.append(float(cut_values_table(instance)[idx].mean()))
        grad[k] += gate_coefficient(instance, kind, index) * (values[0] - values[1])
    return grad


def oracle_target_gradient(instance, params, target, noise):
    grad = np.zeros(2 * params.depth)
    for k, kind, layer, index in _gates(instance, params.depth):
        plus, minus = (
            float(apply_depolarizing(distribution(oracle_evolve(instance, params, gs)),
                                     noise)[target])
            for gs in _shifts(kind, layer, index))
        grad[k] += gate_coefficient(instance, kind, index) * (plus - minus)
    return grad


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_swept_states_equal_evolve(weighted6, depth):
    params = PARAMS[depth]
    swept = list(shifted_states(weighted6, params))
    want = [(kind, layer, index) for _, kind, layer, index in _gates(weighted6, depth)]
    assert [gate[:3] for gate in swept] == want
    for kind, layer, index, coeff, plus, minus in swept:
        assert coeff == gate_coefficient(weighted6, kind, index)
        for shift, probs in zip(_shifts(kind, layer, index), (plus, minus)):
            assert_close_to_oracle(probs, weighted6, params, shift)


def assert_target_reads_rows(instance, params, kind, layer, index, rows):
    """A fresh reader's read at every target is the rows' bin there, to rounding."""
    for target in range(2**instance.n):
        got = TargetReader(instance, target, params.depth).read(params, kind, layer, index)
        assert type(got[0]) is type(got[1]) is float
        assert max(abs(p - row[target]) for p, row in zip(got, rows)) <= 1e-15


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_target_read_equals_sweep_and_oracle(weighted6, depth):
    params = PARAMS[depth]
    for kind, layer, index, _, plus, minus in shifted_states(weighted6, params):
        assert_target_reads_rows(weighted6, params, kind, layer, index, (plus, minus))
        oracle = [distribution(oracle_evolve(weighted6, params, shift))
                  for shift in _shifts(kind, layer, index)]
        assert_target_reads_rows(weighted6, params, kind, layer, index, oracle)
    for kind, layer, index in [("delta", 0, 0), ("beta", depth, 0), ("beta", -1, 0),
                               ("beta", 0, weighted6.n), ("gamma", 0, weighted6.num_edges),
                               ("gamma", 0, -1)]:
        with pytest.raises(ValueError):
            TargetReader(weighted6, 0, depth).read(params, kind, layer, index)
    for target in (-1, 2**weighted6.n):
        with pytest.raises(ValueError, match="outside"):
            TargetReader(weighted6, target, depth)
    # a reader serves the one depth it was built for
    with pytest.raises(ValueError, match="depth"):
        TargetReader(weighted6, 0, depth + 1).read(params, "beta", 0, 0)
    with pytest.raises(ValueError, match="depth"):
        TargetReader(weighted6, 0, depth + 1).probability(params)


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


@st.composite
def _circuits(draw):
    """An instance on 2-9 vertices with at least one vertex-0 edge, unit or
    uniform weights, and angles of depth 1-3."""
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = {(0, draw(st.integers(1, n - 1)))}
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    instance = assign_weights(MaxCutInstance.from_edges(n, [(u, v, 1.0) for u, v in edges]),
                              draw(st.sampled_from(["unit", "uniform"])), seed=n)
    betas = draw(st.lists(_ANGLE, min_size=1, max_size=3))
    gammas = draw(st.lists(_ANGLE, min_size=len(betas), max_size=len(betas)))
    return instance, QaoaParams(tuple(betas), tuple(gammas))


@given(_circuits())
@example((MaxCutInstance.from_edges(2, [(0, 1, 1.0)]), QaoaParams((0.41,), (1.3,))))
@settings(max_examples=30, deadline=None)
def test_half_space_is_exact(circuit):
    # the simulator evolves first halves only: the full state must still be
    # the per-qubit oracle's to the bit, the rows (a vertex-0 edge's included)
    # the oracle's to rounding, and every returned vector its own mirror
    instance, params = circuit
    assert_kernel_matches_oracle(instance, params)
    state = evolve(instance, params)
    assert state.tobytes() == state[::-1].tobytes()
    for *_, plus, minus in shifted_states(instance, params):
        for row in (plus, minus):
            assert row.tobytes() == row[::-1].tobytes()


@given(_circuits())
@example((MaxCutInstance.from_edges(2, [(0, 1, 1.0)]), QaoaParams((0.41,), (1.3,))))
@settings(max_examples=15, deadline=None)
def test_target_read_equals_rows(circuit):
    # the adjoint read (the later layers run backwards from the target, the
    # last one's mixers in closed form) is the rows' bin at every target; the
    # first and last gate of each kind and layer are read, and edges are
    # sorted, so gamma gate 0 is a vertex-0 edge
    instance, params = circuit
    for kind, layer, index, _, plus, minus in shifted_states(instance, params):
        if index in (0, gate_count(instance, kind) - 1):
            assert_target_reads_rows(instance, params, kind, layer, index, (plus, minus))


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("shots", [None, 600])
@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_parameter_shift_gradient_matches_oracle(weighted6, depth, shots, lam):
    params = PARAMS[depth]
    noise = NoiseSpec.for_circuit(lam, weighted6, depth)
    got_ledger, want_ledger = ResourceLedger(), ResourceLedger()
    got = parameter_shift_gradient(weighted6, params, shots, noise, 11, got_ledger)
    want = oracle_parameter_shift(weighted6, params, shots, noise, 11, want_ledger)
    if shots is None:
        assert np.max(np.abs(got - want)) <= 1e-13
    else:
        # the draws do not move under rounding-level changes of the distribution
        assert got.tobytes() == want.tobytes()
    assert got_ledger == want_ledger


@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_sampled_gate_value_equals_histogram_estimate(weighted6, monkeypatch, lam):
    # each gate's mean over its drawn indices is expectation_estimate of their
    # histogram, and the ledger's distinct count is that histogram's
    drawn = []

    def recorded(dist, shots, rng):
        drawn.append(sample_indices(dist, shots, rng))
        return drawn[-1]

    monkeypatch.setattr(baselines, "sample_indices", recorded)
    params = PARAMS[2]
    ledger = ResourceLedger()
    got = parameter_shift_gradient(weighted6, params, 600,
                                   NoiseSpec.for_circuit(lam, weighted6, 2), 5, ledger)
    counts = [Counts(np.bincount(idx, minlength=2 ** weighted6.n)) for idx in drawn]
    assert ledger.distinct_counts == [c.distinct for c in counts]
    values = iter([expectation_estimate(weighted6, c) for c in counts])
    want = shift_rule_gradient(weighted6, params, lambda kind, index, probs: next(values))
    assert next(values, None) is None
    assert np.max(np.abs(got - want)) <= 1e-12


def test_sampled_gradient_is_unbiased():
    inst = with_optimum(assign_weights(random_regular(4, 3, seed=1), "uniform", seed=2))
    params = PARAMS[2]
    exact = parameter_shift_gradient(inst, params, None, None, 0, ResourceLedger())
    grads = np.array([parameter_shift_gradient(inst, params, 120, None, seed,
                                               ResourceLedger())
                      for seed in range(200)])
    stderr = grads.std(axis=0, ddof=1) / np.sqrt(len(grads))
    assert np.all(np.abs(grads.mean(axis=0) - exact) <= 4 * stderr)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_exact_target_gradient_matches_oracle(weighted6, depth, lam):
    params = PARAMS[depth]
    noise = NoiseSpec.for_circuit(lam, weighted6, depth)
    target = weighted6.optimum[0]
    got = exact_gradient(weighted6, params, target, noise)
    want = oracle_target_gradient(weighted6, params, target, noise)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_size_check_precedes_allocation():
    # one edge keeps the instance itself tiny; the check must fire before the
    # 2^25-entry cut table or any state is built
    inst = MaxCutInstance.from_edges(25, [(0, 1, 1.0)])
    params = QaoaParams((0.1, 0.2), (0.3, 0.4))
    with pytest.raises(ValueError, match=r"n=25.*512 MiB.*keeps 2 of them \(1024 MiB\)"):
        evolve(inst, params)
    with pytest.raises(ValueError, match=r"n=25.*512 MiB.*keeps 4 of them \(2048 MiB\)"):
        next(shifted_states(inst, params))
    # a target read's refusal allocates nothing: not a tenth of a 2^14 state
    assert _peak_states(lambda: pytest.raises(
        ValueError, TargetReader, inst, 2**25 - 1, params.depth)) < 0.1
    with pytest.raises(ValueError, match=r"n=25.*512 MiB.*keeps 3 of them \(1536 MiB\)"):
        TargetReader(inst, 2**25 - 1, params.depth)


def _peak_states(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / (2**14 * 16)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_size_message_counts_peak_states(depth):
    # the counts in the size message are the measured peak in full states,
    # rounded down (numpy's ufunc buffer adds a little at n = 14)
    inst = _regular(14, "uniform")
    params = PARAMS[depth]
    # fill the cut-table cache, which the counts leave out
    shift_rule_gradient(inst, params, lambda *_: 0.0)
    runs = [(2, lambda: evolve(inst, params)),
            (depth + 2, lambda: shift_rule_gradient(inst, params, lambda *_: 0.0))]
    for count, run in runs:
        assert count <= _peak_states(run) < count + 1
    # a one-shot read keeps the forward states up to its layer and the target
    # rows back down to it, and peaks at its last mixer run or at its
    # generator row; negating this edge's uncut blocks adds a ufunc buffer
    for layer, kind in product(range(depth), ("beta", "gamma")):
        count = ONE_SHOT_READ_PEAKS[depth][layer][kind == "gamma"]
        peak = _peak_states(lambda: TargetReader(inst, 5, depth).read(params, kind, layer, 1))
        assert count <= peak < count + 1
    # a reader's message names what it keeps at the worst: every state and
    # row, less the one it rebuilds after a step, plus that rebuild's mixer
    with pytest.raises(ValueError, match=f"a target reader keeps {depth + 1} of them"):
        TargetReader(MaxCutInstance.from_edges(25, [(0, 1, 1.0)]), 0, depth)
    peaks = []
    for k, layer, kind in product(range(2 * depth), range(depth), ("beta", "gamma")):
        theta = params.to_vector()
        theta[k] += 0.1
        tracemalloc.start()
        try:
            reader = TargetReader(inst, 5, depth)
            for filled in range(depth):
                reader.read(params, "beta", filled, 1)
            tracemalloc.reset_peak()
            reader.read(QaoaParams.from_vector(theta), kind, layer, 1)
            peaks.append(tracemalloc.get_traced_memory()[1] / (2**14 * 16))
        finally:
            tracemalloc.stop()
    assert depth + 1 <= max(peaks) < depth + 2


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_amplify_peaks_below_reader_bound(depth):
    # a sampled run keeps its reader's states and no more: its trace entries
    # are read from them, with no evolve and no 2^n distribution on top
    inst = _regular(14, "uniform")
    cut_values_table(inst)  # the cached table, which the counts leave out
    cfg = AmplifyConfig(steps=30)
    peak = _peak_states(lambda: amplify(inst, PARAMS[depth], 5, cfg, seed=depth))
    assert peak < depth + 2


# measured at n = 14, by depth, then layer: (beta read, gamma read)
ONE_SHOT_READ_PEAKS = {1: [(1, 2)], 2: [(3, 3), (2, 2)], 3: [(3, 3), (2, 3), (2, 3)]}


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_read_runs_depth_minus_one_mixer_layers(weighted6, depth, monkeypatch):
    # a fresh read of any gate runs the layers before it forwards and the rest
    # but the last backwards; a reader at unchanged angles runs none
    passes, apply_mixer = [], simulator._apply_mixer

    def counting(amps, c, js):
        passes.append(amps.shape)
        return apply_mixer(amps, c, js)

    monkeypatch.setattr(simulator, "_apply_mixer", counting)
    params = PARAMS[depth]
    for _, kind, layer, index in _gates(weighted6, depth):
        passes.clear()
        TargetReader(weighted6, 5, depth).read(params, kind, layer, index)
        assert len(passes) == (depth - 1) * weighted6.n
    reader = TargetReader(weighted6, 5, depth)
    for _, kind, layer, index in _gates(weighted6, depth):
        reader.read(params, kind, layer, index)
    passes.clear()
    for _, kind, layer, index in _gates(weighted6, depth):
        reader.read(QaoaParams(params.betas, params.gammas), kind, layer, index)
    assert passes == []


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("weights", ["unit", "uniform"])
def test_reused_reads_equal_fresh_reads(depth, weights):
    # over seeded single-coordinate steps, some to 0.0 or -0.0 (one rotation,
    # so a reader keeps what either built), a reader's every read equals a
    # fresh one to the bit; edge 0 is a vertex-0 edge and PARAMS[3] has a
    # zero beta
    instance = _regular(7, weights)
    assert instance.edges[0][0] == 0
    rng = np.random.default_rng(depth)
    theta = PARAMS[depth].to_vector()
    target = int(rng.integers(2**instance.n))
    reader = TargetReader(instance, target, depth)
    for step in range(60):
        k = int(rng.integers(theta.size))
        theta[k] = (0.0, -0.0, theta[k] + 0.05 * rng.standard_normal())[step % 3]
        params = QaoaParams.from_vector(theta)
        for _ in range(2):
            kind = GATE_KINDS[int(rng.integers(2))]
            layer = int(rng.integers(depth))
            index = int(rng.integers(gate_count(instance, kind)))
            got = reader.read(params, kind, layer, index)
            want = TargetReader(instance, target, depth).read(params, kind, layer, index)
            assert np.array(got).tobytes() == np.array(want).tobytes()
