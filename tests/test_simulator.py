import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from modeqaoa.estimators import Counts
from modeqaoa.graph import (
    assign_weights, cut_values_table, random_regular, with_optimum,
)
from modeqaoa.simulator import (
    MAX_QUBITS, NoiseSpec, QaoaParams, TargetReader, apply_depolarizing, distribution,
    evolve, exact_expectation, gate_count, outcome_distribution, sample, sample_indices,
    shifted_states,
)


def kron_oracle(inst, params):
    """Dense-matrix reference: build each layer from explicit kron products."""
    n = inst.n
    dim = 2 ** n
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    I2 = np.eye(2)
    state = np.full(dim, 1 / np.sqrt(dim), dtype=complex)
    cuts = cut_values_table(inst)
    for beta, gamma in zip(params.betas, params.gammas):
        state = np.exp(-1j * gamma * cuts) * state
        for q in range(n):
            ops = [I2] * n
            ops[q] = X
            full = ops[0]
            for op in ops[1:]:
                full = np.kron(full, op)
            gate = np.cos(beta) * np.eye(dim) - 1j * np.sin(beta) * full
            state = gate @ state
    return state


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_evolve_matches_kron_oracle(seed):
    inst = assign_weights(random_regular(4, 3, seed=seed), "uniform", seed=seed)
    rng = np.random.default_rng(seed)
    params = QaoaParams(tuple(rng.uniform(0, np.pi, 2)),
                        tuple(rng.uniform(0, 2 * np.pi, 2)))
    got = evolve(inst, params)
    want = kron_oracle(inst, params)
    assert np.max(np.abs(got - want)) < 1e-12


def test_zero_params_uniform(six_reg):
    params = QaoaParams((0.0, 0.0), (0.0, 0.0))
    dist = distribution(evolve(six_reg, params))
    assert np.max(np.abs(dist - 1 / 64)) < 1e-14


def test_zero_beta_uniform_magnitudes(six_reg):
    # the phase layer alone cannot move probability
    params = QaoaParams((0.0,), (1.3,))
    dist = distribution(evolve(six_reg, params))
    assert np.max(np.abs(dist - 1 / 64)) < 1e-14


@given(st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_bit_flip_symmetry(seed):
    inst = assign_weights(random_regular(6, 3, seed=seed % 7), "uniform", seed=seed % 5)
    rng = np.random.default_rng(seed)
    params = QaoaParams(tuple(rng.uniform(0, np.pi, 2)),
                        tuple(rng.uniform(0, 2 * np.pi, 2)))
    dist = distribution(evolve(inst, params))
    assert np.max(np.abs(dist - dist[::-1])) < 1e-12


@given(st.integers(0, 2 ** 31), st.sampled_from([4, 6, 8]), st.integers(1, 3),
       st.sampled_from(["unit", "uniform"]), st.sampled_from([0.0, 0.01]))
@settings(max_examples=40, deadline=None)
def test_outcome_distribution_complement_symmetry(seed, n, depth, weights, lam):
    # flipping every bit leaves each cut, and so the whole circuit, unchanged
    inst = assign_weights(random_regular(n, 3, seed=seed % 11), weights, seed=seed % 5)
    rng = np.random.default_rng(seed)
    params = QaoaParams(tuple(rng.uniform(-np.pi, np.pi, depth)),
                        tuple(rng.uniform(-2 * np.pi, 2 * np.pi, depth)))
    noise = NoiseSpec.for_circuit(lam, inst, depth)
    dist = outcome_distribution(inst, params, noise)
    complement = dist[2**n - 1 - np.arange(2**n)]
    assert np.max(np.abs(dist - complement)) < 1e-13


def test_distribution_normalized(six_reg):
    params = QaoaParams((0.7,), (2.1,))
    dist = distribution(evolve(six_reg, params))
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(dist >= 0)


def plus_row(inst, params, kind, layer, index):
    """One gate's +pi/2 shifted distribution from the shift sweep."""
    return next(plus for k, l, i, _, plus, _ in shifted_states(inst, params)
                if (k, l, i) == (kind, layer, index))


def test_gate_shift_matches_manual_beta(square):
    # a mixer-gate shift of +pi/2 in gate angle is +pi/4 on that qubit's beta
    params = QaoaParams((0.4,), (1.1,))
    shifted = plus_row(square, params, "beta", layer=0, index=2)

    n = square.n
    dim = 2 ** n
    cuts = cut_values_table(square)
    state = np.full(dim, 1 / np.sqrt(dim), dtype=complex)
    state = np.exp(-1j * 1.1 * cuts) * state
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    I2 = np.eye(2)
    for q in range(n):
        beta = 0.4 + (np.pi / 4 if q == 2 else 0.0)
        ops = [I2] * n
        ops[q] = X
        full = ops[0]
        for op in ops[1:]:
            full = np.kron(full, op)
        state = (np.cos(beta) * np.eye(dim) - 1j * np.sin(beta) * full) @ state
    want = np.abs(state) ** 2
    assert np.max(np.abs(shifted - want)) < 1e-12
    for t in range(dim):
        assert abs(TargetReader(square, t, 1).read(params, "beta", 0, 2)[0] - want[t]) < 1e-12


def test_gate_shift_matches_manual_gamma(square):
    # an edge-gate shift multiplies in a phase on the cut indicator of that edge
    params = QaoaParams((0.4,), (1.1,))
    shifted = plus_row(square, params, "gamma", layer=0, index=1)

    u, v, _ = square.edges[1]
    dim = 2 ** square.n
    idx = np.arange(dim)
    ind = ((idx >> (square.n - 1 - u)) ^ (idx >> (square.n - 1 - v))) & 1
    cuts = cut_values_table(square)
    state = np.full(dim, 1 / np.sqrt(dim), dtype=complex)
    state = np.exp(-1j * 1.1 * cuts) * np.exp(-1j * (np.pi / 4) * (2 * ind - 1)) * state
    # exp(-i (delta/2) Z_u Z_v) with Z_u Z_v = 1 - 2*indicator, delta = pi/2
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    I2 = np.eye(2)
    for q in range(square.n):
        ops = [I2] * square.n
        ops[q] = X
        full = ops[0]
        for op in ops[1:]:
            full = np.kron(full, op)
        state = (np.cos(0.4) * np.eye(dim) - 1j * np.sin(0.4) * full) @ state
    want = np.abs(state) ** 2
    assert np.max(np.abs(shifted - want)) < 1e-12
    for t in range(dim):
        assert abs(TargetReader(square, t, 1).read(params, "gamma", 0, 1)[0] - want[t]) < 1e-12


def test_depolarizing_mixes_toward_uniform():
    dist = np.array([0.7, 0.1, 0.1, 0.1])
    noise = NoiseSpec(lambda_per_gate=0.01, gate_count=30)
    out = apply_depolarizing(dist, noise)
    lam = noise.effective_mixing
    assert 0 < lam < 1
    assert np.allclose(out, (1 - lam) * dist + lam / 4)
    assert out.sum() == pytest.approx(1.0)
    assert apply_depolarizing(dist, None) is dist


def test_noise_spec_for_circuit(six_reg):
    spec = NoiseSpec.for_circuit(0.005, six_reg, depth=2)
    assert spec.gate_count == 2 * (six_reg.num_edges + six_reg.n)
    assert spec.effective_mixing == pytest.approx(
        1 - (1 - 0.005) ** spec.gate_count)


def test_gate_count_per_kind(six_reg):
    assert gate_count(six_reg, "beta") == 6
    assert gate_count(six_reg, "gamma") == six_reg.num_edges == 9
    with pytest.raises(ValueError, match="unknown gate kind"):
        gate_count(six_reg, "delta")
    with pytest.raises(ValueError):
        TargetReader(six_reg, 0, 1).read(QaoaParams((0.3,), (0.7,)), "delta", 0, 0)


def test_effective_mixing_monotone(six_reg):
    mixes = [NoiseSpec.for_circuit(lam, six_reg, depth=2).effective_mixing
             for lam in (0.001, 0.005, 0.01)]
    assert mixes == sorted(mixes)


def test_sample_deterministic_and_counted(six_reg):
    dist = outcome_distribution(six_reg, QaoaParams((0.3, 0.9), (0.8, 2.2)))
    a = sample(dist, 500, seed=11)
    b = sample(dist, 500, seed=11)
    assert a.histogram == b.histogram
    assert a.total == 500
    assert all(len(k) == 6 for k in a.histogram)


def test_sample_owns_the_drawn_vector(six_reg):
    # sample wraps the multinomial's own vector; the checked constructor's copy
    # of the same draw must read the same
    dist = outcome_distribution(six_reg, QaoaParams((0.3, 0.9), (0.8, 2.2)))
    got = sample(dist, 500, seed=11)
    vector = np.random.default_rng(11).multinomial(500, dist / dist.sum())
    want = Counts(vector.copy())
    assert type(got) is Counts
    assert got.by_index.dtype == np.int64 and not got.by_index.flags.writeable
    assert np.array_equal(got.by_index, want.by_index)
    with pytest.raises(ValueError):
        got.by_index[0] = 1


def test_sample_frequencies_converge(six_reg):
    dist = outcome_distribution(six_reg, QaoaParams((0.3,), (0.8,)))
    counts = sample(dist, 200_000, seed=3)
    freqs = np.zeros(64)
    for bits, c in counts.histogram.items():
        freqs[int(bits, 2)] = c / counts.total
    # 5 sigma on the largest-probability cell
    k = int(np.argmax(dist))
    sigma = np.sqrt(dist[k] * (1 - dist[k]) / 200_000)
    assert abs(freqs[k] - dist[k]) < 5 * sigma + 1e-9


# 16 bins with zeros inside and at the last bin, where a uniform rounded up to
# the total would land
ZERO_BINS = (0, 5, 6, 15)
SIXTEEN = np.array([0.0 if i in ZERO_BINS else 1.0 + (i % 3) for i in range(16)])
SIXTEEN /= SIXTEEN.sum()


def test_sample_indices_chi_square_fit():
    idx = sample_indices(SIXTEEN, 20_000, np.random.default_rng(7))
    observed = np.bincount(idx, minlength=16)
    assert not observed[list(ZERO_BINS)].any()
    live = SIXTEEN > 0
    expected = SIXTEEN[live] * idx.size
    assert sps.chisquare(observed[live], expected).pvalue > 1e-3


def test_sample_indices_sorted_in_range_and_repeatable():
    idx = sample_indices(SIXTEEN, 500, np.random.default_rng(3))
    again = sample_indices(SIXTEEN, 500, np.random.default_rng(3))
    assert idx.size == 500 and np.array_equal(idx, again)
    assert np.all(np.diff(idx) >= 0)
    assert 0 <= idx[0] and idx[-1] < 16
    for shots in (0, -1):
        with pytest.raises(ValueError):
            sample_indices(SIXTEEN, shots, np.random.default_rng(3))


@given(st.integers(0, 2 ** 31), st.integers(1, 8), st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_sample_indices_never_draw_a_zero_bin(seed, n, shots):
    rng = np.random.default_rng(seed)
    # unnormalised weights, most bins zero; at least one bin stays positive
    dist = rng.random(2 ** n) * (rng.random(2 ** n) < 0.3)
    dist[rng.integers(2 ** n)] += rng.random() + 1e-300
    idx = sample_indices(dist, shots, rng)
    assert idx.size == shots
    assert 0 <= idx.min() and idx.max() < 2 ** n
    assert np.all(dist[idx] > 0)


class _EdgeUniforms:
    """A generator stub whose uniforms are the two ends of [0, 1)."""

    def random(self, size):
        return np.resize([1.0 - 2.0 ** -53, 0.0], size)


def test_sample_indices_edge_uniforms_land_on_live_bins():
    # 0 must not pick a leading zero bin, nor the largest uniform run past the
    # last live bin, whatever the total
    for total in (1.0, 3.0, 1.0 + 2.0 ** -52, 0.7):
        idx = sample_indices(SIXTEEN * total, 4, _EdgeUniforms())
        assert list(idx) == [1, 1, 14, 14]


def test_exact_expectation_half_weight_at_zero(six_reg):
    dist = outcome_distribution(six_reg, QaoaParams((0.0,), (0.0,)))
    assert exact_expectation(six_reg, dist) == pytest.approx(
        six_reg.total_weight / 2, abs=1e-12)


def test_qubit_cap():
    inst = random_regular(MAX_QUBITS + 1, 2, seed=0)
    with pytest.raises(ValueError):
        evolve(inst, QaoaParams((0.1,), (0.1,)))


def test_params_vector_roundtrip():
    p = QaoaParams((0.1, 0.2), (1.0, 2.0))
    v = p.to_vector()
    assert np.allclose(v, [0.1, 0.2, 1.0, 2.0])
    back = QaoaParams.from_vector(v)
    assert back == p
    assert p.depth == 2
