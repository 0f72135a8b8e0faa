import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from conftest import generator_row, mix_passes, sample_indices, swept_rows
from modeqaoa import simulator
from modeqaoa.estimators import Counts
from modeqaoa.graph import (
    assign_weights, complete_graph, cut_values_table, random_regular, with_optimum,
)
from modeqaoa.simulator import (
    MAX_QUBITS, NoiseSpec, QaoaParams, TargetReader, apply_depolarizing, depolarize,
    distribution, evolve, exact_expectation, gate_count, outcome_distribution, sample,
    sample_halves,
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
    return next(plus for k, l, i, _, plus, _ in swept_rows(inst, params)
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


@given(st.integers(0, 2 ** 31), st.integers(1, 14), st.sampled_from([0.0, 1e-12, 0.01, 1.0]),
       st.sampled_from([0, 1, 7, 30, 96, 400]))
@settings(max_examples=80, deadline=None)
def test_depolarize_keeps_each_inline_forms_bits(seed, n, lam, gates):
    # the four inline forms the channel replaced, kept as references: a pmf
    # renormalized, a CDF in place, a Python-float read and the slope
    rng = np.random.default_rng(seed)
    size, noise = 2 ** n, NoiseSpec(lam, gates)
    mixing = noise.effective_mixing
    dist = rng.random(size)
    dist /= dist.sum()
    halves = np.cumsum(rng.random((3, size // 2)), axis=-1)
    p = float(rng.random())
    if lam == 0.0:
        want_pmf, want_cdf, want_p, want_slope = dist, halves.copy(), p, 1.0
    else:
        want_pmf = (1.0 - mixing) * dist + mixing / size
        want_pmf = want_pmf / want_pmf.sum()
        want_cdf = halves.copy()
        want_cdf *= 1.0 - mixing
        want_cdf += np.arange(1, size // 2 + 1) * (mixing / size)
        want_p, want_slope = (1.0 - mixing) * p + mixing / 2**n, 1.0 - mixing
    assert apply_depolarizing(dist, noise).tobytes() == want_pmf.tobytes()
    cdf = depolarize(noise, halves, np.arange(1, size // 2 + 1) / size, out=halves)
    assert cdf is halves and cdf.tobytes() == want_cdf.tobytes()
    got_p = depolarize(noise, p, 2.0 ** -n)
    assert type(got_p) is float and got_p.hex() == want_p.hex()
    slope = depolarize(noise, 1.0, 0.0)
    assert type(slope) is float and slope.hex() == want_slope.hex()
    # no noise and a zero rate are one case: the input object itself
    for quiet in (None, NoiseSpec(0.0, gates)):
        assert apply_depolarizing(dist, quiet) is dist
        for value, out in ((dist, None), (halves, halves), (p, None)):
            assert depolarize(quiet, value, 0.5, out=out) is value


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


# a flip-symmetric 16-bin row, kept as its first half: zero bins at both ends
# of the half and inside it, so the full row's first and last bins are zero,
# where 0 and a uniform rounded up to the total would land
HALF_ZEROS = (0, 3, 7)
EIGHT = np.array([0.0 if i in HALF_ZEROS else 1.0 + (i % 3) for i in range(8)])
EIGHT /= 2 * EIGHT.sum()
SIXTEEN = np.concatenate([EIGHT, EIGHT[::-1]])


def _draw(halves, shots, noise, rng):
    """sample_halves on a copy of `halves`, one index array per row."""
    runs = sample_halves(np.array(halves, ndmin=2), shots, noise, rng)
    return [row for run in runs for row in run]


def test_sample_indices_chi_square_fit():
    # the half-row sampler's draws fit the mirrored row, depolarized when L > 0
    for mixing in (0.0, 0.3):
        (idx,) = _draw(EIGHT, [20_000], NoiseSpec(mixing, 1), np.random.default_rng(7))
        dist = (1 - mixing) * SIXTEEN + mixing / 16
        observed = np.bincount(idx, minlength=16)
        assert not observed[dist == 0].any()
        live = dist > 0
        expected = dist[live] * idx.size
        assert sps.chisquare(observed[live], expected).pvalue > 1e-3


def test_sample_indices_sorted_in_range_and_repeatable():
    shots = [500, 500, 7, 500]
    rows = _draw([EIGHT] * 4, shots, None, np.random.default_rng(3))
    again = _draw([EIGHT] * 4, shots, None, np.random.default_rng(3))
    assert [idx.size for idx in rows] == shots
    for idx, same in zip(rows, again):
        assert np.array_equal(idx, same)
        assert np.all(np.diff(idx) >= 0)
        assert 0 <= idx[0] and idx[-1] < 16
    for bad in (0, -1):
        with pytest.raises(ValueError):
            _draw([EIGHT] * 2, [5, bad], None, np.random.default_rng(3))


@given(st.integers(0, 2 ** 31), st.integers(1, 8), st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_sample_indices_never_draw_a_zero_bin(seed, n, shots):
    rng = np.random.default_rng(seed)
    # unnormalised half rows, most bins zero; at least one bin stays positive
    halves = rng.random((2, 2 ** (n - 1))) * (rng.random((2, 2 ** (n - 1))) < 0.3)
    halves[:, rng.integers(2 ** (n - 1))] += rng.random() + 1e-300
    full = np.concatenate([halves, halves[:, ::-1]], axis=1)
    rows = _draw(halves, [shots, 1 + shots // 2], None, rng)
    for row, idx in zip(full, rows):
        assert 0 <= idx.min() and idx.max() < 2 ** n
        assert np.all(row[idx] > 0)
    assert [idx.size for idx in rows] == [shots, 1 + shots // 2]


class _EdgeUniforms:
    """A generator stub whose uniforms are the two ends of [0, 1)."""

    def random(self, size):
        return np.resize([1.0 - 2.0 ** -53, 0.0], size)


def test_sample_indices_edge_uniforms_land_on_live_bins():
    # 0 must not pick a leading zero bin, nor the largest uniform run past the
    # last live bin, whatever the total; with noise every bin is live
    for total in (1.0, 3.0, 1.0 + 2.0 ** -52, 0.7):
        (idx,) = _draw(EIGHT * total, [4], None, _EdgeUniforms())
        assert list(idx) == [1, 1, 14, 14]
        (idx,) = _draw(EIGHT * total, [4], NoiseSpec(0.01, 1), _EdgeUniforms())
        assert list(idx) == [0, 0, 15, 15]


@given(st.integers(0, 2 ** 31), st.integers(1, 8), st.sampled_from([0.0, 0.01]),
       st.lists(st.integers(1, 120), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_sample_halves_equal_full_row_reference(seed, n, mixing, shots):
    # from the same generator state, row after row, the half-row sampler
    # draws exactly the full-row reference's indices on each mirrored,
    # depolarized row; rows of unequal shots and zero bins included
    rng = np.random.default_rng(seed)
    half = 2 ** (n - 1)
    halves = rng.random((len(shots), half)) * (rng.random((len(shots), half)) < 0.6)
    halves[np.arange(len(shots)), rng.integers(half, size=len(shots))] += 0.5
    halves /= 2 * halves.sum(axis=1, keepdims=True)
    noise = NoiseSpec(mixing, 1)
    state = rng.bit_generator.state
    got = _draw(halves, shots, noise, rng)
    rng.bit_generator.state = state
    want = [sample_indices(apply_depolarizing(np.concatenate([row, row[::-1]]), noise),
                           count, rng) for row, count in zip(halves, shots)]
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert np.array_equal(got_row, want_row)


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


PHASE_GAMMAS = (0.0, -0.0, 1e-300, *np.random.default_rng(5).uniform(-7.0, 7.0, 4))


@pytest.mark.parametrize("weights", ["unit", "uniform"])
@pytest.mark.parametrize("n", [4, 6, 10, 12, 16])
def test_level_phases_equal_per_index_phases(n, weights):
    # one exp per distinct cut value gives the per-index exp's bits, signed
    # zeros included, in evolve's phases and in both directions of a reader
    inst = assign_weights(random_regular(n, 3, seed=n), weights, seed=n)
    cuts = cut_values_table(inst)[: 2 ** (n - 1)]
    for got, gamma in zip(simulator._phases(inst, PHASE_GAMMAS), PHASE_GAMMAS):
        assert got.tobytes() == np.exp(-1j * gamma * cuts).tobytes()
    reader = TargetReader(inst, 3, 2)
    for gamma in PHASE_GAMMAS:
        params = QaoaParams((0.3, -0.8), (gamma, gamma))
        reader.read(params, "beta", 0, 0)  # builds s_0, s_1, w_1 and w_0
        s0, s1, w0, w1 = reader._state(0), reader._state(1), reader._row(0), reader._row(1)
        assert s0.tobytes() == (2.0 ** (-n / 2) * np.exp(-1j * gamma * cuts)).tobytes()
        assert s1.tobytes() == (simulator._mix(s0, 0.3)
                                * np.exp(-1j * gamma * cuts)).tobytes()
        assert w0.tobytes() == simulator._mix(w1 * np.exp(1j * gamma * cuts), -0.3).tobytes()


MIX_BETAS = st.one_of(st.sampled_from([0.0, -0.0, np.pi]), st.floats(-7.0, 7.0))


def _half_rows(seed, n, rows):
    # a half state (rows None) or a stack of half rows of n qubits
    shape = (2 ** (n - 1),) if rows is None else (rows, 2 ** (n - 1))
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@given(st.integers(0, 2 ** 31), st.integers(2, 11), st.sampled_from([None, 1, 3]),
       MIX_BETAS, st.booleans())
@settings(max_examples=80, deadline=None)
def test_mix_equals_reference_passes(seed, n, rows, beta, in_place):
    # half rows of 2..1024 amplitudes (a graph has at least 2 vertices); in
    # place at beta = +-0 is where a pass could read a row it already wrote
    amps = _half_rows(seed, n, rows)
    want = mix_passes(amps, beta)
    out = amps if in_place else None
    got = simulator._mix(amps, beta, out=out)
    assert got.tobytes() == want.tobytes()
    assert (got is amps) == in_place


@given(st.integers(0, 2 ** 31), st.integers(2, 11), st.sampled_from([None, 1, 3]),
       st.lists(MIX_BETAS, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_run_equals_reference_layers(seed, n, rows, betas):
    # each layer: the cost phase, then n reference passes; _run works in place
    amps = _half_rows(seed, n, rows)
    rng = np.random.default_rng(seed + 1)
    phases = [np.exp(1j * rng.uniform(-7.0, 7.0, 2 ** (n - 1))) for _ in betas]
    want = amps
    for beta, phase in zip(betas, phases):
        want = mix_passes(want * phase, beta)
    got = simulator._run(amps, iter(phases), tuple(betas))
    assert got is amps
    assert got.tobytes() == want.tobytes()


@given(st.integers(0, 2 ** 31), st.integers(2, 10), st.sampled_from(["beta", "gamma"]),
       st.one_of(st.sampled_from([0.0, -0.0, np.pi / 4, np.pi / 2]), st.floats(-7.0, 7.0)))
@settings(max_examples=60, deadline=None)
def test_generator_rows_equal_reference_rows(seed, n, kind, beta):
    # a stack's rows, built in place, have the bits of one fresh row per gate;
    # complete graphs put edges on qubit 0 and on neighbouring qubits
    inst = complete_graph(n)
    after = _half_rows(seed, n, None)
    gates = range(gate_count(inst, kind))
    got = simulator._generator_rows(inst, kind, gates, beta, after)
    want = np.stack([generator_row(inst, kind, index, beta, after) for index in gates])
    assert got.tobytes() == want.tobytes()
