import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from modeqaoa.estimators import (
    Counts, _bootstrap_confidence, compute_stats, dual_gate, expectation_estimate,
    mode_confidence, mode_of, normalized_cut_variance,
)
from conftest import oracle_cut
from modeqaoa.graph import MaxCutInstance, assign_weights, index_to_bits, random_regular
from modeqaoa.simulator import sample


EDGE = MaxCutInstance.from_edges(2, [(0, 1, 1.0)])


def test_counts_validation():
    with pytest.raises(ValueError):
        Counts.from_histogram({"01": 3, "001": 1})
    with pytest.raises(ValueError):
        Counts.from_histogram({"0x": 1})
    with pytest.raises(ValueError):
        Counts.from_histogram({"01": 0})
    for count in (2.0, True, False):
        with pytest.raises(ValueError, match="positive int"):
            Counts.from_histogram({"01": count, "10": 2})
    c = Counts.from_histogram({"01": 2, "10": 3})
    assert c.total == 5 and c.distinct == 2


def test_counts_array_validation():
    with pytest.raises(ValueError):
        Counts(np.zeros(6, dtype=np.int64))  # length not 2^n
    with pytest.raises(ValueError):
        Counts(np.array([3, -1, 0, 2]))
    with pytest.raises(ValueError):
        Counts(np.array([3.0, 1.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        mode_of(Counts(np.zeros(4, dtype=np.int64)))
    c = Counts(np.array([0, 3, 0, 2]))
    assert c.histogram == {"01": 3, "11": 2}
    assert c.by_index.dtype == np.int64 and not c.by_index.flags.writeable


HISTOGRAMS = st.integers(1, 5).flatmap(lambda n: st.dictionaries(
    st.text("01", min_size=n, max_size=n), st.integers(1, 50), min_size=1))


@given(HISTOGRAMS, st.data())
@settings(max_examples=80, deadline=None)
def test_counts_match_dict_oracle(hist, data):
    counts = Counts.from_histogram(hist)
    assert counts.histogram == hist
    assert list(counts.histogram) == sorted(hist)
    assert counts.total == sum(hist.values()) and counts.distinct == len(hist)
    best = max(hist.values())
    assert mode_of(counts) == int(min(k for k, v in hist.items() if v == best), 2)
    n = len(next(iter(hist)))
    other = data.draw(st.dictionaries(st.text("01", min_size=n, max_size=n),
                                      st.integers(1, 50), min_size=1))
    want = {k: hist.get(k, 0) + other.get(k, 0) for k in {*hist, *other}}
    assert counts.merged(Counts.from_histogram(other)).histogram == want


@given(st.integers(1, 6), st.integers(1, 5000), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_sample_total_is_shots(n, shots, seed):
    dist = np.random.default_rng(seed).random(2**n)
    counts = sample(dist / dist.sum(), shots, seed)
    assert counts.total == shots
    assert counts.n == n


def test_counts_merged():
    a = Counts.from_histogram({"00": 1, "01": 2})
    b = Counts.from_histogram({"01": 5, "11": 1})
    m = a.merged(b)
    assert m.histogram == {"00": 1, "01": 7, "11": 1}
    # inputs untouched
    assert a.histogram == {"00": 1, "01": 2}


def test_mode_tie_break():
    assert mode_of(Counts.from_histogram({"10": 4, "01": 4, "11": 1})) == 0b01
    assert mode_of(Counts.from_histogram({"11": 9, "00": 3})) == 0b11
    with pytest.raises(ValueError):
        mode_of(Counts.from_histogram({}))


def test_cut_of_mode(square):
    counts = Counts.from_histogram({"0101": 10, "0000": 9})
    assert mode_of(counts) == 0b0101
    assert compute_stats(square, counts).mode_cut == 4.0
    counts = Counts.from_histogram({"0101": 9, "0000": 10})
    assert mode_of(counts) == 0b0000
    assert compute_stats(square, counts).mode_cut == 0.0


def test_expectation_estimate_weighted_mean(square):
    counts = Counts.from_histogram({"0101": 3, "0001": 1})
    want = (3 * 4.0 + 1 * 2.0) / 4
    assert expectation_estimate(square, counts) == pytest.approx(want)


@given(st.integers(2, 12), st.sampled_from(["unit", "uniform"]), st.integers(0, 2**32),
       st.integers(1, 400))
@settings(max_examples=40, deadline=None)
def test_expectation_estimate_matches_sequential_sum(n, weights, seed, keys):
    # bit for bit against the plain left-to-right Python sum over observed keys
    inst = assign_weights(random_regular(n, 1 if n == 2 else 2 if n % 2 else 3, seed=seed % 97),
                          weights, seed=seed)
    rng = np.random.default_rng(seed)
    by_index = np.zeros(2**n, dtype=np.int64)
    by_index[rng.integers(0, 2**n, size=keys)] = rng.integers(1, 10**6, size=keys)
    counts = Counts(by_index)
    acc = 0.0
    for index in np.flatnonzero(by_index).tolist():
        acc += by_index[index].item() * oracle_cut(inst, index_to_bits(index, n))
    assert expectation_estimate(inst, counts) == acc / counts.total


def test_compute_stats_expectation_equals_expectation_estimate():
    # one mean-cut rule: a run's final expectation and its accuracy times the
    # optimum read the same bits; a dot product differed in the last bits
    inst = assign_weights(random_regular(10, 3, seed=10), "uniform", seed=10)
    for seed in range(20):
        dist = np.random.default_rng(seed).dirichlet(np.full(2**10, 0.05))
        counts = sample(dist, 1200, seed)
        assert (compute_stats(inst, counts).expectation_estimate
                == expectation_estimate(inst, counts))


def test_confidence_single_key_is_one():
    assert mode_confidence(Counts.from_histogram({"0": 7})) == 1.0


def test_confidence_bootstrap_matches_exact_binomial_tail():
    # two-key histogram: resample mode stays '00' iff Bin(100, 0.1) <= 50
    counts = Counts.from_histogram({"00": 90, "11": 10})
    exact = float(sps.binom.cdf(50, 100, 0.1))
    est = mode_confidence(counts, resamples=500, seed=0)
    assert est >= 0.99
    assert abs(est - exact) <= 0.01


def test_confidence_balanced_pair_near_half():
    # exact tie resolves toward the sorted-first key; P(X >= 50), X~Bin(100,.5)
    counts = Counts.from_histogram({"00": 50, "11": 50})
    exact = float(1 - sps.binom.cdf(49, 100, 0.5))  # counts['00'] >= counts['11']
    est = mode_confidence(counts, resamples=4000, seed=1)
    assert abs(est - exact) < 0.03


def test_confidence_deterministic_in_seed():
    counts = Counts.from_histogram({"00": 60, "01": 30, "11": 10})
    a = mode_confidence(counts, resamples=300, seed=9)
    b = mode_confidence(counts, resamples=300, seed=9)
    c = mode_confidence(counts, resamples=300, seed=10)
    assert a == b
    assert 0.0 <= a <= 1.0
    assert a != c or a in (0.0, 1.0)


def test_confidence_rejects_no_resamples():
    with pytest.raises(ValueError):
        mode_confidence(Counts.from_histogram({"0": 1, "1": 1}), resamples=0)


def test_variance_uniform_single_edge_quarter():
    counts = Counts.from_histogram({"00": 25, "01": 25, "10": 25, "11": 25})
    assert normalized_cut_variance(EDGE, counts) == 0.25


def test_variance_point_mass_zero():
    assert normalized_cut_variance(EDGE, Counts.from_histogram({"01": 100})) == 0.0


@given(st.dictionaries(st.integers(0, 15), st.integers(1, 50), min_size=1))
@settings(max_examples=60, deadline=None)
def test_variance_matches_expanded_sample(square_hist):
    counts = Counts.from_histogram({index_to_bits(k, 4): v for k, v in square_hist.items()})
    inst = MaxCutInstance.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0),
                                         (2, 3, 1.0), (0, 3, 1.0)])
    cuts = np.concatenate([
        np.full(v, oracle_cut(inst, k)) for k, v in counts.histogram.items()])
    want = float(np.var(cuts)) / inst.total_weight ** 2
    assert normalized_cut_variance(inst, counts) == pytest.approx(want, abs=1e-12)


@given(st.lists(st.integers(1, 60), min_size=1, max_size=40), st.integers(1, 300),
       st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=200, deadline=None)
def test_floored_bootstrap_matches_full(vals, resamples, seed, data):
    vals = np.array(vals, dtype=np.int64)
    full = _bootstrap_confidence(vals, resamples, seed)
    # floors at and next to the full share hit the boundary exactly
    floor = data.draw(st.one_of(
        st.floats(0.0, 1.0, exclude_min=True),
        st.sampled_from([f for f in (full, np.nextafter(full, 2.0), np.nextafter(full, 0.0))
                         if 0.0 < f <= 1.0] or [1.0])))
    floored = _bootstrap_confidence(vals, resamples, seed, floor=floor)
    if full < floor:
        assert floored is None
    else:
        assert floored == full


def test_compute_stats_gate(six_reg):
    counts = Counts.from_histogram({"000111": 40, "111000": 35, "010101": 15, "000000": 10})
    full = compute_stats(six_reg, counts, resamples=400, seed=3)
    assert full.var_normalized > 0.0
    assert full.passed is None
    # a failed variance gate rejects whatever tau_conf is; a later read of the
    # confidence still gives exactly the ungated value
    failed_var = compute_stats(six_reg, counts, resamples=400, seed=3,
                               gate=(1e-9, full.var_normalized / 2))
    assert failed_var.passed is False
    assert failed_var == full
    assert failed_var.confidence == full.confidence
    # out-of-reach tau_conf rejects; a passing gate keeps the exact confidence
    out_of_reach = compute_stats(six_reg, counts, resamples=400, seed=3,
                                 gate=(full.confidence + 1e-6, 1.0))
    assert out_of_reach.passed is False
    assert out_of_reach == full
    assert out_of_reach.confidence == full.confidence
    passing = compute_stats(six_reg, counts, resamples=400, seed=3,
                            gate=(full.confidence, full.var_normalized))
    assert passing.passed is True
    assert passing == full
    assert passing.confidence == full.confidence
    assert not dual_gate(None, 0.0, 0.5, 0.02)


@given(st.dictionaries(st.integers(0, 15), st.integers(1, 60), min_size=1),
       st.integers(1, 300), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=150, deadline=None)
def test_lazy_confidence_matches_eager(hist, resamples, seed, data):
    square = MaxCutInstance.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0),
                                           (2, 3, 1.0), (0, 3, 1.0)])
    counts = Counts.from_histogram({index_to_bits(k, 4): v for k, v in hist.items()})
    eager = mode_confidence(counts, resamples, seed)
    var = normalized_cut_variance(square, counts)
    # thresholds at and next to the eager values accept and reject points alike
    tau_conf = data.draw(st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.sampled_from(
        [f for f in (eager, np.nextafter(eager, 2.0)) if f <= 1.0])))
    tau_var = data.draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(
        [f for f in (var, np.nextafter(var, 2.0), np.nextafter(var, -1.0)) if f >= 0.0])))
    stats = compute_stats(square, counts, resamples, seed, gate=(tau_conf, tau_var))
    assert stats.passed == dual_gate(eager, var, tau_conf, tau_var)
    assert stats.confidence == eager
    assert compute_stats(square, counts, resamples, seed).confidence == eager


def test_dual_gate_boundaries():
    assert dual_gate(0.90, 0.02, 0.90, 0.02)
    assert not dual_gate(0.8999, 0.02, 0.90, 0.02)
    assert not dual_gate(0.90, 0.0201, 0.90, 0.02)
    assert dual_gate(1.0, 0.0, 0.90, 0.02)


def test_compute_stats_consistent_with_parts(six_reg):
    counts = Counts.from_histogram({"000111": 40, "111000": 35, "010101": 15, "000000": 10})
    stats = compute_stats(six_reg, counts, resamples=400, seed=3)
    assert stats.mode == mode_of(counts) == 0b000111
    assert stats.mode_cut == oracle_cut(six_reg, index_to_bits(stats.mode, 6))
    assert stats.expectation_estimate == pytest.approx(
        expectation_estimate(six_reg, counts))
    assert stats.var_normalized == pytest.approx(
        normalized_cut_variance(six_reg, counts))
    assert stats.confidence == pytest.approx(
        mode_confidence(counts, resamples=400, seed=3))
    assert stats.distinct == 4
