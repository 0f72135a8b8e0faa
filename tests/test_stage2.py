import math

import numpy as np
import pytest

from conftest import oracle_evolve, swept_rows
from modeqaoa import simulator, stage2
from modeqaoa.graph import (
    MaxCutInstance, assign_weights, brute_force_optimum, random_regular, with_optimum,
)
from modeqaoa.resources import ResourceLedger
from modeqaoa.simulator import (
    GATE_KINDS, GateShift, NoiseSpec, QaoaParams, TargetReader, apply_depolarizing,
    distribution, gate_coefficient, gate_count, outcome_distribution,
)
from modeqaoa.stage2 import (
    AmplifyConfig, _read_target, amplify, exact_gradient, randomized_shift_gradient,
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
    # a negative rate descends and a NaN or infinite one would poison every
    # angle; Adam's moments are bo's constants
    for rate in (-0.05, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            AmplifyConfig(learning_rate=rate)


def test_target_probability_exact(small):
    params = QaoaParams((0.5,), (1.0,))
    dist = outcome_distribution(small, params)
    target, _ = brute_force_optimum(small)
    assert target_probability(small, params, target) == pytest.approx(float(dist[target]))
    with pytest.raises(ValueError):
        target_probability(small, params, 2 ** small.n)


@pytest.mark.parametrize("shots", [None, 10])
def test_read_target_rejects_out_of_range_index(shots):
    # a negative index would otherwise read the distribution from its end
    dist = np.full(16, 1 / 16)
    for target in (-1, 16):
        with pytest.raises(ValueError, match="outside"):
            _read_target(dist, target, shots, seed=0)
    assert _read_target(dist, 15) == 1 / 16


def test_sampled_read_needs_a_seed(small):
    # a sampled read from OS entropy could not be reproduced
    params = QaoaParams((0.5,), (1.0,))
    with pytest.raises(ValueError, match="seed"):
        _read_target(np.full(16, 1 / 16), 3, 10)
    with pytest.raises(ValueError, match="seed"):
        target_probability(small, params, 3, shots=10)
    with pytest.raises(ValueError, match="shots"):
        _read_target(np.full(16, 1 / 16), 3, 0, seed=0)


def test_read_target_sampled_mean():
    # the binomial read has the law of the multinomial histogram's bin,
    # at p(target) / sum(dist) for an unnormalized dist
    dist = np.array([0.5, 1.5, 0.25, 0.75])
    p, shots, draws = 1.5 / 3.0, 40, 2000
    rng = np.random.default_rng(11)
    reads = [_read_target(dist, 1, shots, rng) for _ in range(draws)]
    assert all(0.0 <= r <= 1.0 and (r * shots).is_integer() for r in reads)
    sigma = math.sqrt(p * (1 - p) / (shots * draws))
    assert abs(np.mean(reads) - p) < 5 * sigma


def test_target_probability_sampled_converges(small):
    params = QaoaParams((0.5,), (1.0,))
    target, _ = brute_force_optimum(small)
    truth = target_probability(small, params, target)
    est = target_probability(small, params, target, shots=100_000, seed=0)
    sigma = math.sqrt(truth * (1 - truth) / 100_000)
    assert abs(est - truth) < 5 * sigma + 1e-9


def test_exact_gradient_matches_fd(small):
    params = QaoaParams((0.6,), (1.3,))
    target, _ = brute_force_optimum(small)
    grad = exact_gradient(small, params, target)
    h = 1e-6
    theta = params.to_vector()
    for k in range(len(theta)):
        up, dn = theta.copy(), theta.copy()
        up[k] += h
        dn[k] -= h
        fd = (target_probability(small, QaoaParams.from_vector(up), target)
              - target_probability(small, QaoaParams.from_vector(dn), target)) / (2 * h)
        assert grad[k] == pytest.approx(fd, abs=1e-6)


def test_randomized_estimator_enumeration_average(small):
    # averaging the estimator over every (coordinate, gate) draw, weighted by
    # the uniform pick probabilities, reproduces the exact gradient exactly
    params = QaoaParams((0.6,), (1.3,))
    target, _ = brute_force_optimum(small)
    exact = exact_gradient(small, params, target)
    depth = params.depth

    def probability(kind, layer, index, angle):
        state = oracle_evolve(small, params, GateShift(kind, layer, index, angle))
        return float(distribution(state)[target])

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


def test_randomized_gradient_checks_target_and_charges_ledger(small, monkeypatch):
    params = QaoaParams((0.6,), (1.3,))
    target, _ = brute_force_optimum(small)
    ledger = ResourceLedger()
    # refused before any state is made or anything is charged: every read,
    # a run's or a one-shot one, goes through TargetReader.read
    monkeypatch.setattr(TargetReader, "read", None)
    for bad_target in (-1, 2 ** small.n):
        with pytest.raises(ValueError, match="outside"):
            TargetReader(small, bad_target, params.depth)
    reader = TargetReader(small, target, params.depth)
    with pytest.raises(ValueError, match="seed"):
        randomized_shift_gradient(reader, params, 200, None, None, ledger)
    with pytest.raises(ValueError, match="shots"):
        randomized_shift_gradient(reader, params, 0, None, 0, ledger)
    assert ledger == ResourceLedger()
    monkeypatch.undo()
    randomized_shift_gradient(reader, params, None, None, 0, ledger)
    assert (ledger.circuit_evaluations, ledger.stage2_shots) == (2, 0)
    randomized_shift_gradient(reader, params, 30, None, 0, ledger)
    assert (ledger.circuit_evaluations, ledger.stage2_shots) == (4, 60)


def full_row_estimate(instance, params, target, shots, noise, rng):
    """randomized_shift_gradient's estimate from the gate's full shifted rows:
    the gate picked from `rng` alike, each row depolarized and read by
    _read_target from `rng`."""
    depth = params.depth
    k = int(rng.integers(2 * depth))
    kind, layer = GATE_KINDS[k // depth], k % depth
    g_k = gate_count(instance, kind)
    index = int(rng.integers(g_k))
    rows = next((plus, minus) for got_kind, got_layer, got_index, _, plus, minus
                in swept_rows(instance, params)
                if (got_kind, got_layer, got_index) == (kind, layer, index))
    values = [_read_target(apply_depolarizing(row, noise), target, shots, rng)
              for row in rows]
    return k, g_k * gate_coefficient(instance, kind, index) * (values[0] - values[1])


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_randomized_gradient_reads_as_full_rows(depth, lam):
    # the target-only read draws what a read of the full rows drew: the same
    # gates and binomial counts from the same generator, so sampled estimates
    # are equal and exact ones agree to rounding
    inst = with_optimum(assign_weights(random_regular(6, 3, seed=2), "uniform", seed=4))
    params = QaoaParams((0.41, 0.77, -0.35)[:depth], (1.3, 2.6, 0.2)[:depth])
    noise = NoiseSpec.for_circuit(lam, inst, depth)
    optimum = inst.optimum[0]
    for shots in (None, 200):
        for seed, target in enumerate((optimum, 2 ** inst.n - 1 - optimum, 5)):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            reader = TargetReader(inst, target, depth)
            for _ in range(12):
                got = randomized_shift_gradient(reader, params, shots, noise, got_rng,
                                                ResourceLedger())
                want = full_row_estimate(inst, params, target, shots, noise, want_rng)
                assert got[0] == want[0]
                if shots is None:
                    assert abs(got[1] - want[1]) <= 1e-13
                else:
                    assert got[1] == want[1]
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class OneShotReader:
    """A TargetReader that keeps nothing: each read is a fresh reader's."""

    def __init__(self, instance, target, depth):
        self.instance, self.target, self.depth = instance, target, depth

    def _fresh(self):
        return TargetReader(self.instance, self.target, self.depth)

    def read(self, params, kind, layer, index):
        return self._fresh().read(params, kind, layer, index)

    def probability(self, params):
        return self._fresh().probability(params)


@pytest.mark.parametrize("use_exact", [True, False])
@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_amplify_reuse_equals_one_shot_reads(monkeypatch, use_exact, lam):
    # amplify's one reader per run rebuilds only the layers each step moved;
    # the run must equal one whose every read starts afresh, to the bit
    inst = with_optimum(assign_weights(random_regular(6, 3, seed=2), "uniform", seed=4))
    params = QaoaParams((0.41, 0.0), (1.3, 2.6))  # a zero beta
    noise = NoiseSpec.for_circuit(lam, inst, params.depth) if lam else None
    cfg = AmplifyConfig(steps=60, use_exact=use_exact)
    got = amplify(inst, params, inst.optimum[0], cfg, noise, seed=9)
    monkeypatch.setattr(stage2, "TargetReader", OneShotReader)
    want = amplify(inst, params, inst.optimum[0], cfg, noise, seed=9)
    assert got[0].to_vector().tobytes() == want[0].to_vector().tobytes()
    assert np.array(got[1]).tobytes() == np.array(want[1]).tobytes()


@pytest.mark.parametrize("use_exact", [True, False])
def test_amplify_reads_only_through_its_reader(small, monkeypatch, use_exact):
    # every trace entry, like every step, is read from the run's TargetReader:
    # no full state is evolved and no distribution is built or depolarized
    def refuse(*_args, **_kwargs):
        raise AssertionError("stage 2 built a full distribution")

    monkeypatch.setattr(simulator, "evolve", refuse)
    monkeypatch.setattr(stage2, "outcome_distribution", refuse)
    monkeypatch.setattr(simulator, "apply_depolarizing", refuse)
    target, _ = brute_force_optimum(small)
    params = QaoaParams((0.4, 0.7), (0.9, 1.2))
    noise = NoiseSpec.for_circuit(0.01, small, params.depth)
    _, trace = amplify(small, params, target, AmplifyConfig(steps=25, use_exact=use_exact),
                       noise, seed=4)
    assert len(trace) == 1 + math.ceil(25 / 10)


@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_exact_trace_is_target_probability(lam):
    # the reader's |a|^2, depolarized unnormalized, is the full distribution's
    # bin to rounding, at the start and at the final params
    inst = with_optimum(assign_weights(random_regular(6, 3, seed=2), "uniform", seed=4))
    params = QaoaParams((0.41, 0.77), (1.3, 2.6))
    noise = NoiseSpec.for_circuit(lam, inst, params.depth) if lam else None
    target = inst.optimum[0]
    final, trace = amplify(inst, params, target, AmplifyConfig(steps=40, use_exact=True),
                           noise, seed=3)
    assert abs(trace[0] - target_probability(inst, params, target, noise)) <= 1e-15
    assert abs(trace[-1] - target_probability(inst, final, target, noise)) <= 1e-15
    assert trace[-1] > trace[0]


def test_randomized_estimator_sampled_mean(small):
    params = QaoaParams((0.6,), (1.3,))
    target, _ = brute_force_optimum(small)
    exact = exact_gradient(small, params, target)
    reader = TargetReader(small, target, params.depth)
    sums = np.zeros(2)
    hits = np.zeros(2)
    for s in range(400):
        k, est = randomized_shift_gradient(reader, params, None, None,
                                           seed=s, ledger=ResourceLedger())
        sums[k] += est
        hits[k] += 1
    means = sums / np.maximum(hits, 1)
    # Monte Carlo over gate choice only (exact evals): loose bound
    assert np.max(np.abs(means - exact)) < 0.15


def test_randomized_estimator_sampled_reads_mean(small):
    # one generator picks the gate and draws both 200-shot reads; per
    # coordinate, the estimate's mean matches the exact gradient within 5 sigma
    params = QaoaParams((0.4,), (0.9,))
    target, _ = brute_force_optimum(small)
    exact = exact_gradient(small, params, target)
    reader = TargetReader(small, target, params.depth)
    rng = np.random.default_rng(17)
    ests = [[], []]
    for _ in range(3000):
        k, est = randomized_shift_gradient(reader, params, 200, None, rng,
                                           ResourceLedger())
        ests[k].append(est)
    for k, values in enumerate(ests):
        sem = np.std(values, ddof=1) / math.sqrt(len(values))
        assert abs(np.mean(values) - exact[k]) < 5 * sem


def test_amplify_increases_target_probability(small):
    target, _ = brute_force_optimum(small)
    params = QaoaParams((0.4,), (0.9,))
    cfg = AmplifyConfig(steps=120, use_exact=True, learning_rate=0.05)
    out_params, trace = amplify(small, params, target, cfg, seed=1)
    assert trace[-1] > trace[0]
    final = target_probability(small, out_params, target)
    assert final > target_probability(small, params, target)


def test_amplify_trace_layout_and_ledger(small):
    target, _ = brute_force_optimum(small)
    params = QaoaParams((0.4,), (0.9,))
    cfg = AmplifyConfig(steps=25, reeval_period=10, shots_per_shift=50)
    ledger = ResourceLedger()
    _, trace = amplify(small, params, target, cfg, seed=2, ledger=ledger)
    # initial exact entry + re-evals at steps 10, 20, 25
    assert len(trace) == 1 + math.ceil(25 / 10)
    assert ledger.stage2_shots == 2 * 25 * 50 + math.ceil(25 / 10) * 50
    assert all(0.0 <= p <= 1.0 for p in trace)


def test_amplify_zero_steps(small):
    target, _ = brute_force_optimum(small)
    params = QaoaParams((0.4,), (0.9,))
    out_params, trace = amplify(small, params, target,
                                AmplifyConfig(steps=0), seed=0)
    assert out_params == params
    assert len(trace) == 1


@pytest.mark.parametrize("edges", [[], [(0, 1, 0.0), (1, 2, 0.0)]])
def test_amplify_refuses_zero_total_weight(edges):
    # an edgeless graph has no gate to draw under gamma, and a weightless one
    # would run every read: both are refused before the first is charged
    ledger = ResourceLedger()
    with pytest.raises(ValueError, match="total weight must be positive"):
        amplify(MaxCutInstance.from_edges(4, edges), QaoaParams((0.4, 0.7), (0.9, 1.2)), 0,
                seed=0, ledger=ledger)
    assert ledger.circuit_evaluations == 0
    assert ledger.stage2_shots == 0


def test_amplify_deterministic(small):
    target, _ = brute_force_optimum(small)
    params = QaoaParams((0.4,), (0.9,))
    cfg = AmplifyConfig(steps=20, shots_per_shift=80)
    a = amplify(small, params, target, cfg, seed=3)
    b = amplify(small, params, target, cfg, seed=3)
    assert a[0] == b[0]
    assert a[1] == b[1]
