from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modeqaoa import estimators
from modeqaoa.estimators import compute_stats, dual_gate
from modeqaoa.graph import MaxCutInstance, complete_graph, random_regular, with_optimum
from modeqaoa.resources import ResourceLedger
from modeqaoa.shots import AdaptiveConfig, evaluate_point, next_batch
from modeqaoa.simulator import NoiseSpec, QaoaParams, outcome_distribution, sample


def test_config_validation():
    AdaptiveConfig()  # defaults are legal
    with pytest.raises(ValueError):
        AdaptiveConfig(pilot_shots=0)
    with pytest.raises(ValueError):
        AdaptiveConfig(max_shots=50)  # below the pilot
    with pytest.raises(ValueError):
        AdaptiveConfig(tau_conf=0.0)
    # a NaN threshold used to be accepted, and then no point could pass the gate
    for tau_var in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="tau_var"):
            AdaptiveConfig(tau_var=tau_var)
    with pytest.raises(ValueError):
        AdaptiveConfig(bootstrap_resamples=0)


def test_batch_sequence_default():
    cfg = AdaptiveConfig()
    seq = []
    batch, spent = cfg.pilot_shots, 0
    while spent < cfg.max_shots:
        seq.append(batch)
        spent += batch
        if spent >= cfg.max_shots:
            break
        batch = next_batch(batch, spent, cfg)
    assert seq == [100, 200, 400, 500]
    assert sum(seq) == 1200


def test_next_batch_exhausted_raises():
    cfg = AdaptiveConfig()
    with pytest.raises(ValueError):
        next_batch(500, 1200, cfg)


@given(st.integers(1, 500), st.integers(0, 1199))
@settings(max_examples=80, deadline=None)
def test_next_batch_never_exceeds_budget(current, spent):
    cfg = AdaptiveConfig()
    b = next_batch(current, spent, cfg)
    assert 0 < b and spent + b <= cfg.max_shots
    # the clip is exact: either the doubled batch fits, or we top up to the cap
    assert b == min(2 * current, cfg.max_shots - spent)


def test_point_mass_accepts_at_pilot():
    # a distribution with all mass on one string clears both gates on the pilot
    inst = with_optimum(MaxCutInstance.from_edges(2, [(0, 1, 1.0)]))
    dist = np.array([0.0, 1.0, 0.0, 0.0])
    cfg = AdaptiveConfig()
    counts = sample(dist, cfg.pilot_shots, seed=0)
    stats = compute_stats(inst, counts, cfg.bootstrap_resamples, seed=0)
    assert counts.total == 100
    assert stats.confidence == 1.0
    assert stats.var_normalized == 0.0
    assert dual_gate(stats.confidence, stats.var_normalized,
                     cfg.tau_conf, cfg.tau_var)


def test_degenerate_pair_rarely_accepts():
    # exact complement symmetry splits the mode across z and its flip, so
    # even the fully concentrated single-edge optimum accepts only when the
    # bootstrap coin lands above tau_conf
    inst = with_optimum(MaxCutInstance.from_edges(2, [(0, 1, 1.0)]))
    params = QaoaParams((np.pi / 8,), (np.pi / 2,))
    results = [evaluate_point(inst, params, None, AdaptiveConfig(), seed=s,
                              ledger=ResourceLedger()) for s in range(10)]
    # variance gate always passes (both strings cut 1); acceptance is decided
    # purely by mode confidence near 1/2
    assert all(ev.stats.var_normalized == 0.0 for ev in results)
    assert all(ev.stats.mode in (0b01, 0b10) for ev in results)
    assert sum(ev.accepted for ev in results) < 10


def test_uniform_never_accepts():
    inst = with_optimum(random_regular(10, 3, seed=0))
    params = QaoaParams((0.0, 0.0), (0.0, 0.0))  # exactly uniform distribution
    for seed in range(20):
        ledger = ResourceLedger()
        ev = evaluate_point(inst, params, None, AdaptiveConfig(), seed=seed,
                            ledger=ledger)
        assert not ev.accepted
        assert ev.shots_used == 1200
        assert ev.rounds == 4


def test_ledger_accounting_exact():
    inst = with_optimum(random_regular(6, 3, seed=2))
    params = QaoaParams((0.5, 0.3), (1.0, 2.0))
    ledger = ResourceLedger()
    ev = evaluate_point(inst, params, None, AdaptiveConfig(), seed=5, ledger=ledger)
    assert ledger.optimization_shots == ev.shots_used
    assert ledger.classical_count_ops == ev.shots_used
    # one cut evaluation per distinct observed key, across all rounds
    assert ledger.classical_cut_ops == ev.counts.distinct
    assert ledger.per_point_shots == [ev.shots_used]
    assert ledger.distinct_counts == [ev.counts.distinct]
    assert ledger.circuit_evaluations == 1
    assert ev.counts.total == ev.shots_used
    # bootstrap charge sums B * K_round over rounds, so it is bounded by B*K*rounds
    cfg = AdaptiveConfig()
    assert ledger.bootstrap_ops <= cfg.bootstrap_resamples * ev.counts.distinct * ev.rounds
    assert ledger.bootstrap_ops >= cfg.bootstrap_resamples * ev.rounds


def test_evaluate_point_deterministic():
    inst = with_optimum(random_regular(6, 3, seed=2))
    params = QaoaParams((0.5, 0.3), (1.0, 2.0))
    a = evaluate_point(inst, params, None, AdaptiveConfig(), seed=9,
                       ledger=ResourceLedger())
    b = evaluate_point(inst, params, None, AdaptiveConfig(), seed=9,
                       ledger=ResourceLedger())
    assert a.counts.histogram == b.counts.histogram
    assert a.stats == b.stats
    assert a.stats.confidence == b.stats.confidence
    c = evaluate_point(inst, params, None, AdaptiveConfig(), seed=10,
                       ledger=ResourceLedger())
    assert c.counts.histogram != a.counts.histogram


def test_budget_tops_up_to_cap():
    # doubling that overshoots still lands exactly on max_shots: 7, 14, 28, 51
    inst = with_optimum(complete_graph(4))
    params = QaoaParams((0.0,), (0.0,))  # uniform, never accepts
    cfg = AdaptiveConfig(pilot_shots=7, max_shots=100, tau_conf=1.0, tau_var=0.0)
    ledger = ResourceLedger()
    ev = evaluate_point(inst, params, None, cfg, seed=0, ledger=ledger)
    assert ev.shots_used == 100
    assert ev.rounds == 4
    assert not ev.accepted


def _evaluate_point_oracle(instance, params, noise, cfg, seed, ledger):
    """The allocator computing the full statistics on every round; its record
    carries the fields a PointEvaluation is compared on."""
    dist = outcome_distribution(instance, params, noise)
    ledger.circuit_evaluations += 1
    ss = np.random.SeedSequence(seed)
    counts = None
    batch = cfg.pilot_shots
    spent = rounds = 0
    accepted = False
    while True:
        rounds += 1
        sample_seed, boot_seed = (int(c.generate_state(1)[0]) for c in ss.spawn(2))
        fresh = sample(dist, batch, sample_seed)
        counts = fresh if counts is None else counts.merged(fresh)
        spent += batch
        ledger.optimization_shots += batch
        ledger.classical_count_ops += batch
        stats = compute_stats(instance, counts, cfg.bootstrap_resamples, boot_seed)
        ledger.bootstrap_ops += cfg.bootstrap_resamples * counts.distinct
        if dual_gate(stats.confidence, stats.var_normalized, cfg.tau_conf, cfg.tau_var):
            accepted = True
            break
        if spent >= cfg.max_shots:
            break
        batch = next_batch(batch, spent, cfg)
    ledger.classical_cut_ops += counts.distinct
    ledger.record_point(spent, counts.distinct)
    return SimpleNamespace(params=params, counts=counts, stats=stats,
                           shots_used=spent, accepted=accepted, rounds=rounds)


def test_gated_rounds_match_full_statistics_oracle():
    # loose thresholds so that points are accepted on intermediate rounds too
    configs = [AdaptiveConfig(tau_conf=0.5, tau_var=0.1),
               AdaptiveConfig(pilot_shots=20, max_shots=500, tau_conf=0.3, tau_var=0.2,
                              bootstrap_resamples=77),
               AdaptiveConfig(tau_conf=0.7, tau_var=0.06)]
    rng = np.random.default_rng(0)
    early_accepts = 0
    for n in (4, 6, 8):
        inst = with_optimum(random_regular(n, 3, seed=n))
        for lam in (0.0, 0.01):
            noise = NoiseSpec.for_circuit(lam, inst, 2) if lam > 0 else None
            for cfg in configs:
                for _ in range(6):
                    params = QaoaParams(tuple(rng.uniform(0, np.pi, 2)),
                                        tuple(rng.uniform(0, 2 * np.pi, 2)))
                    seed = int(rng.integers(2**31))
                    got_ledger, want_ledger = ResourceLedger(), ResourceLedger()
                    got = evaluate_point(inst, params, noise, cfg, seed, got_ledger)
                    want = _evaluate_point_oracle(inst, params, noise, cfg, seed,
                                                  want_ledger)
                    assert got.stats == want.stats
                    assert got.stats.confidence == want.stats.confidence
                    assert np.array_equal(got.counts.by_index, want.counts.by_index)
                    assert (got.shots_used, got.rounds, got.accepted) == \
                        (want.shots_used, want.rounds, want.accepted)
                    assert got_ledger.to_dict() == want_ledger.to_dict()
                    early_accepts += got.accepted and got.shots_used < cfg.max_shots
    assert early_accepts >= 10


def test_capped_round_draws_no_gate_decision(monkeypatch):
    # the variance gate passes on every round and tau_conf = 1.0 is never met,
    # so each round before the cap draws its floored bootstrap; the capped
    # round's decision cannot change the stop and is drawn only when read
    inst = with_optimum(random_regular(6, 3, seed=3))
    params = QaoaParams((0.0,), (0.0,))
    cfg = AdaptiveConfig(tau_conf=1.0, tau_var=1.0)
    want = _evaluate_point_oracle(inst, params, None, cfg, 8, ResourceLedger())
    floors = []
    real = estimators._bootstrap_confidence

    def counting(vals, resamples, seed, floor=None):
        floors.append(floor)
        return real(vals, resamples, seed, floor)

    monkeypatch.setattr(estimators, "_bootstrap_confidence", counting)
    ev = evaluate_point(inst, params, None, cfg, 8, ResourceLedger())
    assert ev.shots_used == cfg.max_shots and ev.rounds == want.rounds == 4
    assert floors == [cfg.tau_conf] * (ev.rounds - 1)
    del floors[:]
    assert ev.accepted is want.accepted is False
    assert floors == [cfg.tau_conf]
    assert not ev.accepted
    assert floors == [cfg.tau_conf]  # cached: a second read draws nothing
