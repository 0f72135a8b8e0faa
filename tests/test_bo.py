import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modeqaoa.baselines import GdConfig
from modeqaoa.bo import (
    ADAM_BETAS, ADAM_EPS, PATIENCE, STARTUP_TRIALS, RunResult, Trial, adam_step,
    optimize_map_bo, run_result_to_dict, search_bounds, should_stop, split_good_bad,
    suggest, trials_to_jsonl,
)
from modeqaoa import estimators
from modeqaoa.graph import complete_graph, index_to_bits, random_regular, with_optimum
from modeqaoa.shots import AdaptiveConfig
from modeqaoa.simulator import QaoaParams
from modeqaoa.stage2 import AmplifyConfig


def make_trial(i, y, vec=None):
    vec = vec if vec is not None else [0.1 * i, 0.2, 1.0, 2.0]
    return Trial(index=i, params=QaoaParams.from_vector(np.array(vec)),
                 objective=y, shots_used=100, mode=0, mode_cut=y)


def test_search_bounds():
    b = search_bounds(2)
    assert b.shape == (4, 2)
    assert np.allclose(b[:, 0], 0.0)
    assert np.allclose(b[:2, 1], np.pi)
    assert np.allclose(b[2:, 1], 2 * np.pi)
    with pytest.raises(ValueError):
        search_bounds(0)


def test_split_good_bad_sizes_and_ties():
    hist = [make_trial(i, y) for i, y in enumerate([3.0, 5.0, 5.0, 1.0], start=1)]
    good, bad = split_good_bad(hist, 0.25)
    assert len(good) == 1 and len(bad) == 3
    # tie at 5.0 goes to the earlier trial
    assert good[0].index == 2
    good, bad = split_good_bad(hist, 0.5)
    assert [t.index for t in good] == [2, 3]
    with pytest.raises(ValueError):
        split_good_bad([], 0.25)


def test_suggest_startup_uniform_and_deterministic():
    bounds = search_bounds(2)
    a = suggest([], bounds, seed=4)
    b = suggest([], bounds, seed=4)
    assert np.array_equal(a, b)
    assert np.all(a >= bounds[:, 0]) and np.all(a < bounds[:, 1])
    c = suggest([], bounds, seed=5)
    assert not np.array_equal(a, c)


def test_suggest_tpe_respects_bounds():
    bounds = search_bounds(2)
    rng = np.random.default_rng(0)
    hist = [make_trial(i, float(rng.random()),
                       vec=rng.uniform(bounds[:, 0], bounds[:, 1]))
            for i in range(1, 13)]
    assert len(hist) > STARTUP_TRIALS  # past the uniform startup
    for seed in range(30):
        v = suggest(hist, bounds, seed=seed)
        assert np.all(v >= bounds[:, 0])
        assert np.all(v < bounds[:, 1])


def test_suggest_tpe_tracks_good_region():
    # all good mass near one corner: suggestions should cluster there
    bounds = search_bounds(1)
    hist = [make_trial(i, 10.0, vec=[0.3 + 0.001 * i, 1.0]) for i in range(1, 4)]
    hist += [make_trial(i, 0.0, vec=[2.8, 5.5]) for i in range(4, 13)]
    assert len(hist) > STARTUP_TRIALS
    votes = np.array([suggest(hist, bounds, seed=s) for s in range(20)])
    assert np.median(np.abs(votes[:, 0] - 0.3)) < 0.5


def test_should_stop_exact_semantics():
    k = PATIENCE
    flat = [make_trial(i, 2.0) for i in range(1, k + 1)]
    assert should_stop(flat)
    assert not should_stop(flat[:-1])
    # improvement on the last trial resets the window
    rising = [make_trial(i, 0.0) for i in range(1, k)] + [make_trial(k, 1.0)]
    assert not should_stop(rising)
    # improvement at trial 2 leaves the window at length k, expires at length k + 1
    bump = [make_trial(1, 0.0), make_trial(2, 1.0)] + [
        make_trial(i, 0.0) for i in range(3, k + 1)]
    assert not should_stop(bump)
    bump.append(make_trial(k + 1, 0.5))
    assert should_stop(bump)


def test_map_bo_finds_square_optimum(square):
    res = optimize_map_bo(square, depth=1, t_max=40, seed=3)
    assert res.best_objective == 4.0
    assert res.final_eval.mode_cut == 4.0
    assert res.best_index in (0b0101, 0b1010)
    assert res.stop_reason in ("budget", "stagnation")
    assert [t.index for t in res.trials] == list(range(1, len(res.trials) + 1))


def test_map_bo_ledger_matches_trials(six_reg):
    res = optimize_map_bo(six_reg, depth=2, t_max=15, seed=1)
    assert res.ledger.optimization_shots == sum(t.shots_used for t in res.trials)
    assert res.ledger.per_point_shots == [t.shots_used for t in res.trials]
    assert res.ledger.final_eval_shots == 5000
    assert res.final_counts.total == 5000
    # one distribution build per trial plus the final one
    assert res.ledger.circuit_evaluations == len(res.trials) + 1


def test_map_bo_deterministic(six_reg):
    a = optimize_map_bo(six_reg, depth=2, t_max=12, seed=8)
    b = optimize_map_bo(six_reg, depth=2, t_max=12, seed=8)
    assert [t.objective for t in a.trials] == [t.objective for t in b.trials]
    assert a.final_counts.histogram == b.final_counts.histogram
    assert a.best_params == b.best_params
    c = optimize_map_bo(six_reg, depth=2, t_max=12, seed=9)
    assert [t.objective for t in a.trials] != [t.objective for t in c.trials] \
        or a.final_counts.histogram != c.final_counts.histogram


def test_map_bo_stagnates_on_flat_objective(triangle):
    # K3 mode cut is 2 at nearly every point, so the incumbent never moves
    res = optimize_map_bo(triangle, depth=1, t_max=50, seed=0)
    assert res.stop_reason == "stagnation"
    assert len(res.trials) < 50


def test_trials_to_jsonl_incumbent():
    trials = [make_trial(1, 3.0), make_trial(2, 1.0), make_trial(3, 5.0)]
    text = trials_to_jsonl(trials)
    assert text.endswith("\n")
    rows = [json.loads(line) for line in text.strip().split("\n")]
    assert [r["incumbent"] for r in rows] == [3.0, 3.0, 5.0]
    assert [r["t"] for r in rows] == [1, 2, 3]
    assert rows[0]["y"] == 3.0
    assert trials_to_jsonl([]) == ""


def test_run_result_to_dict_shape(square):
    res = optimize_map_bo(square, depth=1, t_max=12, seed=2)
    d = run_result_to_dict(res)
    assert set(d) == {"best_theta", "best_bitstring", "best_objective",
                      "stop_reason", "trials", "final_eval", "ledger"}
    assert d["trials"] == len(res.trials)
    assert len(d["best_theta"]) == 2
    # indices become bitstrings only here, at the output boundary
    assert d["best_bitstring"] == index_to_bits(res.best_index, 4)
    assert d["final_eval"]["mode"] == index_to_bits(res.final_eval.mode, 4)
    json.dumps(d)  # serializable


def test_unread_confidence_is_never_drawn(monkeypatch):
    floors = []
    real = estimators._bootstrap_confidence

    def counting(vals, resamples, seed, floor=None):
        floors.append(floor)
        return real(vals, resamples, seed, floor)

    monkeypatch.setattr(estimators, "_bootstrap_confidence", counting)
    inst = with_optimum(random_regular(6, 3, seed=6))
    # loose thresholds, so that the run has accepted and rejected points
    res = optimize_map_bo(inst, depth=2, t_max=30, seed=4,
                          adaptive_cfg=AdaptiveConfig(tau_conf=0.6, tau_var=0.05))
    rejected = sum(not t.accepted for t in res.trials)
    assert 0 < rejected < len(res.trials)
    assert floors and None not in floors
    # a read draws the full bootstrap once per rejected point and once for the
    # final evaluation; an accepted point's exact value was stored by its gate
    del floors[:]
    read = lambda: [t.stats.confidence for t in res.trials] + [res.final_eval.confidence]
    first = read()
    assert floors == [None] * (rejected + 1)
    assert read() == first  # cached: a second read draws nothing
    assert floors == [None] * (rejected + 1)


@pytest.mark.parametrize("cfg", [GdConfig(), AmplifyConfig(learning_rate=0.3),
                                 GdConfig(learning_rate=2.5)])
def test_adam_step_arrays_match_scalars_bit_for_bit(cfg):
    # exp_gd updates the whole vector at once and stage 2 one coordinate at a
    # time, an np.float64 moment against a Python float gradient; sharing one
    # adam_step needs both forms to give the same bits
    rate = cfg.learning_rate
    rng = np.random.default_rng(7)
    size = 64
    m, v = np.zeros((2, size))
    m_s, v_s = np.zeros((2, size))
    for t in range(1, 31):
        grad = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 3, size)
        step, m, v = adam_step(rate, m, v, grad, t)
        for i in range(size):
            step_i, m_s[i], v_s[i] = adam_step(rate, m_s[i], v_s[i], float(grad[i]), t)
            assert np.float64(step_i).tobytes() == step[i].tobytes()
        assert m.tobytes() == m_s.tobytes() and v.tobytes() == v_s.tobytes()
    # the first step from zero moments is learning_rate * g / (|g| + eps)
    step, m, v = adam_step(rate, 0.0, 0.0, -2.0, 1)
    assert step == pytest.approx(-rate * 2.0 / (2.0 + ADAM_EPS), rel=1e-12)
    assert m == pytest.approx(-2.0 * (1 - ADAM_BETAS[0]))
