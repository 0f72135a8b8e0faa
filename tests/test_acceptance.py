"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single `[acceptance] criterion N: PASS/FAIL` line with the
measured values (visible under pytest -s or on failure) and then asserts.
Thresholds, grids, and tolerances are pinned; seeds are fixed so every run
measures the same thing.

Criteria 6-8 rest on seeded suites, so a change to any random stream re-rolls
them.  tests/heldout.py runs the same suites at held-out run seeds, and at its
defaults they pass 12 of 20 (criterion 6; the mean signed gap map - exp is
-0.046, sd 0.058), 20 of 20 (criterion 7) and 8 of 10 (criterion 8; both
failures are its "exp > map optimization shots at every lambda" half).  A
change that moves records reports these rates before and after.
"""
import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from conftest import oracle_evolve
from modeqaoa.baselines import optimize_exp_bo, parameter_shift_gradient
from modeqaoa.bo import optimize_map_bo
from modeqaoa.estimators import (
    Counts, compute_stats, dual_gate, mode_confidence, normalized_cut_variance,
)
from modeqaoa.graph import (
    MaxCutInstance, assign_weights, cut_values_table, random_regular, with_optimum,
)
from modeqaoa.resources import (
    ResourceLedger, final_mode_accuracy, saving_ratios, shots_to_threshold,
)
from modeqaoa.shots import AdaptiveConfig, evaluate_point, next_batch
from modeqaoa.simulator import (
    NoiseSpec, QaoaParams, distribution, evolve, exact_expectation,
    outcome_distribution, sample,
)
from modeqaoa.stage2 import exact_gradient


def report(num, ok, detail):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


SEED_STRIDE = 10_000  # a held-out offset k adds k * SEED_STRIDE to every run seed
NOISE_LAMBDAS = (0.0, 0.005, 0.01)


def quality_runs(offset=0):
    """Criteria 6-7's suite: ten unit-weight 3-regular instances at n=6 with
    both BO methods run.  Offset k keeps the instances and adds k * SEED_STRIDE
    to the run seeds; offset 0 is the pinned suite."""
    shift = offset * SEED_STRIDE
    runs = []
    for i in range(10):
        inst = with_optimum(assign_weights(random_regular(6, 3, seed=100 + i),
                                           "unit", 0))
        m = optimize_map_bo(inst, depth=2, t_max=60, seed=1100 + i + shift)
        e = optimize_exp_bo(inst, depth=2, n_fix=1000, t_max=60, seed=2100 + i + shift)
        runs.append((inst, m, e))
    return runs


def noise_runs(offset=0):
    """Criterion 8's suite: five unit-weight 3-regular instances at n=10 with
    both BO methods run at each lambda, as lambda -> (map_bo mode accuracies,
    map_bo optimization shots, exp_bo optimization shots).  Offsets as in
    quality_runs."""
    shift = offset * SEED_STRIDE
    instances = [with_optimum(assign_weights(random_regular(10, 3, seed=300 + i),
                                             "unit", 0)) for i in range(5)]
    by_lam = {}
    for lam in NOISE_LAMBDAS:
        map_acc, map_shots, exp_shots = [], [], []
        for i, inst in enumerate(instances):
            noise = NoiseSpec.for_circuit(lam, inst, depth=2) if lam > 0 else None
            m = optimize_map_bo(inst, depth=2, t_max=60, seed=5000 + i + shift,
                                noise=noise)
            e = optimize_exp_bo(inst, depth=2, n_fix=1000, t_max=60,
                                seed=6000 + i + shift, noise=noise)
            map_acc.append(final_mode_accuracy(inst, m.final_eval))
            map_shots.append(m.ledger.optimization_shots)
            exp_shots.append(e.ledger.optimization_shots)
        by_lam[lam] = (map_acc, map_shots, exp_shots)
    return by_lam


def criterion_6(runs):
    """(pass, statistics): map_bo reaches 0.80 on 8 of 10 instances, and the
    mean mode accuracies of the two methods differ by at most 0.05."""
    map_accs = [final_mode_accuracy(inst, m.final_eval) for inst, m, _ in runs]
    exp_accs = [final_mode_accuracy(inst, e.final_eval) for inst, _, e in runs]
    stats = {"reached": sum(a >= 0.80 for a in map_accs),
             "map_mean": float(np.mean(map_accs)), "exp_mean": float(np.mean(exp_accs))}
    stats["gap"] = stats["map_mean"] - stats["exp_mean"]
    return stats["reached"] >= 8 and abs(stats["gap"]) <= 0.05, stats


def criterion_7(runs):
    """(pass, statistics): map_bo's median shots to 0.80 is below exp_bo's,
    and its mean shots per point lies in [100, 1200]."""

    def median(vals):
        return float(np.median([math.inf if v is None else float(v)
                                for v in vals]))

    stats = {"map_med": median([shots_to_threshold(m.trials, inst, 0.80)
                                for inst, m, _ in runs]),
             "exp_med": median([shots_to_threshold(e.trials, inst, 0.80)
                                for inst, _, e in runs]),
             "n_adp": float(np.mean([m.ledger.avg_point_shots for _, m, _ in runs]))}
    stats["in_guard"] = 100.0 <= stats["n_adp"] <= 1200.0
    return stats["map_med"] < stats["exp_med"] and stats["in_guard"], stats


def criterion_8(by_lam):
    """(pass, statistics): map_bo's mean accuracy at lambda 0.01 is within 0.15
    of lambda 0, and exp_bo spends more optimization shots at every lambda."""
    stats = {}
    for lam, (map_acc, map_shots, exp_shots) in by_lam.items():
        stats[f"acc {lam}"] = float(np.mean(map_acc))
        stats[f"map shots {lam}"] = float(np.mean(map_shots))
        stats[f"exp shots {lam}"] = float(np.mean(exp_shots))
    no_collapse = stats["acc 0.01"] >= stats["acc 0.0"] - 0.15
    shots_ok = all(stats[f"exp shots {lam}"] > stats[f"map shots {lam}"] for lam in by_lam)
    stats.update(no_collapse=no_collapse, shots_ok=shots_ok)
    return no_collapse and shots_ok, stats


@pytest.fixture(scope="module")
def quality_suite():
    return quality_runs()


def test_criterion_1_simulator_correctness():
    start = time.monotonic()
    errs = []
    for n in (3, 6, 12):
        inst = random_regular(n, 3, seed=n)
        dist = distribution(evolve(inst, QaoaParams((0.0, 0.0), (0.0, 0.0))))
        errs.append(float(np.max(np.abs(dist - 2.0 ** (-n)))))
    theta0_err = max(errs)

    beta0_errs = []
    rng = np.random.default_rng(0)
    inst = random_regular(8, 3, seed=1)
    for _ in range(5):
        gamma = float(rng.uniform(0, 2 * np.pi))
        dist = distribution(evolve(inst, QaoaParams((0.0,), (gamma,))))
        beta0_errs.append(float(np.max(np.abs(dist - 2.0 ** (-8)))))
    beta0_err = max(beta0_errs)

    sym_err = 0.0
    for g in range(5):
        inst = assign_weights(random_regular(6, 3, seed=g), "uniform", seed=g)
        for _ in range(100):
            params = QaoaParams(tuple(rng.uniform(0, np.pi, 2)),
                                tuple(rng.uniform(0, 2 * np.pi, 2)))
            dist = distribution(evolve(inst, params))
            sym_err = max(sym_err, float(np.max(np.abs(dist - dist[::-1]))))

    elapsed = time.monotonic() - start
    ok = theta0_err < 1e-12 and beta0_err < 1e-10 and sym_err < 1e-10 \
        and elapsed < 10.0
    report(1, ok, f"theta0 err {theta0_err:.2e}, beta0 err {beta0_err:.2e}, "
                  f"symmetry err {sym_err:.2e}, {elapsed:.1f}s")


def test_criterion_2_expectation_identity():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(20):
        inst = assign_weights(random_regular(6, 3, seed=i), "uniform", seed=i)
        dist = outcome_distribution(inst, QaoaParams((0.0,), (0.0,)))
        worst = max(worst, abs(exact_expectation(inst, dist)
                               - inst.total_weight / 2))

    inst = with_optimum(random_regular(8, 3, seed=3))
    params = QaoaParams(tuple(rng.uniform(0, np.pi, 2)),
                        tuple(rng.uniform(0, 2 * np.pi, 2)))
    dist = outcome_distribution(inst, params)
    truth = exact_expectation(inst, dist)
    cuts = cut_values_table(inst)
    var = float(dist @ (cuts - truth) ** 2)
    sigma = math.sqrt(var / 100_000)
    counts = sample(dist, 100_000, seed=5)
    est = sum(c * cuts[int(k, 2)] for k, c in counts.histogram.items()) / 100_000
    dev = abs(est - truth)

    elapsed = time.monotonic() - start
    ok = worst < 1e-12 and dev < 4 * sigma and elapsed < 30.0
    report(2, ok, f"theta0 identity err {worst:.2e}, sampled dev {dev:.4f} "
                  f"vs 4 sigma {4 * sigma:.4f}, {elapsed:.1f}s")


def test_criterion_3_gradient_oracle():
    start = time.monotonic()
    inst = with_optimum(random_regular(6, 3, seed=11))
    params = QaoaParams((0.43, 0.81), (1.27, 2.51))
    grad = parameter_shift_gradient(inst, params, None, None, seed=0,
                                    ledger=ResourceLedger())
    h = 1e-5
    theta = params.to_vector()
    fd = np.zeros_like(theta)
    for k in range(len(theta)):
        up, dn = theta.copy(), theta.copy()
        up[k] += h
        dn[k] -= h
        fd[k] = (exact_expectation(inst, outcome_distribution(
                     inst, QaoaParams.from_vector(up)))
                 - exact_expectation(inst, outcome_distribution(
                     inst, QaoaParams.from_vector(dn)))) / (2 * h)
    shift_err = float(np.max(np.abs(grad - fd)))

    small = with_optimum(random_regular(4, 3, seed=2))
    sp = QaoaParams((0.57,), (1.19,))
    target = small.optimum[0]
    exact = exact_gradient(small, sp, target)
    from modeqaoa.simulator import GateShift, gate_coefficient
    avg = np.zeros(2)
    for k in range(2):
        kind = "beta" if k == 0 else "gamma"
        count = small.n if k == 0 else small.num_edges
        for index in range(count):
            coeff = gate_coefficient(small, kind, index)
            plus, minus = (
                float(distribution(oracle_evolve(small, sp, GateShift(kind, 0, index, angle)))
                      [target])
                for angle in (np.pi / 2, -np.pi / 2))
            # uniform gate pick (1/count) times the G_k=count rescale cancels
            avg[k] += coeff * (plus - minus)
    rand_err = float(np.max(np.abs(avg - exact)))

    elapsed = time.monotonic() - start
    ok = shift_err < 1e-3 and rand_err < 1e-6 and elapsed < 60.0
    report(3, ok, f"parameter-shift vs FD {shift_err:.2e}, randomized-avg vs "
                  f"exact {rand_err:.2e}, {elapsed:.1f}s")


def test_criterion_4_adaptive_loop_arithmetic():
    start = time.monotonic()
    cfg = AdaptiveConfig()  # pilot 100, growth 2.0, cap 1200
    seq = []
    batch, spent = cfg.pilot_shots, 0
    while spent < cfg.max_shots:
        seq.append(batch)
        spent += batch
        if spent >= cfg.max_shots:
            break
        batch = next_batch(batch, spent, cfg)
    seq_ok = seq == [100, 200, 400, 500]

    edge = with_optimum(MaxCutInstance.from_edges(2, [(0, 1, 1.0)]))
    point_mass = np.array([0.0, 1.0, 0.0, 0.0])
    counts = sample(point_mass, cfg.pilot_shots, seed=0)
    stats = compute_stats(edge, counts, cfg.bootstrap_resamples, seed=0)
    accept = dual_gate(stats.confidence, stats.var_normalized,
                       cfg.tau_conf, cfg.tau_var)
    mass_ok = accept and counts.total == 100 and stats.confidence == 1.0 \
        and stats.var_normalized == 0.0

    uniform_inst = with_optimum(random_regular(10, 3, seed=0))
    flat = QaoaParams((0.0, 0.0), (0.0, 0.0))
    uniform_ok = True
    for seed in range(20):
        ev = evaluate_point(uniform_inst, flat, None, cfg, seed=seed,
                            ledger=ResourceLedger())
        if ev.accepted or ev.stats.confidence >= cfg.tau_conf:
            uniform_ok = False

    elapsed = time.monotonic() - start
    ok = seq_ok and mass_ok and uniform_ok and elapsed < 60.0
    report(4, ok, f"batches {seq}, point-mass accept at 100 (conf "
                  f"{stats.confidence}, var {stats.var_normalized}), uniform "
                  f"2^10 never confident over 20 seeds, {elapsed:.1f}s")


def test_criterion_5_dual_gate_statistics():
    counts = Counts.from_histogram({"00": 90, "11": 10})
    conf = mode_confidence(counts, resamples=500, seed=0)
    # resample mode stays '00' unless Bin(100, 0.1) exceeds 50
    exact_tail = float(sps.binom.cdf(50, 100, 0.1))
    conf_ok = conf >= 0.99 and abs(conf - exact_tail) < 0.01

    edge = MaxCutInstance.from_edges(2, [(0, 1, 1.0)])
    uniform_counts = Counts.from_histogram({"00": 25, "01": 25, "10": 25, "11": 25})
    var = normalized_cut_variance(edge, uniform_counts)
    var_ok = var == 0.25

    ok = conf_ok and var_ok
    report(5, ok, f"confidence {conf:.4f} (exact tail {exact_tail:.6f}), "
                  f"uniform single-edge variance {var}")


def test_criterion_6_end_to_end_quality(quality_suite):
    start = time.monotonic()
    passed, s = criterion_6(quality_suite)
    elapsed = time.monotonic() - start
    ok = passed and elapsed < 600.0
    report(6, ok, f"map_bo >= 0.80 on {s['reached']}/10, mean map "
                  f"{s['map_mean']:.3f} vs exp {s['exp_mean']:.3f} "
                  f"(gap {abs(s['gap']):.3f}), {elapsed:.1f}s")


def test_criterion_7_resource_advantage(quality_suite):
    start = time.monotonic()
    passed, s = criterion_7(quality_suite)
    in_typical = 250.0 <= s["n_adp"] <= 400.0  # soft band: reported, not asserted
    elapsed = time.monotonic() - start
    ok = passed and elapsed < 600.0
    report(7, ok, f"median shots-to-0.80 map {s['map_med']} < exp {s['exp_med']}, "
                  f"N_adp {s['n_adp']:.1f} in [100, 1200]: {s['in_guard']}, typical band "
                  f"[250, 400]: {in_typical}, {elapsed:.1f}s")


def test_criterion_8_noise_robustness():
    start = time.monotonic()
    passed, s = criterion_8(noise_runs())
    detail = [f"lam={lam}: acc {s[f'acc {lam}']:.3f}, opt shots map "
              f"{s[f'map shots {lam}']:.0f} vs exp {s[f'exp shots {lam}']:.0f}"
              for lam in NOISE_LAMBDAS]
    elapsed = time.monotonic() - start
    ok = passed and elapsed < 900.0
    report(8, ok, "; ".join(detail) + f"; no collapse {s['no_collapse']}, "
                  f"exp > map at every lambda {s['shots_ok']}, {elapsed:.1f}s")


def test_criterion_9_ledger_consistency(quality_suite):
    inst, m, e = quality_suite[0]
    checks = []
    for res in (m, e):
        led = res.ledger
        checks.append(led.optimization_shots == sum(led.per_point_shots))
        checks.append(all(k <= n for k, n in zip(led.distinct_counts,
                                                 led.per_point_shots)))
        checks.append(led.total_shots == led.optimization_shots
                      + led.final_eval_shots + led.stage2_shots)
    s_q, _ = saving_ratios(e.ledger, len(e.trials), m.ledger, len(m.trials),
                           inst.num_edges, AdaptiveConfig().bootstrap_resamples)
    t_exp, t_map = len(e.trials), len(m.trials)
    n_fix = e.ledger.optimization_shots / t_exp
    n_adp = m.ledger.optimization_shots / t_map
    formula = (t_exp * n_fix) / (t_map * n_adp)
    ratio_ok = abs(s_q - formula) < 1e-12
    ok = all(checks) and ratio_ok
    report(9, ok, f"shot sums and K_i <= N_i hold on both ledgers, S_q "
                  f"{s_q:.6f} matches T_exp*N_fix/(T_map*N_adp) to 1e-12")


def test_criterion_10_determinism(tmp_path, capsys):
    from modeqaoa.bench import main
    args = ["bench", "--seed", "7", "--experiment", "single",
            "--n-values", "6", "--instances", "2", "--methods", "map_bo",
            "exp_bo", "--t-max", "15", "--n-fix", "300", "--n-final", "500"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    blob_a = (tmp_path / "a" / "records.jsonl").read_bytes()
    blob_b = (tmp_path / "b" / "records.jsonl").read_bytes()
    ok = blob_a == blob_b and len(blob_a) > 0
    with capsys.disabled():
        report(10, ok, f"repeated bench JSONL byte-identical "
                       f"({len(blob_a)} bytes)")
