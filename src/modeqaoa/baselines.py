"""Fixed-shot expectation baselines: TPE search and parameter-shift Adam ascent.

Both charge a constant N_fix shots per expectation evaluation and, unlike the
mode-objective pipeline, their classical post-processing is billed per raw
shot rather than per distinct key.  Gradients score the shifted outcome
distributions of the simulator's sweep, the two-point rule per gate, read as
half rows (p(z) = p(~z)) by both: an exact gate's value is its half rows'
matvec with the cut table, times the depolarizing channel's slope; a sampled
one's is the mean cut of its shots, sorted indices drawn in batches of half
rows (simulator.sample_halves) from one generator per gradient, in sweep
order.  Every other evaluation draws a histogram (simulator.sample).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bo import (RunResult, Trial, _check_weight, adam_step, finish_run, run_search,
                 search_bounds)
# compute_stats is called through bo.finish_run; perfbench's trace-site test
# still lists this module among those that import it
from .estimators import Counts, compute_stats, expectation_estimate, mode_of  # noqa: F401
from .graph import MaxCutInstance, cut_values_table
from .resources import ResourceLedger
from .simulator import (GATE_KINDS, NoiseSpec, QaoaParams, _shift_batches, _shift_stacks,
                        child_seeds, depolarize, gate_coefficient, gate_count,
                        outcome_distribution, sample, sample_halves)

DEFAULT_N_FIX = 1000


@dataclass(frozen=True)
class GdConfig:
    iterations: int = 50
    learning_rate: float = 0.05  # Adam's; its moments are bo.ADAM_BETAS and ADAM_EPS
    exact_gradient: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not self.learning_rate >= 0:  # a negative rate descends; NaN fails too
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")


def _split_shots(total: int, parts: int) -> list[int]:
    if parts < 1:
        raise ValueError(f"no generators to split {total} shots across")
    base, rem = divmod(total, parts)
    if base == 0:
        raise ValueError(f"{total} shots cannot cover {parts} generators")
    return [base + 1 if i < rem else base for i in range(parts)]


def fixed_shot_expectation_eval(instance: MaxCutInstance, params: QaoaParams,
                                shots: int, noise: NoiseSpec | None, seed: int,
                                ledger: ResourceLedger) -> tuple[float, Counts]:
    """(sampled mean cut value, histogram) from a fixed shot budget."""
    dist = outcome_distribution(instance, params, noise)
    counts = sample(dist, shots, seed)
    ledger.record_fixed_points([shots], [counts.distinct])
    return expectation_estimate(instance, counts), counts


def _fixed_shot_trial(instance: MaxCutInstance, t: int, params: QaoaParams,
                      value: float, counts: Counts, shots_used: int) -> Trial:
    """Trial of a fixed-shot point: objective the sampled mean, mode from its histogram."""
    mode = mode_of(counts)
    return Trial(index=t, params=params, objective=value, shots_used=shots_used,
                 mode=mode, mode_cut=float(cut_values_table(instance)[mode]))


def parameter_shift_gradient(instance: MaxCutInstance, params: QaoaParams,
                             shots: int | None, noise: NoiseSpec | None,
                             seed: int, ledger: ResourceLedger) -> np.ndarray:
    """Gradient of the expected cut w.r.t. theta = [betas, gammas].

    shots=None evaluates shifted expectations exactly, each stack's E+- one
    matvec of its half rows with the cut table's first half, doubled (p(z) =
    p(~z) and cut(z) = cut(~z)).  The channel maps E to (1 - L) E + L times the
    mean cut, so a gate adds its noiseless difference times the slope 1 - L, as
    in stage2.exact_gradient.  Otherwise each coordinate spends 2 * shots,
    split evenly across its generators, for a total ledger charge of
    2 * 2p * shots per call, all drawn from default_rng(seed).
    """
    grad = np.zeros(2 * params.depth)
    cuts = cut_values_table(instance)
    if shots is None:
        half_cuts, slope = cuts[:cuts.size // 2], depolarize(noise, 1.0, 0.0)
        for kind, layer, chunk, probs in _shift_stacks(instance, params):
            ledger.circuit_evaluations += 2 * len(chunk)
            means = 2.0 * (probs @ half_cuts)  # each gate's noiseless E+, then E-
            del probs  # freed before the next stack runs
            for index, plus, minus in zip(chunk, *means):
                grad[layer + (params.depth if kind == "gamma" else 0)] += \
                    gate_coefficient(instance, kind, index) * slope * (plus - minus)
        return grad
    parts = {kind: _split_shots(shots, gate_count(instance, kind)) for kind in GATE_KINDS}
    rng = np.random.default_rng(seed)
    for gates, halves in _shift_batches(instance, params):
        counts = [parts[kind][index] for kind, _, index in gates for _ in "+-"]
        runs = sample_halves(halves, counts, noise, rng)
        means = np.concatenate([cuts[idx].sum(axis=1) / idx.shape[1] for idx in runs])
        ledger.record_fixed_points(counts, np.concatenate(
            [1 + np.count_nonzero(np.diff(idx), axis=1) for idx in runs]).tolist())
        for (kind, layer, index), plus, minus in zip(gates, means[::2], means[1::2]):
            grad[layer + (params.depth if kind == "gamma" else 0)] += \
                gate_coefficient(instance, kind, index) * (plus - minus)
    return grad


def optimize_exp_bo(instance: MaxCutInstance, depth: int,
                    n_fix: int = DEFAULT_N_FIX,
                    noise: NoiseSpec | None = None, t_max: int = 100,
                    seed: int = 0, n_final: int = 5000) -> RunResult:
    """TPE search on the fixed-shot expectation objective."""
    ledger = ResourceLedger()

    def evaluate(t: int, params: QaoaParams, eval_seed: int) -> Trial:
        value, counts = fixed_shot_expectation_eval(instance, params, n_fix, noise,
                                                    eval_seed, ledger)
        return _fixed_shot_trial(instance, t, params, value, counts, n_fix)

    return run_search(instance, depth, evaluate, noise, t_max, seed, n_final, ledger)


def optimize_exp_gd(instance: MaxCutInstance, depth: int,
                    n_fix: int = DEFAULT_N_FIX,
                    gd_cfg: GdConfig = GdConfig(),
                    noise: NoiseSpec | None = None, seed: int = 0,
                    n_final: int = 5000) -> RunResult:
    """Parameter-shift gradient ascent with Adam on the fixed-shot expectation.

    Each iteration: base evaluation at the current theta (tracks the
    incumbent), one gradient call, one Adam update.  Cost per iteration is
    (2 * 2p + 1) * N_fix shots.
    """
    _check_weight(instance)
    if n_fix < 1:
        raise ValueError("n_fix must be >= 1")
    # the gradient's shots per coordinate and sign; None when it is exact
    shots = None if gd_cfg.exact_gradient else n_fix
    if shots is not None:
        # a budget too small for the gradient's split fails before any charge
        for kind in GATE_KINDS:
            _split_shots(shots, gate_count(instance, kind))
    ledger = ResourceLedger()
    bounds = search_bounds(depth)
    ss = np.random.SeedSequence(seed)
    theta = np.random.default_rng(child_seeds(ss, 1)[0]).uniform(bounds[:, 0], bounds[:, 1])
    m, v = np.zeros((2, theta.size))
    trials: list[Trial] = []
    for t in range(1, gd_cfg.iterations + 1):
        eval_seed, grad_seed = child_seeds(ss, 2)
        params = QaoaParams.from_vector(theta)
        spent = ledger.optimization_shots
        value, counts = fixed_shot_expectation_eval(instance, params, n_fix, noise,
                                                    eval_seed, ledger)
        grad = parameter_shift_gradient(instance, params, shots, noise, grad_seed, ledger)
        trials.append(_fixed_shot_trial(instance, t, params, value, counts,
                                        ledger.optimization_shots - spent))
        step, m, v = adam_step(gd_cfg.learning_rate, m, v, grad, t)
        theta = theta + step
    return finish_run(instance, trials, ss, noise, n_final, ledger, "budget")
