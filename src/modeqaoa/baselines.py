"""Fixed-shot expectation baselines: TPE search and parameter-shift Adam ascent.

Both charge a constant N_fix shots per expectation evaluation and, unlike the
mode-objective pipeline, their classical post-processing is billed per raw
shot rather than per distinct key.  Gradients score the shifted outcome
distributions of simulator.shift_rule_gradient, the two-point rule per gate.
A sampled gate's value is the mean cut of its shots, drawn as sorted indices
(simulator.sample_indices) from one generator per gradient, in sweep order;
every other evaluation draws a histogram with simulator.sample.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bo import (RunResult, StagnationConfig, TpeConfig, Trial, adam_step, check_adam,
                 finish_run, run_search, search_bounds)
# compute_stats is called through bo.finish_run; perfbench's trace-site test
# still lists this module among those that import it
from .estimators import Counts, compute_stats, expectation_estimate, mode_of  # noqa: F401
from .graph import MaxCutInstance, cut_values_table
from .resources import ResourceLedger
from .simulator import (GATE_KINDS, NoiseSpec, QaoaParams,
                        apply_depolarizing, child_seeds, exact_expectation,
                        gate_count, outcome_distribution, sample, sample_indices,
                        shift_rule_gradient)

DEFAULT_N_FIX = 1000


@dataclass(frozen=True)
class GdConfig:
    iterations: int = 50
    learning_rate: float = 0.05
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    shots_per_eval: int = DEFAULT_N_FIX
    exact_gradient: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        check_adam(self)
        if self.shots_per_eval < 1:
            raise ValueError("shots_per_eval must be >= 1")


def _split_shots(total: int, parts: int) -> list[int]:
    base, rem = divmod(total, parts)
    if base == 0:
        raise ValueError(f"{total} shots cannot cover {parts} generators")
    return [base + 1 if i < rem else base for i in range(parts)]


def fixed_shot_expectation_eval(instance: MaxCutInstance, params: QaoaParams,
                                shots: int, noise: NoiseSpec | None, seed: int,
                                ledger: ResourceLedger) -> tuple[float, Counts]:
    """(sampled mean cut value, histogram) from a fixed shot budget."""
    dist = outcome_distribution(instance, params, noise)
    ledger.circuit_evaluations += 1
    counts = sample(dist, shots, seed)
    ledger.record_fixed_point(shots, counts.distinct)
    return expectation_estimate(instance, counts), counts


def _fixed_shot_trial(instance: MaxCutInstance, t: int, params: QaoaParams,
                      value: float, counts: Counts, shots_used: int) -> Trial:
    """Trial of a fixed-shot point: objective the sampled mean, mode from its histogram."""
    mode = mode_of(counts)
    return Trial(index=t, params=params, objective=value, shots_used=shots_used,
                 accepted=True, mode=mode, mode_cut=float(cut_values_table(instance)[mode]))


def parameter_shift_gradient(instance: MaxCutInstance, params: QaoaParams,
                             shots: int | None, noise: NoiseSpec | None,
                             seed: int, ledger: ResourceLedger) -> np.ndarray:
    """Gradient of the expected cut w.r.t. theta = [betas, gammas].

    shots=None evaluates shifted expectations on the exact distribution;
    otherwise each coordinate spends 2 * shots, split evenly across its
    generators, for a total ledger charge of 2 * 2p * shots per call, all
    drawn from default_rng(seed).
    """
    if shots is not None:
        parts = {kind: _split_shots(shots, gate_count(instance, kind))
                 for kind in GATE_KINDS}
        cuts = cut_values_table(instance)
        rng = np.random.default_rng(seed)

    def value(kind: str, index: int, probs: np.ndarray) -> float:
        dist = apply_depolarizing(probs, noise)
        ledger.circuit_evaluations += 1
        if shots is None:
            return exact_expectation(instance, dist)
        part = parts[kind][index]
        # the mean of i.i.d. cut values needs the drawn indices, not a histogram
        idx = sample_indices(dist, part, rng)
        ledger.record_fixed_point(part, 1 + np.count_nonzero(np.diff(idx)))
        return float(cuts[idx].mean())

    return shift_rule_gradient(instance, params, value)


def optimize_exp_bo(instance: MaxCutInstance, depth: int,
                    n_fix: int = DEFAULT_N_FIX,
                    tpe_cfg: TpeConfig = TpeConfig(),
                    stagnation_cfg: StagnationConfig = StagnationConfig(),
                    noise: NoiseSpec | None = None, t_max: int = 100,
                    seed: int = 0, n_final: int = 5000) -> RunResult:
    """TPE search on the fixed-shot expectation objective."""
    ledger = ResourceLedger()

    def evaluate(t: int, params: QaoaParams, eval_seed: int) -> Trial:
        value, counts = fixed_shot_expectation_eval(instance, params, n_fix, noise,
                                                    eval_seed, ledger)
        return _fixed_shot_trial(instance, t, params, value, counts, n_fix)

    return run_search(instance, depth, evaluate, tpe_cfg, stagnation_cfg,
                      noise, t_max, seed, n_final, ledger)


def optimize_exp_gd(instance: MaxCutInstance, depth: int,
                    gd_cfg: GdConfig = GdConfig(),
                    noise: NoiseSpec | None = None, seed: int = 0,
                    n_final: int = 5000) -> RunResult:
    """Parameter-shift gradient ascent with Adam on the fixed-shot expectation.

    Each iteration: base evaluation at the current theta (tracks the
    incumbent), one gradient call, one Adam update.  Cost per iteration is
    (2 * 2p + 1) * N_fix shots.
    """
    # the gradient's shots per coordinate and sign; None when it is exact
    shots = None if gd_cfg.exact_gradient else gd_cfg.shots_per_eval
    if shots is not None:
        # a budget too small for the gradient's split fails before any charge
        _split_shots(shots, max(gate_count(instance, k) for k in GATE_KINDS))
    ledger = ResourceLedger()
    bounds = search_bounds(depth)
    ss = np.random.SeedSequence(seed)
    theta = np.random.default_rng(child_seeds(ss, 1)[0]).uniform(bounds[:, 0], bounds[:, 1])
    m, v = np.zeros((2, theta.size))
    trials: list[Trial] = []
    for t in range(1, gd_cfg.iterations + 1):
        eval_seed, grad_seed = child_seeds(ss, 2)
        params = QaoaParams.from_vector(theta)
        value, counts = fixed_shot_expectation_eval(instance, params,
                                                    gd_cfg.shots_per_eval, noise,
                                                    eval_seed, ledger)
        grad = parameter_shift_gradient(instance, params, shots, noise, grad_seed, ledger)
        grad_shots = 0 if shots is None else 2 * 2 * depth * shots
        trials.append(_fixed_shot_trial(instance, t, params, value, counts,
                                        gd_cfg.shots_per_eval + grad_shots))
        step, m, v = adam_step(gd_cfg, m, v, grad, t)
        theta = theta + step
    return finish_run(instance, trials, ss, noise, n_final, ledger, "budget")
