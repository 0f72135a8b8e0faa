"""Tree-structured Parzen estimator search over the layer angles.

History is split into good/bad groups at the gamma quantile of the objective;
each group gets an independent per-dimension Gaussian KDE (Scott bandwidth
with a floor).  Candidates are drawn from the good density and the one with
the best good/bad density ratio is suggested.  Runs stop on a fixed trial
budget or once the incumbent stops improving.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .estimators import DEFAULT_BOOTSTRAP_RESAMPLES, Counts, EvalStats, compute_stats
from .graph import MaxCutInstance, index_to_bits
from .resources import ResourceLedger
from .shots import AdaptiveConfig, evaluate_point
from .simulator import NoiseSpec, QaoaParams, child_seeds, outcome_distribution, sample


@dataclass(frozen=True)
class TpeConfig:
    startup_trials: int = 10
    good_fraction: float = 0.25
    candidates_per_suggest: int = 24
    bandwidth_floor: float = 0.05

    def __post_init__(self):
        if self.startup_trials < 1:
            raise ValueError("startup_trials must be >= 1")
        if not (0.0 < self.good_fraction < 1.0):
            raise ValueError("good_fraction must lie in (0, 1)")
        if self.candidates_per_suggest < 1:
            raise ValueError("candidates_per_suggest must be >= 1")
        if self.bandwidth_floor <= 0.0:
            raise ValueError("bandwidth_floor must be > 0")


@dataclass(frozen=True)
class StagnationConfig:
    patience: int = 30
    min_delta: float = 1e-9

    def __post_init__(self):
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.min_delta < 0:
            raise ValueError("min_delta must be >= 0")


@dataclass(frozen=True)
class Trial:
    index: int  # 1-based, dense
    params: QaoaParams
    objective: float
    shots_used: int
    accepted: bool
    mode: int  # basis index
    mode_cut: float
    stats: EvalStats | None = None  # adaptive evaluations only


@dataclass(frozen=True)
class RunResult:
    trials: tuple[Trial, ...]
    best_params: QaoaParams
    best_index: int  # the best trial's mode
    best_objective: float
    final_eval: EvalStats
    final_counts: Counts
    ledger: ResourceLedger
    stop_reason: str  # "budget" or "stagnation"


def search_bounds(depth: int) -> np.ndarray:
    """Box bounds for theta = [betas, gammas]: beta in [0, pi), gamma in [0, 2*pi)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    lows = np.zeros(2 * depth)
    highs = np.concatenate([np.full(depth, np.pi), np.full(depth, 2 * np.pi)])
    return np.stack([lows, highs], axis=1)


def split_good_bad(history, good_fraction: float):
    """Top ceil(fraction * T) trials by objective (earlier index wins ties)."""
    if not history:
        raise ValueError("empty history")
    n_good = math.ceil(good_fraction * len(history))
    order = sorted(history, key=lambda t: (-t.objective, t.index))
    return order[:n_good], order[n_good:]


def _bandwidths(obs: np.ndarray, floor: float) -> np.ndarray:
    """Per-dimension Scott-rule bandwidths, floored."""
    k = obs.shape[0]
    if k < 2:
        return np.full(obs.shape[1], floor)
    scott = obs.std(axis=0, ddof=1) * k ** (-1.0 / 5.0)
    return np.maximum(scott, floor)


def _log_kde(points: np.ndarray, obs: np.ndarray, bw: np.ndarray) -> np.ndarray:
    """Log density of a per-dimension Gaussian KDE, summed over dimensions."""
    # points (c, d); obs (k, d); bw (d,)
    z = (points[:, None, :] - obs[None, :, :]) / bw
    log_norm = -0.5 * np.log(2 * np.pi) - np.log(bw)
    comp = -0.5 * z**2 + log_norm  # (c, k, d)
    per_dim = _logmeanexp(comp, axis=1)  # (c, d)
    return per_dim.sum(axis=1)


def _logmeanexp(a: np.ndarray, axis: int) -> np.ndarray:
    hi = a.max(axis=axis, keepdims=True)
    out = hi + np.log(np.exp(a - hi).mean(axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def suggest(history, bounds: np.ndarray, cfg: TpeConfig, seed: int) -> np.ndarray:
    """Next parameter vector: uniform during startup, otherwise TPE."""
    rng = np.random.default_rng(seed)
    lows, highs = bounds[:, 0], bounds[:, 1]
    if len(history) < cfg.startup_trials:
        return rng.uniform(lows, highs)
    good, bad = split_good_bad(history, cfg.good_fraction)
    good_obs = np.stack([t.params.to_vector() for t in good])
    good_bw = _bandwidths(good_obs, cfg.bandwidth_floor)
    picks = rng.integers(len(good), size=cfg.candidates_per_suggest)
    cand = good_obs[picks] + rng.standard_normal((cfg.candidates_per_suggest,
                                                  len(lows))) * good_bw
    cand = np.clip(cand, lows, np.nextafter(highs, lows))
    log_l = _log_kde(cand, good_obs, good_bw)
    if bad:
        bad_obs = np.stack([t.params.to_vector() for t in bad])
        log_g = _log_kde(cand, bad_obs, _bandwidths(bad_obs, cfg.bandwidth_floor))
    else:
        log_g = np.full(len(cand), -np.log(highs - lows).sum())
    return cand[int(np.argmax(log_l - log_g))]


def should_stop(history, cfg: StagnationConfig) -> bool:
    """True once the incumbent gained less than min_delta over the last patience trials."""
    if len(history) < cfg.patience:
        return False
    objectives = [t.objective for t in history]
    incumbent_now = max(objectives)
    incumbent_then = max(objectives[: len(objectives) - cfg.patience + 1])
    return incumbent_now - incumbent_then < cfg.min_delta


def check_adam(cfg) -> None:
    """Refuse settings adam_step would descend or fail on, before any shot is spent."""
    for name, ok, bound in (("learning_rate", cfg.learning_rate >= 0, ">= 0"),
                            ("adam_beta1", 0 <= cfg.adam_beta1 < 1, "in [0, 1)"),
                            ("adam_beta2", 0 <= cfg.adam_beta2 < 1, "in [0, 1)"),
                            ("adam_eps", cfg.adam_eps > 0, "> 0")):
        if not ok:
            raise ValueError(f"{name} must be {bound}, got {getattr(cfg, name)}")


def adam_step(cfg, m, v, grad, t: int):
    """Adam (Kingma & Ba 2014) at step t >= 1: (ascent step, new m, new v).  Elementwise,
    so arrays and scalars give the same bits; cfg holds learning_rate, adam_beta1/2/eps."""
    m = cfg.adam_beta1 * m + (1 - cfg.adam_beta1) * grad
    v = cfg.adam_beta2 * v + (1 - cfg.adam_beta2) * grad**2
    m_hat = m / (1 - cfg.adam_beta1**t)
    v_hat = v / (1 - cfg.adam_beta2**t)
    return cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps), m, v


def run_search(instance: MaxCutInstance, depth: int, evaluate, tpe_cfg: TpeConfig,
               stagnation_cfg: StagnationConfig, noise: NoiseSpec | None,
               t_max: int, seed: int, n_final: int,
               ledger: ResourceLedger) -> RunResult:
    """Shared trial loop: suggest, evaluate, stop, then finish_run.

    evaluate(t, params, seed) -> Trial is the only thing that differs between
    the mode-objective search and the fixed-shot expectation baseline.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    bounds = search_bounds(depth)
    ss = np.random.SeedSequence(seed)
    trials: list[Trial] = []
    stop_reason = "budget"
    for t in range(1, t_max + 1):
        suggest_seed, eval_seed = child_seeds(ss, 2)
        params = QaoaParams.from_vector(suggest(trials, bounds, tpe_cfg, suggest_seed))
        trials.append(evaluate(t, params, eval_seed))
        if should_stop(trials, stagnation_cfg):
            stop_reason = "stagnation"
            break
    return finish_run(instance, trials, ss, noise, n_final, ledger, stop_reason)


def finish_run(instance: MaxCutInstance, trials: list[Trial], ss: np.random.SeedSequence,
               noise: NoiseSpec | None, n_final: int, ledger: ResourceLedger,
               stop_reason: str) -> RunResult:
    """Final evaluation shared by every method: n_final fresh shots at the best
    trial (the earliest with the top objective), with ungated statistics."""
    best = max(trials, key=lambda t: t.objective)
    final_seed, boot_seed = child_seeds(ss, 2)
    dist = outcome_distribution(instance, best.params, noise)
    ledger.circuit_evaluations += 1
    final_counts = sample(dist, n_final, final_seed)
    ledger.final_eval_shots += n_final
    final_eval = compute_stats(instance, final_counts,
                               DEFAULT_BOOTSTRAP_RESAMPLES, boot_seed)
    return RunResult(
        trials=tuple(trials),
        best_params=best.params,
        best_index=best.mode,
        best_objective=best.objective,
        final_eval=final_eval,
        final_counts=final_counts,
        ledger=ledger,
        stop_reason=stop_reason,
    )


def optimize_map_bo(instance: MaxCutInstance, depth: int,
                    adaptive_cfg: AdaptiveConfig = AdaptiveConfig(),
                    tpe_cfg: TpeConfig = TpeConfig(),
                    stagnation_cfg: StagnationConfig = StagnationConfig(),
                    noise: NoiseSpec | None = None, t_max: int = 100,
                    seed: int = 0, n_final: int = 5000) -> RunResult:
    """Mode-objective search with adaptive shots; the proposed method."""
    ledger = ResourceLedger()

    def evaluate(t: int, params: QaoaParams, eval_seed: int) -> Trial:
        pe = evaluate_point(instance, params, noise, adaptive_cfg, eval_seed, ledger)
        return Trial(index=t, params=params, objective=pe.stats.mode_cut,
                     shots_used=pe.shots_used, accepted=pe.accepted,
                     mode=pe.stats.mode, mode_cut=pe.stats.mode_cut, stats=pe.stats)

    return run_search(instance, depth, evaluate, tpe_cfg, stagnation_cfg,
                      noise, t_max, seed, n_final, ledger)


def trials_to_jsonl(trials) -> str:
    """One JSON object per trial, with the running incumbent objective."""
    lines = []
    incumbent = -np.inf
    for trial in trials:
        incumbent = max(incumbent, trial.objective)
        lines.append(json.dumps({
            "t": trial.index,
            "theta": [float(x) for x in trial.params.to_vector()],
            "y": trial.objective,
            "shots": trial.shots_used,
            "accepted": trial.accepted,
            "conf": None if trial.stats is None else trial.stats.confidence,
            "var_norm": None if trial.stats is None else trial.stats.var_normalized,
            "incumbent": incumbent,
        }))
    return "\n".join(lines) + ("\n" if lines else "")


def run_result_to_dict(result: RunResult) -> dict:
    """JSON form of a run, with the indices written as bitstrings."""
    n = result.final_counts.n
    return {
        "best_theta": [float(x) for x in result.best_params.to_vector()],
        "best_bitstring": index_to_bits(result.best_index, n),
        "best_objective": result.best_objective,
        "stop_reason": result.stop_reason,
        "trials": len(result.trials),
        "final_eval": {
            "mode": index_to_bits(result.final_eval.mode, n),
            "mode_cut": result.final_eval.mode_cut,
            "confidence": result.final_eval.confidence,
            "var_norm": result.final_eval.var_normalized,
            "expectation": result.final_eval.expectation_estimate,
            "distinct": result.final_eval.distinct,
            "shots": result.final_counts.total,
        },
        "ledger": result.ledger.to_dict(),
    }
