"""Dual-criterion adaptive shot allocation.

One point evaluation computes the outcome distribution once, then draws shot
batches from it: a pilot batch, then batches that double, capped by the
per-point budget.  After every batch the gate statistics are recomputed on
the merged histogram; sampling stops as soon as mode confidence and normalized
cut variance both clear their thresholds, or the budget is exhausted.  Every
round's gate decision is drawn only when it is read (see EvalStats), and the
round that reaches the budget stops unread; `accepted` reads it on demand.

With the defaults (pilot 100, cap 1200) the batch sizes are exactly 100, 200,
400, 500.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import DEFAULT_BOOTSTRAP_RESAMPLES, Counts, EvalStats, compute_stats
from .graph import MaxCutInstance
from .resources import ResourceLedger
from .simulator import NoiseSpec, QaoaParams, child_seeds, outcome_distribution, sample


@dataclass(frozen=True)
class AdaptiveConfig:
    pilot_shots: int = 100
    max_shots: int = 1200
    tau_conf: float = 0.90
    tau_var: float = 0.02
    bootstrap_resamples: int = DEFAULT_BOOTSTRAP_RESAMPLES

    def __post_init__(self):
        if self.pilot_shots < 1:
            raise ValueError("pilot_shots must be >= 1")
        if self.max_shots < self.pilot_shots:
            raise ValueError("max_shots must be >= pilot_shots")
        if not (0.0 < self.tau_conf <= 1.0):
            raise ValueError("tau_conf must lie in (0, 1]")
        if not self.tau_var >= 0.0:  # NaN would never pass the gate
            raise ValueError(f"tau_var must be >= 0, got {self.tau_var}")
        if self.bootstrap_resamples < 1:
            raise ValueError("bootstrap_resamples must be >= 1")


@dataclass(frozen=True)
class PointEvaluation:
    params: QaoaParams
    counts: Counts
    stats: EvalStats
    shots_used: int
    rounds: int

    @property
    def accepted(self) -> bool:
        return self.stats.passed


def next_batch(current: int, spent: int, cfg: AdaptiveConfig) -> int:
    """Next batch size: twice the current one, clipped to the budget."""
    if spent >= cfg.max_shots:
        raise ValueError("budget already exhausted")
    return min(2 * current, cfg.max_shots - spent)


def evaluate_point(instance: MaxCutInstance, params: QaoaParams,
                   noise: NoiseSpec | None, cfg: AdaptiveConfig,
                   seed: int, ledger: ResourceLedger) -> PointEvaluation:
    """Adaptively sampled evaluation of one parameter point."""
    dist = outcome_distribution(instance, params, noise)
    ledger.circuit_evaluations += 1
    ss = np.random.SeedSequence(seed)
    counts: Counts | None = None
    batch = cfg.pilot_shots
    spent = 0
    rounds = 0
    while True:
        rounds += 1
        sample_seed, boot_seed = child_seeds(ss, 2)
        fresh = sample(dist, batch, sample_seed)
        counts = fresh if counts is None else counts.merged(fresh)
        spent += batch
        ledger.optimization_shots += batch
        ledger.classical_count_ops += batch
        stats = compute_stats(instance, counts, cfg.bootstrap_resamples, boot_seed,
                              gate=(cfg.tau_conf, cfg.tau_var))
        # the paper's modelled B*K charge per round, not the rows actually drawn
        ledger.bootstrap_ops += cfg.bootstrap_resamples * stats.distinct
        if spent >= cfg.max_shots or stats.passed:
            break
        batch = next_batch(batch, spent, cfg)
    # merged histograms only grow, so each distinct key's cut is paid for once
    ledger.classical_cut_ops += stats.distinct
    ledger.record_point(spent, stats.distinct)
    return PointEvaluation(params=params, counts=counts, stats=stats,
                           shots_used=spent, rounds=rounds)
