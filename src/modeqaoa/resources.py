"""Resource accounting and benchmark metrics.

The ledger counts what each method actually consumed: quantum shots split by
phase, circuit evaluations, and the classical post-processing surrogates
(count updates per raw shot, cut evaluations per distinct key, bootstrap
draws).  Savings ratios compare a fixed-shot ledger against an adaptive one.

`bootstrap_ops` is the paper's modelled charge, B resamples times K distinct
keys for every evaluated adaptive round, not the resample rows actually drawn.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimators import Counts, EvalStats, expectation_estimate
from .graph import MaxCutInstance, brute_force_optimum, cut_values_table


@dataclass
class ResourceLedger:
    optimization_shots: int = 0
    final_eval_shots: int = 0
    stage2_shots: int = 0
    circuit_evaluations: int = 0
    classical_count_ops: int = 0
    classical_cut_ops: int = 0
    bootstrap_ops: int = 0
    per_point_shots: list[int] = field(default_factory=list)
    distinct_counts: list[int] = field(default_factory=list)

    @property
    def total_shots(self) -> int:
        return self.optimization_shots + self.final_eval_shots + self.stage2_shots

    def record_point(self, shots: int, distinct: int) -> None:
        self.per_point_shots.append(int(shots))
        self.distinct_counts.append(int(distinct))

    def record_fixed_points(self, shots: list[int], distinct: list[int]) -> None:
        """Fixed-shot points, a circuit evaluation each, billed per raw shot."""
        self.circuit_evaluations += len(shots)
        self.optimization_shots += sum(shots)
        self.classical_count_ops += sum(shots)
        self.classical_cut_ops += sum(shots)
        self.per_point_shots.extend(shots)
        self.distinct_counts.extend(distinct)

    @property
    def avg_point_shots(self) -> float | None:
        return float(np.mean(self.per_point_shots)) if self.per_point_shots else None

    @property
    def avg_distinct(self) -> float | None:
        return float(np.mean(self.distinct_counts)) if self.distinct_counts else None

    def to_dict(self) -> dict:
        return {
            "optimization_shots": self.optimization_shots,
            "final_eval_shots": self.final_eval_shots,
            "stage2_shots": self.stage2_shots,
            "total_shots": self.total_shots,
            "circuit_evaluations": self.circuit_evaluations,
            "classical_count_ops": self.classical_count_ops,
            "classical_cut_ops": self.classical_cut_ops,
            "bootstrap_ops": self.bootstrap_ops,
            "per_point_shots": list(self.per_point_shots),
            "distinct_counts": list(self.distinct_counts),
        }


def _optimum_cut(instance: MaxCutInstance) -> float:
    _, best = brute_force_optimum(instance)
    if best <= 0:
        raise ValueError("optimum cut must be positive")
    return best


def final_mode_accuracy(instance: MaxCutInstance, final_eval: EvalStats) -> float:
    """Cut value of the final mode over the exact optimum."""
    best = _optimum_cut(instance)
    return final_eval.mode_cut / best


def aux_accuracies(instance: MaxCutInstance, final_counts: Counts) -> tuple[float, float]:
    """(expectation accuracy, best-sampled-string accuracy) from the final histogram."""
    best = _optimum_cut(instance)
    exp_acc = expectation_estimate(instance, final_counts) / best
    best_cut = float(cut_values_table(instance)[final_counts.by_index > 0].max())
    return exp_acc, best_cut / best


def shots_to_threshold(trials, instance: MaxCutInstance, threshold: float) -> int | None:
    """Cumulative optimization shots when the incumbent objective first clears
    threshold * optimum.  None when the run never gets there.

    The incumbent is the running best y_t, so for the mode objective this is
    the mode accuracy and for the expectation baselines it is the (harder)
    expectation accuracy; each method is thresholded on its own objective.
    """
    best = _optimum_cut(instance)
    spent = 0
    incumbent = -np.inf
    for trial in trials:
        spent += trial.shots_used
        incumbent = max(incumbent, trial.objective)
        if incumbent / best >= threshold:
            return spent
    return None


def pooled_savings(shots_exp: int, shots_map: int, trials_map: int, k_avg: float,
                   num_edges: int, bootstrap_resamples: int) -> tuple[float, float]:
    """Quantum and classical savings of adaptive runs over fixed-shot runs,
    from each side's optimization shots summed over its trials.

    S_q is the plain ratio of optimization shots.  S_cl compares the fixed-shot
    per-shot cut cost T*N*m against the adaptive count + per-key cut + bootstrap
    pipeline T*N_avg + T*K_avg*m + B*T*K_avg.
    """
    s_q = shots_exp / shots_map
    s_cl = (shots_exp * num_edges) / (
        shots_map + trials_map * k_avg * num_edges + bootstrap_resamples * trials_map * k_avg)
    return s_q, s_cl


def saving_ratios(ledger_exp: ResourceLedger, trials_exp: int,
                  ledger_map: ResourceLedger, trials_map: int,
                  num_edges: int, bootstrap_resamples: int) -> tuple[float, float]:
    """pooled_savings of one fixed-shot run over one adaptive run."""
    if trials_exp < 1 or trials_map < 1:
        raise ValueError("need at least one trial per method")
    if not ledger_map.distinct_counts:
        raise ValueError("adaptive ledger has no per-point distinct counts")
    return pooled_savings(ledger_exp.optimization_shots, ledger_map.optimization_shots,
                          trials_map, ledger_map.avg_distinct, num_edges,
                          bootstrap_resamples)


def build_report(instance: MaxCutInstance, result, threshold: float) -> dict:
    """Metrics for one finished run (any method; result is a RunResult), keyed
    as in bench's records."""
    exp_acc, best_acc = aux_accuracies(instance, result.final_counts)
    return {
        "final_mode_accuracy": final_mode_accuracy(instance, result.final_eval),
        "final_expectation_accuracy": exp_acc,
        "final_best_sample_accuracy": best_acc,
        "total_shots": result.ledger.total_shots,
        "shots_to_threshold": shots_to_threshold(result.trials, instance, threshold),
    }
