"""Measurement histograms and the statistics the adaptive controller gates on.

The objective is the cut value of the most frequent bitstring (the sample
mode), not the sampled mean.  Acceptance of an evaluation rests on two
statistics of the histogram: a bootstrap estimate of how stable the mode is
under resampling, and the empirical cut variance normalized by total weight.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MaxCutInstance, cut_value, cut_values_table

DEFAULT_BOOTSTRAP_RESAMPLES = 200


@dataclass(frozen=True)
class Counts:
    """Histogram of measured bitstrings.  Values are positive shot counts."""

    histogram: dict[str, int]

    def __post_init__(self):
        lengths = {len(k) for k in self.histogram}
        if len(lengths) > 1:
            raise ValueError("mixed bitstring lengths in histogram")
        for k, v in self.histogram.items():
            if set(k) - {"0", "1"}:
                raise ValueError(f"bad bitstring key {k!r}")
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"count for {k!r} must be a positive int, got {v!r}")

    @property
    def total(self) -> int:
        return sum(self.histogram.values())

    @property
    def distinct(self) -> int:
        return len(self.histogram)

    def merged(self, other: "Counts") -> "Counts":
        out = dict(self.histogram)
        for k, v in other.histogram.items():
            out[k] = out.get(k, 0) + v
        return Counts(out)


@dataclass(frozen=True)
class EvalStats:
    """Summary of one point evaluation, all derived from a single histogram."""

    mode: str
    mode_cut: float
    confidence: float
    var_normalized: float
    expectation_estimate: float
    distinct: int


def mode_of(counts: Counts) -> str:
    """Most frequent bitstring; ties go to the lexicographically smallest."""
    if not counts.histogram:
        raise ValueError("empty histogram has no mode")
    best = max(counts.histogram.values())
    return min(k for k, v in counts.histogram.items() if v == best)


def map_objective(instance: MaxCutInstance, counts: Counts) -> float:
    return cut_value(instance, mode_of(counts))


def expectation_estimate(instance: MaxCutInstance, counts: Counts) -> float:
    total = counts.total
    for k in counts.histogram:
        if len(k) != instance.n:
            raise ValueError(f"bitstring length {len(k)} != n={instance.n}")
    # the table adds the same weights in the same edge order as cut_value
    cuts = cut_values_table(instance)[[int(k, 2) for k in counts.histogram]]
    acc = 0.0
    for v, c in zip(counts.histogram.values(), cuts.tolist()):
        acc += v * c
    return acc / total


def mode_confidence(counts: Counts, resamples: int = DEFAULT_BOOTSTRAP_RESAMPLES,
                    seed: int = 0) -> float:
    """Fraction of multinomial bootstrap resamples whose mode matches the observed one.

    Resampling happens over the K distinct observed keys only, so one call
    costs Theta(resamples * K) independent of the shot count.
    """
    if resamples < 1:
        raise ValueError("need at least one resample")
    keys = sorted(counts.histogram)
    vals = np.array([counts.histogram[k] for k in keys], dtype=np.int64)
    if len(keys) == 1:
        return 1.0
    total = int(vals.sum())
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(total, vals / total, size=resamples)
    # argmax over lexicographically sorted keys reproduces the mode tie-break
    return float(np.mean(draws.argmax(axis=1) == int(vals.argmax())))


def normalized_cut_variance(instance: MaxCutInstance, counts: Counts) -> float:
    """Empirical variance of the cut value, divided by the squared total weight."""
    if instance.total_weight <= 0:
        raise ValueError("total weight must be positive")
    total = counts.total
    first = 0.0
    second = 0.0
    for k, v in counts.histogram.items():
        c = cut_value(instance, k)
        first += v * c
        second += v * c * c
    mean = first / total
    var = max(second / total - mean * mean, 0.0)
    return var / (instance.total_weight ** 2)


def dual_gate(confidence: float, var_normalized: float,
              tau_conf: float, tau_var: float) -> bool:
    """Accept only when the mode is stable AND the distribution is concentrated."""
    return confidence >= tau_conf and var_normalized <= tau_var


def compute_stats(instance: MaxCutInstance, counts: Counts,
                  resamples: int = DEFAULT_BOOTSTRAP_RESAMPLES, seed: int = 0,
                  cut_cache: dict[str, float] | None = None) -> EvalStats:
    """All gate statistics in one pass over the K distinct keys.

    cut_cache maps bitstring -> cut value and is extended in place, so repeated
    evaluations of a growing histogram pay for each distinct key only once.
    """
    if not counts.histogram:
        raise ValueError("empty histogram")
    if cut_cache is None:
        cut_cache = {}
    keys = sorted(counts.histogram)
    for k in keys:
        if k not in cut_cache:
            cut_cache[k] = cut_value(instance, k)
    vals = np.array([counts.histogram[k] for k in keys], dtype=np.int64)
    cuts = np.array([cut_cache[k] for k in keys])
    total = int(vals.sum())
    mode_idx = int(vals.argmax())
    first = float(vals @ cuts) / total
    second = float(vals @ (cuts * cuts)) / total
    var = max(second - first * first, 0.0)
    if len(keys) == 1:
        conf = 1.0
    else:
        rng = np.random.default_rng(seed)
        draws = rng.multinomial(total, vals / total, size=resamples)
        conf = float(np.mean(draws.argmax(axis=1) == mode_idx))
    return EvalStats(
        mode=keys[mode_idx],
        mode_cut=float(cuts[mode_idx]),
        confidence=conf,
        var_normalized=var / (instance.total_weight ** 2),
        expectation_estimate=first,
        distinct=len(keys),
    )
