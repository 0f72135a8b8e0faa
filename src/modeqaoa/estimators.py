"""Measurement histograms and the statistics the adaptive controller gates on.

A histogram is a count vector indexed by basis index, and the mode is an
index too, with ties to the smallest (bit order and tie-break: see the graph
module).  Bitstrings appear only at the boundary: `Counts.from_histogram`
and the `histogram` property.

The objective is the cut value of the most frequent bitstring (the sample
mode), not the sampled mean.  Acceptance of an evaluation rests on two
statistics of the histogram: a bootstrap estimate of how stable the mode is
under resampling, and the empirical cut variance normalized by total weight.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import MAX_BRUTE_FORCE_N, MaxCutInstance, cut_values_table, index_to_bits

DEFAULT_BOOTSTRAP_RESAMPLES = 200


@dataclass(frozen=True, eq=False)
class Counts:
    """Shot counts per basis index: a read-only int64 vector of length 2^n."""

    by_index: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.by_index)
        if arr.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers, got dtype {arr.dtype}")
        if arr.ndim != 1 or arr.size < 2 or arr.size & (arr.size - 1):
            raise ValueError(f"counts must be a vector of length 2^n, got shape {arr.shape}")
        if (arr < 0).any():
            raise ValueError("counts must be non-negative")
        arr = arr.astype(np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "by_index", arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "Counts":
        """Counts owning `arr`, a valid int64 vector no one else holds, unchecked."""
        arr.flags.writeable = False
        counts = object.__new__(cls)
        object.__setattr__(counts, "by_index", arr)
        return counts

    @classmethod
    def from_histogram(cls, histogram: dict[str, int]) -> "Counts":
        """Counts from a bitstring -> positive int histogram, validated."""
        lengths = {len(k) for k in histogram}
        if len(lengths) != 1:
            raise ValueError("histogram needs keys of one common bitstring length")
        (n,) = lengths
        if not 1 <= n <= MAX_BRUTE_FORCE_N:
            raise ValueError(f"bitstring length must lie in [1, {MAX_BRUTE_FORCE_N}], got {n}")
        arr = np.zeros(2**n, dtype=np.int64)
        for k, v in histogram.items():
            if set(k) - {"0", "1"}:
                raise ValueError(f"bad bitstring key {k!r}")
            if type(v) is not int or v < 1:  # bool subclasses int
                raise ValueError(f"count for {k!r} must be a positive int, got {v!r}")
            arr[int(k, 2)] = v
        return cls(arr)

    @property
    def n(self) -> int:
        return self.by_index.size.bit_length() - 1

    @property
    def histogram(self) -> dict[str, int]:
        """Bitstring -> count for every observed outcome, in index order."""
        idx, vals = _support(self)
        return {index_to_bits(k, self.n): v for k, v in zip(idx.tolist(), vals.tolist())}

    @property
    def total(self) -> int:
        return int(self.by_index.sum())

    @property
    def distinct(self) -> int:
        return int(np.count_nonzero(self.by_index))

    def merged(self, other: "Counts") -> "Counts":
        """Sum of two valid histograms, unchecked; numpy refuses different lengths."""
        return Counts._adopt(self.by_index + other.by_index)


@dataclass(frozen=True)
class EvalStats:
    """Summary of one point evaluation, all derived from a single histogram.

    Nothing is drawn until read; each bootstrap comes from `bootstrap_seed` and
    is cached.  `passed` is the dual gate's decision at `gate` (None without
    one): False if the variance fails, else the bootstrap floored at tau_conf,
    which fills `confidence` when it draws every row.
    """

    mode: int  # basis index
    mode_cut: float
    var_normalized: float
    expectation_estimate: float
    distinct: int
    support_counts: np.ndarray = field(repr=False, compare=False)
    resamples: int = field(repr=False)
    bootstrap_seed: int = field(repr=False)
    gate: tuple[float, float] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def confidence(self) -> float:
        return _bootstrap_confidence(self.support_counts, self.resamples, self.bootstrap_seed)

    @cached_property
    def passed(self) -> bool | None:
        if self.gate is None:
            return None
        tau_conf, tau_var = self.gate
        confidence = None if self.var_normalized > tau_var else _bootstrap_confidence(
            self.support_counts, self.resamples, self.bootstrap_seed, floor=tau_conf)
        if confidence is not None:
            vars(self)["confidence"] = confidence  # fills the cached_property's slot
        return dual_gate(confidence, self.var_normalized, tau_conf, tau_var)


def _support(counts: Counts) -> tuple[np.ndarray, np.ndarray]:
    """Observed indices in increasing order and their counts."""
    idx = np.flatnonzero(counts.by_index)
    return idx, counts.by_index[idx]


def _observed_cuts(instance: MaxCutInstance,
                   counts: Counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indices, counts, cut values) of the observed outcomes."""
    if counts.n != instance.n:
        raise ValueError(f"bitstring length {counts.n} != n={instance.n}")
    idx, vals = _support(counts)
    if not idx.size:
        raise ValueError("empty histogram")
    return idx, vals, cut_values_table(instance)[idx]


def _bootstrap_confidence(vals: np.ndarray, resamples: int, seed: int,
                          floor: float | None = None) -> float | None:
    """Share of multinomial resamples over the observed keys whose argmax is the
    observed mode's; argmax in index order reproduces the mode tie-break.

    With a floor, rows are drawn in chunks from the same stream and None is
    returned as soon as the share can no longer reach the floor, so None means
    exactly that the full share is below it.  Each chunk is the number of
    misses the floor still allows plus one, the fewest rows that could decide.
    """
    if resamples < 1:
        raise ValueError("need at least one resample")
    total = int(vals.sum())
    probs = vals / total
    mode = int(vals.argmax())
    rng = np.random.default_rng(seed)
    hits = drawn = 0
    while drawn < resamples:
        left = resamples - drawn
        size = left if floor is None else min(left, int(hits + left - floor * resamples) + 1)
        draws = rng.multinomial(total, probs, size=size)
        hits += int(np.count_nonzero(draws.argmax(axis=1) == mode))
        drawn += size
        if floor is not None and (hits + resamples - drawn) / resamples < floor:
            return None
    return hits / resamples


def _check_weight(instance: MaxCutInstance) -> None:
    if instance.total_weight <= 0:  # every method's statistics divide by it
        raise ValueError("total weight must be positive")


def _mean_cut(vals: np.ndarray, cuts: np.ndarray, total: int) -> float:
    """Mean cut, summed strictly left to right in index order (cumsum), as a
    sequential sum does; a dot product or np.sum may round differently."""
    return float(np.cumsum(vals * cuts)[-1]) / total


def _cut_moments(instance: MaxCutInstance, vals: np.ndarray,
                 cuts: np.ndarray) -> tuple[float, float]:
    """(mean cut, cut variance / total weight^2) of the histogram."""
    _check_weight(instance)
    total = int(vals.sum())
    first = _mean_cut(vals, cuts, total)
    second = float(vals @ (cuts * cuts)) / total
    var = max(second - first * first, 0.0)
    return first, var / (instance.total_weight ** 2)


def mode_of(counts: Counts) -> int:
    """Most frequent basis index; ties go to the smallest."""
    if not counts.by_index.any():
        raise ValueError("empty histogram has no mode")
    return int(counts.by_index.argmax())


def expectation_estimate(instance: MaxCutInstance, counts: Counts) -> float:
    _, vals, cuts = _observed_cuts(instance, counts)
    return _mean_cut(vals, cuts, counts.total)


def mode_confidence(counts: Counts, resamples: int = DEFAULT_BOOTSTRAP_RESAMPLES,
                    seed: int = 0) -> float:
    """Fraction of multinomial bootstrap resamples whose mode matches the observed one.

    Resampling happens over the K distinct observed keys only, so one call
    costs Theta(resamples * K) independent of the shot count.
    """
    return _bootstrap_confidence(_support(counts)[1], resamples, seed)


def normalized_cut_variance(instance: MaxCutInstance, counts: Counts) -> float:
    """Empirical variance of the cut value, divided by the squared total weight."""
    _, vals, cuts = _observed_cuts(instance, counts)
    return _cut_moments(instance, vals, cuts)[1]


def dual_gate(confidence: float | None, var_normalized: float,
              tau_conf: float, tau_var: float) -> bool:
    """Accept only when the mode is stable AND the distribution is concentrated;
    a None confidence (a gated bootstrap that stopped early) fails."""
    return confidence is not None and confidence >= tau_conf and var_normalized <= tau_var


def compute_stats(instance: MaxCutInstance, counts: Counts,
                  resamples: int = DEFAULT_BOOTSTRAP_RESAMPLES,
                  seed: int = 0, *,
                  gate: tuple[float, float] | None = None) -> EvalStats:
    """All gate statistics in one pass over the K distinct observed keys; draws nothing."""
    if resamples < 1:
        raise ValueError("need at least one resample")
    idx, vals, cuts = _observed_cuts(instance, counts)
    first, var_normalized = _cut_moments(instance, vals, cuts)
    mode_idx = int(vals.argmax())
    return EvalStats(
        mode=int(idx[mode_idx]),
        mode_cut=float(cuts[mode_idx]),
        var_normalized=var_normalized,
        expectation_estimate=first,
        distinct=len(idx),
        support_counts=vals,
        resamples=resamples,
        bootstrap_seed=seed,
        gate=gate,
    )
