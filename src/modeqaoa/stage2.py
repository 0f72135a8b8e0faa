"""Stage-2 amplification of the target bitstring's sampling probability.

After the search has fixed a candidate index, its probability p_theta(z_tar)
is pushed up by stochastic ascent: each step picks one search coordinate and
one gate under it uniformly at random, reads the target probability under
the gate's two shifts, and rescales by the gate count G_k: an unbiased
single-coordinate gradient.  Adam updates it.  Every read of a run, its trace
included, and of exact_gradient goes through one simulator.TargetReader: no
distribution is built.  A sampled read is a binomial draw (the histogram's bin
marginal) from the run's one generator, which also picks each step's gate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bo import _check_weight, adam_step
from .graph import MaxCutInstance
from .resources import ResourceLedger
# sample is not called here; perfbench's trace-site test still pins this import
from .simulator import (GATE_KINDS, NoiseSpec, QaoaParams, TargetReader,  # noqa: F401
                        depolarize, gate_coefficient, gate_count, outcome_distribution,
                        sample)


@dataclass(frozen=True)
class AmplifyConfig:
    steps: int = 150
    shots_per_shift: int = 200
    learning_rate: float = 0.05  # Adam's; its moments are bo.ADAM_BETAS and ADAM_EPS
    reeval_period: int = 10
    use_exact: bool = False

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.shots_per_shift < 1:
            raise ValueError("shots_per_shift must be >= 1")
        if self.reeval_period < 1:
            raise ValueError("reeval_period must be >= 1")
        if not 0 <= self.learning_rate < np.inf:  # a negative rate descends; NaN fails too
            raise ValueError(f"learning_rate must be >= 0 and finite, got {self.learning_rate}")


def _check_shots(shots: int | None, seed: int | np.random.Generator | None) -> None:
    """Refuse a sampled read that could not be reproduced, before any state is made."""
    if shots is not None and (shots < 1 or seed is None):
        # no silent OS entropy: a read must be reproducible
        raise ValueError("a sampled read needs shots >= 1 and a seed")


def _draw(p: float, shots: int | None, seed: int | np.random.Generator | None) -> float:
    """p itself, or its sampled frequency in `shots` shots; every stage-2 shot
    is drawn here, as a binomial draw."""
    if shots is None:
        return p
    return int(np.random.default_rng(seed).binomial(shots, p)) / shots


def _read_depolarized(p: float, noise: NoiseSpec | None, n: int, shots: int | None,
                      rng: np.random.Generator, ledger: ResourceLedger) -> float:
    """One circuit's read of a reader's p(target), depolarized, exact or from
    `shots` shots, charged to `ledger`."""
    ledger.circuit_evaluations += 1
    ledger.stage2_shots += 0 if shots is None else shots
    return _draw(depolarize(noise, p, 2.0 ** -n), shots, rng)


def _read_target(dist: np.ndarray, target: int, shots: int | None = None,
                 seed: int | np.random.Generator | None = None) -> float:
    """p(target) from `dist`, exactly or as its sampled frequency in `shots` shots."""
    if not 0 <= target < dist.size:  # a negative index would wrap around
        raise ValueError(f"target index {target} outside [0, {dist.size})")
    _check_shots(shots, seed)
    return _draw(float(dist[target] if shots is None else dist[target] / dist.sum()),
                 shots, seed)


def target_probability(instance: MaxCutInstance, params: QaoaParams, target: int,
                       noise: NoiseSpec | None = None, shots: int | None = None,
                       seed: int | np.random.Generator | None = None) -> float:
    """p_theta(z_tar), exact from the distribution or as a sampled frequency."""
    return _read_target(outcome_distribution(instance, params, noise), target, shots, seed)


def exact_gradient(instance: MaxCutInstance, params: QaoaParams, target: int,
                   noise: NoiseSpec | None = None) -> np.ndarray:
    """Full gradient of p_theta(z_tar), every gate read through one TargetReader
    (built once at these angles), each p+ - p- depolarized (the channel's slope)."""
    depth = params.depth
    reader = TargetReader(instance, target, depth)
    scale = depolarize(noise, 1.0, 0.0)
    grad = np.zeros(2 * depth)
    for k in range(2 * depth):
        kind, layer = GATE_KINDS[k // depth], k % depth
        for index in range(gate_count(instance, kind)):
            plus, minus = reader.read(params, kind, layer, index)
            grad[k] += gate_coefficient(instance, kind, index) * scale * (plus - minus)
    return grad


def randomized_shift_gradient(reader: TargetReader, params: QaoaParams,
                              shots: int | None, noise: NoiseSpec | None,
                              seed: int | np.random.Generator, ledger: ResourceLedger
                              ) -> tuple[int, float]:
    """(coordinate, unbiased single-coordinate gradient estimate) from one
    uniformly chosen gate's two-point shift, scaled by the gate count G_k;
    each shifted p(reader.target), depolarized, is read exactly (shots=None)
    or from `shots` shots.  `reader` keeps its states for the next call."""
    _check_shots(shots, seed)
    instance = reader.instance
    depth = params.depth
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2 * depth))
    kind, layer = GATE_KINDS[k // depth], k % depth
    g_k = gate_count(instance, kind)
    index = int(rng.integers(g_k))
    plus, minus = (_read_depolarized(p, noise, instance.n, shots, rng, ledger)
                   for p in reader.read(params, kind, layer, index))
    return k, g_k * gate_coefficient(instance, kind, index) * (plus - minus)


def amplify(instance: MaxCutInstance, params: QaoaParams, target: int,
            cfg: AmplifyConfig = AmplifyConfig(), noise: NoiseSpec | None = None,
            seed: int = 0,
            ledger: ResourceLedger | None = None) -> tuple[QaoaParams, list[float]]:
    """Run the amplification loop; returns final params and the probability trace.

    The trace starts with the exact initial probability and then records a
    re-evaluation every reeval_period steps plus one at the end (sampled with
    shots_per_shift unless use_exact), read as the steps' reads are.  The
    sampled-mode shot charge is exactly
    2 * steps * shots_per_shift + ceil(steps / reeval_period) * shots_per_shift.
    """
    _check_weight(instance)
    ledger = ledger if ledger is not None else ResourceLedger()
    shots = None if cfg.use_exact else cfg.shots_per_shift
    rng = np.random.default_rng(seed)
    reader = TargetReader(instance, target, params.depth)
    theta = params.to_vector()
    m, v = np.zeros((2, theta.size))
    trace = [_read_depolarized(reader.probability(params), noise, instance.n, None, rng,
                               ledger)]
    for step in range(1, cfg.steps + 1):
        k, estimate = randomized_shift_gradient(
            reader, QaoaParams.from_vector(theta), shots, noise, rng, ledger)
        delta, m[k], v[k] = adam_step(cfg.learning_rate, m[k], v[k], estimate, step)
        theta[k] += delta
        if step % cfg.reeval_period == 0 or step == cfg.steps:
            trace.append(_read_depolarized(reader.probability(QaoaParams.from_vector(theta)),
                                           noise, instance.n, shots, rng, ledger))
    return QaoaParams.from_vector(theta), trace
