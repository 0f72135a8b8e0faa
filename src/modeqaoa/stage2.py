"""Stage-2 amplification of the target bitstring's sampling probability.

After the search has fixed a candidate index, its probability p_theta(z_tar)
is pushed up by stochastic ascent: each step picks one search coordinate and
one gate under it uniformly at random, reads the target probability from the
gate's shifted distributions (simulator.shifted_pair), and rescales by the
gate count G_k: an unbiased single-coordinate gradient.  Adam updates it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bo import adam_step
from .graph import MaxCutInstance
from .resources import ResourceLedger
from .simulator import (GATE_KINDS, GateShift, NoiseSpec, QaoaParams,
                        apply_depolarizing, child_seeds, gate_coefficient,
                        gate_count, outcome_distribution, sample,
                        shift_rule_gradient, shifted_pair)


@dataclass(frozen=True)
class AmplifyConfig:
    steps: int = 150
    shots_per_shift: int = 200
    learning_rate: float = 0.05
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    reeval_period: int = 10
    use_exact: bool = False

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.shots_per_shift < 1:
            raise ValueError("shots_per_shift must be >= 1")
        if self.reeval_period < 1:
            raise ValueError("reeval_period must be >= 1")


def _read_target(dist: np.ndarray, target: int, shots: int | None = None,
                 seed: int | None = None) -> float:
    """p(target) from `dist`, exactly or as its sampled frequency in `shots` shots."""
    if not 0 <= target < dist.size:  # a negative index would wrap around
        raise ValueError(f"target index {target} outside [0, {dist.size})")
    if shots is None:
        return float(dist[target])
    return int(sample(dist, shots, seed).by_index[target]) / shots


def target_probability(instance: MaxCutInstance, params: QaoaParams, target: int,
                       noise: NoiseSpec | None = None, shots: int | None = None,
                       seed: int | None = None) -> float:
    """p_theta(z_tar), exact from the distribution or as a sampled frequency."""
    return _read_target(outcome_distribution(instance, params, noise), target, shots, seed)


def exact_gradient(instance: MaxCutInstance, params: QaoaParams, target: int,
                   noise: NoiseSpec | None = None) -> np.ndarray:
    """Full gradient of p_theta(z_tar), every gate enumerated, exact distributions."""
    def value(shift: GateShift, probs: np.ndarray) -> float:
        return _read_target(apply_depolarizing(probs, noise), target)

    return shift_rule_gradient(instance, params, value)


def randomized_shift_gradient(instance: MaxCutInstance, params: QaoaParams,
                              target: int, cfg: AmplifyConfig,
                              noise: NoiseSpec | None, seed: int,
                              ledger: ResourceLedger) -> tuple[int, float]:
    """(coordinate, unbiased single-coordinate gradient estimate) from one
    uniformly chosen gate's two-point shift, scaled by the gate count G_k."""
    depth = params.depth
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2 * depth))
    kind, layer = GATE_KINDS[k // depth], k % depth
    g_k = gate_count(instance, kind)
    index = int(rng.integers(g_k))
    shots = None if cfg.use_exact else cfg.shots_per_shift
    values = []
    for probs in shifted_pair(instance, params, kind, layer, index):
        shot_seed = None if shots is None else int(rng.integers(2**63))
        values.append(_read_target(apply_depolarizing(probs, noise), target, shots, shot_seed))
    ledger.circuit_evaluations += 2
    ledger.stage2_shots += 0 if shots is None else 2 * shots
    return k, g_k * gate_coefficient(instance, kind, index) * (values[0] - values[1])


def amplify(instance: MaxCutInstance, params: QaoaParams, target: int,
            cfg: AmplifyConfig | None = None, noise: NoiseSpec | None = None,
            seed: int = 0,
            ledger: ResourceLedger | None = None) -> tuple[QaoaParams, list[float]]:
    """Run the amplification loop; returns final params and the probability trace.

    The trace starts with the exact initial probability and then records a
    re-evaluation every reeval_period steps plus one at the end (sampled with
    shots_per_shift unless use_exact).  Sampled-mode shot charge is exactly
    2 * steps * shots_per_shift + ceil(steps / reeval_period) * shots_per_shift.
    """
    cfg = cfg or AmplifyConfig()
    ledger = ledger if ledger is not None else ResourceLedger()
    ss = np.random.SeedSequence(seed)
    theta = params.to_vector()
    m, v = np.zeros((2, theta.size))
    ledger.circuit_evaluations += 1
    trace = [target_probability(instance, params, target, noise)]
    for step in range(1, cfg.steps + 1):
        current = QaoaParams.from_vector(theta)
        k, estimate = randomized_shift_gradient(instance, current, target, cfg, noise,
                                                child_seeds(ss, 1)[0], ledger)
        delta, m[k], v[k] = adam_step(cfg, m[k], v[k], estimate, step)
        theta[k] += delta
        if step % cfg.reeval_period == 0 or step == cfg.steps:
            ledger.circuit_evaluations += 1
            current = QaoaParams.from_vector(theta)
            if cfg.use_exact:
                trace.append(target_probability(instance, current, target, noise))
            else:
                trace.append(target_probability(instance, current, target, noise,
                                                shots=cfg.shots_per_shift,
                                                seed=child_seeds(ss, 1)[0]))
                ledger.stage2_shots += cfg.shots_per_shift
    return QaoaParams.from_vector(theta), trace
