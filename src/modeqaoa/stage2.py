"""Stage-2 amplification of the target bitstring's sampling probability.

After the search has fixed a candidate string, its probability p_theta(z_tar)
is pushed up by stochastic ascent: each step picks one search coordinate and
one gate under it uniformly at random, measures the two-point gate shift of
the target probability, and rescales by the gate count G_k so the estimate is
an unbiased single-coordinate gradient.  Adam updates only that coordinate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MaxCutInstance, bits_to_index
from .resources import ResourceLedger
from .simulator import (GateShift, NoiseSpec, QaoaParams, apply_depolarizing,
                        distribution, gate_coefficient, outcome_distribution,
                        sample, shift_rule_gradient)


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


def target_probability(instance: MaxCutInstance, params: QaoaParams, target: str,
                       noise: NoiseSpec | None = None, shots: int | None = None,
                       seed: int | None = None,
                       shift: GateShift | None = None) -> float:
    """p_theta(z_tar), exact from the distribution or as a sampled frequency."""
    if len(target) != instance.n:
        raise ValueError("target length must equal n")
    dist = outcome_distribution(instance, params, noise, shift=shift)
    if shots is None:
        return float(dist[bits_to_index(target)])
    counts = sample(dist, shots, seed)
    return int(counts.by_index[bits_to_index(target)]) / shots


def exact_gradient(instance: MaxCutInstance, params: QaoaParams, target: str,
                   noise: NoiseSpec | None = None) -> np.ndarray:
    """Full gradient of p_theta(z_tar), every gate enumerated, exact distributions."""
    if len(target) != instance.n:
        raise ValueError("target length must equal n")
    index = bits_to_index(target)

    def value(shift: GateShift, state: np.ndarray) -> float:
        return float(apply_depolarizing(distribution(state), noise)[index])

    return shift_rule_gradient(instance, params, value)


def randomized_shift_gradient(instance: MaxCutInstance, params: QaoaParams,
                              target: str, cfg: AmplifyConfig,
                              noise: NoiseSpec | None, seed: int,
                              ledger: ResourceLedger) -> tuple[int, float]:
    """(coordinate, unbiased single-coordinate gradient estimate) from one
    uniformly chosen gate's two-point shift, scaled by the gate count G_k."""
    depth = params.depth
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2 * depth))
    if k < depth:
        kind, layer, g_k = "beta", k, instance.n
    else:
        kind, layer, g_k = "gamma", k - depth, instance.num_edges
    index = int(rng.integers(g_k))
    coeff = gate_coefficient(instance, kind, index)
    values = []
    for sign in (1.0, -1.0):
        gs = GateShift(kind, layer, index, sign * np.pi / 2)
        ledger.circuit_evaluations += 1
        if cfg.use_exact:
            values.append(target_probability(instance, params, target, noise,
                                             shift=gs))
        else:
            shot_seed = int(rng.integers(2**63))
            values.append(target_probability(instance, params, target, noise,
                                             shots=cfg.shots_per_shift,
                                             seed=shot_seed, shift=gs))
            ledger.stage2_shots += cfg.shots_per_shift
    return k, g_k * coeff * (values[0] - values[1])


def amplify(instance: MaxCutInstance, params: QaoaParams, target: str,
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
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    ledger.circuit_evaluations += 1
    trace = [target_probability(instance, params, target, noise)]
    for step in range(1, cfg.steps + 1):
        grad_seed = int(ss.spawn(1)[0].generate_state(1)[0])
        current = QaoaParams.from_vector(theta)
        k, estimate = randomized_shift_gradient(instance, current, target, cfg,
                                                noise, grad_seed, ledger)
        m[k] = cfg.adam_beta1 * m[k] + (1 - cfg.adam_beta1) * estimate
        v[k] = cfg.adam_beta2 * v[k] + (1 - cfg.adam_beta2) * estimate**2
        m_hat = m[k] / (1 - cfg.adam_beta1**step)
        v_hat = v[k] / (1 - cfg.adam_beta2**step)
        theta[k] += cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
        if step % cfg.reeval_period == 0 or step == cfg.steps:
            ledger.circuit_evaluations += 1
            current = QaoaParams.from_vector(theta)
            if cfg.use_exact:
                trace.append(target_probability(instance, current, target, noise))
            else:
                eval_seed = int(ss.spawn(1)[0].generate_state(1)[0])
                trace.append(target_probability(instance, current, target, noise,
                                                shots=cfg.shots_per_shift,
                                                seed=eval_seed))
                ledger.stage2_shots += cfg.shots_per_shift
    return QaoaParams.from_vector(theta), trace
