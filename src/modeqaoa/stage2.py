"""Stage-2 amplification of the target bitstring's sampling probability.

After the search has fixed a candidate index, its probability p_theta(z_tar)
is pushed up by stochastic ascent: each step picks one search coordinate and
one gate under it uniformly at random, reads the target probability under
the gate's two shifts (simulator.shifted_target, which builds neither
shifted distribution), and rescales by the gate count G_k: an unbiased
single-coordinate gradient.  Adam updates it.  A sampled read of p(target)
is a binomial draw (the histogram's marginal at that bin) from the run's one
generator, which also picks each step's gate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bo import adam_step
from .graph import MaxCutInstance
from .resources import ResourceLedger
# sample is not called here; perfbench's trace-site test still pins this import
from .simulator import (GATE_KINDS, NoiseSpec, QaoaParams, apply_depolarizing,  # noqa: F401
                        gate_coefficient, gate_count, outcome_distribution, sample,
                        shift_rule_gradient, shifted_target)


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


def _check_read(size: int, target: int, shots: int | None,
                seed: int | np.random.Generator | None) -> None:
    """Refuse a read of `target` from `size` bins before any state is made."""
    if not 0 <= target < size:  # a negative index would wrap around
        raise ValueError(f"target index {target} outside [0, {size})")
    if shots is not None and (shots < 1 or seed is None):
        # no silent OS entropy: a read must be reproducible
        raise ValueError("a sampled read needs shots >= 1 and a seed")


def _draw(p: float, shots: int | None, seed: int | np.random.Generator | None) -> float:
    """p itself, or its sampled frequency in `shots` shots; every stage-2 shot
    is drawn here, as a binomial draw."""
    if shots is None:
        return p
    return int(np.random.default_rng(seed).binomial(shots, p)) / shots


def _read_target(dist: np.ndarray, target: int, shots: int | None = None,
                 seed: int | np.random.Generator | None = None) -> float:
    """p(target) from `dist`, exactly or as its sampled frequency in `shots` shots."""
    _check_read(dist.size, target, shots, seed)
    return _draw(float(dist[target] if shots is None else dist[target] / dist.sum()),
                 shots, seed)


def target_probability(instance: MaxCutInstance, params: QaoaParams, target: int,
                       noise: NoiseSpec | None = None, shots: int | None = None,
                       seed: int | np.random.Generator | None = None) -> float:
    """p_theta(z_tar), exact from the distribution or as a sampled frequency."""
    return _read_target(outcome_distribution(instance, params, noise), target, shots, seed)


def exact_gradient(instance: MaxCutInstance, params: QaoaParams, target: int,
                   noise: NoiseSpec | None = None) -> np.ndarray:
    """Full gradient of p_theta(z_tar), every gate enumerated, exact distributions."""
    def value(kind: str, index: int, probs: np.ndarray) -> float:
        return _read_target(apply_depolarizing(probs, noise), target)

    return shift_rule_gradient(instance, params, value)


def randomized_shift_gradient(instance: MaxCutInstance, params: QaoaParams,
                              target: int, shots: int | None,
                              noise: NoiseSpec | None, seed: int | np.random.Generator,
                              ledger: ResourceLedger) -> tuple[int, float]:
    """(coordinate, unbiased single-coordinate gradient estimate) from one
    uniformly chosen gate's two-point shift, scaled by the gate count G_k;
    each shifted p(target), depolarized as (1 - L) p + L / 2^n, is read exactly
    (shots=None) or from `shots` shots."""
    _check_read(2**instance.n, target, shots, seed)
    depth = params.depth
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2 * depth))
    kind, layer = GATE_KINDS[k // depth], k % depth
    g_k = gate_count(instance, kind)
    index = int(rng.integers(g_k))
    mixing = 0.0 if noise is None else noise.effective_mixing
    values = [_draw((1.0 - mixing) * p + mixing / 2**instance.n, shots, rng)
              for p in shifted_target(instance, params, kind, layer, index, target)]
    ledger.circuit_evaluations += 2
    ledger.stage2_shots += 0 if shots is None else 2 * shots
    return k, g_k * gate_coefficient(instance, kind, index) * (values[0] - values[1])


def amplify(instance: MaxCutInstance, params: QaoaParams, target: int,
            cfg: AmplifyConfig = AmplifyConfig(), noise: NoiseSpec | None = None,
            seed: int = 0,
            ledger: ResourceLedger | None = None) -> tuple[QaoaParams, list[float]]:
    """Run the amplification loop; returns final params and the probability trace.

    The trace starts with the exact initial probability and then records a
    re-evaluation every reeval_period steps plus one at the end (sampled with
    shots_per_shift unless use_exact).  Sampled-mode shot charge is exactly
    2 * steps * shots_per_shift + ceil(steps / reeval_period) * shots_per_shift.
    """
    ledger = ledger if ledger is not None else ResourceLedger()
    shots = None if cfg.use_exact else cfg.shots_per_shift
    rng = np.random.default_rng(seed)
    theta = params.to_vector()
    m, v = np.zeros((2, theta.size))
    ledger.circuit_evaluations += 1
    trace = [target_probability(instance, params, target, noise)]
    for step in range(1, cfg.steps + 1):
        k, estimate = randomized_shift_gradient(
            instance, QaoaParams.from_vector(theta), target, shots, noise, rng, ledger)
        delta, m[k], v[k] = adam_step(cfg, m[k], v[k], estimate, step)
        theta[k] += delta
        if step % cfg.reeval_period == 0 or step == cfg.steps:
            ledger.circuit_evaluations += 1
            trace.append(target_probability(
                instance, QaoaParams.from_vector(theta), target, noise, shots, rng))
            ledger.stage2_shots += 0 if shots is None else shots
    return QaoaParams.from_vector(theta), trace
