"""Exact statevector simulation of the alternating-layer MaxCut ansatz.

The cost layer is diagonal, so one layer costs an elementwise phase over the
2^n cut values plus n independent single-qubit X rotations.  Basis index bit 0
is the most significant bit and belongs to vertex 0 (see graph module).

Gate-level shifts: every gate can be written exp(-i * (phi/2) * P) with P
involutory; for an edge gate phi = gamma * w, for a mixer gate phi = 2 * beta.
A GateShift displaces one gate's half-turn angle phi, which is what the
parameter-shift estimators in baselines and stage2 need.  `shifted_states`
enumerates every +-pi/2 gate shift while sharing the unshifted prefix of the
circuit, and `shift_rule_gradient` folds those shifts into a gradient.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .estimators import Counts
from .graph import Edge, MaxCutInstance, cut_values_table, index_to_bits

MAX_QUBITS = 24


@dataclass(frozen=True)
class QaoaParams:
    """Layer angles; the search vector is the concatenation [betas, gammas]."""

    betas: tuple[float, ...]
    gammas: tuple[float, ...]

    def __post_init__(self):
        if len(self.betas) != len(self.gammas) or not self.betas:
            raise ValueError("betas and gammas must have equal positive length")
        for x in (*self.betas, *self.gammas):
            if not np.isfinite(x):
                raise ValueError("angles must be finite")

    @property
    def depth(self) -> int:
        return len(self.betas)

    def to_vector(self) -> np.ndarray:
        return np.array(self.betas + self.gammas)

    @classmethod
    def from_vector(cls, theta) -> "QaoaParams":
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 1 or theta.size % 2 != 0 or theta.size == 0:
            raise ValueError("theta must be a flat vector of even positive length")
        p = theta.size // 2
        return cls(betas=tuple(theta[:p]), gammas=tuple(theta[p:]))


@dataclass(frozen=True)
class NoiseSpec:
    """Global depolarizing channel: per-gate rate compounded over the gate count."""

    lambda_per_gate: float
    gate_count: int

    def __post_init__(self):
        if not 0.0 <= self.lambda_per_gate <= 1.0:
            raise ValueError("lambda_per_gate must lie in [0, 1]")
        if self.gate_count < 0:
            raise ValueError("gate_count must be non-negative")

    @classmethod
    def for_circuit(cls, lambda_per_gate: float, instance: MaxCutInstance,
                    depth: int) -> "NoiseSpec":
        # one gate per edge phase and one per mixer rotation, per layer
        return cls(lambda_per_gate, depth * (instance.num_edges + instance.n))

    @property
    def effective_mixing(self) -> float:
        return 1.0 - (1.0 - self.lambda_per_gate) ** self.gate_count


@dataclass(frozen=True)
class GateShift:
    """Displace one gate's half-turn angle by `angle` (radians of phi)."""

    kind: str  # "beta" or "gamma"
    layer: int  # 0-based
    index: int  # qubit for beta, edge position for gamma
    angle: float

    def __post_init__(self):
        if self.kind not in ("beta", "gamma"):
            raise ValueError(f"unknown shift kind {self.kind!r}")


def gate_coefficient(instance: MaxCutInstance, kind: str, index: int) -> float:
    """d(theta_k)/d(phi_gate) times the 1/2 of the two-point rule."""
    if kind == "beta":
        return 1.0
    return instance.edges[index][2] / 2.0


def _check_size(n: int, states: int) -> None:
    """Refuse n above the cap before any state is allocated."""
    if n > MAX_QUBITS:
        per_state = 2**n * 16
        raise ValueError(
            f"simulator capped at n={MAX_QUBITS}, got n={n}: one state is "
            f"2^{n} x 16 B = {per_state / 2**20:.0f} MiB and this call keeps "
            f"{states} of them ({states * per_state / 2**20:.0f} MiB)")


@lru_cache(maxsize=256)
def _edge_indicator(n: int, edges: tuple[Edge, ...], edge_index: int) -> np.ndarray:
    u, v, _ = edges[edge_index]
    idx = np.arange(2**n, dtype=np.int64)
    ind = (((idx >> (n - 1 - u)) ^ (idx >> (n - 1 - v))) & 1).astype(float)
    ind.flags.writeable = False
    return ind


def _apply_mixer(amps: np.ndarray, n: int, qubit: int, beta: float) -> None:
    if beta == 0.0:
        return
    c = np.cos(beta)
    s = np.sin(beta)
    view = amps.reshape(2**qubit, 2, -1)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = c * a0 - 1j * s * a1
    view[:, 1, :] = c * a1 - 1j * s * a0


def evolve(instance: MaxCutInstance, params: QaoaParams,
           shift: GateShift | None = None) -> np.ndarray:
    """Statevector after p alternating layers applied to the uniform superposition."""
    n = instance.n
    _check_size(n, 1)
    if shift is not None and not 0 <= shift.layer < params.depth:
        raise ValueError(f"shift layer {shift.layer} out of range")
    cuts = cut_values_table(instance)
    amps = np.full(2**n, 2.0 ** (-n / 2), dtype=complex)
    for layer in range(params.depth):
        amps = amps * np.exp(-1j * params.gammas[layer] * cuts)
        if shift is not None and shift.kind == "gamma" and shift.layer == layer:
            if not 0 <= shift.index < instance.num_edges:
                raise ValueError(f"edge index {shift.index} out of range")
            # shifting phi_e = gamma * w_e adds a pure indicator phase
            amps = amps * np.exp(-1j * shift.angle
                                 * _edge_indicator(n, instance.edges, shift.index))
        for q in range(n):
            beta = params.betas[layer]
            if shift is not None and shift.kind == "beta" \
                    and shift.layer == layer and shift.index == q:
                beta = beta + shift.angle / 2.0  # phi = 2*beta
            _apply_mixer(amps, n, q, beta)
    return amps


def shifted_states(instance: MaxCutInstance, params: QaoaParams
                   ) -> Iterator[tuple[GateShift, float, np.ndarray]]:
    """(shift, gate coefficient, state) for every +-pi/2 gate shift.

    Order: search coordinate k = [betas, gammas], then gate within k, then +
    before -.  Each state equals evolve(instance, params, shift) bit for bit:
    the same float operations run in the same order, but the unshifted prefix
    is computed once.  A mixer shift on qubit q continues from a running copy
    of the layer's state after mixers 0..q-1; an edge shift continues from the
    cached state right after the layer's cost phase.  Keeps 2 * depth + 2
    state-sized arrays: the layer phase vectors, the after-cost states, the
    running copy and the shifted state.
    """
    n = instance.n
    depth = params.depth
    _check_size(n, 2 * depth + 2)
    cuts = cut_values_table(instance)
    phases = [np.exp(-1j * gamma * cuts) for gamma in params.gammas]

    def mixers(amps, layer, first=0):
        for q in range(first, n):
            _apply_mixer(amps, n, q, params.betas[layer])

    def rest(amps, layer):
        for later in range(layer + 1, depth):
            amps = amps * phases[later]
            mixers(amps, later)
        return amps

    after_cost = []
    amps = np.full(2**n, 2.0 ** (-n / 2), dtype=complex)
    for layer in range(depth):
        amps = amps * phases[layer]
        after_cost.append(amps)
        amps = amps.copy()
        beta = params.betas[layer]
        for q in range(n):
            coeff = gate_coefficient(instance, "beta", q)
            for sign in (1.0, -1.0):
                angle = sign * np.pi / 2.0
                shifted = amps.copy()
                _apply_mixer(shifted, n, q, beta + angle / 2.0)  # phi = 2*beta
                mixers(shifted, layer, q + 1)
                yield GateShift("beta", layer, q, angle), coeff, rest(shifted, layer)
            _apply_mixer(amps, n, q, beta)
    for layer in range(depth):
        for e in range(instance.num_edges):
            coeff = gate_coefficient(instance, "gamma", e)
            for sign in (1.0, -1.0):
                angle = sign * np.pi / 2.0
                shifted = after_cost[layer] * np.exp(
                    -1j * angle * _edge_indicator(n, instance.edges, e))
                mixers(shifted, layer)
                yield GateShift("gamma", layer, e, angle), coeff, rest(shifted, layer)


def shift_rule_gradient(instance: MaxCutInstance, params: QaoaParams,
                        value: Callable[[GateShift, np.ndarray], float]) -> np.ndarray:
    """Gradient w.r.t. theta = [betas, gammas] by the exact two-point rule per gate.

    value(shift, state) scores each shifted state, called in the order of
    `shifted_states`; coordinate k sums coeff * (value(+) - value(-)) over its
    gates.
    """
    depth = params.depth
    grad = np.zeros(2 * depth)
    plus = 0.0
    for shift, coeff, state in shifted_states(instance, params):
        if shift.angle > 0:
            plus = value(shift, state)
        else:
            k = shift.layer + (depth if shift.kind == "gamma" else 0)
            grad[k] += coeff * (plus - value(shift, state))
    return grad


def distribution(state: np.ndarray) -> np.ndarray:
    probs = np.abs(state) ** 2
    return probs / probs.sum()


def apply_depolarizing(dist: np.ndarray, noise: NoiseSpec | None) -> np.ndarray:
    """Mix the outcome distribution with the uniform one: p' = (1-L)p + L/2^n."""
    if noise is None or noise.lambda_per_gate == 0.0:
        return dist
    mixing = noise.effective_mixing
    out = (1.0 - mixing) * dist + mixing / dist.size
    return out / out.sum()


def outcome_distribution(instance: MaxCutInstance, params: QaoaParams,
                         noise: NoiseSpec | None = None,
                         shift: GateShift | None = None) -> np.ndarray:
    return apply_depolarizing(distribution(evolve(instance, params, shift)), noise)


def sample(dist: np.ndarray, shots: int, seed: int) -> Counts:
    """Multinomial sample of the outcome distribution as a bitstring histogram."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n = int(np.log2(len(dist)))
    if 2**n != len(dist):
        raise ValueError("distribution length must be a power of two")
    rng = np.random.default_rng(seed)
    raw = rng.multinomial(shots, dist / dist.sum())
    nz = np.nonzero(raw)[0]
    return Counts({index_to_bits(k, n): c
                   for k, c in zip(nz.tolist(), raw[nz].tolist())})


def exact_expectation(instance: MaxCutInstance, dist: np.ndarray) -> float:
    """Exact mean cut value under the outcome distribution."""
    return float(dist @ cut_values_table(instance))
