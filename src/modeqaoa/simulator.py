"""Exact statevector simulation of the alternating-layer MaxCut ansatz.

The cost layer is diagonal, so one layer costs an elementwise phase over the
2^n cut values plus n independent single-qubit X rotations.  Basis index bit 0
is the most significant bit and belongs to vertex 0 (see graph module).

Mixer kernel: `_apply_mixer` always rotates the top index bit, whose two
halves are contiguous, and writes the result interleaved so that bit becomes
the lowest.  The index bits therefore rotate by one per mixer, and the n
mixers of a layer, run on qubits 0..n-1 in order, hand the next layer the
usual layout.  The kernel works on the last axis, so a stack of states goes
through in one call.

Gate-level shifts: every gate can be written exp(-i * (phi/2) * P) with P
involutory; for an edge gate phi = gamma * w, for a mixer gate phi = 2 * beta.
A GateShift displaces one gate's half-turn angle phi, which is what the
parameter-shift estimators in baselines and stage2 need.  `shifted_states`
enumerates every +-pi/2 gate shift while sharing the unshifted prefix of the
circuit and running each gate's + and - states through the rest of the
circuit as one (2, 2^n) stack, and `shift_rule_gradient` folds those shifts
into a gradient.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .estimators import Counts
from .graph import Edge, MaxCutInstance, cut_values_table

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
    """Refuse n above the cap before any state is allocated.

    `states` is the peak number of complex 2^n arrays the call holds; the
    cached cut table and edge indicators (8 B per entry each) come on top.
    """
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
    ind = ((idx >> (n - 1 - u)) ^ (idx >> (n - 1 - v))) & 1
    ind.flags.writeable = False
    return ind


def _edge_phases(n: int, edges: tuple[Edge, ...], edge_index: int,
                 angles: tuple[float, ...]) -> np.ndarray:
    """exp(-1j * angle * indicator) per angle, one row each.

    The indicator takes only the values 0 and 1, so each row is gathered from
    the phase of those two values: the same elements as the full exponential.
    """
    table = np.array([np.exp(-1j * angle * np.array([0.0, 1.0])) for angle in angles])
    return np.take(table, _edge_indicator(n, edges, edge_index), axis=1)


def _apply_mixer(amps: np.ndarray, beta: float) -> np.ndarray:
    """exp(-i beta X) on the top index bit of each row, moved to the bottom.

    The two halves of the top bit are contiguous, and the result is written
    interleaved, so its index bits are the input's rotated left by one.  n
    calls rotate them back, which is why mixers run on qubits 0..n-1 in order.
    """
    half = amps.shape[-1] // 2
    out = np.empty_like(amps)
    pairs = out.reshape(*amps.shape[:-1], half, 2)
    if beta == 0.0:
        pairs[..., 0] = amps[..., :half]
        pairs[..., 1] = amps[..., half:]
        return out
    ca = amps * np.cos(beta)
    ja = amps * (1j * np.sin(beta))
    np.subtract(ca[..., :half], ja[..., half:], out=pairs[..., 0])
    np.subtract(ca[..., half:], ja[..., :half], out=pairs[..., 1])
    return out


def evolve(instance: MaxCutInstance, params: QaoaParams,
           shift: GateShift | None = None) -> np.ndarray:
    """Statevector after p alternating layers applied to the uniform superposition."""
    n = instance.n
    _check_size(n, 4)  # the state, the mixer's output and its two products
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
            amps = amps * _edge_phases(n, instance.edges, shift.index, (shift.angle,))[0]
        for q in range(n):
            beta = params.betas[layer]
            if shift is not None and shift.kind == "beta" \
                    and shift.layer == layer and shift.index == q:
                beta = beta + shift.angle / 2.0  # phi = 2*beta
            amps = _apply_mixer(amps, beta)
    return amps


def shifted_states(instance: MaxCutInstance, params: QaoaParams
                   ) -> Iterator[tuple[GateShift, float, np.ndarray]]:
    """(shift, gate coefficient, state) for every +-pi/2 gate shift.

    Order: search coordinate k = [betas, gammas], then gate within k, then +
    before -.  Each state equals evolve(instance, params, shift) bit for bit:
    the same float operations run in the same order, but the unshifted prefix
    is computed once.  A mixer shift on qubit q continues from the running
    state after the layer's mixers 0..q-1; an edge shift continues from the
    stored state right after the layer's cost phase.  The + and - states of a
    gate then run through the remaining mixers and layers as one (2, 2^n)
    stack, whose rows are yielded.

    Keeps at most 2 * depth + 11 state-sized arrays: the layer phase vectors
    and after-cost states (2 * depth), the running state (1), a mixer on the
    stack (its input, output and two products, 2 each) and the previous
    stack, which a caller holding the last yielded state keeps alive (2).
    """
    n = instance.n
    depth = params.depth
    _check_size(n, 2 * depth + 11)
    cuts = cut_values_table(instance)
    phases = [np.exp(-1j * gamma * cuts) for gamma in params.gammas]
    angles = (np.pi / 2.0, -np.pi / 2.0)

    def finish(kind, layer, index, pair, first=0):
        # pair is the (2, 2^n) stack just before mixer `first` of `layer`; it
        # is passed as a temporary, so each kernel call frees its input
        for later in range(layer, depth):
            if later > layer:
                pair = pair * phases[later]
            for _ in range(first if later == layer else 0, n):
                pair = _apply_mixer(pair, params.betas[later])
        coeff = gate_coefficient(instance, kind, index)
        for angle, state in zip(angles, pair):
            yield GateShift(kind, layer, index, angle), coeff, state

    after_cost = []
    amps = np.full(2**n, 2.0 ** (-n / 2), dtype=complex)
    for layer in range(depth):
        amps = amps * phases[layer]
        after_cost.append(amps)
        beta = params.betas[layer]
        for q in range(n):
            yield from finish("beta", layer, q, np.stack(
                [_apply_mixer(amps, beta + angle / 2.0) for angle in angles]),  # phi = 2*beta
                q + 1)
            amps = _apply_mixer(amps, beta)
    for layer in range(depth):
        for e in range(instance.num_edges):
            yield from finish("gamma", layer, e, after_cost[layer]
                              * _edge_phases(n, instance.edges, e, angles))


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
    """Multinomial sample of the outcome distribution as a per-index histogram."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    return Counts(rng.multinomial(shots, dist / dist.sum()))


def exact_expectation(instance: MaxCutInstance, dist: np.ndarray) -> float:
    """Exact mean cut value under the outcome distribution."""
    return float(dist @ cut_values_table(instance))
