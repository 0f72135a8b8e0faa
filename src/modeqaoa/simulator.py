"""Exact statevector simulation of the alternating-layer MaxCut ansatz.

The cost layer is diagonal, so one layer costs an elementwise phase over the
2^n cut values plus n independent single-qubit X rotations.  Basis index bit 0
is the most significant bit and belongs to vertex 0 (see graph module).
"""
from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product

import numpy as np

from .estimators import Counts
from .graph import Edge, MaxCutInstance, cut_values_table

MAX_QUBITS = 24
SHIFT_ANGLES = (np.pi / 2.0, -np.pi / 2.0)  # + before -


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
    return 1.0 if kind == "beta" else instance.edges[index][2] / 2.0


def _check_size(n: int, states: int) -> None:
    """Refuse n above the cap before any state is allocated.

    `states` is the peak number of complex 2^n arrays the call holds; the
    cached cut table (8 B per entry) and edge indicators (1 B) come on top.
    """
    if n > MAX_QUBITS:
        per_state = 2**n * 16
        raise ValueError(
            f"simulator capped at n={MAX_QUBITS}, got n={n}: one state is "
            f"2^{n} x 16 B = {per_state / 2**20:.0f} MiB and this call keeps "
            f"{states} of them ({states * per_state / 2**20:.0f} MiB)")


@lru_cache(maxsize=256)
def _edge_indicator(n: int, edges: tuple[Edge, ...], edge_index: int) -> np.ndarray:
    """Whether the edge is cut, per basis index, as one byte per entry."""
    u, v, _ = edges[edge_index]
    idx = np.arange(2**n, dtype=np.int64)
    ind = (((idx >> (n - 1 - u)) ^ (idx >> (n - 1 - v))) & 1).astype(bool)
    ind.flags.writeable = False
    return ind


def _edge_phases(n: int, edges: tuple[Edge, ...], edge_index: int) -> np.ndarray:
    """exp(-1j * angle * indicator) per angle of SHIFT_ANGLES, one row each.

    The indicator takes only the values 0 and 1, so each row is gathered from
    the phase of those two values: the same elements as the full exponential.
    """
    table = np.array([np.exp(-1j * angle * np.array([0.0, 1.0])) for angle in SHIFT_ANGLES])
    return np.take(table, _edge_indicator(n, edges, edge_index), axis=1)


def _apply_mixer(amps: np.ndarray, beta: float) -> np.ndarray:
    """exp(-i beta X) on the top index bit of each row (a stack of states goes
    through in one call), moved to the bottom.

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


def _start(instance: MaxCutInstance, params: QaoaParams) -> tuple[Iterator, np.ndarray]:
    """Lazy cost phases of layers 1.., and the state after layer 0's cost phase."""
    cuts = cut_values_table(instance)
    phases = (np.exp(-1j * gamma * cuts) for gamma in params.gammas)
    return phases, np.full(cuts.size, 2.0 ** (-instance.n / 2), dtype=complex) * next(phases)


def _walk(phases: Iterator[np.ndarray], amps: np.ndarray, params: QaoaParams,
          layer: int = 0, first: int = 0) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (layer, q, amps) before each mixer q, then (depth, 0, final amps).

    `amps` (one state or a stack) enters just before mixer `first` of `layer`,
    after that layer's cost phase; `phases` yields each later layer's phase.
    evolve, shifted_pair and shifted_states all run this one layer loop."""
    n = amps.shape[-1].bit_length() - 1
    for later in range(layer, params.depth):
        if later > layer:
            amps = amps * next(phases)
        for q in range(first if later == layer else 0, n):
            yield later, q, amps
            amps = _apply_mixer(amps, params.betas[later])
    yield params.depth, 0, amps


def _final(walk: Iterator[tuple[int, int, np.ndarray]]) -> np.ndarray:
    return deque(walk, maxlen=1).pop()[2]


def _shifted_stack(instance: MaxCutInstance, params: QaoaParams,
                   phases: Iterator[np.ndarray], kind: str, layer: int, index: int,
                   amps: np.ndarray) -> np.ndarray:
    """Final states of one gate's +pi/2 and -pi/2 shift, as a (2, 2^n) stack.

    Every gate is exp(-i * (phi/2) * P) with P involutory: phi = 2 * beta for
    the mixer on qubit `index`, phi = gamma * w for edge `index`.  `amps` is
    the unshifted state where the gate acts: just before the mixer, which then
    runs at beta +- pi/4, or just after the edge's cost phase, which then gains
    a phase on the edge's cut indicator.  The two states run on as one stack,
    a temporary, so each kernel call frees its input.
    """
    if kind == "beta":
        beta = params.betas[layer]
        return _final(_walk(phases, np.stack([_apply_mixer(amps, beta + angle / 2.0)
                                              for angle in SHIFT_ANGLES]),
                            params, layer, index + 1))
    return _final(_walk(phases, amps * _edge_phases(instance.n, instance.edges, index),
                        params, layer))


def evolve(instance: MaxCutInstance, params: QaoaParams) -> np.ndarray:
    """Statevector after p alternating layers applied to the uniform superposition."""
    _check_size(instance.n, 4)  # the state, the mixer's output and its two products
    return _final(_walk(*_start(instance, params), params))


def shifted_pair(instance: MaxCutInstance, params: QaoaParams, kind: str,
                 layer: int, index: int) -> np.ndarray:
    """One gate's `shifted_states` pair as a (2, 2^n) stack, bit for bit;
    `index` is the qubit of a "beta" gate or the edge of a "gamma" gate.  Keeps
    at most 9 state-sized arrays: the unshifted state where the gate acts and
    a mixer on the stack."""
    count = {"beta": instance.n, "gamma": instance.num_edges}.get(kind, 0)
    if not (0 <= layer < params.depth and 0 <= index < count):
        raise ValueError(f"no {kind!r} gate {index} in layer {layer} of {params.depth}")
    _check_size(instance.n, 9)
    phases, amps = _start(instance, params)
    at = (layer, index if kind == "beta" else 0)
    # the prefix walk takes the phases of layers up to `layer`, the stack the rest
    amps = next(a for i, q, a in _walk(phases, amps, params) if (i, q) == at)
    return _shifted_stack(instance, params, phases, kind, layer, index, amps)


def shifted_states(instance: MaxCutInstance, params: QaoaParams
                   ) -> Iterator[tuple[GateShift, float, np.ndarray]]:
    """(shift, gate coefficient, state) for every +-pi/2 gate shift.

    Order: search coordinate k = [betas, gammas], then gate within k, then +
    before -.  Each pair equals shifted_pair's, but the unshifted prefix is
    computed once: a mixer shift branches off the running state, an edge shift
    off the stored state right after its layer's cost phase.

    Keeps at most 2 * depth + 10 state-sized arrays: the phases of layers 1..
    and the after-cost states (2 * depth - 1), the running state (1), a mixer
    on the stack (its input, output and two products, 2 each) and the previous
    stack, which a caller holding the last yielded state keeps alive (2).
    """
    depth = params.depth
    _check_size(instance.n, 2 * depth + 10)
    later, amps = _start(instance, params)
    phases = list(later)  # layers 1.., shared by every continuation

    def pair(kind, layer, index, at):
        coeff = gate_coefficient(instance, kind, index)
        states = _shifted_stack(instance, params, iter(phases[layer:]), kind, layer, index, at)
        for angle, state in zip(SHIFT_ANGLES, states):
            yield GateShift(kind, layer, index, angle), coeff, state

    after_cost = []
    for layer, q, amps in islice(_walk(iter(phases), amps, params), depth * instance.n):
        if q == 0:
            after_cost.append(amps)
        yield from pair("beta", layer, q, amps)
    for layer, e in product(range(depth), range(instance.num_edges)):
        yield from pair("gamma", layer, e, after_cost[layer])


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
                         noise: NoiseSpec | None = None) -> np.ndarray:
    return apply_depolarizing(distribution(evolve(instance, params)), noise)


def sample(dist: np.ndarray, shots: int, seed: int) -> Counts:
    """Multinomial sample of the outcome distribution as a per-index histogram."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    return Counts(rng.multinomial(shots, dist / dist.sum()))


def exact_expectation(instance: MaxCutInstance, dist: np.ndarray) -> float:
    """Exact mean cut value under the outcome distribution."""
    return float(dist @ cut_values_table(instance))
