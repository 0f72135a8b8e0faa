"""Exact statevector simulation of the alternating-layer MaxCut ansatz.

The cost layer is diagonal, so one layer costs an elementwise phase over the
2^n cut values plus n independent single-qubit X rotations.  States are
indexed by basis index in the graph module's bit order.
Parameter-shift gradients branch one generator row per gate off the
unshifted evolution (see _generator_row); a read of one shifted bin projects
the row onto the target run backwards instead (see shifted_target).

Every state and generator row is unchanged when all bits flip, as cut(z) =
cut(~z) and the mixers commute with X on all qubits (Farhi et al. 2014,
arXiv:1411.4028).  The flip reverses an index (z -> 2^n - 1 - z), so each is
evolved as its first half h (bit 0 clear), and the full vector [h, h[::-1]] is
rebuilt only where a state or distribution is returned.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .estimators import Counts
from .graph import MaxCutInstance, cut_values_table

MAX_QUBITS = 24
GATE_KINDS = ("beta", "gamma")  # search vector order: [betas, gammas]
# bytes of a stack's largest array, its mirrored + and - probability rows;
# bigger stacks ran slower (at n = 12, 256 KiB stacks of full-length rows took
# about 3x as long: allocator trimming and cache misses)
_STACK_BYTES = 128 * 2**10


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
    """Displace one gate's half-turn angle by `angle` (radians of phi); the
    per-gate test oracle's shift, as the library sweeps every gate at +-pi/2."""

    kind: str  # "beta" or "gamma"
    layer: int  # 0-based
    index: int  # qubit for beta, edge position for gamma
    angle: float

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown shift kind {self.kind!r}")


def gate_count(instance: MaxCutInstance, kind: str) -> int:
    """Gates under one coordinate: a mixer per qubit or a phase per edge."""
    if kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {kind!r}")
    return instance.n if kind == "beta" else instance.num_edges


def gate_coefficient(instance: MaxCutInstance, kind: str, index: int) -> float:
    """d(theta_k)/d(phi_gate) times the 1/2 of the two-point rule."""
    return 1.0 if kind == "beta" else instance.edges[index][2] / 2.0


def _check_size(n: int, states: int) -> None:
    """Refuse n above the cap before any state is allocated.

    `states` is the call's peak memory in complex 2^n arrays, rounded down: a
    complex half vector counts 1/2, a float one 1/4.  The cached cut table
    (8 B per entry) and popcount table (1 B per half entry) come on top.
    """
    if n > MAX_QUBITS:
        per_state = 2**n * 16
        raise ValueError(
            f"simulator capped at n={MAX_QUBITS}, got n={n}: one state is "
            f"2^{n} x 16 B = {per_state / 2**20:.0f} MiB and this call keeps "
            f"{states} of them ({states * per_state / 2**20:.0f} MiB)")


def _mirror(half: np.ndarray) -> np.ndarray:
    """Full vectors from first halves (see the module docstring)."""
    return np.concatenate([half, half[..., ::-1]], axis=-1)


def _apply_mixer(amps: np.ndarray, c: float, js: complex) -> np.ndarray:
    """exp(-i beta X), c = cos beta and js = i sin beta, on the top index bit
    of each half row (a stack of states goes through in one call), moved to
    the bottom.

    The full vector's top-bit halves are contiguous, so its first half's pairs
    are the first quarter and the third, the reversed second quarter.  The
    result is written interleaved, so its index bits are the input's rotated
    left by one; n calls rotate them back, so mixers run on qubits 0..n-1.
    """
    quarter = amps.shape[-1] // 2
    out = np.empty_like(amps)
    pairs = out.reshape(*amps.shape[:-1], quarter, 2)
    if js == 0:  # beta = 0
        pairs[..., 0] = amps[..., :quarter]
        pairs[..., 1] = amps[..., :quarter - 1:-1]
        return out
    ca = amps * c
    ja = amps * js
    np.subtract(ca[..., :quarter], ja[..., :quarter - 1:-1], out=pairs[..., 0])
    np.subtract(ca[..., :quarter - 1:-1], ja[..., :quarter], out=pairs[..., 1])
    return out


_I_POWERS = np.array([1, 1j, -1, -1j])


@lru_cache(maxsize=None)
def _popcounts(size: int) -> np.ndarray:
    """popcount(z) for z in [0, size), size a power of two, by doubling
    (np.bitwise_count needs numpy >= 2)."""
    counts = np.zeros(1, dtype=np.uint8)
    while counts.size < size:
        counts = np.concatenate([counts, counts + 1])
    counts.flags.writeable = False
    return counts


def _uniform(n: int) -> np.ndarray:
    return np.full(2 ** (n - 1), 2.0 ** (-n / 2), dtype=complex)


def _phases(instance: MaxCutInstance, gammas: Iterable[float]) -> Iterator[np.ndarray]:
    """Each layer's cost phase exp(-i gamma C), computed when it is reached."""
    cuts = cut_values_table(instance)[: 2 ** (instance.n - 1)]
    return (np.exp(-1j * gamma * cuts) for gamma in gammas)


def _run(amps: np.ndarray, phases: Iterator[np.ndarray], betas: tuple[float, ...]
         ) -> np.ndarray:
    """`amps` (one half state or a stack of half rows) through one layer per
    beta, from before its cost phase, the next item of `phases`, to after its
    mixers.  evolve, shifted_states and shifted_target all run this one loop,
    and shifted_target also runs it backwards, with -beta and -gamma."""
    n = amps.shape[-1].bit_length()
    for beta in betas:
        amps = amps * next(phases)
        c, js = np.cos(beta), 1j * np.sin(beta)
        for _ in range(n):
            amps = _apply_mixer(amps, c, js)
    return amps


def _generator_row(instance: MaxCutInstance, kind: str, index: int, beta: float,
                   after: np.ndarray) -> np.ndarray:
    """The generator row b = P' m of one gate, from m = `after`, the state
    after the mixers of the gate's layer.

    Every gate is exp(-i (phi/2) P) with P involutory, so a +-pi/2 shift of
    phi multiplies it by exp(-+i pi/4 P) = (I -+ iP)/sqrt(2) (the two-point
    rule, Schuld et al. 2019, arXiv:1811.11184).  P commutes with the rest of
    its cost phase or mixer layer, so the factor can act on m instead, as
    (I -+ iP')/sqrt(2) with P' = P moved past the layer's mixers.  The later
    layers take m to the unshifted final state a and b to a final row b', so
    the shifted final states are (a -+ i b')/sqrt(2), with probabilities
    p+- = (|a|^2 + |b'|^2)/2 +- Im(conj(a) b').  Each gate thus runs one row
    through the later layers only, and a row of the last layer through none.

    Mixer gate on qubit q: P = X_q commutes with the mixers, so b is m with
    bit q flipped.  Edge gate (u, v): the gate is exp(-i gamma w (1 - Z_u Z_v)/2),
    so P = -Z_u Z_v up to the gate's global phase, and past R = exp(-i beta X)
    on every qubit it becomes P' = -A_u A_v, where
    A = R Z R^dagger = [[cos 2beta, i sin 2beta], [-i sin 2beta, -cos 2beta]].
    On qubit 0 (u at most, as u < v), bit 0 set is the mirrored half times the
    row's parity: +1 for m, -1 for A_v m, as A anticommutes with X.
    """
    if kind == "beta":
        if index == 0:
            return after[::-1]
        return after.reshape(2 ** (index - 1), 2, -1)[:, ::-1].reshape(-1)
    c, s = np.cos(2.0 * beta), np.sin(2.0 * beta)
    u, v, _ = instance.edges[index]
    row = after
    for q, sign in ((v, 1.0), (u, -1.0)):
        if q == 0:
            return sign * c * row + (sign * 1j * s) * -row[::-1]
        halves = row.reshape(2 ** (q - 1), 2, -1)
        out = np.empty_like(halves)
        out[:, 0] = sign * c * halves[:, 0] + (sign * 1j * s) * halves[:, 1]
        out[:, 1] = (-sign * 1j * s) * halves[:, 0] - sign * c * halves[:, 1]
        row = out.reshape(-1)
    return row


def _shift_probabilities(final: np.ndarray, final_sq: np.ndarray,
                         rows: np.ndarray) -> np.ndarray:
    """p+- of each final generator row (see _generator_row) as a
    (2, *rows.shape) array, + first, from the unshifted final state and its
    |.|^2.  Rounding below zero is clipped, since sampling refuses it."""
    out = np.empty((2, *rows.shape))
    half = rows.real ** 2
    half += rows.imag ** 2
    half += final_sq
    half *= 0.5
    cross = final.real * rows.imag
    cross -= final.imag * rows.real
    np.add(half, cross, out=out[0])
    np.subtract(half, cross, out=out[1])
    return np.maximum(out, 0.0, out=out)


def evolve(instance: MaxCutInstance, params: QaoaParams) -> np.ndarray:
    """Statevector after p alternating layers applied to the uniform superposition."""
    _check_size(instance.n, 2)  # a mixer's input, output and two products
    return _mirror(_run(_uniform(instance.n), _phases(instance, params.gammas),
                        params.betas))


def shifted_target(instance: MaxCutInstance, params: QaoaParams, kind: str,
                   layer: int, index: int, target: int) -> tuple[float, float]:
    """One gate's p+-(target) under its +-pi/2 shift, + first: bin `target`
    of that gate's `shifted_states` rows, with no row propagated; `index` is
    the qubit of a "beta" gate or the edge of a "gamma" gate.

    The unshifted state runs to m, the state after the gate's layer, and
    _generator_row gives b.  A gate of the last layer reads a = m and b' = b
    at the target's half index min(t, 2^n - 1 - t).  Any other gate projects
    m and b onto v = U^dagger (|t> + |~t>), U the later layers, instead of
    running them through U: m, b and v are unchanged when all bits flip, so
    a_t = <t|U m> = <v|m>/2 is the first-half sum of conj(v) m, and b'_t that
    of conj(v) b (the adjoint read of Jones & Gacon 2020, arXiv:2009.02823).
    The last layer's mixers, exp(+i beta X) on every qubit, take the two
    basis vectors to v_z = c^(n-d) (i s)^d + c^d (i s)^(n-d), with
    c = cos beta, s = sin beta and d = popcount(z XOR t); its conjugate cost
    phase and any earlier later layers follow, run backwards with -beta and
    -gamma.  Then p+- = (|a_t|^2 + |b'_t|^2)/2 +- Im(conj(a_t) b'_t) (see
    _generator_row), clipped at zero like the rows.

    Peaks at 3 states at depth >= 3: m and b (1/2 each) and a mixer on v
    (its input, output and two products, 2); at 2.5 below that.
    """
    n, depth = instance.n, params.depth
    if not (0 <= layer < depth and 0 <= index < gate_count(instance, kind)):
        raise ValueError(f"no {kind!r} gate {index} in layer {layer} of {depth}")
    if not 0 <= target < 2**n:
        raise ValueError(f"target index {target} outside [0, {2**n})")
    _check_size(n, 3)
    after = _run(_uniform(n), _phases(instance, params.gammas), params.betas[:layer + 1])
    row = _generator_row(instance, kind, index, params.betas[layer], after)
    half_index = min(target, 2**n - 1 - target)
    if layer == depth - 1:
        a, b = complex(after[half_index]), complex(row[half_index])
    else:
        c, s = np.cos(params.betas[-1]), np.sin(params.betas[-1])
        d = np.arange(n + 1)
        one = c ** (n - d) * s**d * _I_POWERS[d % 4]  # by d, for |t> alone
        half = 2 ** (n - 1)
        v = (one + one[::-1])[_popcounts(half)[np.arange(half) ^ half_index]]
        back = _phases(instance, [-gamma for gamma in params.gammas[:layer:-1]])
        v = _run(v, back, tuple(-beta for beta in params.betas[-2:layer:-1])) * next(back)
        a, b = complex(np.vdot(v, after)), complex(np.vdot(v, row))
    mean = (a.real**2 + a.imag**2 + b.real**2 + b.imag**2) / 2
    cross = a.real * b.imag - a.imag * b.real
    return max(mean + cross, 0.0), max(mean - cross, 0.0)


def shifted_states(instance: MaxCutInstance, params: QaoaParams
                   ) -> Iterator[tuple[str, int, int, float, np.ndarray, np.ndarray]]:
    """(kind, layer, index, gate coefficient, p+, p-) for every gate, p+- its
    probabilities under the +-pi/2 shift.

    Order: search coordinate k = [betas, gammas], then gate within k; each
    gate's p+-[t] equal shifted_target's to rounding.  The unshifted evolution
    runs once and keeps its state after each layer, and a layer's generator
    rows run on in stacks whose probabilities take at most _STACK_BYTES.

    Peaks at depth + 2.75 states: the phases of layers 1.. and the after-layer
    states (depth - 1/2), |a|^2 (1/4), a mixer on a one-row stack (its input,
    output and two products, 2 at n >= 14) and the previous stack's mirrored
    probabilities, which a caller holding the last yielded row keeps alive (1).
    """
    n, depth = instance.n, params.depth
    _check_size(n, depth + 2)
    phases = _phases(instance, params.gammas)
    after = [_run(_uniform(n), phases, params.betas[:1])]
    later = list(phases)  # cost phases of layers 1.., shared by every row
    for beta, phase in zip(params.betas[1:], later):
        after.append(_run(after[-1], iter((phase,)), (beta,)))
    final = after[-1]
    final_sq = np.abs(final) ** 2
    per_stack = max(1, _STACK_BYTES // (16 * 2**n))  # a gate: 2 rows of 2^n floats
    for kind, layer in product(GATE_KINDS, range(depth)):
        gates = range(gate_count(instance, kind))
        for chunk in (gates[i:i + per_stack] for i in range(0, len(gates), per_stack)):
            plus, minus = _mirror(_shift_probabilities(final, final_sq, _run(
                np.stack([_generator_row(instance, kind, index, params.betas[layer],
                                         after[layer]) for index in chunk]),
                iter(later[layer:]), params.betas[layer + 1:])))
            for index, p_plus, p_minus in zip(chunk, plus, minus):
                yield (kind, layer, index, gate_coefficient(instance, kind, index),
                       p_plus, p_minus)


def shift_rule_gradient(instance: MaxCutInstance, params: QaoaParams,
                        value: Callable[[str, int, np.ndarray], float]) -> np.ndarray:
    """Gradient w.r.t. theta = [betas, gammas] by the exact two-point rule per gate.

    value(kind, index, probabilities) scores each shifted outcome
    distribution, in the order of `shifted_states` and + before -; coordinate
    k sums coeff * (value(+) - value(-)) over its gates.
    """
    depth = params.depth
    grad = np.zeros(2 * depth)
    for kind, layer, index, coeff, plus, minus in shifted_states(instance, params):
        k = layer + (depth if kind == "gamma" else 0)
        grad[k] += coeff * (value(kind, index, plus) - value(kind, index, minus))
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


def child_seeds(ss: np.random.SeedSequence, k: int) -> list[int]:
    """The next k integer seeds of a run's stream: one word of each spawned child."""
    return [int(c.generate_state(1)[0]) for c in ss.spawn(k)]


def sample(dist: np.ndarray, shots: int, seed: int) -> Counts:
    """Multinomial sample of the outcome distribution as a per-index histogram."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    return Counts._adopt(rng.multinomial(shots, dist / dist.sum()))


def sample_indices(dist: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """`shots` i.i.d. basis indices from the outcome distribution, sorted.

    Inverse CDF: sorted uniforms in [0, 1) scaled by the total stay below it
    when rounded, and a bin is drawn only where the cumulative sum rises, so
    a zero-probability bin never is.  Costs one pass over the 2^n bins plus
    O(shots log 2^n), with no histogram.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    cdf = np.cumsum(dist)
    u = np.sort(rng.random(shots))
    u *= cdf[-1]
    return np.searchsorted(cdf, u, side="right")


def exact_expectation(instance: MaxCutInstance, dist: np.ndarray) -> float:
    """Exact mean cut value under the outcome distribution."""
    return float(dist @ cut_values_table(instance))
