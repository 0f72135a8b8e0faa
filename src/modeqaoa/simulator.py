"""Exact statevector simulation of the alternating-layer MaxCut ansatz.

The cost layer is diagonal, so one layer costs an elementwise phase over the
2^n cut values plus n independent single-qubit X rotations.  States are
indexed by basis index in the graph module's bit order.

Every state and generator row is unchanged when all bits flip, as cut(z) =
cut(~z) and the mixers commute with X on all qubits (Farhi et al. 2014,
arXiv:1411.4028).  The flip reverses an index (z -> 2^n - 1 - z), so each is
evolved as its first half h (bit 0 clear), and the full vector [h, h[::-1]] is
rebuilt only where a state or distribution is returned.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, product

import numpy as np

from .estimators import Counts
from .graph import MaxCutInstance, _cut_levels, cut_values_table

MAX_QUBITS = 24
GATE_KINDS = ("beta", "gamma")  # search vector order: [betas, gammas]
# bytes of a stack's mirrored + and - probability rows, half that as half rows;
# bigger stacks ran slower (at n = 12, 256 KiB stacks of full-length rows took
# about 3x as long: allocator trimming and cache misses)
_STACK_BYTES = 128 * 2**10
# bytes of a batch of half rows the sampled gradient draws from in one call
_BATCH_BYTES = 512 * 2**10


@dataclass(frozen=True)
class QaoaParams:
    """Layer angles; the search vector is the concatenation [betas, gammas]."""

    betas: tuple[float, ...]
    gammas: tuple[float, ...]

    def __post_init__(self):
        if len(self.betas) != len(self.gammas) or not self.betas:
            raise ValueError("betas and gammas must have equal positive length")
        if not all(map(math.isfinite, self.betas + self.gammas)):
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
        angles = theta.tolist()
        return cls(betas=tuple(angles[:p]), gammas=tuple(angles[p:]))


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


def _check_size(n: int, states: int, holder: str = "this call") -> None:
    """Refuse n above the cap before any state is allocated.

    `states` is the peak memory of `holder` in complex 2^n arrays, rounded
    down: a complex half vector counts 1/2, a float one 1/4.  The cached cut
    table (8 B per entry), cut level table (8 B per half entry, plus its
    distinct values) and popcount table (1 B per half entry) come on top.
    """
    if n > MAX_QUBITS:
        per_state = 2**n * 16
        raise ValueError(
            f"simulator capped at n={MAX_QUBITS}, got n={n}: one state is "
            f"2^{n} x 16 B = {per_state / 2**20:.0f} MiB and {holder} keeps "
            f"{states} of them ({states * per_state / 2**20:.0f} MiB)")


def _mirror(half: np.ndarray) -> np.ndarray:
    """Full vectors from first halves (see the module docstring)."""
    return np.concatenate([half, half[..., ::-1]], axis=-1)


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


def _phase(levels: tuple[np.ndarray, np.ndarray], angle: complex) -> np.ndarray:
    """exp(angle C) on the first half (a cost phase at angle -i gamma), one exp per
    distinct cut value of `_cut_levels`: the same bits as one exp per index."""
    values, where = levels
    return np.exp(angle * values)[where]


def _phases(instance: MaxCutInstance, gammas: Iterable[float]) -> Iterator[np.ndarray]:
    """Each layer's cost phase, computed when it is reached."""
    levels = _cut_levels(instance.n, instance.edges)
    return (_phase(levels, -1j * gamma) for gamma in gammas)


def _mix(amps: np.ndarray, beta: float, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-i beta X) on every qubit of `amps` (one half state or a stack of
    half rows), written to `out` (fresh if None) and returned.

    Each of the n passes rotates the top index bit of each half row.  The full
    vector's top-bit halves are contiguous, so the first half's pairs are its
    first quarter and the third, the reversed second quarter.  A pass writes
    its result interleaved, so its index bits are the input's rotated left by
    one; n passes rotate them back, so the mixers run on qubits 0..n-1.  At
    beta = +-0 a pass only permutes, and the n passes compose to the identity.

    Buffers: the products cos(beta) x and i sin(beta) x are made once per call
    and refilled by every pass, which reads its input x in full into them
    before it writes `out`; so `out` may be `amps` itself.  Callers mix in
    place the arrays they own: evolve's uniform start, the sweep's stacks and
    after-layer states, and a reader's w_l, each a fresh product.  Only a
    reader's s_l mixes into a fresh `out`, as its input s_{l-1} is kept.  The
    coefficients are Python scalars, which a ufunc takes faster than numpy
    ones, with the same bits.
    """
    if out is None:
        out = np.empty_like(amps)
    c, js = complex(np.cos(beta)), complex(1j * np.sin(beta))
    if js == 0:
        np.copyto(out, amps)
        return out
    quarter = amps.shape[-1] // 2
    pairs = out.reshape(*amps.shape[:-1], quarter, 2)
    top, bottom = pairs[..., 0], pairs[..., 1]
    ca, ja = np.empty_like(amps), np.empty_like(amps)
    ca_low, ca_high = ca[..., :quarter], ca[..., :quarter - 1:-1]
    ja_low, ja_high = ja[..., :quarter], ja[..., :quarter - 1:-1]
    for _ in range(amps.shape[-1].bit_length()):
        np.multiply(amps, c, out=ca)
        np.multiply(amps, js, out=ja)
        np.subtract(ca_low, ja_high, out=top)
        np.subtract(ca_high, ja_low, out=bottom)
        amps = out
    return out


def _run(amps: np.ndarray, phases: Iterator[np.ndarray], betas: tuple[float, ...]
         ) -> np.ndarray:
    """`amps` (one half state or a stack of half rows, which the caller owns)
    through one layer per beta in place, from before its cost phase, the next
    item of `phases`, to after its mixers.  evolve and the sweep run this
    loop; a TargetReader runs its layers one _mix at a time, forwards and
    backwards."""
    for beta in betas:
        amps *= next(phases)
        _mix(amps, beta, out=amps)
    return amps


def _flip(row: np.ndarray, q: int) -> np.ndarray:
    """X_q on a half row: qubit 0 is the mirror bit, so its flip reverses."""
    if q == 0:
        return row[::-1]
    return row.reshape(2 ** (q - 1), 2, -1)[:, ::-1].reshape(-1)


def _edge_parity(row: np.ndarray, u: int, v: int) -> np.ndarray:
    """-Z_u Z_v on a half row, u < v: a copy negated where z_u = z_v (the edge
    is uncut).  Bit 0 is clear on the first half, so with u = 0 that is where
    z_v = 0."""
    out = row.copy()
    if u == 0:
        uncut = out.reshape(2 ** (v - 1), 2, -1)[:, 0]
        np.negative(uncut, out=uncut)
        return out
    bits = out.reshape(2 ** (u - 1), 2, 2 ** (v - u - 1), 2, -1)
    for bit in (0, 1):
        uncut = bits[:, bit, :, bit]
        np.negative(uncut, out=uncut)
    return out


def _generator_rows(instance: MaxCutInstance, kind: str, gates: range, beta: float,
                    after: np.ndarray) -> np.ndarray:
    """The generator rows b = P' m of `gates` (qubits or edge positions) of
    one layer, as one fresh stack, from m = `after`, the state after the
    layer's mixers.

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
    bit q flipped (_flip).  Edge gate (u, v): the gate is
    exp(-i gamma w (1 - Z_u Z_v)/2), so P = -Z_u Z_v up to the gate's global
    phase (_edge_parity, before the mixers), and past R = exp(-i beta X) on
    every qubit it becomes P' = -A_u A_v, where
    A = R Z R^dagger = [[cos 2beta, i sin 2beta], [-i sin 2beta, -cos 2beta]].
    On qubit 0 (u at most, as u < v), bit 0 set is the mirrored half times the
    row's parity: +1 for m, -1 for A_v m, as A anticommutes with X.  Each
    factor sign A_q is one _signed_a pass, its coefficients Python scalars.
    """
    rows = np.empty((len(gates), after.size), dtype=complex)
    if kind == "beta":
        for row, q in zip(rows, gates):
            row[:] = _flip(after, q)
        return rows
    c, s = np.cos(2.0 * beta), np.sin(2.0 * beta)
    signed = {sign: (complex(sign * c), complex(sign * 1j * s), complex(-sign * 1j * s))
              for sign in (1.0, -1.0)}
    mid = np.empty_like(after)
    for row, index in zip(rows, gates):
        u, v, _ = instance.edges[index]
        _signed_a(after, v, signed[1.0], row, mid)
        _signed_a(mid, u, signed[-1.0], mid, row)
    return rows


def _signed_a(row: np.ndarray, q: int, coeffs: tuple[complex, complex, complex],
              diagonal: np.ndarray, out: np.ndarray) -> None:
    """sign A_q on a half row into `out` (see _generator_rows), coeffs
    (d, u, l) = (sign cos 2beta, sign i sin 2beta, -sign i sin 2beta).  On
    halves h0 and h1 of bit q the result is b0 = d h0 + u h1 and
    b1 = l h0 - d h1; on qubit 0, d h + u (-h reversed).  The products d h
    go to `diagonal`, which may be `row` (then spent) but not `out`, and the
    sum is one add with d h1 negated: x - y is x + (-y) and a sum commutes,
    so each entry has the bits of the two-term formula."""
    diag, upper, lower = coeffs
    if q == 0:
        np.negative(row[::-1], out=out)
        np.multiply(upper, out, out=out)
        np.multiply(diag, row, out=diagonal)
    else:
        shape = (2 ** (q - 1), 2, -1)
        halves, pairs = row.reshape(shape), out.reshape(shape)
        np.multiply(upper, halves[:, 1], out=pairs[:, 0])
        np.multiply(lower, halves[:, 0], out=pairs[:, 1])
        np.multiply(diag, row, out=diagonal)
        ones = diagonal.reshape(shape)[:, 1]
        np.negative(ones, out=ones)
    np.add(diagonal, out, out=out)


def _shift_probabilities(final: np.ndarray, final_sq: np.ndarray,
                         rows: np.ndarray) -> np.ndarray:
    """p+- of each final generator row (see _generator_rows) as a
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
    # 3/2: its buffer and a mixer's two products, or the half and its mirror
    _check_size(instance.n, 1)
    return _mirror(_run(_uniform(instance.n), _phases(instance, params.gammas),
                        params.betas))


class TargetReader:
    """p(target) and single gates' p+-(target) on one instance at one depth,
    at angles that may move between calls.

    A gate's read is bin `target` of its `shifted_states` rows, taken at its
    own layer l on s, the state after the cost phase and before the mixers R,
    where its generator P (_generator_rows) acts on s directly: _flip for a
    mixer gate, _edge_parity for an edge gate.  With U the later layers, the
    shifted final states are (U R s -+ i U R P s)/sqrt(2), so
    a_t = <t|U R s> and b'_t = <t|U R P s>, the first-half sums of conj(w) s
    and conj(w) P s (all states are flip-symmetric) with
    w = R^dagger U^dagger (|t> + |~t>), the target run backwards (the adjoint
    read of Jones & Gacon 2020, arXiv:2009.02823).  p+- follow from a_t and
    b'_t as in _generator_rows, and p(target) is |a_t|^2 at the last layer.
    A fresh read runs layers before l forwards and l to p - 2 backwards:
    (p - 1) n mixer passes.  The s_l and w_l of the last angles are kept (see
    _move_to), and a read rebuilds what it needs from the nearest kept one
    with a fresh reader's operations, so it equals a fresh reader's to the bit.
    """

    def __init__(self, instance: MaxCutInstance, target: int, depth: int):
        n = instance.n
        if not 0 <= target < 2**n:
            raise ValueError(f"target index {target} outside [0, {2**n})")
        # peak below depth + 2: a rebuild's mixer (3/2: its output and two
        # products) on at most depth - 1/2 kept (a half per s_l and w_l), or a
        # read's generator row and, for some edges, a ufunc buffer (1/2 each)
        _check_size(n, depth + 1, "a target reader")
        self.instance, self.target, self.depth = instance, target, depth
        half = 2 ** (n - 1)
        self._levels = _cut_levels(n, instance.edges)
        t = min(target, 2**n - 1 - target)
        self._distance = _popcounts(half)[np.arange(half) ^ t]
        self._betas = self._gammas = (None,) * depth  # no angles yet: all stale
        self._forward: list[np.ndarray] = []  # s_0, s_1, ...
        self._backward: list[np.ndarray] = []  # w_{depth-1}, w_{depth-2}, ...

    def probability(self, params: QaoaParams) -> float:
        """p(target) at `params`."""
        self._move_to(params)
        a = complex(np.vdot(self._row(self.depth - 1), self._state(self.depth - 1)))
        return a.real**2 + a.imag**2

    def read(self, params: QaoaParams, kind: str, layer: int, index: int
             ) -> tuple[float, float]:
        """(p+, p-) of "beta" gate (qubit) or "gamma" gate (edge) `index` in `layer`."""
        if not (0 <= layer < self.depth and 0 <= index < gate_count(self.instance, kind)):
            raise ValueError(f"no {kind!r} gate {index} in layer {layer} of {self.depth}")
        self._move_to(params)
        state, row = self._state(layer), self._row(layer)
        moved = (_flip(state, index) if kind == "beta"
                 else _edge_parity(state, *self.instance.edges[index][:2]))
        a, b = complex(np.vdot(row, state)), complex(np.vdot(row, moved))
        mean = (a.real**2 + a.imag**2 + b.real**2 + b.imag**2) / 2
        cross = a.real * b.imag - a.imag * b.real
        return max(mean + cross, 0.0), max(mean - cross, 0.0)

    def _move_to(self, params: QaoaParams) -> None:
        """Take the angles of `params`, dropping what depends on a moved one:
        s_l on gammas[:l + 1] and betas[:l], w_l on betas[l:] and
        gammas[l + 1:] (0.0 and -0.0 compare equal, as one rotation)."""
        depth = self.depth
        if params.depth != depth:
            raise ValueError(f"a target reader of depth {depth} got depth {params.depth}")
        first, last = depth, -1  # s_l with l >= first and w_l with l <= last are stale
        for l in range(depth):
            if params.gammas[l] != self._gammas[l]:
                first, last = min(first, l), max(last, l - 1)
            if params.betas[l] != self._betas[l]:
                first, last = min(first, l + 1), max(last, l)
        del self._forward[first:]
        del self._backward[depth - 1 - last:]
        self._betas, self._gammas = params.betas, params.gammas

    def _state(self, layer: int) -> np.ndarray:
        """s_layer, the state after the layer's cost phase."""
        forward, levels, gammas = self._forward, self._levels, self._gammas
        while len(forward) <= layer:
            l = len(forward)
            if l == 0:
                state = 2.0 ** (-self.instance.n / 2) * _phase(levels, -1j * gammas[0])
            else:  # s_{l-1} is kept: mix into a fresh state, then its phase
                state = _mix(forward[-1], self._betas[l - 1])
                state *= _phase(levels, -1j * gammas[l])
            forward.append(state)
        return forward[layer]

    def _row(self, layer: int) -> np.ndarray:
        """w_layer = R_layer^dagger U^dagger (|t> + |~t>), R_layer the layer's
        mixers and U the later layers, as a half row.  The last layer's mixers,
        exp(+i beta X) on every qubit, give w_z = c^(n-d) (i s)^d + c^d (i s)^(n-d)
        with c = cos beta, s = sin beta and d = popcount(z XOR t); each earlier
        layer follows with its conjugate cost phase and its mixers at -beta."""
        backward, depth = self._backward, self.depth
        if not backward:
            n = self.instance.n
            c, s = np.cos(self._betas[-1]), np.sin(self._betas[-1])
            d = np.arange(n + 1)
            one = c ** (n - d) * s**d * _I_POWERS[d % 4]  # by d, for |t> alone
            backward.append((one + one[::-1])[self._distance])
        while depth - len(backward) > layer:
            l = depth - len(backward)  # backward[-1] is w_l
            row = backward[-1] * _phase(self._levels, 1j * self._gammas[l])
            backward.append(_mix(row, -self._betas[l - 1], out=row))
        return backward[depth - 1 - layer]


def _shift_stacks(instance: MaxCutInstance, params: QaoaParams
                  ) -> Iterator[tuple[str, int, range, np.ndarray]]:
    """shifted_states' stacks as (kind, layer, gates, p+- as half rows)."""
    n, depth = instance.n, params.depth
    _check_size(n, depth + 2)
    phases = _phases(instance, params.gammas)
    after = [_run(_uniform(n), phases, params.betas[:1])]
    later = list(phases)  # cost phases of layers 1.., shared by every row
    for beta, phase in zip(params.betas[1:], later):
        state = after[-1] * phase
        after.append(_mix(state, beta, out=state))
    final = after[-1]
    final_sq = np.abs(final) ** 2
    per_stack = max(1, _STACK_BYTES // (16 * 2**n))  # a gate: 2 rows of 2^n floats
    for kind, layer in product(GATE_KINDS, range(depth)):
        gates = range(gate_count(instance, kind))
        for chunk in (gates[i:i + per_stack] for i in range(0, len(gates), per_stack)):
            yield kind, layer, chunk, _shift_probabilities(final, final_sq, _run(
                _generator_rows(instance, kind, chunk, params.betas[layer], after[layer]),
                iter(later[layer:]), params.betas[layer + 1:]))


def shifted_states(instance: MaxCutInstance, params: QaoaParams
                   ) -> Iterator[tuple[str, int, int, float, np.ndarray, np.ndarray]]:
    """(kind, layer, index, gate coefficient, p+, p-) for every gate, p+- its
    probabilities under the +-pi/2 shift.

    Order: search coordinate k = [betas, gammas], then gate within k; each
    gate's p+-[t] equal TargetReader.read's to rounding.  The unshifted evolution
    runs once and keeps its state after each layer, and a layer's generator
    rows run on in stacks (_shift_stacks) mirrored into at most _STACK_BYTES.

    Peaks at depth + 2.5 states: the phases of layers 1.. and the after-layer
    states (depth - 1/2), |a|^2 (1/4), the previous stack's mirrored
    probabilities, which a caller holding the last yielded row keeps alive (1),
    and a one-row stack's p+- as they are made (the rows, p+- and three float
    temporaries, 7/4 at n >= 14; the stack's in-place mixers take 3/2).
    The sampled gradient holds a batch of half rows instead (_shift_batches:
    2 at n = 14, 1/2 from n = 16 on) and peaks at depth + 3.5 at n = 14.
    """
    for kind, layer, chunk, probs in _shift_stacks(instance, params):
        probs = _mirror(probs)  # the half rows are freed before the next stack
        for index, p_plus, p_minus in zip(chunk, *probs):
            yield (kind, layer, index, gate_coefficient(instance, kind, index),
                   p_plus, p_minus)


def _shift_batches(instance: MaxCutInstance, params: QaoaParams
                  ) -> Iterator[tuple[list[tuple[str, int, int]], np.ndarray]]:
    """The sweep's half rows in batches of at most _BATCH_BYTES (a gate at
    least), in shifted_states' order: (gates as (kind, layer, index), their
    rows, each gate's + before its -).  The rows are one buffer, refilled."""
    half = 2 ** (instance.n - 1)
    batch = np.empty((2 * max(1, _BATCH_BYTES // (16 * half)), half))
    gates: list[tuple[str, int, int]] = []
    for kind, layer, chunk, probs in _shift_stacks(instance, params):
        for j, index in enumerate(chunk):
            if 2 * len(gates) == len(batch):
                yield gates, batch
                gates = []
            batch[2 * len(gates):2 * len(gates) + 2] = probs[:, j]
            gates.append((kind, layer, index))
        del probs  # freed before the next stack runs
    yield gates, batch[:2 * len(gates)]


def distribution(state: np.ndarray) -> np.ndarray:
    probs = np.abs(state) ** 2
    return probs / probs.sum()


def depolarize(noise: NoiseSpec | None, p, uniform, out: np.ndarray | None = None):
    """The global depolarizing channel on probabilities `p`: (1 - L) p + L u,
    L = noise.effective_mixing, u = `uniform`, the uniform law's value at p
    (2^-n on a bin, (t + 1) 2^-n on a CDF to bin t).  No noise and a zero rate
    are one case: `p` itself.  Else into `out` (may be `p`) if given, or by
    plain arithmetic, so a Python float stays a Python float."""
    if noise is None or noise.lambda_per_gate == 0.0:
        return p
    mixing = noise.effective_mixing
    if out is None:
        return (1.0 - mixing) * p + mixing * uniform
    return np.add(np.multiply(p, 1.0 - mixing, out=out), mixing * uniform, out=out)


def apply_depolarizing(dist: np.ndarray, noise: NoiseSpec | None) -> np.ndarray:
    """The outcome distribution depolarized, renormalized if it was mixed."""
    out = depolarize(noise, dist, 1.0 / dist.size)
    return dist if out is dist else out / out.sum()


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


def sample_halves(halves: np.ndarray, shots: list[int], noise: NoiseSpec | None,
                  rng: np.random.Generator) -> list[np.ndarray]:
    """Sorted i.i.d. basis indices from flip-symmetric rows given by their
    first halves, depolarized by `noise`: `shots[r]` from row r, one
    (rows, shots) array per run of equal shots.  `halves` becomes each row's
    depolarized CDF G.  Sorted uniforms in [0, 1) scaled by T = 2 G[-1] stay
    below it; v < T/2 is the first bin where G passes v, and a larger v the
    mirror 2^n - 1 - t, t the count of G below T - v (exact).  A bin is drawn
    only where the CDF rises, never a zero bin.  One rng.random call: the
    stream of one per row."""
    if min(shots) < 1:
        raise ValueError("shots must be >= 1")
    size = 2 * halves.shape[-1]
    cdf = np.cumsum(halves, axis=-1, out=halves)
    depolarize(noise, cdf, np.arange(1, size // 2 + 1) / size, out=cdf)
    uniforms = rng.random(sum(shots))
    runs, row, start = [], 0, 0
    for count, group in groupby(shots):
        rows = len(list(group))
        cdfs, total = cdf[row:row + rows], 2.0 * cdf[row:row + rows, -1:]
        v = np.sort(uniforms[start:start + rows * count].reshape(rows, count)) * total
        upper = v >= cdfs[:, -1:]
        queries = np.where(upper, np.nextafter(total - v, -np.inf), v)
        hits = np.array([c.searchsorted(q, "right") for c, q in zip(cdfs, queries)])
        runs.append(np.where(upper, size - 1 - hits, hits))
        row, start = row + rows, start + rows * count
    return runs


def exact_expectation(instance: MaxCutInstance, dist: np.ndarray) -> float:
    """Exact mean cut value under the outcome distribution."""
    return float(dist @ cut_values_table(instance))
