import numpy as np
import pytest

from modeqaoa import simulator
from modeqaoa.graph import (
    MaxCutInstance, assign_weights, complete_graph, cut_values_table, random_regular,
    with_optimum,
)


def oracle_cut(instance, bits):
    """Cut of a '0'/'1' string, character i the side of vertex i: a per-edge
    sum in edge order, the oracle the cut table is checked against."""
    assert len(bits) == instance.n
    return float(sum(w for u, v, w in instance.edges if bits[u] != bits[v]))


def oracle_mixer(amps, n, qubit, beta):
    """Per-qubit in-place exp(-i beta X) on qubit `qubit`, in the usual layout."""
    if beta == 0.0:
        return
    c = np.cos(beta)
    s = np.sin(beta)
    view = amps.reshape(2**qubit, 2, -1)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = c * a0 - 1j * s * a1
    view[:, 1, :] = c * a1 - 1j * s * a0


def oracle_evolve(instance, params, shift=None):
    """Layer-by-layer evolution with the per-qubit mixer and a full edge phase;
    `shift` (a GateShift) displaces one gate's half-turn angle."""
    n = instance.n
    cuts = cut_values_table(instance)
    amps = np.full(2**n, 2.0 ** (-n / 2), dtype=complex)
    for layer in range(params.depth):
        amps = amps * np.exp(-1j * params.gammas[layer] * cuts)
        if shift is not None and shift.kind == "gamma" and shift.layer == layer:
            u, v, _ = instance.edges[shift.index]
            idx = np.arange(2**n, dtype=np.int64)
            indicator = (((idx >> (n - 1 - u)) ^ (idx >> (n - 1 - v))) & 1).astype(float)
            amps = amps * np.exp(-1j * shift.angle * indicator)
        for q in range(n):
            beta = params.betas[layer]
            if shift is not None and shift.kind == "beta" \
                    and shift.layer == layer and shift.index == q:
                beta = beta + shift.angle / 2.0
            oracle_mixer(amps, n, q, beta)
    return amps


def mixer_pass(amps, c, js):
    """One pass of exp(-i beta X), c = cos beta and js = i sin beta as numpy
    scalars, on the top index bit of each half row (or stack of half rows),
    moved to the bottom, into a fresh array.  The reference that each of
    simulator._mix's n passes must reproduce byte for byte."""
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


def mix_passes(amps, beta):
    """exp(-i beta X) on every qubit of a half row: n reference passes."""
    c, js = np.cos(beta), 1j * np.sin(beta)
    for _ in range(amps.shape[-1].bit_length()):
        amps = mixer_pass(amps, c, js)
    return amps


def generator_row(instance, kind, index, beta, after):
    """One gate's generator row from the state after its layer's mixers, one
    fresh array per factor (see simulator._generator_rows): the reference
    that each row of a stack must reproduce byte for byte."""
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


def swept_rows(instance, params):
    """(kind, layer, index, gate coefficient, p+, p-) for every gate in sweep
    order, p+- its rows of simulator._shift_stacks mirrored to full length:
    the sweep's output in the form the per-gate oracles give."""
    for kind, layer, chunk, probs in simulator._shift_stacks(instance, params):
        rows = np.concatenate([probs, probs[..., ::-1]], axis=-1)
        for index, plus, minus in zip(chunk, *rows):
            yield (kind, layer, index, simulator.gate_coefficient(instance, kind, index),
                   plus, minus)


def sample_indices(dist, shots, rng):
    """`shots` i.i.d. basis indices from a full outcome row, sorted: inverse CDF
    by `cumsum` and a right-sided `searchsorted` of sorted uniforms in [0, 1)
    scaled by the total, one rng.random call.  The reference that
    simulator.sample_halves must reproduce on the row's mirrored, depolarized
    full form."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    cdf = np.cumsum(dist)
    u = np.sort(rng.random(shots))
    u *= cdf[-1]
    return np.searchsorted(cdf, u, side="right")


@pytest.fixture
def triangle():
    # K3, unit weights; optimum cut 2 at any 1-vs-2 split
    return with_optimum(complete_graph(3))


@pytest.fixture
def square():
    # 4-cycle, optimum cut 4 at alternating split
    return with_optimum(MaxCutInstance.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0),
                                                      (2, 3, 1.0), (0, 3, 1.0)]))


@pytest.fixture
def six_reg():
    return with_optimum(assign_weights(random_regular(6, 3, seed=7), "unit", 0))


@pytest.fixture
def petersen():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
             (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    return MaxCutInstance.from_edges(10, [(u, v, 1.0) for u, v in edges])
