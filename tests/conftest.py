import numpy as np
import pytest

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
