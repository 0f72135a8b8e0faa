"""The simulator above n = 14, against the p = 1 closed form for unit weights
(Wang, Hadfield, Jiang & Rieffel 2018, arXiv:1706.02998, Thm. 1):

<C_uv> = 1/2 + (1/4) sin 4b sin g (cos^a g + cos^b g)
         - (1/4) sin^2 2b cos^(a + b - 2l) g (1 - cos^l 2g)

where a and b are the degrees of u and v minus one and l is the number of
triangles on the edge.  Every qubit index from 0 to n - 1 takes part, so the
half-space kernels' high-qubit reshapes are checked at sizes the kron oracle
cannot reach.  The target reader's reshapes are checked there at p = 2,
against the per-qubit oracle."""
import numpy as np
import pytest

from conftest import oracle_evolve
from modeqaoa.baselines import parameter_shift_gradient
from modeqaoa.graph import MaxCutInstance, random_regular
from modeqaoa.resources import ResourceLedger
from modeqaoa.simulator import (
    GateShift, QaoaParams, TargetReader, distribution, evolve, exact_expectation,
)


def edge_terms(instance):
    """Per edge: the degrees of u and v minus one, and its triangles."""
    nbrs = [set() for _ in range(instance.n)]
    for u, v, _ in instance.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return np.array([(len(nbrs[u]) - 1, len(nbrs[v]) - 1, len(nbrs[u] & nbrs[v]))
                     for u, v, _ in instance.edges], dtype=float).T


def closed_form(instance, beta, gamma):
    """(<C>, [d<C>/d beta, d<C>/d gamma]) at p = 1, summed over the edges."""
    a, b, tri = edge_terms(instance)
    m = a + b - 2 * tri
    c, s, e = np.cos(gamma), np.sin(gamma), np.cos(2 * gamma)
    lone = c**a + c**b          # the terms without a triangle factor
    shared = c**m * (1 - e**tri)
    value = 0.5 + 0.25 * np.sin(4 * beta) * s * lone - 0.25 * np.sin(2 * beta)**2 * shared
    d_beta = np.cos(4 * beta) * s * lone - 0.5 * np.sin(4 * beta) * shared
    d_lone = -s * (a * c**(a - 1) + b * c**(b - 1))
    d_shared = (-m * c**(m - 1) * s * (1 - e**tri)
                + c**m * 2 * tri * e**(tri - 1) * np.sin(2 * gamma))
    d_gamma = (0.25 * np.sin(4 * beta) * (c * lone + s * d_lone)
               - 0.25 * np.sin(2 * beta)**2 * d_shared)
    return value.sum(), np.array([d_beta.sum(), d_gamma.sum()])


def _case(n):
    """A random 3-regular graph relabelled so that qubit n - 1 lies on a
    triangle and qubit n - 2 does not: d<C>/d beta sums one term per qubit,
    and a mixer term read on the wrong high qubit would change it."""
    inst = random_regular(n, 3, seed=n)
    on_triangle = {x for (u, v, _), tri in zip(inst.edges, edge_terms(inst)[2]) if tri
                   for x in (u, v)}
    top = min(on_triangle)
    below = min(set(range(n)) - on_triangle)
    order = [v for v in range(n) if v not in (top, below)] + [below, top]
    label = {v: i for i, v in enumerate(order)}
    inst = MaxCutInstance.from_edges(n, [(label[u], label[v], w) for u, v, w in inst.edges])
    beta, gamma = np.random.default_rng(n).uniform(-np.pi, np.pi, 2)
    return inst, QaoaParams((float(beta),), (float(gamma),))


@pytest.mark.parametrize("n", [16, 18])
def test_evolve_matches_p1_closed_form(n):
    inst, params = _case(n)
    want, _ = closed_form(inst, params.betas[0], params.gammas[0])
    got = exact_expectation(inst, distribution(evolve(inst, params)))
    assert abs(got - want) < 1e-12


@pytest.mark.parametrize("n", [16, 18])
def test_exact_parameter_shift_gradient_matches_p1_closed_form(n):
    inst, params = _case(n)
    _, want = closed_form(inst, params.betas[0], params.gammas[0])
    got = parameter_shift_gradient(inst, params, None, None, 0, ResourceLedger())
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)



def test_target_reader_matches_oracle_on_high_qubits():
    # the reader's bit reshapes (_flip, _edge_parity) on qubits 0, 14 and 15,
    # at p = 2, against the per-qubit oracle's shifted states
    inst, _ = _case(16)
    params = QaoaParams((0.41, 0.77), (1.3, 2.6))
    high = {0, 14, 15}
    gates = [("beta", q) for q in sorted(high)]
    gates += [("gamma", i) for i, (u, v, _) in enumerate(inst.edges) if {u, v} & high]
    targets = (5, 2**15 + 77, 2**16 - 1 - 3000)  # the last two with bit 0 set
    readers = [TargetReader(inst, t, 2) for t in targets]
    want = np.abs(oracle_evolve(inst, params)) ** 2
    for reader, t in zip(readers, targets):
        np.testing.assert_allclose(reader.probability(params), want[t], rtol=1e-11, atol=0)
    for layer in range(2):
        for kind, index in gates:
            plus, minus = (np.abs(oracle_evolve(inst, params, GateShift(kind, layer, index,
                                                                        sign * np.pi / 2))) ** 2
                           for sign in (1.0, -1.0))
            for reader, t in zip(readers, targets):
                np.testing.assert_allclose(reader.read(params, kind, layer, index),
                                           (plus[t], minus[t]), rtol=1e-11, atol=0)
