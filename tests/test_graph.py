import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_cut
from modeqaoa.graph import (
    MaxCutInstance, assign_weights, brute_force_optimum, complete_graph,
    cut_values_table, from_json, index_to_bits, random_regular, to_json, with_optimum,
)


def test_from_edges_normalizes_order():
    inst = MaxCutInstance.from_edges(4, [(2, 0, 1.5), (3, 1, 0.5)])
    assert inst.edges == ((0, 2, 1.5), (1, 3, 0.5))
    assert inst.total_weight == 2.0


def test_from_edges_rejects_bad_edges():
    with pytest.raises(ValueError):
        MaxCutInstance.from_edges(3, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        MaxCutInstance.from_edges(3, [(0, 3, 1.0)])
    with pytest.raises(ValueError):
        MaxCutInstance.from_edges(3, [(0, 1, -1.0)])
    with pytest.raises(ValueError):
        MaxCutInstance.from_edges(3, [(0, 1, 1.0), (1, 0, 2.0)])


def test_index_bits_roundtrip():
    for n in (1, 3, 6):
        for k in range(2 ** n):
            bits = index_to_bits(k, n)
            assert len(bits) == n
            assert int(bits, 2) == k
    # vertex 0 is the most significant bit
    assert index_to_bits(1, 4) == "0001"
    assert index_to_bits(8, 4) == "1000"


def test_cut_value_square(square):
    table = cut_values_table(square)
    for bits, cut in (("0101", 4.0), ("0000", 0.0), ("0001", 2.0)):
        assert oracle_cut(square, bits) == cut
        assert table[int(bits, 2)] == cut


def test_cut_table_matches_scalar(six_reg):
    # bit for bit against the per-edge loop over the bitstring
    table = cut_values_table(six_reg)
    for k in range(2 ** six_reg.n):
        assert table[k] == oracle_cut(six_reg, index_to_bits(k, six_reg.n))
    assert not table.flags.writeable


def test_brute_force_triangle(triangle):
    index, best = brute_force_optimum(triangle)
    assert best == 2.0
    # first max in index order with bit 0 most significant: 001
    assert index == 0b001


def test_brute_force_petersen(petersen):
    # independent oracle: full enumeration with a different bit convention
    index, best = brute_force_optimum(petersen)
    assert best == 12.0
    assert index == 0b0010111000
    ref = max(
        sum(w for (u, v, w) in petersen.edges
            if ((mask >> u) & 1) != ((mask >> v) & 1))
        for mask in range(2 ** 10)
    )
    assert ref == best


def test_brute_force_first_max_is_lex_smallest(square):
    index, best = brute_force_optimum(square)
    table = cut_values_table(square)
    winners = [k for k in range(16) if table[k] == best]
    assert index == min(winners)
    assert index_to_bits(index, 4) == min(index_to_bits(k, 4) for k in winners)


def test_optimum_complement_symmetry(six_reg):
    index, best = brute_force_optimum(six_reg)
    flipped = "".join("1" if b == "0" else "0" for b in index_to_bits(index, 6))
    assert oracle_cut(six_reg, flipped) == best


def test_with_optimum_caches(six_reg):
    assert six_reg.optimum is not None
    assert with_optimum(six_reg) is six_reg


@given(st.integers(4, 10), st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_random_regular_is_regular(n, seed):
    inst = random_regular(n, 3, seed)
    if n * 3 % 2 == 1:
        # infeasible parity falls back to the complete graph
        assert inst.num_edges == n * (n - 1) // 2
        return
    deg = np.zeros(n, dtype=int)
    for u, v, _ in inst.edges:
        deg[u] += 1
        deg[v] += 1
    assert np.all(deg == 3)


def test_random_regular_edge_count():
    # n * degree / 2 edges, or K_n's n(n - 1)/2 where no degree-regular simple
    # graph exists (n * degree odd, or n <= degree)
    grid = [(n, d) for n in range(2, 13) for d in range(1, 5)]
    grid += [(2, 3), (3, 5), (4, 4), (5, 7), (6, 9)]
    fallbacks = 0
    for n, degree in grid:
        fallback = n * degree % 2 == 1 or n <= degree
        fallbacks += fallback
        want = n * (n - 1) // 2 if fallback else n * degree // 2
        for seed in (0, 1):
            assert random_regular(n, degree, seed).num_edges == want
    assert fallbacks >= 10


def test_random_regular_deterministic():
    a = random_regular(8, 3, seed=42)
    b = random_regular(8, 3, seed=42)
    assert a.edges == b.edges


def test_random_regular_gives_up_on_dense_degrees():
    # a 17-regular pairing on 20 vertices is almost never simple
    with pytest.raises(ValueError, match=r"17-regular.*n=20"):
        random_regular(20, 17, seed=0)


def test_assign_weights_uniform_positive():
    inst = assign_weights(random_regular(8, 3, seed=1), "uniform", seed=5)
    ws = [w for (_, _, w) in inst.edges]
    assert all(0.0 < w <= 1.0 for w in ws)
    again = assign_weights(random_regular(8, 3, seed=1), "uniform", seed=5)
    assert inst.edges == again.edges
    with pytest.raises(ValueError):
        assign_weights(inst, "gauss", seed=0)


@given(st.integers(0, 2 ** 6 - 1))
@settings(max_examples=64, deadline=None)
def test_cut_complement_invariance(k):
    inst = assign_weights(random_regular(6, 3, seed=3), "uniform", seed=3)
    bits = index_to_bits(k, 6)
    flipped = index_to_bits(2 ** 6 - 1 - k, 6)
    assert oracle_cut(inst, bits) == pytest.approx(oracle_cut(inst, flipped))


def test_brute_force_upper_bounds_samples(six_reg):
    _, best = brute_force_optimum(six_reg)
    rng = np.random.default_rng(0)
    for _ in range(50):
        bits = "".join(rng.choice(["0", "1"], size=6))
        assert oracle_cut(six_reg, bits) <= best


def test_json_roundtrip(six_reg):
    text = to_json(six_reg, seed=17)
    data = json.loads(text)
    assert data["n"] == 6 and data["seed"] == 17
    back = from_json(text)
    assert back.n == six_reg.n
    assert back.edges == six_reg.edges
    assert with_optimum(back).optimum == six_reg.optimum


def test_complete_graph_k4():
    k4 = complete_graph(4)
    assert k4.num_edges == 6
    assert set(itertools.combinations(range(4), 2)) == {
        (u, v) for (u, v, _) in k4.edges}
