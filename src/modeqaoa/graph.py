"""Weighted MaxCut instances: random regular generation, cut evaluation, exact optima.

Bitstring convention, for the whole package: a partition is an integer basis
index in [0, 2^n) whose bit 0, counted from the most significant end, is the
side of vertex 0, so vertex i's side is index_to_bits(index, n)[i].  Its cut
is cut_values_table(instance)[index].  Ties go to the smallest index, the
lexicographically smallest bitstring.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

MAX_BRUTE_FORCE_N = 24
MAX_SEED_ADVANCES = 20

Edge = tuple[int, int, float]


@dataclass(frozen=True)
class MaxCutInstance:
    """Simple undirected graph with non-negative edge weights, vertices 0..n-1."""

    n: int
    edges: tuple[Edge, ...]
    total_weight: float
    optimum: tuple[int, float] | None = None  # (index, cut)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 vertices, got n={self.n}")
        seen = set()
        for u, v, w in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) violates 0 <= u < v < n")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            if not (w >= 0 and np.isfinite(w)):
                raise ValueError(f"edge ({u},{v}) has invalid weight {w}")
            seen.add((u, v))
        total = float(sum(w for _, _, w in self.edges))
        if abs(total - self.total_weight) > 1e-12 * max(1.0, abs(total)):
            raise ValueError("total_weight inconsistent with edge list")

    @classmethod
    def from_edges(cls, n: int, edges) -> "MaxCutInstance":
        """Normalize (u < v, sorted edge list) and compute the total weight."""
        norm = tuple(sorted((min(u, v), max(u, v), float(w)) for u, v, w in edges))
        total = float(sum(w for _, _, w in norm))
        return cls(n=n, edges=norm, total_weight=total)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def random_regular(n: int, degree: int, seed: int) -> MaxCutInstance:
    """Random degree-regular simple graph via the configuration model, unit weights.

    Pairing restarts on self-loops or multi-edges; after 1000 failed restarts
    the seed is advanced deterministically, and after MAX_SEED_ADVANCES seeds
    ValueError is raised (dense degrees almost never pair into a simple graph).
    When no degree-regular simple graph exists (n*degree odd, or n <= degree)
    the complete graph K_n is returned instead so every grid point stays runnable.
    """
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got n={n}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if n * degree % 2 == 1 or n <= degree:
        return complete_graph(n)

    for attempt_seed in range(seed, seed + MAX_SEED_ADVANCES):
        rng = np.random.default_rng(attempt_seed)
        for _ in range(1000):
            stubs = np.repeat(np.arange(n), degree)
            rng.shuffle(stubs)
            pairs = stubs.reshape(-1, 2)
            edges = set()
            for a, b in pairs:
                u, v = (int(a), int(b)) if a < b else (int(b), int(a))
                if u == v or (u, v) in edges:
                    break
                edges.add((u, v))
            else:  # every pair was simple
                return MaxCutInstance.from_edges(n, [(u, v, 1.0) for u, v in edges])
    raise ValueError(f"no simple {degree}-regular graph on n={n} vertices found in "
                     f"{MAX_SEED_ADVANCES} x 1000 configuration-model pairings")


def complete_graph(n: int) -> MaxCutInstance:
    edges = [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)]
    return MaxCutInstance.from_edges(n, edges)


def assign_weights(instance: MaxCutInstance, scheme: str, seed: int) -> MaxCutInstance:
    """Reweight edges: 'unit' sets every weight to 1, 'uniform' draws i.i.d. from (0, 1]."""
    if scheme == "unit":
        weights = np.ones(instance.num_edges)
    elif scheme == "uniform":
        # rng.random() is [0, 1); flip to (0, 1] so no edge vanishes
        weights = 1.0 - np.random.default_rng(seed).random(instance.num_edges)
    else:
        raise ValueError(f"unknown weight scheme {scheme!r}")
    edges = [(u, v, float(w)) for (u, v, _), w in zip(instance.edges, weights)]
    return MaxCutInstance.from_edges(instance.n, edges)


def index_to_bits(index: int, n: int) -> str:
    return format(index, f"0{n}b")


@lru_cache(maxsize=64)
def _cut_table(n: int, edges: tuple[Edge, ...]) -> np.ndarray:
    idx = np.arange(2**n, dtype=np.int64)
    cuts = np.zeros(2**n)
    for u, v, w in edges:
        cuts += w * (((idx >> (n - 1 - u)) ^ (idx >> (n - 1 - v))) & 1)
    cuts.flags.writeable = False
    return cuts


def cut_values_table(instance: MaxCutInstance) -> np.ndarray:
    """Cut value of every basis index, shape (2**n,).  Cached per edge list."""
    return _cut_table(instance.n, instance.edges)


def brute_force_optimum(instance: MaxCutInstance) -> tuple[int, float]:
    """(index, cut) of the exact MaxCut over the 2^(n-1) partitions with
    vertex 0 on side 0.

    Those are the first half of the cut table (left cached).  Restricting to
    vertex 0 on side 0 loses nothing by complement symmetry, and the smallest
    maximizing index always lies in that half.
    """
    if instance.optimum is not None:
        return instance.optimum
    n = instance.n
    if n > MAX_BRUTE_FORCE_N:
        raise ValueError(f"brute force capped at n={MAX_BRUTE_FORCE_N}, got n={n}")
    cuts = cut_values_table(instance)[: 2 ** (n - 1)]
    best = int(np.argmax(cuts))  # first maximum = smallest index
    return best, float(cuts[best])


def with_optimum(instance: MaxCutInstance) -> MaxCutInstance:
    """Copy of the instance with the brute-force optimum cached on it."""
    if instance.optimum is not None:
        return instance
    return replace(instance, optimum=brute_force_optimum(instance))


def to_json(instance: MaxCutInstance, seed: int | None = None) -> str:
    payload = {
        "n": instance.n,
        "edges": [[u, v, w] for u, v, w in instance.edges],
    }
    if seed is not None:
        payload["seed"] = seed
    return json.dumps(payload)


def from_json(text: str) -> MaxCutInstance:
    """Instance from to_json's format; a malformed payload raises ValueError."""
    payload = json.loads(text)
    # exact type checks: JSON true/false load as bool, a subclass of int
    if not (isinstance(payload, dict) and type(payload.get("n")) is int
            and isinstance(payload.get("edges"), list)):
        raise ValueError("instance JSON must be an object with an integer 'n' "
                         "and an 'edges' list")
    for edge in payload["edges"]:
        if not (isinstance(edge, list) and len(edge) == 3
                and type(edge[0]) is type(edge[1]) is int
                and type(edge[2]) in (int, float)):
            raise ValueError(f"edge {edge!r} is not [u, v, weight] with integer u, v")
    return MaxCutInstance.from_edges(payload["n"], payload["edges"])
