"""Seeded random instances for verification suites and tests.

All randomness flows through one 64-bit seed into numpy's default
generator (PCG64), so every suite run is reproducible byte for byte.
"""

from __future__ import annotations

import numpy as np

from .errors import BadSize
from .graph_core import Graph, graph_from_edges
from .markov import Distribution, StochasticMatrix

__all__ = [
    "rng_from_seed",
    "random_connected_graph",
    "random_distribution",
    "random_reversible_chain",
    "random_local_chain",
    "random_zero_sum",
]

# Added to every uniform draw of random_distribution before normalizing.
_FLOOR = 0.05


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))


def random_connected_graph(
    rng: np.random.Generator, n: int | None = None, n_max: int = 10
) -> Graph:
    """Random connected undirected graph: a random attachment tree plus
    each extra edge independently with probability 0.3."""
    if n is None:
        n = int(rng.integers(2, n_max + 1))
    if n < 2:
        raise BadSize("need at least two nodes")
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    present = set(edges)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in present and rng.random() < 0.3:
                edges.append((i, j))
                present.add((i, j))
    return graph_from_edges(n, edges)


def random_distribution(rng: np.random.Generator, n: int) -> Distribution:
    """Full-support distribution; `_FLOOR` keeps every entry bounded away
    from zero relative to uniform."""
    w = rng.random(n) + _FLOOR
    return Distribution(w / w.sum())


def random_reversible_chain(
    rng: np.random.Generator, g: Graph
) -> tuple[StochasticMatrix, Distribution]:
    """Random reversible chain on g with its exact stationary law.

    Symmetric positive weights on edges plus positive self-weights;
    normalizing each column by its node's total weight gives a chain whose
    stationary law is the (normalized) node weights, exactly.
    """
    n = g.n
    W = np.zeros((n, n))
    for i, j in g.arcs:
        if i < j:
            W[i, j] = W[j, i] = 0.05 + rng.random()
    np.fill_diagonal(W, 0.05 + rng.random(n))
    totals = W.sum(axis=0)
    P = W / totals[None, :]
    pi = totals / totals.sum()
    return StochasticMatrix(P, locality=g), Distribution(pi)


def random_local_chain(rng: np.random.Generator, g: Graph) -> StochasticMatrix:
    """Random chain supported on g's arcs with a positive diagonal, hence
    irreducible and aperiodic when g is connected."""
    n = g.n
    P = np.zeros((n, n))
    for i in range(n):
        nbrs = g.out_neighbors(i)
        weights = 0.05 + rng.random(len(nbrs) + 1)
        weights /= weights.sum()
        P[i, i] = weights[0]
        for w_, j in zip(weights[1:], nbrs):
            P[j, i] = w_
    return StochasticMatrix(P, locality=g)


def random_zero_sum(rng: np.random.Generator, n: int) -> np.ndarray:
    """Signed vector with entries of size about 1, summing to zero."""
    q = rng.standard_normal(n)
    return q - q.mean()
