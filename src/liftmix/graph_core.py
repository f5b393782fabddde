"""Graph representation, metric queries, cuts, spanning trees, and builders.

Graphs are directed arc sets over nodes 0..n-1. Self-arcs are never stored:
self-transitions are always legal for dynamics, so locality checks only look
at off-diagonal entries. Undirected input expands to both ordered arcs.

A Graph builds its boolean adjacency and distance matrix once, on first use,
and shares them read-only.  Every search runs through scipy.sparse.csgraph,
which scans each row in ascending index order, so all tie-breaking (BFS
order, shortest-path successor choice) is by lowest node index and every
derived object is deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.sparse import csr_array, issparse
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.csgraph import shortest_path as _csgraph_distances

from ._tolerances import TOL, _gamma
from .errors import BadSize, DisconnectedGraph, NoSpanningTree, TooManyNodes


def _read_only(a):
    """Flag an array, or a sparse array's index and value arrays, read-only."""
    for part in (a.data, a.indices, a.indptr) if issparse(a) else (a,):
        part.setflags(write=False)
    return a


@dataclass(frozen=True)
class Graph:
    """Directed graph on nodes 0..n-1 with arcs as ordered pairs (i, j), i != j."""

    n: int
    arcs: frozenset[tuple[int, int]]
    undirected_input: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise BadSize(f"graph needs at least one node, got n={self.n}")
        for i, j in self.arcs:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise BadSize(f"arc ({i},{j}) out of range for n={self.n}")
            if i == j:
                raise BadSize("self-arcs are implicit and must not be stored")

    def has_arc(self, i: int, j: int) -> bool:
        return i == j or (i, j) in self.arcs

    def out_neighbors(self, i: int) -> list[int]:
        return np.flatnonzero(self._adjacency[i]).tolist()

    def adjacency(self) -> np.ndarray:
        """Boolean M with M[i, j] iff (i, j) is an arc; shared and read-only."""
        return self._adjacency

    @cached_property
    def _adjacency(self) -> np.ndarray:
        M = np.zeros((self.n, self.n), dtype=bool)
        M.flat[self._arc_keys] = True
        return _read_only(M)

    @cached_property
    def _arc_keys(self) -> np.ndarray:
        """i * n + j of every arc (i, j), ascending."""
        arcs = np.array(list(self.arcs), dtype=np.int64).reshape(-1, 2)
        return _read_only(np.sort(arcs[:, 0] * self.n + arcs[:, 1]))

    @cached_property
    def _distances(self) -> np.ndarray:
        """Arc-path lengths D[i, j] from i to j, -1 where j is unreachable."""
        D = _csgraph_distances(self._adjacency, unweighted=True)
        return _read_only(np.where(np.isinf(D), -1, D).astype(int))

    def _check_node(self, v: int, role: str) -> None:
        if not 0 <= v < self.n:
            raise BadSize(f"{role} {v} out of range for n={self.n}")


@dataclass(frozen=True)
class Cut:
    """Node subset X encoded as a bit mask, with its stationary weight pi(X)."""

    member_mask: int
    weight: float

    def members(self) -> list[int]:
        return [i for i in range(self.member_mask.bit_length()) if self.member_mask >> i & 1]

    def contains(self, i: int) -> bool:
        return bool(self.member_mask >> i & 1)


# A cut chunk holds the 2^16 masks that agree above their low 16 bits.
_CHUNK_BITS = 16
# Rows per slab of a chunk's matrix products (see `_cut_chunks`).
_SLAB_ROWS = 4096


def _by_slabs(product, members: np.ndarray) -> np.ndarray:
    """product(rows) over consecutive `_SLAB_ROWS`-row slabs of members,
    concatenated: product's temporaries hold one slab, never the chunk."""
    return np.concatenate(
        [product(members[i : i + _SLAB_ROWS]) for i in range(0, len(members), _SLAB_ROWS)]
    )


def _cut_chunks(n: int, w: np.ndarray, _only=None):
    """Lazy (masks, members, weights) chunks of up to 2^16 ascending masks,
    covering every cut with pi(X) <= 1/2 (both sides when pi(X) = 1/2 within
    the cut_weight entry of _tolerances.TOL); weights are BLAS dot products.
    The only cut enumerator and the only size guard: over 24 nodes raises
    TooManyNodes at the call.  `_only`, an iterable of chunk indices
    (mask >> 16) read on the first chunk, gives just those chunks, in its
    order.

    Members are unpacked as bool from the masks' little-endian bytes, so a
    chunk holds 2^16 n bytes of membership.  Its products (here and in
    `_cut_phis`) run by `_by_slabs` over slabs of `_SLAB_ROWS` rows, never
    holding more than `_SLAB_ROWS` n floats at a time, not 2^16 n (11.5 MB
    at n = 22).  The slab is a power of two far above the BLAS kernels' row
    blocking, so every row meets the kernel it meets in a product of the
    whole chunk and gets the same bits; slabs of a few rows change them.
    """
    if n > 24:
        raise TooManyNodes(f"cut enumeration guarded to n <= 24, got {n}")
    total = (1 << n) - 1
    step = 1 << _CHUNK_BITS
    cap = 0.5 + TOL["cut_weight"]

    def chunks():
        starts = range(1, total, step)
        if _only is not None:
            starts = (max(c << _CHUNK_BITS, 1) for c in _only)
        for start in starts:
            masks = np.arange(start, min(start + step, total), dtype=np.int64)
            octets = masks.astype("<u4").view(np.uint8).reshape(-1, 4)
            members = np.unpackbits(octets, axis=1, count=n, bitorder="little").view(bool)
            weights = _by_slabs(lambda m: m @ w, members)
            keep = weights <= cap
            if keep.any():
                yield masks[keep], members[keep], weights[keep]

    return chunks()


def _subset_sums(v: np.ndarray) -> np.ndarray:
    """s[m] = sum of v[j] over the set bits j of m, for every m < 2^len(v),
    by doubling."""
    s = np.zeros(1 << len(v))
    for j, x in enumerate(v.tolist()):
        s[1 << j : 2 << j] = s[: 1 << j] + x
    return s


def _screen_cuts(flows: np.ndarray, w: np.ndarray):
    """Yield (chunk index, weights, phis) of every cut, chunk by chunk in
    `_cut_chunks` order, position l of chunk c being mask (c << 16) + l.

    The conductances come by subset recursion in O(2^n) additions:
    adding node b to a set m adds flows[b, b] and the sum over j in m of
    flows[b, j] + flows[j, b] to its internal flow.  The low 16 nodes'
    tables are built once; each chunk adds its high nodes' internal flow,
    weight and cross flows.  No array exceeds 2^16 entries.  Weights and
    phis differ from `_cut_chunks`' and `_cut_phis`' in their summation
    order only; phis are inf where the weight is 0.
    """
    n = len(w)
    lo = min(n, _CHUNK_BITS)
    internal_lo = np.zeros(1 << lo)
    for b in range(lo):
        cross = _subset_sums(flows[b, :b] + flows[:b, b])
        internal_lo[1 << b : 2 << b] = internal_lo[: 1 << b] + flows[b, b] + cross
    weight_lo = _subset_sums(w[:lo])
    high_bits = np.arange(n - lo)
    for c in range(1 << (n - lo)):
        high = lo + np.flatnonzero((c >> high_bits) & 1)
        weights = w[high].sum() + weight_lo
        cross = _subset_sums(flows[:lo, high].sum(axis=1) + flows[high, :lo].sum(axis=0))
        internal = flows[np.ix_(high, high)].sum() + internal_lo + cross
        phis = np.full_like(weights, np.inf)
        np.divide(np.maximum(weights - internal, 0.0), weights, out=phis, where=weights > 0.0)
        yield c, weights, phis


def _screen_bounds(n: int) -> tuple[float, float, float]:
    """(delta, sure, wide) for `_screened_chunks` on n nodes.

    delta = gamma_k (_tolerances._gamma), k = n^2 + 3n + 4, bounds the
    distance of both `_screen_cuts`' phis and `_cut_phis`' from the exact
    conductances of the same flows and weights: an internal flow sums at
    most n^2 nonnegative terms and a weight at most n, each in any order,
    the ratio adds a subtraction and a division, and a StochasticMatrix
    column sums to within gamma_2n of 1.  A cut whose screened weight is at
    most `sure` passes `_cut_chunks`' cap of 1/2 + cut_weight, and one that
    passes the cap has a screened weight of at most `wide`: the cap moved
    by the weights' own bound, 4 gamma_n.
    """
    cap = 0.5 + TOL["cut_weight"]
    slack = 4.0 * _gamma(n)
    return _gamma(n * n + 3 * n + 4), cap * (1.0 - slack), cap * (1.0 + slack)


def _screened_chunks(entries: np.ndarray, w: np.ndarray):
    """Ascending indices of the `_cut_chunks` chunks that can hold the cut
    of least conductance under `_cut_phis`, for the chain with these column
    stochastic entries and stationary weights.

    Cuts on at most 16 nodes fill one chunk, which is given unscreened.
    Otherwise a chunk is given when it holds a cut that may pass the weight
    cap and whose `_screen_cuts` phi lies within 4 delta of the least one
    among cuts that surely pass it (`_screen_bounds`): the lowest cut of
    least `_cut_phis` conductance is then in a given chunk.
    """
    n = len(w)
    if n <= _CHUNK_BITS:
        yield 0
        return
    delta, sure, wide = _screen_bounds(n)
    least = np.empty(1 << (n - _CHUNK_BITS))
    least_sure = math.inf
    for c, weights, phis in _screen_cuts(entries * w[None, :], w):
        # phis lie in [0, 1] or are inf, so adding 4 past a cap takes a cut
        # out of the minimum without a masked (branching) reduction
        least[c] = (phis + 4.0 * (weights > wide)).min()
        least_sure = min(least_sure, (phis + 4.0 * (weights > sure)).min())
    limit = min(least_sure + 4.0 * delta, 1.0)
    yield from np.flatnonzero(least <= limit).tolist()


def graph_from_edges(n: int, edges: list[tuple[int, int]], directed: bool = False) -> Graph:
    arcs: set[tuple[int, int]] = set()
    for i, j in edges:
        if i == j:
            continue
        arcs.add((i, j))
        if not directed:
            arcs.add((j, i))
    return Graph(n=n, arcs=frozenset(arcs), undirected_input=not directed)


def graph_to_json(g: Graph) -> dict:
    """Ascending edges off the arc keys; undirected input as [min, max]."""
    keys = g._arc_keys
    if g.undirected_input:
        i, j = np.divmod(keys, g.n)
        keys = np.unique(np.minimum(i, j) * g.n + np.maximum(i, j))
    edges = np.stack(np.divmod(keys, g.n), axis=1).tolist()
    return {"n": g.n, "edges": edges, "directed": not g.undirected_input}


def graph_from_json(obj: dict) -> Graph:
    """Read {"n", "edges", "directed"}: n and every endpoint must be JSON
    integers and directed (default false) a JSON bool, never truncated or
    coerced."""
    n, edges, directed = obj["n"], obj["edges"], obj.get("directed", False)
    if type(n) is not int:
        raise BadSize(f"graph size n must be an integer, got {n!r}")
    if type(directed) is not bool:
        raise BadSize(f"graph 'directed' must be true or false, got {directed!r}")
    if not set(map(type, chain.from_iterable(edges))) <= {int}:  # at C speed
        raise BadSize("graph edge endpoints must be integers")
    return graph_from_edges(n, edges, directed=directed)


def load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return graph_from_json(json.load(fh))


def _strong_components(support) -> np.ndarray:
    """Strong-component label (0..k-1) of each node of the digraph whose
    boolean adjacency matrix is `support`.  Components are the same for a
    digraph and its reverse, so either orientation of `support` will do.  A
    float CSR `support` is read as it is, without a copy."""
    _, labels = connected_components(support, directed=True, connection="strong")
    return labels


def _levels(support, root: int) -> np.ndarray:
    """Arc-path length from root to each node of the digraph whose adjacency
    matrix is `support` (support[i, j] for the arc i -> j), every node being
    reachable."""
    return _csgraph_distances(csr_array(support), unweighted=True, indices=root).astype(np.int64)


def is_connected(g: Graph) -> bool:
    """Strong connectivity of the arc digraph (single node counts as connected)."""
    return bool(_strong_components(g.adjacency()).max() == 0)


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs shortest-path lengths (the graph's shared read-only array);
    raises if some pair is unreachable."""
    D = g._distances
    unreachable = (D < 0).any(axis=1)
    if unreachable.any():
        raise DisconnectedGraph(f"no path from node {int(np.argmax(unreachable))} to some node")
    return D


def diameter(g: Graph) -> int:
    return int(distance_matrix(g).max())


def _next_hops(adj: np.ndarray, dist_to: np.ndarray) -> np.ndarray:
    """The one hop rule of every shortest-path walk: hop[v, k] is the
    lowest-index out-neighbour of v one step closer to target k, where
    dist_to[v, k] is v's distance to k (meaningless at k itself and where
    k is unreachable)."""
    closer = dist_to[None, :, :] == dist_to[:, None, :] - 1
    return np.argmax(adj[:, :, None] & closer, axis=1)


def shortest_path(g: Graph, i: int, j: int) -> list[int]:
    """Minimal arc path i -> j, hop by hop under `_next_hops`."""
    g._check_node(i, "path start")
    g._check_node(j, "path end")
    dist_to_j = _csgraph_distances(g.adjacency().T, unweighted=True, indices=j)
    if np.isinf(dist_to_j[i]):
        raise DisconnectedGraph(f"no path from {i} to {j}")
    hop = _next_hops(g.adjacency(), dist_to_j[:, None])[:, 0]
    path = [i]
    while path[-1] != j:
        path.append(int(hop[path[-1]]))
    return path


def rooted_spanning_tree(
    g: Graph, allowed, root: int
) -> tuple[dict[int, int], list[int]]:
    """BFS spanning tree over arcs admitted by `allowed(child, parent)`.

    Tree arcs are oriented child -> parent toward the root: node u gets parent
    p when `allowed(u, p)` holds and (p, u) is a graph arc (p discovered
    first, lowest index wins). Returns (parent map with parent[root] = root,
    leaves-first node order = reversed BFS discovery).
    """
    g._check_node(root, "root")
    sub = g.adjacency().copy()  # then only the arcs p -> u that allowed(u, p) admits
    for p, u in zip(*np.nonzero(sub)):
        sub[p, u] = allowed(int(u), int(p))
    order, pred = breadth_first_order(sub, root, return_predecessors=True)
    if len(order) != g.n:
        missing = sorted(set(range(g.n)) - set(order.tolist()))
        raise NoSpanningTree(f"allowed arcs do not connect nodes {missing} to root {root}")
    parent = {root: root} | {u: int(pred[u]) for u in order[1:].tolist()}
    return parent, order[::-1].tolist()


def enumerate_cuts(g_or_n, pi) -> list[Cut]:
    """All nonempty proper subsets X with pi(X) <= 1/2, in ascending mask
    order, with the dedup rule and weights of `_cut_chunks`."""
    n = g_or_n.n if isinstance(g_or_n, Graph) else int(g_or_n)
    w = np.asarray(getattr(pi, "weights", pi), dtype=float)
    return [
        Cut(member_mask=mask, weight=weight)
        for masks, _, weights in _cut_chunks(n, w)
        for mask, weight in zip(masks.tolist(), weights.tolist())
    ]


def path(n: int) -> Graph:
    if n < 2:
        raise BadSize("path needs n >= 2")
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadSize("cycle needs n >= 3")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 2:
        raise BadSize("complete graph needs n >= 2")
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def barbell(n_half: int) -> Graph:
    """Two n_half-cliques joined by the single bridge (n_half-1, n_half)."""
    if n_half < 2:
        raise BadSize("barbell needs n_half >= 2")
    edges = [(i, j) for i in range(n_half) for j in range(i + 1, n_half)]
    edges += [(n_half + i, n_half + j) for i in range(n_half) for j in range(i + 1, n_half)]
    edges.append((n_half - 1, n_half))
    return graph_from_edges(2 * n_half, edges)
