"""Graph representation, metric queries, cuts, spanning trees, and builders.

Graphs are directed arc sets over nodes 0..n-1. Self-arcs are never stored:
self-transitions are always legal for dynamics, so locality checks only look
at off-diagonal entries. Undirected input expands to both ordered arcs.

All tie-breaking (BFS order, shortest-path successor choice) is by lowest
node index, so every derived object is deterministic.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .errors import BadSize, DisconnectedGraph, NoSpanningTree, TooManyNodes


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
        return sorted(j for (a, j) in self.arcs if a == i)

    def in_neighbors(self, j: int) -> list[int]:
        return sorted(i for (i, b) in self.arcs if b == j)

    def adjacency(self) -> np.ndarray:
        M = np.zeros((self.n, self.n), dtype=bool)
        for i, j in self.arcs:
            M[i, j] = True
        return M


@dataclass(frozen=True)
class Cut:
    """Node subset X encoded as a bit mask, with its stationary weight pi(X)."""

    member_mask: int
    weight: float

    def members(self) -> list[int]:
        return [i for i in range(self.member_mask.bit_length()) if self.member_mask >> i & 1]

    def contains(self, i: int) -> bool:
        return bool(self.member_mask >> i & 1)


def _cut_chunks(n: int, w: np.ndarray):
    """Lazy (masks, members, weights) chunks of up to 2^16 ascending masks,
    covering every cut with pi(X) <= 1/2 (both sides when pi(X) = 1/2 within
    1e-12); weights are BLAS dot products.  The only cut enumerator and the
    only size guard: over 24 nodes raises TooManyNodes at the call.
    """
    if n > 24:
        raise TooManyNodes(f"cut enumeration guarded to n <= 24, got {n}")
    total = (1 << n) - 1
    step = 1 << 16
    bits = np.arange(n, dtype=np.int64)

    def chunks():
        for start in range(1, total, step):
            masks = np.arange(start, min(start + step, total), dtype=np.int64)
            members = ((masks[:, None] >> bits[None, :]) & 1).astype(bool)
            weights = members @ w
            keep = weights <= 0.5 + 1e-12
            if keep.any():
                yield masks[keep], members[keep], weights[keep]

    return chunks()


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
    if g.undirected_input:
        edges = sorted({(min(i, j), max(i, j)) for i, j in g.arcs})
    else:
        edges = sorted(g.arcs)
    return {"n": g.n, "edges": [list(e) for e in edges], "directed": not g.undirected_input}


def graph_from_json(obj: dict) -> Graph:
    return graph_from_edges(
        int(obj["n"]),
        [(int(i), int(j)) for i, j in obj["edges"]],
        directed=bool(obj.get("directed", False)),
    )


def load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return graph_from_json(json.load(fh))


def _bfs_dist_from(g: Graph, src: int, forward: bool = True) -> np.ndarray:
    """Distances from src following arcs forward (or backward when not)."""
    out: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in g.arcs:
        if forward:
            out[i].append(j)
        else:
            out[j].append(i)
    for lst in out:
        lst.sort()
    dist = np.full(g.n, -1, dtype=int)
    dist[src] = 0
    q = deque([src])
    while q:
        u = q.popleft()
        for v in out[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def _strong_components(support: np.ndarray) -> np.ndarray:
    """Strong-component label (0..k-1) of each node of the digraph whose
    boolean adjacency matrix is `support`.  Components are the same for a
    digraph and its reverse, so either orientation of `support` will do."""
    _, labels = connected_components(csr_array(support), directed=True, connection="strong")
    return labels


def is_connected(g: Graph) -> bool:
    """Strong connectivity of the arc digraph (single node counts as connected)."""
    return bool(_strong_components(g.adjacency()).max() == 0)


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs BFS shortest-path lengths; raises if some pair is unreachable."""
    D = np.empty((g.n, g.n), dtype=int)
    for i in range(g.n):
        d = _bfs_dist_from(g, i, True)
        if (d < 0).any():
            raise DisconnectedGraph(f"no path from node {i} to some node")
        D[i] = d
    return D


def diameter(g: Graph) -> int:
    return int(distance_matrix(g).max())


def shortest_path(g: Graph, i: int, j: int) -> list[int]:
    """Minimal arc path i -> j; at each step the lowest-index neighbor that
    still decreases the BFS distance to j is taken."""
    dist_to_j = _bfs_dist_from(g, j, forward=False)
    if dist_to_j[i] < 0:
        raise DisconnectedGraph(f"no path from {i} to {j}")
    path = [i]
    u = i
    while u != j:
        for v in g.out_neighbors(u):
            if dist_to_j[v] == dist_to_j[u] - 1:
                path.append(v)
                u = v
                break
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
    parent: dict[int, int] = {root: root}
    order = [root]
    q = deque([root])
    while q:
        p = q.popleft()
        for u in g.out_neighbors(p):
            if u not in parent and allowed(u, p):
                parent[u] = p
                order.append(u)
                q.append(u)
    if len(parent) != g.n:
        missing = sorted(set(range(g.n)) - set(parent))
        raise NoSpanningTree(f"allowed arcs do not connect nodes {missing} to root {root}")
    leaves_first = list(reversed(order))
    return parent, leaves_first


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
