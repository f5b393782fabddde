"""Graph representation, metric queries, spanning trees, and builders.

Graphs are directed arc sets over nodes 0..n-1. Self-arcs are never stored:
self-transitions are always legal for dynamics, so locality checks only look
at off-diagonal entries. Undirected input expands to both ordered arcs.

A Graph builds its boolean adjacency and distance matrix once, on first use,
and shares them read-only.  Every search runs through scipy.sparse.csgraph,
which scans each row in ascending index order, so all tie-breaking (BFS
order, shortest-path successor choice) is by lowest node index and every
derived object is deterministic.  Cuts, their encoding, cap, screen and
evaluation, live in conductance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.sparse import csr_array, issparse
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.csgraph import shortest_path as _csgraph_distances

from .errors import BadSize, DisconnectedGraph, NoSpanningTree


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
