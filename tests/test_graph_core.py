"""Graph builders, metric queries, cut enumeration, spanning trees."""

import json
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path as scipy_shortest_path

from liftmix import (
    BadSize,
    DisconnectedGraph,
    Graph,
    NoSpanningTree,
    TooManyNodes,
    barbell,
    complete,
    cycle,
    diameter,
    distance_matrix,
    enumerate_cuts,
    graph_from_edges,
    graph_from_json,
    graph_to_json,
    is_connected,
    load_graph,
    path,
    rooted_spanning_tree,
    shortest_path,
    uniform_distribution,
)
from liftmix.randomgen import random_connected_graph, rng_from_seed


def test_builders_node_and_arc_counts():
    assert path(4).n == 4
    assert len(path(4).arcs) == 2 * 3
    assert len(cycle(5).arcs) == 2 * 5
    assert len(complete(4).arcs) == 4 * 3
    b = barbell(3)
    # two triangles plus the joining edge, both arc directions stored
    assert b.n == 6
    assert len(b.arcs) == 2 * (3 + 3 + 1)


def test_builders_reject_tiny_sizes():
    with pytest.raises(BadSize):
        path(0)
    with pytest.raises(BadSize):
        cycle(2)
    with pytest.raises(BadSize):
        barbell(1)


def test_graph_rejects_self_arcs_and_range():
    with pytest.raises(BadSize):
        Graph(n=3, arcs=frozenset({(1, 1)}))
    with pytest.raises(BadSize):
        Graph(n=3, arcs=frozenset({(0, 5)}))
    with pytest.raises(BadSize):
        Graph(n=0, arcs=frozenset())


def test_has_arc_treats_self_transitions_as_legal():
    g = path(3)
    assert g.has_arc(0, 0)
    assert g.has_arc(0, 1)
    assert not g.has_arc(0, 2)


def test_diameter_closed_forms():
    assert diameter(path(5)) == 4
    assert diameter(cycle(8)) == 4
    assert diameter(cycle(7)) == 3
    assert diameter(complete(6)) == 1
    # two cliques joined by one edge: inside + across + inside
    assert diameter(barbell(3)) == 3
    assert diameter(barbell(6)) == 3


def test_distance_matrix_matches_scipy_bfs():
    rng = rng_from_seed(11)
    for _ in range(20):
        g = random_connected_graph(rng, n_max=9)
        dense = g.adjacency().astype(float)
        oracle = scipy_shortest_path(dense, method="D", unweighted=True)
        got = distance_matrix(g)
        assert np.array_equal(got.astype(float), oracle)


def test_shortest_path_endpoints_and_arc_validity():
    rng = rng_from_seed(5)
    for _ in range(10):
        g = random_connected_graph(rng, n_max=8)
        dist = distance_matrix(g)
        for i in range(g.n):
            for j in range(g.n):
                p = shortest_path(g, i, j)
                assert p[0] == i and p[-1] == j
                assert len(p) == dist[i, j] + 1
                for a, b in zip(p, p[1:]):
                    assert (a, b) in g.arcs


def test_graph_searches_reject_a_negative_path_end():
    with pytest.raises(BadSize):
        shortest_path(path(3), 0, -1)


def test_graph_searches_reject_a_path_end_past_n():
    with pytest.raises(BadSize):
        shortest_path(path(3), 0, 7)
    with pytest.raises(BadSize):
        shortest_path(path(3), 3, 0)


def test_graph_searches_reject_a_root_outside_the_graph():
    with pytest.raises(BadSize):
        rooted_spanning_tree(path(3), np.ones((3, 3), dtype=bool), 5)
    with pytest.raises(BadSize):
        rooted_spanning_tree(path(3), np.ones((3, 3), dtype=bool), -1)


def test_graph_refuses_a_size_whose_arc_keys_overflow_int64():
    # past the limit an arc key i * n + j wraps: (2**32, 1) at n = 2**33 would read as (0, 1)
    with pytest.raises(BadSize, match="overflow int64"):
        graph_from_edges(2**33, [(2**32, 1)], directed=True)
    with pytest.raises(BadSize, match="overflow int64"):
        Graph(n=3_037_000_500, arcs=frozenset())
    n = 3_037_000_499  # the largest n whose keys fit
    g = graph_from_edges(n, [(n - 1, n - 2)], directed=True)
    assert graph_to_json(g)["edges"] == [[n - 1, n - 2]]


# Loop-built references: the per-source BFS searches the csgraph ones replaced.


def _ref_out_neighbors(g, u, forward=True):
    return sorted(j if forward else i for i, j in g.arcs if (i if forward else j) == u)


def _ref_adjacency(g):
    M = np.zeros((g.n, g.n), dtype=bool)
    for i, j in g.arcs:
        M[i, j] = True
    return M


def _ref_bfs_dist_from(g, src, forward=True):
    dist = np.full(g.n, -1, dtype=int)
    dist[src] = 0
    q = deque([src])
    while q:
        u = q.popleft()
        for v in _ref_out_neighbors(g, u, forward):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def _ref_distance_matrix(g):
    D = np.empty((g.n, g.n), dtype=int)
    for i in range(g.n):
        d = _ref_bfs_dist_from(g, i, True)
        if (d < 0).any():
            raise DisconnectedGraph(f"no path from node {i} to some node")
        D[i] = d
    return D


def _ref_shortest_path(g, i, j):
    dist_to_j = _ref_bfs_dist_from(g, j, forward=False)
    if dist_to_j[i] < 0:
        raise DisconnectedGraph(f"no path from {i} to {j}")
    path = [i]
    u = i
    while u != j:
        for v in _ref_out_neighbors(g, u):
            if dist_to_j[v] == dist_to_j[u] - 1:
                path.append(v)
                u = v
                break
    return path


def _ref_rooted_spanning_tree(g, allowed, root):
    parent = {root: root}
    order = [root]
    q = deque([root])
    while q:
        p = q.popleft()
        for u in _ref_out_neighbors(g, p):
            if u not in parent and allowed(u, p):
                parent[u] = p
                order.append(u)
                q.append(u)
    if len(parent) != g.n:
        missing = sorted(set(range(g.n)) - set(parent))
        raise NoSpanningTree(f"allowed arcs do not connect nodes {missing} to root {root}")
    return parent, list(reversed(order))


def _outcome(fn, *args):
    """(result, None) or (None, (exception type, message))."""
    try:
        return fn(*args), None
    except Exception as exc:  # compared, not swallowed
        return None, (type(exc), str(exc))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_csgraph_searches_match_loop_bfs(seed, directed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    density, keep = rng.random(2)
    edges = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < density]
    g = graph_from_edges(n, edges, directed=directed)
    allowed_arcs = {a for a in sorted(g.arcs) if rng.random() < keep}

    def allowed(child, p):
        return (p, child) in allowed_arcs

    mask = np.zeros((n, n), dtype=bool)  # mask[child, p]: the same arcs
    for p, child in allowed_arcs:
        mask[child, p] = True

    assert np.array_equal(g.adjacency(), _ref_adjacency(g))
    shared = [g.adjacency()]
    D, err = _outcome(distance_matrix, g)
    D_ref, err_ref = _outcome(_ref_distance_matrix, g)
    assert err == err_ref
    if err is None:
        assert np.array_equal(D, D_ref)
        shared.append(D)
    assert is_connected(g) == (err_ref is None)
    for arr in shared:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = arr[0, 0]
    for i in range(n):
        for j in range(n):
            assert _outcome(shortest_path, g, i, j) == _outcome(_ref_shortest_path, g, i, j)
    root = int(rng.integers(n))
    tree, err = _outcome(rooted_spanning_tree, g, mask, root)
    tree_ref, err_ref = _outcome(_ref_rooted_spanning_tree, g, allowed, root)
    assert err == err_ref
    if err is None:
        (parent, leaves_first), (parent_ref, leaves_first_ref) = tree, tree_ref
        assert list(parent.items()) == list(parent_ref.items())
        assert leaves_first == leaves_first_ref


def test_is_connected_detects_split():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(g)
    assert is_connected(path(4))
    with pytest.raises(DisconnectedGraph):
        diameter(g)


def test_enumerate_cuts_uniform_counts_and_weights():
    # uniform on 4 nodes: all singletons and all pairs qualify, the pairs
    # sit exactly at weight 1/2 so both sides of each pair survive dedup
    cuts = enumerate_cuts(4, uniform_distribution(4))
    assert len(cuts) == 4 + 6
    for X in cuts:
        assert 0 < X.member_mask < (1 << 4) - 1
        assert X.weight <= 0.5 + 1e-12
        assert X.weight == pytest.approx(len(X.members()) / 4)


def test_enumerate_cuts_skewed_weights():
    rng = rng_from_seed(10)
    weights = [np.array([0.4, 0.3, 0.2, 0.1])]
    for n in range(2, 11):
        w = rng.random(n)
        weights.append(w / w.sum())
    for w in weights:
        n = len(w)
        expected = {}
        for mask in range(1, (1 << n) - 1):
            s = sum(w[i] for i in range(n) if mask >> i & 1)
            if s <= 0.5 + 1e-12:
                expected[mask] = s
        cuts = enumerate_cuts(n, w)
        assert [X.member_mask for X in cuts] == sorted(expected)
        for X in cuts:
            assert X.weight == pytest.approx(expected[X.member_mask], abs=1e-12)


def test_enumerate_cuts_guard():
    with pytest.raises(TooManyNodes):
        enumerate_cuts(25, np.full(25, 1 / 25))


def test_cut_membership_helpers():
    cuts = enumerate_cuts(4, uniform_distribution(4))
    X = next(c for c in cuts if c.member_mask == 0b101)
    assert X.members() == [0, 2]
    assert X.contains(0) and not X.contains(1) and X.contains(2)
    assert not X.contains(3)


def test_rooted_spanning_tree_covers_and_orients():
    g = barbell(3)
    parent, leaves_first = rooted_spanning_tree(g, np.ones((6, 6), dtype=bool), 0)
    assert parent[0] == 0
    assert set(parent) == set(range(6))
    assert set(leaves_first) == set(range(6))
    assert leaves_first[-1] == 0
    for child, p in parent.items():
        if child != 0:
            assert (p, child) in g.arcs
    # walking parents always terminates at the root
    for v in range(6):
        seen = set()
        while v != 0:
            assert v not in seen
            seen.add(v)
            v = parent[v]


def test_rooted_spanning_tree_respects_filter():
    g = path(3)
    with pytest.raises(NoSpanningTree):
        rooted_spanning_tree(g, np.tile(np.arange(3)[:, None] < 2, 3), 0)  # child < 2


def test_graph_json_round_trip(tmp_path):
    g = barbell(4)
    obj = graph_to_json(g)
    assert obj["n"] == 8
    back = graph_from_json(obj)
    assert back.n == g.n and back.arcs == g.arcs
    f = tmp_path / "g.json"
    f.write_text(json.dumps(obj))
    loaded = load_graph(str(f))
    assert loaded.arcs == g.arcs


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6))),
       st.booleans())
def test_graph_json_edges_follow_the_sorted_arc_rule(n, pairs, undirected_input):
    # edges are the sorted arcs, or for undirected input the sorted set of
    # (min, max) pairs; a one-way arc of an undirected-input graph is kept
    arcs = frozenset((i, j) for i, j in pairs if i != j and i < n and j < n)
    g = Graph(n=n, arcs=arcs, undirected_input=undirected_input)
    if undirected_input:
        edges = sorted({(min(i, j), max(i, j)) for i, j in arcs})
    else:
        edges = sorted(arcs)
    assert graph_to_json(g) == {"n": n, "edges": [list(e) for e in edges],
                                "directed": not undirected_input}


def test_undirected_json_keeps_one_way_arcs():
    g = Graph(n=3, arcs=frozenset({(2, 0), (1, 2), (2, 1)}), undirected_input=True)
    assert graph_to_json(g) == {"n": 3, "edges": [[0, 2], [1, 2]], "directed": False}


def test_directed_json_survives_round_trip():
    g = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    assert (0, 1) in g.arcs and (1, 0) not in g.arcs
    back = graph_from_json(graph_to_json(g))
    assert back.arcs == g.arcs
