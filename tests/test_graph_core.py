"""Graph builders, metric queries, cut enumeration, spanning trees."""

import json

import numpy as np
import pytest
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
    parent, leaves_first = rooted_spanning_tree(g, lambda child, p: True, 0)
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
        rooted_spanning_tree(g, lambda child, p: child < 2, 0)


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


def test_directed_json_survives_round_trip():
    g = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    assert (0, 1) in g.arcs and (1, 0) not in g.arcs
    back = graph_from_json(graph_to_json(g))
    assert back.arcs == g.arcs
