"""Distributions, column-stochastic matrices, mixing times, flows."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import coo_array

from liftmix import (
    BadColumnSum,
    BadSize,
    DimensionMismatch,
    Distribution,
    Graph,
    LengthMismatch,
    LiftmixError,
    LocalityViolation,
    NotStationary,
    ReducibleChain,
    StochasticMatrix,
    TimeVaryingChain,
    UNMIXED,
    barbell,
    check_stationary,
    clock_lift,
    complete,
    cycle,
    default_t_max,
    diaconis_cycle_lift,
    diameter_mixer,
    distribution_from_json,
    ergodic_flows,
    evolve,
    four_cycle_lift,
    graph_from_edges,
    is_connected,
    is_irreducible,
    lazy_walk,
    matrix_from_json,
    metropolis_chain,
    mixing_time,
    node_clock_lift,
    path,
    periodic_clock_lift,
    periodic_node_clock_lift,
    point_distribution,
    si_replicated_lift,
    stationary,
    stochastic_bridge,
    tv_distance,
    uniform_distribution,
)
from liftmix.graph_core import _strong_components
from liftmix.markov import _ergodic_limits, _stationary_weights, _stochastic_stack
from liftmix.randomgen import (
    random_connected_graph,
    random_distribution,
    random_local_chain,
    rng_from_seed,
)

positive_weights = arrays(
    np.float64, st.integers(2, 8),
    elements=st.floats(0.01, 1.0, allow_nan=False),
)


def norm_dist(raw: np.ndarray) -> Distribution:
    return Distribution(raw / raw.sum())


def test_distribution_validation():
    with pytest.raises(BadColumnSum):
        Distribution([0.5, 0.6])
    with pytest.raises(BadColumnSum):
        Distribution([0.7, -0.1, 0.4])
    d = Distribution([0.5, -1e-13, 0.5])  # tiny negatives clamp to zero
    assert d.weights[1] == 0.0
    with pytest.raises(ValueError):
        d.weights[0] = 1.0  # frozen storage


def test_nan_fails_column_sum_checks():
    # json.load accepts NaN; NaN compares False against any tolerance
    with pytest.raises(BadColumnSum):
        distribution_from_json(json.loads('{"weights": [NaN, 0.5, 0.5]}'))
    with pytest.raises(BadColumnSum):
        matrix_from_json(json.loads('{"n": 2, "rows": [[NaN, 0.5], [0.5, 0.5]]}'))


def test_readers_refuse_strings_and_booleans_as_numbers():
    # a number written as a str or a bool is refused, never coerced
    for value in (["0.5", "0.5", True, 0], [0.5, 0.5, 1, False]):
        with pytest.raises(BadColumnSum):
            matrix_from_json({"n": 2, "row": [0, 1, 0, 1], "col": [0, 0, 1, 1],
                              "value": value})
    for rows in ([["0.5", True], ["0.5", False]], [[0.5, 1], [0.5, False]], "1"):
        with pytest.raises(BadColumnSum):
            matrix_from_json({"n": 2, "rows": rows})
    for weights in (["0.5", "5e-1"], [True], "1"):
        with pytest.raises(BadColumnSum):
            distribution_from_json({"weights": weights})
    # integers are numbers
    P = matrix_from_json({"n": 2, "row": [0, 1], "col": [1, 0], "value": [1, 1]})
    assert np.array_equal(P.entries, [[0, 1], [1, 0]])
    assert np.array_equal(matrix_from_json({"n": 2, "rows": [[0, 1], [1, 0]]}).entries,
                          P.entries)
    assert distribution_from_json({"weights": [0, 1]}).weights.tolist() == [0.0, 1.0]


def test_mixing_time_rejects_negative_window():
    P = lazy_walk(cycle(4))
    pi = uniform_distribution(4)
    assert mixing_time(P, pi, 0.25, t_max=0) == UNMIXED  # one-step window
    for t_max in (-1, -2):
        with pytest.raises(DimensionMismatch):
            mixing_time(P, pi, 0.25, t_max=t_max)


def test_point_and_uniform():
    assert point_distribution(4, 2).weights.tolist() == [0, 0, 1, 0]
    assert np.allclose(uniform_distribution(5).weights, 0.2)


def test_distribution_json_round_trip():
    d = Distribution([0.25, 0.5, 0.25])
    assert distribution_from_json(d.to_json()).weights.tolist() == [0.25, 0.5, 0.25]


def test_matrix_validation():
    with pytest.raises(BadColumnSum):
        StochasticMatrix([[0.5, 0.2], [0.4, 0.8]])  # first column sums to 0.9
    with pytest.raises(DimensionMismatch):
        StochasticMatrix(np.ones((2, 3)) / 2)
    with pytest.raises(BadColumnSum):
        StochasticMatrix([[1.2, 0.0], [-0.2, 1.0]])


@pytest.mark.parametrize("defect", ["entry-below-clamp", "column-sum-off", "off-graph-entry"])
def test_stacked_validation_refuses_what_stochastic_matrix_refuses(defect):
    g = cycle(5)
    stack = np.array([lazy_walk(g).entries] * 3)
    bad = stack[1]
    if defect == "entry-below-clamp":
        bad[1, 0], bad[0, 0] = -1e-9, bad[0, 0] + bad[1, 0] + 1e-9
    elif defect == "column-sum-off":
        bad[:, 2] *= 1 + 1e-5
    else:  # mass 0 -> 2 rides no arc of the 5-cycle
        bad[2, 0], bad[0, 0] = 1e-6, bad[0, 0] - 1e-6
    with pytest.raises(LiftmixError) as single:
        StochasticMatrix(bad, locality=g)
    with pytest.raises(type(single.value), match=re.escape(str(single.value))):
        _stochastic_stack(stack, g)
    with pytest.raises(type(single.value), match=re.escape(str(single.value))):
        TimeVaryingChain(stack, g)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_stacked_validation_equals_each_stochastic_matrix(seed):
    # slices that clamp and renormalise: the stack holds each one's entries
    rng = rng_from_seed(seed)
    g = random_connected_graph(rng, n_max=8)
    stack = np.array([random_local_chain(rng, g).entries for _ in range(4)])
    stack *= 1 + 1e-9 * rng.standard_normal((4, 1, g.n))
    stack[(stack == 0) & (rng.random(stack.shape) < 0.5)] = -1e-13
    got = _stochastic_stack(stack.reshape(2, 2, g.n, g.n), g)
    want = np.array([StochasticMatrix(S, locality=g).entries for S in stack])
    assert got.tobytes() == want.tobytes()
    chain = TimeVaryingChain(list(stack), g)
    assert chain.steps.flags.c_contiguous and not chain.steps.flags.writeable
    assert chain.steps.tobytes() == want.tobytes()


def test_matrix_clamps_its_own_copy():
    raw = np.array([[-1e-13, 0.5], [1 + 1e-13, 0.5]])
    before = raw.copy()
    P = StochasticMatrix(raw)
    assert np.array_equal(raw, before)
    assert np.array_equal(P.entries, [[0.0, 0.5], [1.0, 0.5]])


def test_matrix_locality_enforced_off_diagonal_only():
    g = path(3)
    # middle column moves only along arcs; diagonals are always legal
    ok = StochasticMatrix(
        [[0.6, 0.5, 0.0], [0.4, 0.0, 0.4], [0.0, 0.5, 0.6]], locality=g
    )
    assert ok.locality is g
    with pytest.raises(LocalityViolation):
        StochasticMatrix(
            [[0.6, 0.5, 0.4], [0.4, 0.0, 0.0], [0.0, 0.5, 0.6]], locality=g
        )


def test_matrix_json_round_trip():
    P = lazy_walk(cycle(4))
    back = matrix_from_json(P.to_json(), locality=cycle(4))
    assert np.array_equal(back.entries, P.entries)


def test_sparse_matrix_json_reads_the_dense_bits():
    P = lazy_walk(cycle(5))
    obj = P._sparse_json()
    sparse = matrix_from_json(json.loads(json.dumps(obj)), locality=cycle(5))
    dense = matrix_from_json(json.loads(json.dumps(P.to_json())), locality=cycle(5))
    assert np.array_equal(sparse.entries, dense.entries)
    # any order of the triplets is read the same
    shuffled = {**obj, "row": obj["row"][::-1], "col": obj["col"][::-1],
                "value": obj["value"][::-1]}
    assert np.array_equal(matrix_from_json(shuffled).entries, dense.entries)


@pytest.mark.parametrize("change, error", [
    ({"row": [0, 2], "col": [0, 1], "value": [1.0, 1.0]}, BadSize),  # index n
    ({"row": [0, 1], "col": [0, -1], "value": [1.0, 1.0]}, BadSize),
    ({"row": [0, 1.5], "col": [0, 1], "value": [1.0, 1.0]}, BadSize),
    ({"row": [0, 1], "col": [0, "1"], "value": [1.0, 1.0]}, BadSize),
    ({"row": [0, True], "col": [0, 1], "value": [1.0, 1.0]}, BadSize),
    ({"row": [0, [1]], "col": [0, 1], "value": [1.0, 1.0]}, BadSize),
    ({"row": [0, 0, 1], "col": [0, 0, 1], "value": [0.5, 0.5, 1.0]}, BadSize),
    ({"row": [0, 1], "col": [0], "value": [1.0, 1.0]}, LengthMismatch),
    ({"row": [0, 1], "col": [0, 1], "value": [1.0]}, LengthMismatch),
    ({"row": [0, 1], "col": [0, 1], "value": 1.0}, LengthMismatch),
    ({"row": [0, 1], "col": [0, 1], "value": [1.0, "x"]}, BadColumnSum),
    ({"n": 0, "row": [], "col": [], "value": []}, BadSize),
    ({"n": 2.0}, BadSize),
    ({"row": [0], "col": [0], "value": [1.0]}, BadColumnSum),  # column 1 is empty
    ({"row": [0, 1], "col": [0, 1], "value": [[1.0], [1.0, 0.0]]}, BadColumnSum),
])
def test_sparse_matrix_json_rejects_bad_triplets(change, error):
    obj = {"n": 2, "row": [0, 1], "col": [0, 1], "value": [1.0, 1.0], **change}
    with pytest.raises(error):
        matrix_from_json(obj)
    assert issubclass(error, LiftmixError)


def test_one_state_classes_skip_the_solve_without_moving_a_bit():
    # the reducible mixer's closed classes are its held top-layer states
    L = diameter_mixer(cycle(4), uniform_distribution(4), "reducible")
    Pi, _ = L.A._ergodic
    assert Pi.shape[1] == 16
    for k in range(Pi.shape[1]):
        members = np.flatnonzero(Pi[:, k])
        assert np.array_equal(members, np.flatnonzero(L.A._labels == L.A._labels[members[0]]))
        block = L.A.entries[np.ix_(members, members)]
        assert np.array_equal(Pi[members, k], _stationary_weights(block))


def test_tv_distance_hand_values():
    p = Distribution([1.0, 0.0])
    q = Distribution([0.0, 1.0])
    assert tv_distance(p, q) == 1.0
    assert tv_distance(p, p) == 0.0
    r = Distribution([0.75, 0.25])
    assert tv_distance(p, r) == pytest.approx(0.25)


@given(positive_weights, positive_weights)
def test_tv_distance_metric_properties(a, b):
    n = min(len(a), len(b))
    p, q = norm_dist(a[:n]), norm_dist(b[:n])
    d = tv_distance(p, q)
    assert 0.0 <= d <= 1.0
    assert d == pytest.approx(tv_distance(q, p))
    assert d == pytest.approx(0.5 * np.abs(p.weights - q.weights).sum())


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tv_contraction_under_any_stochastic_matrix(seed):
    # one stochastic step never increases total variation
    rng = rng_from_seed(seed)
    n = int(rng.integers(2, 7))
    M = rng.random((n, n)) + 1e-3
    P = StochasticMatrix(M / M.sum(axis=0))
    p = Distribution(rng.dirichlet(np.ones(n)))
    q = Distribution(rng.dirichlet(np.ones(n)))
    before = tv_distance(p, q)
    after = tv_distance(evolve(P, p, 1), evolve(P, q, 1))
    assert after <= before + 1e-12


def test_evolve_matches_matrix_power():
    rng = rng_from_seed(3)
    g = random_connected_graph(rng, n_max=6)
    P = random_local_chain(rng, g)
    p0 = random_distribution(rng, g.n)
    expect = np.linalg.matrix_power(P.entries, 7) @ p0.weights
    assert np.allclose(evolve(P, p0, 7).weights, expect, atol=1e-12)
    assert np.array_equal(evolve(P, p0, 0).weights, p0.weights)


def test_is_irreducible_cases():
    assert not is_irreducible(StochasticMatrix(np.eye(3)))
    assert is_irreducible(lazy_walk(cycle(5)))
    # one-way absorbing pair
    P = StochasticMatrix([[1.0, 0.5], [0.0, 0.5]])
    assert not is_irreducible(P)


def test_entries_at_most_1e12_are_absent_for_every_class_reader():
    # 0 <-> 1, and 2 -> 0 always; the 1e-13 entry 0 -> 2 is no arc, so
    # {0, 1} is the one closed class and 2 is transient
    P = StochasticMatrix([[0.0, 1.0, 1.0], [1.0 - 1e-13, 0.0, 0.0], [1e-13, 0.0, 0.0]])
    assert P.entries[2, 0] == 1e-13
    assert not is_irreducible(P)
    with pytest.raises(ReducibleChain):
        stationary(P)
    # full-state targets: every start averages to the law of {0, 1}
    Z = _ergodic_limits(P, None)
    assert Z.shape == (3, 3)
    assert (Z[2] == 0.0).all()
    assert np.abs(Z[:2] - 0.5).max() <= 1e-12


def _strongly_connected_reference(support: np.ndarray) -> bool:
    """Transitive closure by repeated boolean squaring."""
    reach = support | np.eye(len(support), dtype=bool)
    while True:
        nxt = (reach.astype(int) @ reach.astype(int)) > 0
        if (nxt == reach).all():
            return bool(reach.all())
        reach = nxt


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_irreducible_and_connected_match_closure_reference(seed):
    rng = rng_from_seed(seed)
    n = int(rng.integers(1, 8))
    arcs = (rng.random((n, n)) < rng.uniform(0.1, 0.6)) & ~np.eye(n, dtype=bool)
    g = Graph(n=n, arcs=frozenset(map(tuple, np.argwhere(arcs).tolist())))
    # entry (j, i) carries arc i -> j; the diagonal keeps columns stochastic
    W = arcs.T * rng.uniform(0.05, 1.0, (n, n)) + np.eye(n)
    P = StochasticMatrix(W / W.sum(axis=0))
    expected = _strongly_connected_reference(arcs)
    assert is_connected(g) == expected
    assert is_irreducible(P) == expected


def test_stationary_known_chains():
    pi = stationary(lazy_walk(cycle(6)))
    assert np.allclose(pi.weights, 1 / 6, atol=1e-12)
    rng = rng_from_seed(9)
    g = random_connected_graph(rng, n_max=7)
    target = random_distribution(rng, g.n)
    M = metropolis_chain(g, target)
    assert np.allclose(M.entries @ target.weights, target.weights, atol=1e-12)
    assert tv_distance(stationary(M), target) <= 1e-10


def test_metropolis_detailed_balance():
    rng = rng_from_seed(21)
    for _ in range(10):
        g = random_connected_graph(rng, n_max=8)
        pi = random_distribution(rng, g.n)
        M = metropolis_chain(g, pi).entries
        flows = M * pi.weights[None, :]
        assert np.abs(flows - flows.T).max() <= 1e-12


def test_lazy_walk_row_structure():
    P = lazy_walk(cycle(4)).entries
    assert np.allclose(np.diag(P), 0.5)
    assert P[1, 0] == pytest.approx(0.25)
    assert P[3, 0] == pytest.approx(0.25)


def test_check_stationary_raises():
    P = lazy_walk(path(3))  # stationary law is degree-biased, not uniform
    with pytest.raises(NotStationary):
        check_stationary(P, uniform_distribution(3))


def test_ergodic_flows_columns_sum_to_pi():
    rng = rng_from_seed(14)
    g = random_connected_graph(rng, n_max=7)
    pi = random_distribution(rng, g.n)
    P = metropolis_chain(g, pi)
    Q = ergodic_flows(P, pi)
    assert np.allclose(Q, P.entries * pi.weights[None, :], atol=0)
    assert np.allclose(Q.sum(axis=0), pi.weights, atol=1e-12)
    assert Q.sum() == pytest.approx(1.0)


def test_mixing_time_lazy_cycle4():
    # one lazy step from any vertex already spreads to within 1/4 of uniform
    P = lazy_walk(cycle(4))
    assert mixing_time(P, uniform_distribution(4), 0.25) == 1


def test_mixing_time_identity_never_settles():
    P = StochasticMatrix(np.eye(3))
    tau = mixing_time(P, uniform_distribution(3), 0.25, t_max=50)
    assert tau == UNMIXED
    assert not np.isfinite(UNMIXED)


def test_mixing_time_monotone_in_eps():
    rng = rng_from_seed(2)
    done = 0
    while done < 100:
        g = random_connected_graph(rng, n_max=8)
        P = random_local_chain(rng, g)
        if not is_irreducible(P):
            continue
        pi = stationary(P)
        taus = [mixing_time(P, pi, e, t_max=400) for e in (0.05, 0.15, 0.3)]
        assert taus[0] >= taus[1] >= taus[2]
        done += 1


def test_mixing_time_window_semantics():
    # settle time is measured against the whole tail, not first passage:
    # a 2-periodic chain touches the target at odd steps but never settles
    P = StochasticMatrix([[0.0, 1.0], [1.0, 0.0]])
    pi = uniform_distribution(2)
    assert mixing_time(P, pi, 0.25, t_max=60) == UNMIXED


def test_default_t_max():
    assert default_t_max(1) == 100
    assert default_t_max(40) == 2000


def test_time_varying_chain_product_and_errors():
    rng = rng_from_seed(7)
    g = complete(3)
    steps = [random_local_chain(rng, g).entries for _ in range(4)]
    chain = TimeVaryingChain(steps)
    assert (chain.T, chain.n) == (4, 3)
    expect = np.eye(3)
    for P in steps:
        expect = P @ expect
    assert np.allclose(chain.product(), expect, atol=1e-14)
    with pytest.raises(LengthMismatch, match="step 2 has size 5, expected 4"):
        TimeVaryingChain([lazy_walk(cycle(4)).entries, lazy_walk(cycle(5)).entries])
    with pytest.raises(DimensionMismatch, match=re.escape("got shape (3, 2)")):
        TimeVaryingChain([np.eye(3), np.full((3, 2), 1 / 3)])
    # against a graph, a step of another size is named as a single matrix names it
    with pytest.raises(DimensionMismatch, match="matrix is 4x4 but graph has 3 nodes"):
        TimeVaryingChain([steps[0], np.eye(4)], g)
    # a step that is not a numeric array is named, with the way to pass a matrix
    for bad in (lazy_walk(cycle(3)), [[1.0, 0.0], [0.0]]):
        with pytest.raises(DimensionMismatch, match="step 2 is not a numeric array.*P.entries"):
            TimeVaryingChain([steps[0], bad])
    # the steps' values pass one check at a time over the whole chain
    # (entry range, column sums, locality), so with step 1 off the graph
    # and step 2's column 1 summing to 0.9 the column sum is named
    off_graph, short = np.eye(4), np.eye(4)
    off_graph[:, 0] = [0.5, 0.0, 0.5, 0.0]  # mass 0 -> 2, no arc on the 4-cycle
    short[1, 1] = 0.9
    with pytest.raises(BadColumnSum, match="column 1 sums to 0.9"):
        TimeVaryingChain([off_graph, short], cycle(4))
    with pytest.raises(LocalityViolation, match=re.escape("entry (2,0)")):
        TimeVaryingChain([off_graph, np.eye(4)], cycle(4))
    # an empty chain builds, on the graph's nodes when one is given
    assert TimeVaryingChain([]).steps.shape == (0, 0, 0)
    assert TimeVaryingChain([], g).steps.shape == (0, 3, 3)


def test_barbell_walk_mixes_slower_than_cycle():
    # sanity on the mixing-time scale: the bottleneck graph is slower
    tau_b = mixing_time(lazy_walk(barbell(4)), stationary(lazy_walk(barbell(4))), 0.25)
    tau_c = mixing_time(lazy_walk(cycle(8)), uniform_distribution(8), 0.25)
    assert tau_b > tau_c


# ---------------------------------------------------------------------------
# a StochasticMatrix gives the same bits whether it was built dense or sparse


def _both_forms(dense: np.ndarray, sparse, locality: Graph):
    """The outcome of building one matrix from its dense and from its sparse
    form: each is the matrix, or the (type, message) of the error raised."""
    outcomes = []
    for entries in (dense, sparse):
        try:
            outcomes.append(StochasticMatrix(entries, locality=locality))
        except (BadColumnSum, LocalityViolation) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


def _assert_same_bits(a: StochasticMatrix, b: StochasticMatrix) -> None:
    assert a.entries.tobytes() == b.entries.tobytes()
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a._csr, part), getattr(b._csr, part))
    assert np.array_equal(a._labels, b._labels)
    # the CSR support gives the labels the dense mask gives
    assert np.array_equal(a._labels, _strong_components(a.entries > 1e-12))
    for x, y in zip(a._ergodic, b._ergodic):
        assert (x is None and y is None) or x.tobytes() == y.tobytes()
    assert a._sparse_json() == b._sparse_json()


def _family_lifts():
    """One lift of every construction family: the layered ones hold a
    sparse A, the others a dense one."""
    rng = rng_from_seed(11)
    g = random_connected_graph(rng, n=5)
    pi = random_distribution(rng, g.n)
    bridges = [stochastic_bridge(g, point_distribution(g.n, i), pi) for i in range(g.n)]
    yield clock_lift(g, bridges[0])
    yield periodic_clock_lift(g, bridges[0])
    yield node_clock_lift(g, bridges, pi)
    yield periodic_node_clock_lift(g, bridges, pi)
    for variant in ("reducible", "flows", "irreducible"):
        yield diameter_mixer(g, pi, variant)
    yield diaconis_cycle_lift(8)
    yield four_cycle_lift(0.05, 0.01)[0]
    yield si_replicated_lift(lazy_walk(g), 3)


def test_every_construction_gives_the_same_bits_from_either_form():
    for L in _family_lifts():
        n = L.map.lifted_n
        dense, sparse = _both_forms(L.A.entries, L.A._csr, L.lifted)
        _assert_same_bits(dense, sparse)
        # the consumers that read C A get the dense product's bits
        assert np.array_equal(L.map.C @ L.A.entries, L.map.C @ L.A._csr)
        # dense column sums add in row order, as the triplet sums do
        row, col, value = L.A._triplets()
        assert np.array_equal(L.A.entries.sum(axis=0), np.bincount(col, weights=value, minlength=n))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dense_and_sparse_inputs_give_the_same_bits(seed):
    rng = rng_from_seed(seed)
    n = int(rng.integers(16, 32))
    # states move only within their group or to a higher one, so the
    # chain has transient states and several closed classes
    group = rng.integers(0, 3, n)
    raw = rng.random((n, n)) * (rng.random((n, n)) < 0.4) * (group[:, None] >= group)
    raw[np.arange(n), np.arange(n)] += 0.05  # no empty column
    # pairwise summation would reorder a column of 9 or more terms
    first = int(np.argmin(group))
    raw[:, first] = rng.random(n)
    raw /= raw.sum(axis=0)
    # raw column sums off by up to 1e-7, entries still at most 1
    raw = np.minimum(raw * (1.0 + rng.uniform(-1e-7, 1e-7, n)), 1.0)
    # entries in [-1e-12, 0) are clamped to 0 and leave the support, and
    # entries in (0, 1e-12] stay stored but are no arcs, even backwards
    tiny = (raw == 0.0) & (rng.random((n, n)) < 0.1)
    raw[tiny] = rng.choice([-1.0, 1.0], int(tiny.sum())) * rng.uniform(1e-14, 1e-12, int(tiny.sum()))
    arcs = {(int(i), int(j)) for j, i in zip(*np.nonzero(raw > 1e-12)) if i != j}
    kind = rng.random()
    if kind < 0.2:  # one column off by more than 1e-6
        raw[:, int(rng.integers(0, n))] *= 1.01
    elif kind < 0.4:  # one support arc missing from the graph
        arcs.discard(sorted(arcs)[int(rng.integers(0, len(arcs)))])
    g = Graph(n=n, arcs=frozenset(arcs))
    # the sparse input in shuffled order, with a few explicit zeros
    row, col = np.nonzero(raw)
    zeros = np.argwhere(raw == 0.0)[:3]
    row, col = np.concatenate([row, zeros[:, 0]]), np.concatenate([col, zeros[:, 1]])
    order = rng.permutation(len(row))
    sparse = coo_array((raw[row, col][order], (row[order], col[order])), shape=(n, n))
    dense, other = _both_forms(raw, sparse, g)
    if isinstance(dense, tuple):
        assert dense == other
        assert dense[0] is (BadColumnSum if kind < 0.2 else LocalityViolation)
        return
    _assert_same_bits(dense, other)
    clipped = np.clip(raw, 0.0, 1.0)
    row, col = np.nonzero(clipped)
    assert np.array_equal(clipped.sum(axis=0),
                          np.bincount(col, weights=clipped[row, col], minlength=n))


def _brute_period(M: np.ndarray) -> int:
    """gcd of the return times k <= 2n read off the supports of M^k, the
    support being the exact stored one (entries > 0)."""
    n = len(M)
    S = (M > 0).astype(np.int64)
    R = np.eye(n, dtype=np.int64)
    period = 0
    for k in range(1, 2 * n + 1):
        R = np.minimum(S @ R, 1)
        if R.diagonal().any():
            period = math.gcd(period, k)
    return period


def _random_cyclic_chain(rng, p: int) -> np.ndarray:
    """Column-stochastic matrix whose arcs all lead from class c to c + 1
    mod p, on 1-3 states per class, strongly connected by a closed walk
    through every state."""
    sizes = rng.integers(1, 4, size=p)
    cls = np.repeat(np.arange(p), sizes)
    n = len(cls)
    M = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    M *= cls[:, None] == (cls[None, :] + 1) % p
    first = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    walk = [first[k % p] + (k // p) % sizes[k % p] for k in range(p * int(sizes.max()))]
    for a, b in zip(walk, np.roll(walk, -1)):
        M[b, a] += 1.0
    return M / M.sum(axis=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cyclic_classes_match_brute_force_period(seed):
    rng = rng_from_seed(seed)
    kind = int(rng.integers(0, 4))
    if kind == 0:
        M = diaconis_cycle_lift(int(rng.choice([4, 6, 8]))).A.entries
    elif kind == 1:
        g = random_connected_graph(rng, n_max=5)
        pi = random_distribution(rng, g.n)
        M = periodic_clock_lift(g, stochastic_bridge(g, pi, pi)).A.entries
    elif kind == 2:
        M = _random_cyclic_chain(rng, int(rng.integers(1, 6)))
    else:
        M = random_local_chain(rng, random_connected_graph(rng, n_max=6)).entries
    if rng.random() < 0.3:
        # entries at or below 1e-12 are no arcs for irreducibility, but
        # they carry mass, so they are arcs of the cyclic classes
        M = M.copy()
        i, j = rng.integers(0, len(M), size=2)
        M[i, j] += float(rng.uniform(1e-14, 1e-12))
        M /= M.sum(axis=0)
    P = StochasticMatrix(M)
    assert is_irreducible(P)
    p, cls = P._cyclic
    assert p == _brute_period(P.entries)
    assert cls[0] == 0 and set(cls.tolist()) == set(range(p))
    to, frm = np.nonzero(P.entries)
    assert (cls[to] == (cls[frm] + 1) % p).all()


def test_cyclic_classes_read_the_exact_support():
    # the direction lift has period 2; one entry of 1e-13 on a diagonal
    # adds a self-loop, so its exact support has period 1
    M = diaconis_cycle_lift(4).A.entries.copy()
    assert StochasticMatrix(M)._cyclic[0] == 2
    M[0, 0] = 1e-13
    P = StochasticMatrix(M / M.sum(axis=0))
    assert P.entries[0, 0] > 0 and is_irreducible(P)
    assert P._cyclic[0] == 1 == _brute_period(P.entries)
    # a reducible matrix has no cyclic classes
    assert StochasticMatrix(np.eye(3))._cyclic is None
