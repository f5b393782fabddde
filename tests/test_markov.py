"""Distributions, column-stochastic matrices, mixing times, flows."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from liftmix import (
    BadColumnSum,
    DimensionMismatch,
    Distribution,
    Graph,
    LengthMismatch,
    LocalityViolation,
    NotStationary,
    StochasticMatrix,
    TimeVaryingChain,
    UNMIXED,
    barbell,
    check_stationary,
    complete,
    cycle,
    default_t_max,
    distribution_from_json,
    ergodic_flows,
    evolve,
    is_connected,
    is_irreducible,
    lazy_walk,
    matrix_from_json,
    metropolis_chain,
    mixing_time,
    path,
    point_distribution,
    stationary,
    tv_distance,
    uniform_distribution,
)
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
    steps = [random_local_chain(rng, g) for _ in range(4)]
    chain = TimeVaryingChain(steps)
    assert chain.T == 4
    expect = np.eye(3)
    for P in steps:
        expect = P.entries @ expect
    assert np.allclose(chain.product(), expect, atol=1e-14)
    with pytest.raises(LengthMismatch):
        TimeVaryingChain([lazy_walk(cycle(4)), lazy_walk(cycle(5))])


def test_barbell_walk_mixes_slower_than_cycle():
    # sanity on the mixing-time scale: the bottleneck graph is slower
    tau_b = mixing_time(lazy_walk(barbell(4)), stationary(lazy_walk(barbell(4))), 0.25)
    tau_c = mixing_time(lazy_walk(cycle(8)), uniform_distribution(8), 0.25)
    assert tau_b > tau_c
