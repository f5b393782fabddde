"""Bridges, clock lifts, mixers, tree corrections, the cycle lifts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftmix import (
    BadGamma,
    BadSize,
    EmptyChain,
    GammaTooLargeForDelta,
    LengthMismatch,
    LiftmixError,
    LocalityViolation,
    NegativeEntry,
    NoSpanningTree,
    StochasticMatrix,
    TimeVaryingChain,
    UNMIXED,
    barbell,
    check_flow_match,
    clock_lift,
    cycle,
    diaconis_cycle_lift,
    diameter,
    diameter_mixer,
    distance_matrix,
    Distribution,
    graph_from_edges,
    ergodic_flows,
    fiber_uniform_init,
    four_cycle_lift,
    full_mixing_time,
    is_irreducible,
    lazy_walk,
    lifted_stationary,
    marginal,
    marginal_mixing_time,
    metropolis_chain,
    mixer_default_reference,
    node_clock_lift,
    path,
    periodic_clock_lift,
    periodic_node_clock_lift,
    phi_chain,
    point_distribution,
    rooted_spanning_tree,
    shortest_path,
    si_replicated_lift,
    spanning_tree_correction,
    stochastic_bridge,
    tv_distance,
    uniform_distribution,
)
from liftmix.constructions import _point_bridges, _solve_top_chain
from liftmix.graph_core import _strong_components
from liftmix.randomgen import (
    random_connected_graph,
    random_distribution,
    random_local_chain,
    rng_from_seed,
)


def half_lazy_metropolis(g, pi) -> StochasticMatrix:
    return StochasticMatrix(
        0.5 * (np.eye(g.n) + metropolis_chain(g, pi).entries), locality=g
    )


# ---------------------------------------------------------------- bridges

def test_bridge_path4_to_uniform_exact():
    g = path(4)
    chain = stochastic_bridge(g, point_distribution(4, 0), uniform_distribution(4))
    assert chain.T == diameter(g) == 3
    out = chain.product() @ np.eye(4)[0]
    assert np.abs(out - 0.25).max() <= 1e-12


def test_bridge_exactness_random_property():
    rng = rng_from_seed(0)
    for _ in range(25):
        g = random_connected_graph(rng, n_max=10)
        target = random_distribution(rng, g.n)
        D = diameter(g)
        adj = g.adjacency()
        for src in range(g.n):
            chain = stochastic_bridge(g, point_distribution(g.n, src), target)
            assert chain.T == D
            p = np.eye(g.n)[src]
            for E in chain.steps:
                assert np.abs(E.sum(axis=0) - 1.0).max() <= 1e-12
                off = E > 1e-12
                np.fill_diagonal(off, False)
                assert not (off & ~adj.T).any()  # every move rides an arc
                p = E @ p
            assert 0.5 * np.abs(p - target.weights).sum() <= 1e-10


def test_bridge_spread_source():
    # sources need not be point masses
    g = barbell(3)
    rng = rng_from_seed(31)
    src = random_distribution(rng, 6)
    dst = random_distribution(rng, 6)
    chain = stochastic_bridge(g, src, dst)
    out = chain.product() @ src.weights
    assert 0.5 * np.abs(out - dst.weights).sum() <= 1e-10


def _memo_path_bridge(g, p_src, p_dst) -> list[np.ndarray]:
    """Bridge steps with each commodity's hops taken from a memoised
    shortest_path call, the way stochastic_bridge once read them."""
    dist = distance_matrix(g)
    D, n = int(dist.max()), g.n
    flow = np.zeros((D, n, n))
    occupancy = np.zeros((D, n))
    paths = {}
    for i in np.nonzero(p_src.weights > 0)[0]:
        for u in np.nonzero(p_dst.weights > 0)[0]:
            mass = p_src.weights[i] * p_dst.weights[u]
            wait = D - int(dist[i, u])
            hops = paths.setdefault((int(i), int(u)), shortest_path(g, int(i), int(u)))
            pos = int(i)
            for t in range(D):
                nxt = pos if t < wait else hops[t - wait + 1]
                occupancy[t, pos] += mass
                flow[t, nxt, pos] += mass
                pos = nxt
    steps = []
    for t in range(D):
        P = np.eye(n)
        populated = occupancy[t] > 0
        P[:, populated] = flow[t][:, populated] / occupancy[t][populated][None, :]
        steps.append(StochasticMatrix(P, locality=g).entries)
    return steps


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_bridge_hops_match_memoised_shortest_paths(seed, spread):
    rng = rng_from_seed(seed)
    g = random_connected_graph(rng, n_max=10)
    src = (random_distribution(rng, g.n) if spread
           else point_distribution(g.n, int(rng.integers(g.n))))
    dst = random_distribution(rng, g.n)
    chain = stochastic_bridge(g, src, dst)
    expect = _memo_path_bridge(g, src, dst)
    assert len(chain.steps) == len(expect)
    for step, E in zip(chain.steps, expect):
        assert np.array_equal(step, E)


def _strongly_connected_digraph(rng, n_max=9):
    """A directed cycle plus random extra arcs."""
    n = int(rng.integers(2, n_max + 1))
    extra = rng.integers(0, n, size=(n, 2)).tolist()
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)] + extra, directed=True)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_point_bridges_equal_the_public_bridge_bit_for_bit(seed, directed):
    # the family's one routing pass and one validation give every start
    # node's public bridge, on undirected and directed graphs, with a target
    # that has zero entries
    rng = rng_from_seed(seed)
    g = _strongly_connected_digraph(rng) if directed else random_connected_graph(rng, n_max=10)
    w = random_distribution(rng, g.n).weights * (rng.random(g.n) < 0.6)
    w[int(rng.integers(g.n))] += 0.1
    pi = Distribution(w / w.sum())
    family = _point_bridges(g, pi)
    assert family.flags.c_contiguous and not family.flags.writeable
    for i in range(g.n):
        chain = stochastic_bridge(g, point_distribution(g.n, i), pi)
        assert family.shape == (g.n, chain.T, g.n, g.n)
        assert family[i].tobytes() == chain.steps.tobytes()


def test_bridge_wraps_no_step_as_a_matrix(monkeypatch):
    # the bridge is routed, then validated in one pass as one step array
    built = []
    init = StochasticMatrix.__init__

    def counting(self, entries, locality=None):
        built.append(locality)
        init(self, entries, locality)

    monkeypatch.setattr(StochasticMatrix, "__init__", counting)
    chain = stochastic_bridge(cycle(7), point_distribution(7, 0), uniform_distribution(7))
    assert built == []
    assert chain.steps.shape == (3, 7, 7) and not chain.steps.flags.writeable


def test_bridge_size_mismatch():
    with pytest.raises(LengthMismatch):
        stochastic_bridge(path(3), point_distribution(4, 0), uniform_distribution(3))


# ------------------------------------------------------------ clock lifts

@pytest.mark.parametrize("build, entry", [
    (lambda g, ch: clock_lift(g, ch), "5,0"),
    (lambda g, ch: periodic_clock_lift(g, ch), "2,0"),
    (lambda g, ch: node_clock_lift(g, [ch] * g.n, uniform_distribution(g.n)), "11,0"),
    (lambda g, ch: periodic_node_clock_lift(g, [ch] * g.n, uniform_distribution(g.n)), "11,0"),
], ids=["clock", "periodic-clock", "node-clock", "periodic-node-clock"])
def test_clock_lifts_reject_a_step_off_the_graph(build, entry):
    # built without locality, the step sends mass 0 -> 2 across no arc of
    # path(3); the lift's one check, through the projection, names the
    # lifted entry and the missing base arc
    P = np.eye(3)
    P[0, 0] = P[2, 0] = 0.5
    chain = TimeVaryingChain([P])
    with pytest.raises(LocalityViolation,
                       match=rf"entry \({entry}\) = 0.5 projects to missing base arc \(0,2\)"):
        build(path(3), chain)
    # the lifts check only that their chains live on the graph's nodes
    with pytest.raises(LengthMismatch, match="on 4 nodes, graph has 3"):
        build(path(3), TimeVaryingChain([lazy_walk(path(4)).entries]))


def test_locality_is_checked_once_per_matrix(monkeypatch):
    # a chain built against g is not wrapped again, and the lifted A is
    # checked through the projection; the clock lift builds its A and
    # nothing else
    g = cycle(5)
    chain = TimeVaryingChain([random_local_chain(rng_from_seed(4), g).entries], g)
    built = []
    init = StochasticMatrix.__init__

    def counting(self, entries, locality=None):
        built.append(locality)
        init(self, entries, locality)

    monkeypatch.setattr(StochasticMatrix, "__init__", counting)
    L = clock_lift(g, chain)
    assert built == [None]


def _loop_clock(g, chain, periodic):
    """(A, F, projection) of a clock lift, written out block by block."""
    T, n = chain.T, g.n
    size = T * n if periodic else (T + 1) * n
    A = np.zeros((size, size))
    for t in range(1, T if periodic else T + 1):
        A[t * n:(t + 1) * n, (t - 1) * n:t * n] = chain.steps[t - 1]
    if periodic:
        A[:n, (T - 1) * n:] = chain.steps[T - 1]
    else:
        A[T * n:, T * n:] = np.eye(n)
    F = np.zeros((size, n))
    F[:n, :] = np.eye(n)
    return A, F, [v for _ in range(size // n) for v in range(n)]


def _loop_node_clock(g, chains, pi, periodic):
    """(A, F, projection) of a node-clock lift, entry by entry."""
    n, T = g.n, chains[0].T
    layers = T + 1 if periodic else T + 2
    size = layers * n * n

    def idx(t, v0, v):
        return t * n * n + v0 * n + v

    A = np.zeros((size, size))
    for t in range(1, T + 1):
        for v0 in range(n):
            A[idx(t, v0, 0):idx(t, v0, n), idx(t - 1, v0, 0):idx(t - 1, v0, n)] = (
                chains[v0].steps[t - 1])
    for v0 in range(n):
        for v in range(n):
            if periodic:
                A[idx(0, v, v), idx(T, v0, v)] = 1.0
            else:
                for w in range(n):
                    A[idx(T + 1, w, v), idx(T, v0, v)] = pi.weights[w]
                A[idx(T + 1, v0, v), idx(T + 1, v0, v)] = 1.0
    F = np.zeros((size, n))
    for v in range(n):
        F[idx(0, v, v), v] = 1.0
    return A, F, [v for _ in range(layers) for _ in range(n) for v in range(n)]


def _loop_mixer(g, pi, variant, gamma):
    """(A, F, projection) of a diameter mixer at its final gamma."""
    n = g.n
    bridges = [stochastic_bridge(g, point_distribution(n, i), pi) for i in range(n)]
    A, F, proj = _loop_node_clock(g, bridges, pi, False)
    if variant == "reducible":
        return A, F, proj
    reference = mixer_default_reference(g, pi)
    held = reference.entries
    if variant == "irreducible":
        stack = np.array([b.steps for b in bridges])
        held = (1.0 - gamma) * _solve_top_chain(g, pi, stack, gamma, reference)[0].entries
    top = (bridges[0].T + 1) * n * n
    for v0 in range(n):
        A[top + v0 * n:top + (v0 + 1) * n, top + v0 * n:top + (v0 + 1) * n] = held
        if variant == "irreducible":
            for v in range(n):
                A[v * n + v, top + v0 * n + v] += gamma
    if variant == "flows":
        return A, F, proj
    labels = _strong_components(A > 1e-12)
    keep = [k for k in range(len(proj)) if labels[k] == labels[0]]
    pos = {k: r for r, k in enumerate(keep)}
    F_red = np.zeros((len(keep), n))
    for v in range(n):
        F_red[pos[v * n + v], v] = 1.0
    return A[np.ix_(keep, keep)], F_red, [proj[k] for k in keep]


def _loop_support_arcs(A):
    rows, cols = np.nonzero(A > 1e-12)
    return frozenset((int(i), int(j)) for j, i in zip(rows, cols) if i != j)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_layered_lifts_match_loop_builders(seed):
    rng = rng_from_seed(seed)
    g = random_connected_graph(rng, n_max=7)
    pi = random_distribution(rng, g.n)
    T = int(rng.integers(1, 4))
    chains = [TimeVaryingChain([random_local_chain(rng, g).entries for _ in range(T)])
              for _ in range(g.n)]
    cases = [
        (clock_lift(g, chains[0]), _loop_clock(g, chains[0], False)),
        (periodic_clock_lift(g, chains[0]), _loop_clock(g, chains[0], True)),
        (node_clock_lift(g, chains, pi), _loop_node_clock(g, chains, pi, False)),
        (periodic_node_clock_lift(g, chains, pi), _loop_node_clock(g, chains, pi, True)),
    ]
    for variant in ("reducible", "flows", "irreducible"):
        L = diameter_mixer(g, pi, variant)
        cases.append((L, _loop_mixer(g, pi, variant, L.metadata.get("gamma"))))
    for L, (A, F, proj) in cases:
        assert L.A.entries.tobytes() == StochasticMatrix(A).entries.tobytes()
        assert L.F.tobytes() == F.tobytes()
        assert L.map.projection.tolist() == list(proj)
        assert L.lifted.arcs == _loop_support_arcs(A)

def test_clock_lift_tracks_schedule_then_freezes():
    rng = rng_from_seed(3)
    g = cycle(5)
    steps = [random_local_chain(rng, g) for _ in range(4)]
    chain = TimeVaryingChain([P.entries for P in steps])
    L = clock_lift(g, chain)
    assert L.metadata == {"construction": "clock", "T": 4}
    p0 = random_distribution(rng, 5)
    x = L.F @ p0.weights
    p = p0.weights.copy()
    for t in range(4):
        x = L.A.entries @ x
        p = steps[t].entries @ p
        assert 0.5 * np.abs(L.map.C @ x - p).sum() <= 1e-12
    for _ in range(3):  # past the schedule the marginal is frozen
        x = L.A.entries @ x
        assert 0.5 * np.abs(L.map.C @ x - p).sum() <= 1e-12


def test_clock_lift_rejects_empty_schedule():
    with pytest.raises(EmptyChain):
        clock_lift(path(2), TimeVaryingChain([]))


def test_periodic_clock_lift_wraps_cleanly():
    # with a constant schedule the wrap is invisible: the marginal follows
    # powers of P across several full periods
    g = cycle(4)
    P = lazy_walk(g)
    L = periodic_clock_lift(g, TimeVaryingChain([P.entries] * 3))
    assert L.metadata["construction"] == "periodic-clock"
    p0 = point_distribution(4, 1)
    x = L.F @ p0.weights
    p = p0.weights.copy()
    for _ in range(10):
        x = L.A.entries @ x
        p = P.entries @ p
        assert 0.5 * np.abs(L.map.C @ x - p).sum() <= 1e-12


def test_node_clock_lift_reaches_target_from_any_start():
    g = barbell(3)
    pi = uniform_distribution(6)
    bridges = [stochastic_bridge(g, point_distribution(6, i), pi) for i in range(6)]
    L = node_clock_lift(g, bridges, pi)
    T = bridges[0].T
    rng = rng_from_seed(10)
    A, C, F = L.A.entries, L.map.C, L.F
    for _ in range(20):
        p0 = random_distribution(rng, 6)
        x = F @ p0.weights
        for _ in range(T):
            x = A @ x
        assert 0.5 * np.abs(C @ x - pi.weights).sum() <= 1e-10


def test_periodic_node_clock_returns_to_target_every_period():
    # one period is T bridge steps plus a resample step back to layer 0;
    # the marginal hits pi at every bridge end and rides through the wrap
    g = cycle(4)
    pi = uniform_distribution(4)
    bridges = [stochastic_bridge(g, point_distribution(4, i), pi) for i in range(4)]
    L = periodic_node_clock_lift(g, bridges, pi)
    assert L.metadata["construction"] == "periodic-node-clock"
    T = bridges[0].T
    A, C = L.A.entries, L.map.C
    x = L.F @ pi.weights
    tv = []
    for _ in range(3 * (T + 1) + 1):
        tv.append(0.5 * np.abs(C @ x - pi.weights).sum())
        x = A @ x
    for k in range(3):
        assert tv[T + k * (T + 1)] <= 1e-10      # bridge end
        assert tv[T + 1 + k * (T + 1)] <= 1e-10  # after the wrap step


# ---------------------------------------------------------------- mixers

def test_reducible_mixer_exact_at_diameter():
    for g in (barbell(3), cycle(4), path(4)):
        n = g.n
        rng = rng_from_seed(n)
        pi = random_distribution(rng, n)
        L = diameter_mixer(g, pi, variant="reducible")
        D = diameter(g)
        assert L.metadata["T"] == D
        X = L.F.copy()  # all vertex starts at once
        for _ in range(D):
            X = L.A.entries @ X
        gap = 0.5 * np.abs(L.map.C @ X - pi.weights[:, None]).sum(axis=0).max()
        assert gap <= 1e-10
        for _ in range(3):  # frozen afterwards
            X = L.A.entries @ X
            gap = 0.5 * np.abs(L.map.C @ X - pi.weights[:, None]).sum(axis=0).max()
            assert gap <= 1e-10
        assert marginal_mixing_time(L, pi, 0.25, "S", t_max=4 * (D + 1)) <= D + 1


def test_flows_mixer_matches_reference_flows():
    g = cycle(4)
    pi = uniform_distribution(4)
    ref = lazy_walk(g)
    L = diameter_mixer(g, pi, variant="flows", reference=ref)
    assert not is_irreducible(L.A)
    pi_hat = lifted_stationary(L, Distribution(L.F @ pi.weights))
    dev, ok = check_flow_match(L, pi_hat, ref)
    assert ok
    assert dev <= 1e-8


def test_irreducible_mixer_cycle4():
    g = cycle(4)
    pi = uniform_distribution(4)
    gamma = 1e-3
    L = diameter_mixer(g, pi, variant="irreducible", gamma=gamma,
                       reference=lazy_walk(g))
    assert is_irreducible(L.A)
    assert L.metadata["gamma"] == gamma  # no retry needed
    pi_hat = lifted_stationary(L, Distribution(L.F @ pi.weights))
    assert tv_distance(marginal(L, pi_hat), pi) <= 1e-8
    dev, _ = check_flow_match(L, pi_hat, lazy_walk(g), delta=10 * gamma)
    assert dev <= 10 * gamma
    assert marginal_mixing_time(L, pi, 0.25, "S", t_max=200) <= diameter(g) + 1


def test_irreducible_mixer_barbell_default_reference():
    g = barbell(3)
    pi = uniform_distribution(6)
    gamma = 1e-3
    L = diameter_mixer(g, pi, variant="irreducible", gamma=gamma)
    assert is_irreducible(L.A)
    pi_hat = lifted_stationary(L, Distribution(L.F @ pi.weights))
    assert tv_distance(marginal(L, pi_hat), pi) <= 1e-8
    ref = mixer_default_reference(g, pi)
    dev, _ = check_flow_match(L, pi_hat, ref, delta=10 * gamma)
    assert dev <= 10 * gamma
    assert marginal_mixing_time(L, pi, 0.25, "S", t_max=200) <= diameter(g) + 1


def test_irreducible_mixer_halves_gamma_when_needed():
    g = barbell(3)
    pi = uniform_distribution(6)
    L = diameter_mixer(g, pi, variant="irreducible", gamma=0.3)
    assert L.metadata["gamma"] == pytest.approx(0.15)
    assert is_irreducible(L.A)


def test_irreducible_mixer_rejects_nonpositive_gamma():
    # without restarts the start states no longer share a strong component
    for gamma in (0.0, -0.1, float("nan")):
        with pytest.raises(BadGamma):
            diameter_mixer(cycle(6), uniform_distribution(6), "irreducible", gamma=gamma)


def test_mixer_rejects_gamma_of_one_or_more():
    # gamma = 1 would divide by 1 - gamma in the top-chain solve, and the
    # halving retries used to turn it silently into a smaller gamma
    g, pi = cycle(6), uniform_distribution(6)
    for variant in ("flows", "irreducible"):
        for gamma in (1.0, 2.0):
            with pytest.raises(BadGamma):
                diameter_mixer(g, pi, variant, gamma=gamma)
    assert diameter_mixer(g, pi, "reducible", gamma=2.0).metadata["variant"] == "reducible"


def test_irreducible_mixer_infeasible_reference_raises():
    # plain Metropolis on barbell(3) has zero diagonal at the connector
    # nodes, so the tree correction can never compensate there
    g = barbell(3)
    pi = uniform_distribution(6)
    with pytest.raises(NegativeEntry):
        diameter_mixer(g, pi, variant="irreducible", gamma=1e-3,
                       reference=metropolis_chain(g, pi))


def test_mixer_default_reference_shape():
    rng = rng_from_seed(40)
    for g in (barbell(3), cycle(5)):
        pi = random_distribution(rng, g.n)
        R = mixer_default_reference(g, pi)
        assert np.abs(R.entries @ pi.weights - pi.weights).max() <= 1e-12
        assert np.diag(R.entries).min() >= 0.5
        assert R.locality is g


def test_mixer_input_guards():
    g = cycle(4)
    with pytest.raises(BadSize):
        diameter_mixer(g, Distribution([0.5, 0.5, 0.0, 0.0]))
    with pytest.raises(BadSize):
        diameter_mixer(g, uniform_distribution(4), variant="bogus")


def test_mixer_refuses_a_one_node_graph():
    with pytest.raises(BadSize, match="mixer needs a graph with positive diameter"):
        diameter_mixer(graph_from_edges(1, []), uniform_distribution(1))


@pytest.mark.parametrize("build", [node_clock_lift, periodic_node_clock_lift])
def test_node_clock_lifts_refuse_mismatched_chains(build):
    g, pi = path(3), uniform_distribution(3)
    step = lazy_walk(g).entries
    one, two = TimeVaryingChain([step]), TimeVaryingChain([step] * 2)
    with pytest.raises(LengthMismatch, match="need one chain per node: got 2 for 3"):
        build(g, [one] * 2, pi)
    with pytest.raises(LengthMismatch, match="target distribution must live on the graph"):
        build(g, [one] * 3, uniform_distribution(4))
    with pytest.raises(LengthMismatch, match="chain for node 1 has length 2, expected 1"):
        build(g, [one, two, one], pi)
    with pytest.raises(EmptyChain, match="node-clock lift needs at least one step"):
        build(g, [TimeVaryingChain([])] * 3, pi)


# ------------------------------------------------ spanning tree correction

def test_tree_correction_zero_demand_gives_zero():
    g = path(3)
    P = half_lazy_metropolis(g, uniform_distribution(3))
    w = uniform_distribution(3)
    target = Distribution(P.entries @ w.weights)
    corr = spanning_tree_correction(g, P, w, target)
    assert np.abs(corr).max() == 0.0


def test_tree_correction_path3_hand_values():
    # symmetric chain, uniform law: shifting eps of stationary mass from
    # node 2 to node 0 forces 3*eps on each tree arc toward the root
    eps = 0.01
    g = path(3)
    P = half_lazy_metropolis(g, uniform_distribution(3))
    w = uniform_distribution(3)
    target = Distribution(np.array([1 / 3 + eps, 1 / 3, 1 / 3 - eps]))
    corr = spanning_tree_correction(g, P, w, target)
    expect = np.zeros((3, 3))
    expect[2, 1] = -3 * eps
    expect[1, 1] = +3 * eps
    expect[1, 0] = -3 * eps
    expect[0, 0] = +3 * eps
    assert np.abs(corr - expect).max() <= 1e-12
    combined = P.entries + corr
    assert combined.min() >= 0 and combined.max() <= 1
    assert np.abs(combined @ w.weights - target.weights).max() <= 1e-12


def test_tree_correction_random_property():
    rng = rng_from_seed(0)
    for _ in range(100):
        g = random_connected_graph(rng, n_max=8)
        pi = random_distribution(rng, g.n)
        P = half_lazy_metropolis(g, pi)
        w = random_distribution(rng, g.n)
        base = P.entries @ w.weights
        z = rng.normal(size=g.n)
        z -= z.mean()
        target = base + 1e-3 * z / max(1.0, np.abs(z).max())
        corr = spanning_tree_correction(g, P, w, target)
        # demand met, columns conserve mass, support on tree arcs + diagonal
        assert np.abs(corr @ w.weights - (target - base)).max() <= 1e-10
        assert np.abs(corr.sum(axis=0)).max() <= 1e-12
        off = np.abs(corr) > 0
        np.fill_diagonal(off, False)
        for j, i in np.argwhere(off):
            assert (i, j) in g.arcs
        combined = P.entries + corr
        assert combined.min() >= -1e-12 and combined.max() <= 1 + 1e-12


def test_tree_correction_uses_the_widest_spanning_tree():
    # the tree's narrowest arc P[child, parent] is the largest beta whose
    # arcs P[u, p] >= beta still reach every node from the root
    rng = rng_from_seed(1)
    for _ in range(40):
        g = random_connected_graph(rng, n_max=8)
        P = random_local_chain(rng, g)
        w = random_distribution(rng, g.n)
        z = rng.normal(size=g.n)
        z -= z.mean()
        corr = spanning_tree_correction(g, P, w, P.entries @ w.weights + 1e-4 * z)
        tree = np.argwhere((corr != 0) & ~np.eye(g.n, dtype=bool))  # (child, parent)
        assert len(tree) == g.n - 1
        spanning = []
        for beta in {float(P.entries[j, i]) for i, j in g.arcs}:
            try:
                rooted_spanning_tree(g, lambda child, p: P.entries[child, p] >= beta, 0)
                spanning.append(beta)
            except NoSpanningTree:
                pass
        assert min(P.entries[child, p] for child, p in tree) == max(spanning)


def test_tree_correction_no_tree_over_dead_dynamics():
    g = path(3)
    P = StochasticMatrix(np.eye(3), locality=g)
    w = uniform_distribution(3)
    z = np.array([0.01, 0.0, -0.01])
    with pytest.raises(NoSpanningTree):
        spanning_tree_correction(g, P, w, Distribution(w.weights + z))


def test_tree_correction_demand_must_balance():
    g = path(3)
    P = half_lazy_metropolis(g, uniform_distribution(3))
    with pytest.raises(LengthMismatch):
        spanning_tree_correction(
            g, P, uniform_distribution(3), np.array([0.4, 0.4, 0.4])
        )


# ---------------------------------------------------------- cycle lifts

def test_direction_lift_column_audit():
    for N in (4, 10, 16):
        L = diaconis_cycle_lift(N)
        A = L.A.entries
        assert L.map.lifted_n == 2 * N
        assert L.metadata == {"construction": "diaconis", "N": N}
        for j in range(2 * N):
            col = A[:, j]
            nz = np.sort(col[col > 0])
            assert len(nz) == 2
            assert nz[0] == pytest.approx(1.0 / N, abs=0)
            assert nz[1] == pytest.approx(1.0 - 1.0 / N, abs=0)
        u = np.full(2 * N, 1 / (2 * N))
        assert np.abs(A @ u - u).max() == 0.0
        assert L.F is None


def test_direction_lift_even_guard():
    with pytest.raises(BadSize):
        diaconis_cycle_lift(7)
    with pytest.raises(BadSize):
        diaconis_cycle_lift(2)


def test_direction_lift_flows_are_rotation_symmetric():
    N = 8
    L = diaconis_cycle_lift(N)
    u = Distribution(np.full(2 * N, 1 / (2 * N)))
    Q = ergodic_flows(L.A, u)
    # one-step rotation of the cycle permutes the lifted nodes and must
    # leave the flow pattern unchanged
    perm = [(v + 1) % N for v in range(N)] + [N + (v + 1) % N for v in range(N)]
    assert np.abs(Q[np.ix_(perm, perm)] - Q).max() <= 1e-15


def test_direction_lift_even_cycle_is_periodic():
    # direction memory on an even cycle alternates parity classes, so the
    # full state never settles; the honest verdict is UNMIXED
    L = diaconis_cycle_lift(8)
    assert full_mixing_time(L, 0.25, "s", t_max=400) == UNMIXED


# ------------------------------------------------------- four-cycle lift

def test_four_cycle_tuning_formulas():
    delta, gamma = 0.05, 0.01
    L, ref = four_cycle_lift(delta, gamma)
    phi, epsilon = L.metadata["phi"], L.metadata["epsilon"]
    assert phi == pytest.approx(1.5 * gamma / (1 + 2 * gamma), abs=1e-15)
    ratio = (1 + gamma / 2) / (1 - gamma) * (1 - 2 * delta)
    assert epsilon == pytest.approx((1 - ratio) / 2, abs=1e-15)
    assert phi == pytest.approx(0.0147059, abs=1e-7)
    assert epsilon == pytest.approx(0.0431818, abs=1e-7)
    assert L.map.lifted_n == 12
    assert ref.locality.arcs == cycle(4).arcs


def test_four_cycle_flows_match_reference_exactly():
    L, ref = four_cycle_lift(0.05, 0.01)
    pi_hat = lifted_stationary(L, Distribution(L.F @ uniform_distribution(4).weights))
    dev, ok = check_flow_match(L, pi_hat, ref)
    assert ok and dev <= 1e-12


def test_four_cycle_speedup_scales_with_delta():
    # the reference conductance is (1 - phi) * delta, so shrinking delta
    # by 5x inflates the flow bound by exactly 5x at fixed gamma
    pi = uniform_distribution(4)
    _, ref_a = four_cycle_lift(0.05, 0.01)
    _, ref_b = four_cycle_lift(0.01, 0.01)
    phi_a, _ = phi_chain(ref_a, pi)
    phi_b, _ = phi_chain(ref_b, pi)
    assert phi_a / phi_b == pytest.approx(5.0, abs=1e-9)
    for L in (four_cycle_lift(0.05, 0.01)[0], four_cycle_lift(0.01, 0.01)[0]):
        assert marginal_mixing_time(L, pi, 0.25, "S") == 2


def test_four_cycle_guards():
    with pytest.raises(BadSize):
        four_cycle_lift(0.0, 0.01)
    with pytest.raises(BadSize):
        four_cycle_lift(1.0, 0.01)
    with pytest.raises(GammaTooLargeForDelta):
        four_cycle_lift(0.05, 0.5)


# ------------------------------------------------------- replicated lift

def test_replicated_lift_block_structure():
    rng = rng_from_seed(77)
    g = random_connected_graph(rng, n_max=6)
    P = random_local_chain(rng, g)
    for k in (2, 3):
        L = si_replicated_lift(P, copies=k)
        assert L.metadata == {"construction": "si-replicated", "copies": k}
        assert np.allclose(L.A.entries, np.tile(P.entries / k, (k, k)), atol=0)
        assert L.map.projection.tolist() == list(range(g.n)) * k


def test_replicated_lift_stationary_splits_mass():
    rng = rng_from_seed(41)
    done = 0
    while done < 3:
        g = random_connected_graph(rng, n_max=6)
        P = random_local_chain(rng, g)
        if not is_irreducible(P):
            continue
        from liftmix import stationary

        pi = stationary(P)
        L = si_replicated_lift(P, copies=2)
        pi_hat = lifted_stationary(L, fiber_uniform_init(L.map, pi))
        assert np.abs(pi_hat.weights - np.tile(pi.weights / 2, 2)).max() <= 1e-9
        done += 1


def test_replicated_lift_needs_two_copies():
    P = lazy_walk(cycle(4))
    with pytest.raises(BadSize):
        si_replicated_lift(P, copies=1)
