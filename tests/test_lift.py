"""Lift maps, projections, invariance checks, scenario machinery."""

import functools
import json
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csc_array, csr_array

from liftmix import (
    BadColumnSum,
    BadScenario,
    BadSize,
    DimensionMismatch,
    Distribution,
    EmptyCutWeight,
    Graph,
    LengthMismatch,
    Lift,
    LiftMap,
    LocalityViolation,
    MissingInitMap,
    MissingReferenceChain,
    NotStationary,
    ReducibleChain,
    ScenarioSpec,
    StochasticMatrix,
    UNMIXED,
    ZeroMarginalSupport,
    adversarial_init,
    barbell,
    check_flow_match,
    check_invariance,
    clock_lift,
    complete,
    conditional_unlift,
    cycle,
    diaconis_cycle_lift,
    diameter,
    diameter_mixer,
    ergodic_flows,
    evolve,
    fiber_uniform_init,
    format_scenario,
    four_cycle_lift,
    full_mixing_time,
    graph_from_edges,
    induced_chain,
    is_irreducible,
    lazy_walk,
    lift_from_json,
    lift_to_json,
    lifted_stationary,
    marginal,
    marginal_mixing_time,
    metropolis_chain,
    mixing_time,
    node_clock_lift,
    parse_scenario,
    path,
    periodic_clock_lift,
    phi_chain,
    phi_chain_cycle,
    phi_graph,
    point_distribution,
    scenario_report,
    si_replicated_lift,
    stationary,
    stochastic_bridge,
    uniform_distribution,
    unlift_si,
    validate_lift,
)
import liftmix.cli as cli_module
import liftmix.lift as lift_module
import liftmix.markov as markov_module
from liftmix._tolerances import TOL
from liftmix.cli import _criterion_lifts, _tau_from_start, run_suite
from liftmix.lift import _batch_limits, _lower_bound
from liftmix.markov import _ergodic_limits, _settle_time, _vertex_chunks, _window_tv
from liftmix.randomgen import (
    random_connected_graph,
    random_distribution,
    random_local_chain,
    rng_from_seed,
)


def simple_walk_entries(n: int) -> np.ndarray:
    """Non-lazy walk on cycle(n), half left half right."""
    M = np.zeros((n, n))
    for i in range(n):
        M[(i + 1) % n, i] = 0.5
        M[(i - 1) % n, i] = 0.5
    return M


def test_lift_map_fibers_and_projection_matrix():
    m = LiftMap(base_n=2, projection=(0, 1, 0, 0))
    assert m.lifted_n == 4
    assert m.fibers == ((0, 2, 3), (1,))
    assert m.fiber(1) == (1,)
    expect = np.array([[1, 0, 1, 1], [0, 1, 0, 0]], dtype=float)
    assert np.array_equal(m.C, expect)


def test_lift_map_rejects_bad_projections():
    with pytest.raises(DimensionMismatch):
        LiftMap(base_n=3, projection=(0, 1, 0))  # node 2 unreached
    with pytest.raises(DimensionMismatch):
        LiftMap(base_n=2, projection=(0, 2))


def test_lift_map_refuses_non_integer_projections():
    # a value is never truncated or parsed into a different lift
    for projection in ((0, 1.7, 1), (0, 1.0), (0, "1"), (0, True), (np.bool_(False), 1)):
        with pytest.raises(BadSize, match="must be integers"):
            LiftMap(2, projection)
    # the constructions pass NumPy integers, kept as one read-only int array
    for projection in (tuple(np.array([0, 1, 1])), np.array([1, 0], dtype=np.int32)):
        m = LiftMap(2, projection)
        assert m.projection.tolist() == list(projection)
        assert m.projection.dtype == np.intp and not m.projection.flags.writeable


def test_init_map_columns_confined_to_fibers():
    m = LiftMap(base_n=2, projection=(0, 1, 0))
    A = StochasticMatrix(np.eye(3))
    F = np.array([[0.5, 0.0], [0.0, 1.0], [0.5, 0.0]])
    L = Lift(base=path(2), map=m, A=A, F=F)
    assert np.allclose(m.C @ L.F, np.eye(2))
    # checked and renormalised once: validate_lift writes nothing
    before = L.F.tobytes()
    validate_lift(L)
    validate_lift(L)
    assert L.F.tobytes() == before and not L.F.flags.writeable
    with pytest.raises(LocalityViolation):
        Lift(base=path(2), map=m, A=A, F=np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]]))
    with pytest.raises(DimensionMismatch):
        Lift(base=path(2), map=m, A=A, F=np.eye(3))


def test_lift_validation_catches_bad_arcs_and_dynamics():
    base = graph_from_edges(2, [])  # two isolated base nodes
    m = LiftMap(base_n=2, projection=(0, 1))
    A = StochasticMatrix(np.array([[0.5, 0.0], [0.5, 1.0]]))
    with pytest.raises(LocalityViolation,
                       match=r"entry \(1,0\) = 0.5 projects to missing base arc \(0,1\)"):
        Lift(base=base, map=m, A=A)

    m2 = LiftMap(base_n=2, projection=(0, 0, 1))
    bad = np.array([[0.5, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]])
    with pytest.raises(LocalityViolation,
                       match=r"entry \(2,0\) = 0.5 projects to missing base arc \(0,1\)"):
        # mass flows 0 -> 2, from fiber 0 into fiber 1
        Lift(base=base, map=m2, A=StochasticMatrix(bad))


def test_lift_rechecks_dynamics_built_against_another_graph():
    # A is local to complete(3) but moves 0 -> 2, which the base path(3)
    # lacks; the projection check ignores the graph A was built against
    g = path(3)
    M = np.eye(3)
    M[0, 0] = M[2, 0] = 0.5
    with pytest.raises(LocalityViolation,
                       match=r"entry \(2,0\) = 0.5 projects to missing base arc \(0,2\)"):
        Lift(base=g, map=LiftMap(3, (0, 1, 2)), A=StochasticMatrix(M, locality=complete(3)))


def test_locality_is_checked_through_the_projection():
    # lifted 0, 1 sit over base 0 and lifted 2 over base 1
    m = LiftMap(base_n=2, projection=(0, 0, 1))
    up = np.array([[0.5, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]])  # 0 -> 2
    down = up.T.copy()  # 2 -> 0
    down[[0, 2], [0, 2]] = 1.0, 0.5
    one_way = graph_from_edges(2, [(0, 1)], directed=True)
    L = Lift(base=one_way, map=m, A=StochasticMatrix(up))
    assert L.lifted.arcs == {(0, 2)}
    with pytest.raises(LocalityViolation,
                       match=r"entry \(0,2\) = 0.5 projects to missing base arc \(1,0\)"):
        Lift(base=one_way, map=m, A=StochasticMatrix(down))
    # a move inside one fiber needs no base arc at all
    within = np.array([[0.5, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])  # 0 -> 1
    L = Lift(base=graph_from_edges(2, []), map=m, A=StochasticMatrix(within))
    assert L.lifted.arcs == {(0, 1)}


def test_induced_phi_is_unavailable_off_the_cycle_past_the_guard():
    # 26 base nodes pass the cut guard, and barbell arcs leave the cycle
    g = barbell(13)
    P = StochasticMatrix(
        0.5 * (np.eye(g.n) + metropolis_chain(g, uniform_distribution(g.n)).entries),
        locality=g,
    )
    L = si_replicated_lift(P)
    pi_hat = uniform_distribution(L.map.lifted_n)
    phi, source, notes = lift_module._scenario_phi(
        L, None, uniform_distribution(g.n), lambda: pi_hat, False
    )
    assert (phi, source) == (None, "unavailable")
    assert "not cycle-supported" in notes[-1]


def test_marginal_hand_value_and_errors():
    m = LiftMap(base_n=2, projection=(0, 1, 0))
    x = Distribution([0.2, 0.5, 0.3])
    assert marginal(m, x).weights.tolist() == [0.5, 0.5]
    with pytest.raises(DimensionMismatch):
        marginal(m, Distribution([1.0, 0.0]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_marginal_is_linear(seed):
    rng = rng_from_seed(seed)
    base_n = int(rng.integers(1, 5))
    extra = rng.integers(0, base_n, size=int(rng.integers(0, 6)))
    proj = tuple(range(base_n)) + tuple(int(v) for v in extra)
    m = LiftMap(base_n=base_n, projection=proj)
    x = rng.dirichlet(np.ones(m.lifted_n))
    y = rng.dirichlet(np.ones(m.lifted_n))
    lam = float(rng.random())
    mix = marginal(m, Distribution(lam * x + (1 - lam) * y)).weights
    parts = lam * marginal(m, Distribution(x)).weights \
        + (1 - lam) * marginal(m, Distribution(y)).weights
    assert np.allclose(mix, parts, atol=1e-12)


def test_fiber_uniform_init_splits_evenly():
    m = LiftMap(base_n=2, projection=(0, 1, 0, 0))
    pi = Distribution([0.6, 0.4])
    x = fiber_uniform_init(m, pi)
    assert np.allclose(x.weights, [0.2, 0.4, 0.2, 0.2])
    assert np.allclose(marginal(m, x).weights, pi.weights)


def test_conditional_unlift_of_replicated_lift_is_base_chain():
    rng = rng_from_seed(13)
    g = random_connected_graph(rng, n_max=6)
    P = random_local_chain(rng, g)
    L = si_replicated_lift(P, copies=3)
    for _ in range(5):
        x = Distribution(rng.dirichlet(np.ones(3 * g.n)))
        back = conditional_unlift(L, x)
        assert np.allclose(back.entries, P.entries, atol=1e-12)


def test_conditional_unlift_zero_fiber_convention():
    # copy 1 holds no mass, yet no fiber is massless: fiber(v) = {v, 4 + v}
    # holds 0.25 through copy 0, so the lift unlifts to P; the massless-fiber
    # branch is covered by the direction-lift test below
    P = StochasticMatrix(simple_walk_entries(4), locality=cycle(4))
    L = si_replicated_lift(P, copies=2)
    x = np.zeros(8)
    x[:4] = 0.25
    back = conditional_unlift(L, Distribution(x))
    assert np.allclose(back.entries, P.entries, atol=1e-12)


def test_conditional_unlift_gives_a_massless_fiber_the_mean_of_its_columns():
    # the direction lift's two copies of a node step opposite ways, so a
    # fiber's columns of C A differ; fiber(0) = {0, N} holds no mass, and its
    # column of P^(x) is the mean of its columns, while a fiber with mass
    # weighs its columns by x
    N = 6
    L = diaconis_cycle_lift(N)
    CA = L.map.C @ L.A.entries
    assert not np.array_equal(CA[:, 0], CA[:, N])
    x = rng_from_seed(31).random(2 * N)
    x[[0, N]] = 0.0
    x /= x.sum()
    back = conditional_unlift(L, Distribution(x)).entries
    assert np.allclose(back[:, 0], 0.5 * (CA[:, 0] + CA[:, N]), atol=1e-15)
    for j in range(1, N):
        held = (x[j] * CA[:, j] + x[N + j] * CA[:, N + j]) / (x[j] + x[N + j])
        assert np.allclose(back[:, j], held, atol=1e-15)


def test_lift_and_map_constructors_refuse_inconsistent_parts():
    with pytest.raises(DimensionMismatch, match="base needs at least one node"):
        LiftMap(0, ())
    m = LiftMap(2, (0, 1, 0, 1))
    A = StochasticMatrix(np.eye(4))
    F = np.eye(4, 2)
    F[0, 0], F[2, 0] = 1.5, -0.5
    with pytest.raises(DimensionMismatch, match="init map has negative entries"):
        Lift(base=path(2), map=m, A=A, F=F)
    with pytest.raises(DimensionMismatch, match="projection targets 2 nodes, base has 3"):
        Lift(base=path(3), map=m, A=A)
    with pytest.raises(DimensionMismatch, match="dynamics on 3 nodes, projection covers 4"):
        Lift(base=path(2), map=m, A=StochasticMatrix(np.eye(3)))
    # the init map is checked before the sizes, as a bundle reports it
    with pytest.raises(DimensionMismatch, match=re.escape("init map shape (3, 2), expected (4, 2)")):
        Lift(base=path(3), map=m, A=StochasticMatrix(np.eye(3)), F=np.eye(3, 2))


def test_lift_from_json_refuses_a_projection_that_is_not_a_list():
    bundle = lift_to_json(four_cycle_lift(0.05, 0.01)[0])
    with pytest.raises(BadSize, match="lift projection must be a list of integers"):
        lift_from_json(dict(bundle, projection="012301230123"))


def test_induced_chain_of_replicated_lift():
    rng = rng_from_seed(17)
    g = random_connected_graph(rng, n_max=6)
    P = random_local_chain(rng, g)
    L = si_replicated_lift(P, copies=2)
    pi_hat = lifted_stationary(L, fiber_uniform_init(L.map, random_distribution(rng, g.n)))
    ind = induced_chain(L, pi_hat)
    assert np.allclose(ind.entries, P.entries, atol=1e-9)


def test_induced_chain_of_direction_lift_is_simple_walk():
    N = 8
    L = diaconis_cycle_lift(N)
    pi_hat = lifted_stationary(L, fiber_uniform_init(L.map, uniform_distribution(N)))
    ind = induced_chain(L, pi_hat)
    assert np.allclose(ind.entries, simple_walk_entries(N), atol=1e-12)
    val, _ = phi_chain(ind, uniform_distribution(N))
    assert val == pytest.approx(2.0 / N, abs=1e-12)


def test_induced_chain_guards():
    L = diaconis_cycle_lift(6)
    not_steady = Distribution(np.eye(12)[0])
    with pytest.raises(NotStationary):
        induced_chain(L, not_steady)

    g = path(3)
    bridge = stochastic_bridge(g, point_distribution(3, 0), point_distribution(3, 2))
    Lc = clock_lift(g, bridge)
    # the frozen final layer makes any point there an exact steady state
    pin = point_distribution(Lc.map.lifted_n, Lc.map.lifted_n - 1)
    assert np.array_equal(Lc.A.entries @ pin.weights, pin.weights)
    with pytest.raises(ZeroMarginalSupport):
        induced_chain(Lc, pin)  # all mass parks on base node 2


def test_lifted_stationary_four_cycle_closed_form():
    gamma = 0.01
    L, _ = four_cycle_lift(0.05, gamma)
    pi_hat = lifted_stationary(L, Distribution(L.F @ uniform_distribution(4).weights))
    layer = np.array([gamma, gamma, 1.0]) / (1.0 + 2.0 * gamma)
    expect = np.kron(layer, np.full(4, 0.25))
    assert np.abs(pi_hat.weights - expect).max() <= 1e-12


def test_lifted_stationary_reducible_depends_on_seed():
    g = path(4)
    bridge = stochastic_bridge(g, point_distribution(4, 0), uniform_distribution(4))
    L = clock_lift(g, bridge)
    from_design = lifted_stationary(L, Distribution(L.F @ point_distribution(4, 0).weights))
    wrong = np.zeros(L.map.lifted_n)
    wrong[3] = 1.0  # designed source is node 0; start the clock at node 3
    from_wrong = lifted_stationary(L, Distribution(wrong))
    assert np.allclose(marginal(L, from_design).weights, 0.25, atol=1e-9)
    assert np.abs(marginal(L, from_wrong).weights - 0.25).max() > 0.05


def test_check_invariance_replicated_lift_holds():
    # invariance is about preserving the base stationary law, so feed it one
    rng = rng_from_seed(23)
    done = 0
    while done < 5:
        g = random_connected_graph(rng, n_max=6)
        P = random_local_chain(rng, g)
        if not is_irreducible(P):
            continue
        L = si_replicated_lift(P, copies=2)
        ok, witness = check_invariance(L, stationary(P), "s")
        assert ok and witness is None
        done += 1


def test_check_invariance_direction_lift_fails_with_witness():
    N = 16
    L = diaconis_cycle_lift(N)
    pi = uniform_distribution(N)
    ok, witness = check_invariance(L, pi, "s")
    assert not ok
    assert witness is not None
    # the witness genuinely moves the marginal in one step
    moved = marginal(L, Distribution(L.A.entries @ witness.weights))
    assert np.abs(moved.weights - pi.weights).max() > 1e-12


def test_direction_lift_example_witness_exact():
    # all mass on node 2's clockwise and node 0's counterclockwise copies:
    # nothing can reach base node 1, the marginal flow there is exactly 0
    N = 16
    L = diaconis_cycle_lift(N)
    x = np.zeros(2 * N)
    x[3] = 0.5      # clockwise copy of node 3... arrives at node 2's fiber
    x[N + 1] = 0.5
    flowed = L.map.C @ (L.A.entries @ x)
    assert flowed[2] == 0.0


def test_check_invariance_controlled_four_cycle():
    L, _ = four_cycle_lift(0.05, 0.01)
    ok, witness = check_invariance(L, uniform_distribution(4), "S")
    assert ok and witness is None


def test_check_invariance_S_fails_on_reducible_mixer():
    # the bridges pass through intermediate marginals that are not pi
    pi = Distribution([0.1, 0.2, 0.3, 0.4])
    L = diameter_mixer(path(4), pi, "reducible")
    ok, witness = check_invariance(L, pi, "S")
    assert not ok
    assert np.array_equal(witness.weights, L.F @ pi.weights)


def test_check_invariance_errors():
    L = diaconis_cycle_lift(8)
    with pytest.raises(MissingInitMap):
        check_invariance(L, uniform_distribution(8), "S")
    with pytest.raises(BadScenario):
        check_invariance(L, uniform_distribution(8), "x")


def test_replicated_trajectories_match_base_iteration():
    rng = rng_from_seed(29)
    g = random_connected_graph(rng, n_max=8)
    P = random_local_chain(rng, g)
    L = si_replicated_lift(P, copies=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Pq = unlift_si(L, list(range(g.n)))  # copy-0 representatives
    assert np.allclose(Pq.entries, P.entries, atol=1e-12)
    for _ in range(20):
        x = rng.dirichlet(np.ones(2 * g.n))
        p = marginal(L, Distribution(x)).weights
        xs = x.copy()
        for _ in range(50):
            xs = L.A.entries @ xs
            p = Pq.entries @ p
            gap = 0.5 * np.abs(L.map.C @ xs - p).sum()
            assert gap <= 1e-9


def test_unlift_si_warns_when_marginal_depends_on_fiber_position():
    L = diaconis_cycle_lift(8)
    with pytest.warns(UserWarning, match="does not reproduce"):
        unlift_si(L, list(range(8)))  # clockwise representatives


def test_unlift_si_rejects_foreign_choices():
    from liftmix import BadChoiceMap

    L = si_replicated_lift(
        StochasticMatrix(simple_walk_entries(4), locality=cycle(4)), copies=2
    )
    with pytest.raises(BadChoiceMap):
        unlift_si(L, [0, 1, 2, 0])  # lifted node 0 is not in fiber(3)


def test_check_flow_match_four_cycle_exact():
    L, ref = four_cycle_lift(0.05, 0.01)
    pi_hat = lifted_stationary(L, Distribution(L.F @ uniform_distribution(4).weights))
    for delta in (0.0, 1e-17):  # a tiny budget is judged no stricter than exact matching
        dev, ok = check_flow_match(L, pi_hat, ref, delta)
        assert ok
        assert dev <= 1e-12


def test_check_flow_match_budget_semantics():
    # replicated lazy walk against the non-lazy walk: flows differ by 1/16
    # on the diagonal, so exact matching fails but a loose budget passes
    g = cycle(4)
    lazy = StochasticMatrix(0.5 * (np.eye(4) + simple_walk_entries(4)), locality=g)
    walk = StochasticMatrix(simple_walk_entries(4), locality=g)
    L = si_replicated_lift(lazy, copies=2)
    pi_hat = lifted_stationary(L, fiber_uniform_init(L.map, uniform_distribution(4)))
    dev, ok = check_flow_match(L, pi_hat, walk)
    assert not ok
    assert dev == pytest.approx(0.125, abs=1e-9)
    dev2, ok2 = check_flow_match(L, pi_hat, walk, delta=0.2)
    assert ok2 and dev2 == pytest.approx(dev)


def test_adversarial_init_conditions_on_fiber_preimage():
    L = diaconis_cycle_lift(4)
    pi_hat = lifted_stationary(L, fiber_uniform_init(L.map, uniform_distribution(4)))
    x = adversarial_init(L.map, pi_hat, [0, 1])
    proj = np.array(L.map.projection)
    assert x.weights[~np.isin(proj, [0, 1])].max() == 0.0
    assert x.weights.sum() == pytest.approx(1.0)
    # conditioning preserves proportions inside the preimage
    sel = np.isin(proj, [0, 1])
    ratio = pi_hat.weights[sel] / pi_hat.weights[sel].sum()
    assert np.allclose(x.weights[sel], ratio, atol=1e-12)


def test_adversarial_init_errors():
    L = diaconis_cycle_lift(4)
    zero_half = np.zeros(8)
    zero_half[:2] = 0.5
    with pytest.raises(EmptyCutWeight):
        adversarial_init(L.map, Distribution(zero_half), [3])
    with pytest.raises(DimensionMismatch):
        adversarial_init(L.map, Distribution(zero_half), [9])


def test_marginal_mixing_time_four_cycle_is_two():
    L, _ = four_cycle_lift(0.05, 0.01)
    pi = uniform_distribution(4)
    tau_m = marginal_mixing_time(L, pi, 0.25, "S")
    assert tau_m == 2
    tau_f = full_mixing_time(L, 0.25, "S")
    assert np.isfinite(tau_f)
    assert tau_f >= tau_m  # projecting can only shrink TV


def test_mixing_times_unmixed_on_even_direction_lift():
    # two-periodic dynamics: both marginal and full convergence fail under (s)
    L = diaconis_cycle_lift(8)
    pi = uniform_distribution(8)
    assert marginal_mixing_time(L, pi, 0.25, "s", t_max=300) == UNMIXED
    assert full_mixing_time(L, 0.25, "s", t_max=300) == UNMIXED


def test_mixing_times_reject_negative_window():
    # an empty window once read as "mixed at t = 0"
    L, _ = four_cycle_lift(0.05, 0.01)
    pi = uniform_distribution(4)
    for init in ("S", "s"):
        with pytest.raises(DimensionMismatch):
            marginal_mixing_time(L, pi, 0.25, init, t_max=-1)
        with pytest.raises(DimensionMismatch):
            full_mixing_time(L, 0.25, init, t_max=-1)


def _random_lift(rng, mixer_variants=("reducible", "irreducible")):
    """Replicated lift of a random local chain, or a small diameter mixer of
    one of the given variants, with its base target law."""
    g = random_connected_graph(rng, n_max=4)
    if rng.random() < 0.5:
        P = random_local_chain(rng, g)
        return si_replicated_lift(P, copies=int(rng.integers(2, 4))), stationary(P)
    pi = random_distribution(rng, g.n)
    variant = mixer_variants[int(rng.integers(0, len(mixer_variants)))]
    return diameter_mixer(g, pi, variant), pi


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_marginal_mixing_time_is_worst_single_start(seed):
    # the settle time of a max of TV curves is the max of their settle times
    rng = rng_from_seed(seed)
    L, pi = _random_lift(rng)
    t_max = 30
    singles = [
        _tau_from_start(L, pi, point_distribution(L.map.lifted_n, k), 0.25, t_max)
        for k in range(L.map.lifted_n)
    ]
    assert marginal_mixing_time(L, pi, 0.25, "s", t_max) == max(singles)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_full_mixing_time_matches_chain_mixing_time_when_irreducible(seed):
    rng = rng_from_seed(seed)
    L, _ = _random_lift(rng, mixer_variants=("irreducible",))
    assert is_irreducible(L.A)
    t_max = 40
    expected = mixing_time(L.A, stationary(L.A), 0.25, t_max)
    assert full_mixing_time(L, 0.25, "s", t_max) == expected


def _loop_fibers(m):
    """Reference fibers: one pass over the lifted nodes."""
    fibers = [[] for _ in range(m.base_n)]
    for k, c in enumerate(m.projection):
        fibers[c].append(k)
    return tuple(tuple(f) for f in fibers)


def _loop_fiber_uniform_init(m, pi):
    """Reference fiber-uniform spread: each fiber's share, fiber by fiber."""
    x = np.zeros(m.lifted_n)
    for j, fiber in enumerate(_loop_fibers(m)):
        x[list(fiber)] = pi.weights[j] / len(fiber)
    return x


def _loop_fiber_column_mismatch(M, m):
    """Reference mismatch: each fiber's columns against its first, in
    fiber order, then lifted order."""
    tol = TOL["invariance_one_step"]
    for fiber in _loop_fibers(m):
        j0 = fiber[0]
        for k in fiber[1:]:
            if np.abs(M[:, k] - M[:, j0]).max() > tol:
                return j0, k
    return None


def test_fiber_column_mismatch_reports_the_lowest_fiber_first():
    # fiber(1) = {0, 2} differs at a lower lifted node than fiber(0) = {1, 3}
    m = LiftMap(2, (1, 0, 1, 0))
    M = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    assert lift_module._fiber_column_mismatch(M, m) == (1, 3) == _loop_fiber_column_mismatch(M, m)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_fiber_rules_read_off_the_projection_match_the_fiber_loops(seed, drop_init):
    # every per-fiber rule reads the projection array; the loops they
    # replace give the same bits, and at a steady state the induced chain
    # is the conditional unlift
    rng = rng_from_seed(seed)
    L, pi = _random_lift(rng)
    if drop_init:
        L = Lift(base=L.base, map=L.map, A=L.A, metadata=L.metadata)
    m = L.map
    assert m.fibers == _loop_fibers(m)
    assert np.array_equal(fiber_uniform_init(m, pi).weights, _loop_fiber_uniform_init(m, pi))
    M = lift_module._marginal_step(L)
    assert lift_module._fiber_column_mismatch(M, m) == _loop_fiber_column_mismatch(M, m)
    pi_hat = lifted_stationary(L, lift_module._stationary_seed(L, pi)[0])
    assert np.array_equal(induced_chain(L, pi_hat).entries,
                          conditional_unlift(L, pi_hat).entries)


def _dense_window_tv(A, X, target, t_max, C=None):
    """Reference window scan: dense forward propagation of the whole batch."""
    worst = np.empty(t_max + 1)
    for t in range(t_max + 1):
        if t:
            X = A @ X
        Y = X if C is None else C @ X
        worst[t] = 0.5 * np.abs(Y - target).sum(axis=0).max()
    return worst


def _assert_same_scan(dense, sparse):
    assert sparse.shape == dense.shape
    assert np.abs(sparse - dense).max() <= 1e-12
    assert _settle_time(sparse, 0.25) == _settle_time(dense, 0.25)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30))
def test_window_scan_matches_dense_propagation(seed, t_max):
    rng = rng_from_seed(seed)
    L, pi = _random_lift(rng)
    P, A, C, n = L.A, L.A.entries, L.map.C, L.map.lifted_n
    target = pi.weights[:, None]
    eye = np.eye(n)
    # more starts than base nodes: random columns, spread and point masses
    wide = np.column_stack([random_distribution(rng, n).weights
                            for _ in range(L.map.base_n + 1)])
    narrow = wide[:, :L.map.base_n]
    x = random_distribution(rng, n).weights
    limits = _ergodic_limits(L.A, None)
    for t in (0, t_max):
        # adjoint: every vertex
        _assert_same_scan(_dense_window_tv(A, eye, target, t, C),
                          _window_tv(P, None, target, t, C))
        # forward: explicit batches wider than C has rows or init-map-shaped,
        # one 1-D start, full-state scans
        _assert_same_scan(_dense_window_tv(A, wide, target, t, C),
                          _window_tv(P, wide, target, t, C))
        _assert_same_scan(_dense_window_tv(A, narrow, target, t, C),
                          _window_tv(P, narrow, target, t, C))
        _assert_same_scan(_dense_window_tv(A, x, pi.weights, t, C),
                          _window_tv(P, x, pi.weights, t, C))
        _assert_same_scan(_dense_window_tv(A, eye, limits, t),
                          _window_tv(P, None, limits, t))
        _assert_same_scan(_dense_window_tv(A, narrow, limits[:, :L.map.base_n], t),
                          _window_tv(P, narrow, limits[:, :L.map.base_n], t))
        if L.F is not None:
            F = L.F
            _assert_same_scan(_dense_window_tv(A, F, target, t, C),
                              _window_tv(P, F, target, t, C))


# (S) marginal, (S) full, (s) marginal, (s) full at the default windows, as
# the dense forward scan (_dense_window_tv) gives them; None where a lift has
# no init map.  The dense scan needs about a minute for all of them.
INF = UNMIXED
_CRITERION_TAUS = {
    "mixer-reducible/barbell-6": (3, 4, INF, 4),
    "mixer-reducible/cycle-8": (4, 5, INF, 5),
    "mixer-reducible/path-5": (4, 5, INF, 5),
    "mixer-reducible/random-00": (3, 4, INF, 4),
    "mixer-reducible/random-01": (3, 4, INF, 4),
    "mixer-reducible/random-02": (3, 4, INF, 4),
    "mixer-reducible/random-03": (2, 3, INF, 3),
    "mixer-reducible/random-04": (2, 3, INF, 3),
    "mixer-reducible/random-05": (3, 4, INF, 4),
    "mixer-reducible/random-06": (1, 2, INF, 2),
    "mixer-reducible/random-07": (3, 4, INF, 4),
    "mixer-reducible/random-08": (3, 4, INF, 4),
    "mixer-reducible/random-09": (3, 4, INF, 4),
    "mixer-reducible/random-10": (3, 4, INF, 4),
    "mixer-reducible/random-11": (2, 3, INF, 3),
    "mixer-reducible/random-12": (4, 5, INF, 5),
    "mixer-reducible/random-13": (2, 3, INF, 3),
    "mixer-reducible/random-14": (3, 4, INF, 4),
    "mixer-reducible/random-15": (3, 4, INF, 4),
    "mixer-reducible/random-16": (3, 4, INF, 4),
    "mixer-reducible/random-17": (3, 4, INF, 4),
    "mixer-reducible/random-18": (1, 2, INF, 2),
    "mixer-reducible/random-19": (2, 3, INF, 3),
    "mixer-irreducible/cycle-4": (2, 3, 4, INF),
    "mixer-irreducible/barbell-3": (3, 4, 14, INF),
    "direction-lift/cycle-16": (None, None, INF, INF),
    "direction-lift/cycle-32": (None, None, INF, INF),
    "direction-lift/cycle-64": (None, None, INF, INF),
    "four-cycle": (2, 2, 67, 71),
}


def test_mixing_times_match_dense_propagation_on_criterion_lifts():
    lifts = list(_criterion_lifts(0))
    assert [name for name, _, _ in lifts] == list(_CRITERION_TAUS)
    for name, L, pi in lifts:
        got = []
        for init in ("S", "s"):
            if init == "S" and L.F is None:
                got += [None, None]
                continue
            got += [marginal_mixing_time(L, pi, 0.25, init), full_mixing_time(L, 0.25, init)]
        assert tuple(got) == _CRITERION_TAUS[name], name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 60), st.sampled_from([0.05, 0.25, 0.5]))
def test_early_stop_is_a_prefix_of_the_full_window(seed, t_max, eps):
    rng = rng_from_seed(seed)
    if rng.random() < 0.25:
        L = diaconis_cycle_lift(int(rng.choice([4, 6])))  # period 2
    else:
        L, _ = _random_lift(rng)  # replicated, reducible or irreducible mixer
    A, n = L.A, L.map.lifted_n
    P = random_local_chain(rng, random_connected_graph(rng, n_max=5))
    # the targets full_mixing_time scans against
    scans = [(A, X, _ergodic_limits(A, X))
             for X in ([None] if L.F is None else [None, L.F])]
    scans.append((P, None, _ergodic_limits(P, None)))
    # off the fixed points of A, where TV may dip under eps and rise again
    scans.append((A, None, random_distribution(rng, n).weights[:, None]))
    scans.append((A, np.eye(n)[0], random_distribution(rng, n).weights))
    for B, X, target in scans:
        full = _window_tv(B, X, target, t_max)
        early = _window_tv(B, X, target, t_max, eps=eps)
        assert np.array_equal(early, full[:len(early)])
        assert _settle_time(early, eps) == _settle_time(full, eps)


def test_early_stop_waits_out_a_target_off_the_fixed_points():
    # 0 -> 1 -> 2, absorbed at 2: the start passes through the target e_1 at
    # t = 1, so TV dips to 0 there and is 1 ever after
    M = np.zeros((3, 3))
    M[1, 0] = M[2, 1] = M[2, 2] = 1.0
    A = StochasticMatrix(M)
    x, z = np.eye(3)[0], np.eye(3)[1]
    full = _window_tv(A, x, z, 10)
    assert full.tolist() == [1.0, 0.0] + [1.0] * 9
    early = _window_tv(A, x, z, 10, eps=0.25)
    assert np.array_equal(early, full)
    assert _settle_time(early, 0.25) == UNMIXED
    # a reducible chain has no marginal certificate: the whole window
    assert len(_window_tv(A, x, z[:1], 10, np.ones((1, 3)), eps=0.25)) == 11


def _random_reducible_chain(rng):
    """Column-stochastic A with a period-2 closed class (the direction lift
    of the 4- or 6-cycle), up to two random local chains as further closed
    classes, and 1-5 transient states that leak into them, permuted."""
    blocks = [diaconis_cycle_lift(int(rng.choice([4, 6]))).A.entries]
    for _ in range(int(rng.integers(0, 3))):
        blocks.append(random_local_chain(rng, random_connected_graph(rng, n_max=4)).entries)
    closed_n = sum(len(b) for b in blocks)
    n = closed_n + int(rng.integers(1, 6))
    A = np.zeros((n, n))
    at = 0
    for b in blocks:
        A[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    for i in range(closed_n, n):
        col = rng.random(n) * (rng.random(n) < 0.4)
        col[int(rng.integers(0, closed_n))] += 0.1 + rng.random()
        A[:, i] = col / col.sum()
    order = rng.permutation(n)
    return A[np.ix_(order, order)]


def _lazy_power_limit(A):
    """((I + A)/2)^(2^60) by squaring: the half-lazy chain is aperiodic, so
    its powers converge to the Cesaro limit of A, which they share.  Columns
    are renormalised after each squaring, or rounding compounds."""
    M = 0.5 * (np.eye(A.shape[0]) + A)
    for _ in range(60):
        M = M @ M
        M /= M.sum(axis=0)
    return M


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ergodic_limits_are_the_exact_cesaro_projector(seed):
    rng = rng_from_seed(seed)
    mixer = rng.random() < 0.25
    if mixer:
        P = _random_lift(rng, mixer_variants=("reducible",))[0].A
    else:
        P = StochasticMatrix(_random_reducible_chain(rng))
    A, n = P.entries, P.n
    # an irreducible A (a mixer on one or two nodes) gives one column
    Z = np.broadcast_to(_ergodic_limits(P, None), (n, n))
    assert np.abs(A @ Z - Z).max() <= 1e-12
    assert np.abs(Z @ Z - Z).max() <= 1e-12
    assert np.abs(Z - _lazy_power_limit(A)).max() <= 1e-12
    if mixer:
        # the targets full_mixing_time took from averaging before
        assert np.abs(Z - _batch_limits(A, np.eye(n))).max() <= 1e-9
    X = np.column_stack([random_distribution(rng, n).weights for _ in range(3)])
    assert np.abs(_ergodic_limits(P, X) - Z @ X).max() <= 1e-12


def test_ergodic_limits_of_an_irreducible_chain_are_its_stationary_law():
    rng = rng_from_seed(8)
    chains = [diaconis_cycle_lift(6).A, four_cycle_lift(0.1, 0.05)[0].A,
              random_local_chain(rng, random_connected_graph(rng, n=6))]
    for P in chains:
        assert np.array_equal(_ergodic_limits(P, None),
                              stationary(P).weights[:, None])


def test_full_mixing_time_never_averages(monkeypatch):
    def refuse(*args):
        raise AssertionError("full_mixing_time must take exact targets")

    monkeypatch.setattr(lift_module, "_batch_limits", refuse)
    L = diameter_mixer(cycle(6), uniform_distribution(6), "reducible")
    assert not is_irreducible(L.A)
    assert full_mixing_time(L, 0.25, "s") == 4
    assert full_mixing_time(L, 0.25, "S") == 4


def test_scenario_report_decomposes_the_dynamics_once(monkeypatch):
    # the irreducible verdict, the full-state targets and the steady state
    # behind the flow verdict all read the one decomposition of L.A
    g, pi = cycle(8), uniform_distribution(8)
    ref = lazy_walk(g)
    L = diameter_mixer(g, pi, "irreducible", reference=ref)
    n = L.map.lifted_n
    assert n == 232
    calls = {"_strong_components": 0, "_stationary_weights": 0}
    for name in calls:
        for module in [m for key, m in sys.modules.items() if key.startswith("liftmix")]:
            fn = getattr(module, name, None)
            if fn is None:
                continue

            def counting(M, *args, _fn=fn, _name=name):
                if M.shape[0] == n:
                    calls[_name] += 1
                return _fn(M, *args)

            monkeypatch.setattr(module, name, counting)
    report = scenario_report(L, parse_scenario("SIMRe", reference_chain=ref), pi)
    assert report["verdicts"]["irreducible"]["value"]
    assert report["verdicts"]["flow_match"] is not None
    assert calls == {"_strong_components": 1, "_stationary_weights": 1}


def _recorded_scan_lengths(monkeypatch):
    lengths = []

    def recording(*args, **kwargs):
        worst = _window_tv(*args, **kwargs)
        lengths.append(len(worst))
        return worst

    # the chunked every-vertex full-state scans call markov's own name
    for module in (lift_module, markov_module):
        monkeypatch.setattr(module, "_window_tv", recording)
    return lengths


def test_full_state_scan_stops_by_tau_on_reducible_mixer(monkeypatch):
    lengths = _recorded_scan_lengths(monkeypatch)
    L = diameter_mixer(cycle(8), uniform_distribution(8), "reducible")
    tau = full_mixing_time(L, 0.25, "s")
    assert tau == 5
    # every chunk's scan ends by step tau + 1, of 400
    assert lengths and all(k <= tau + 2 for k in lengths)


def test_full_state_scan_keeps_the_window_on_periodic_lift(monkeypatch):
    lengths = _recorded_scan_lengths(monkeypatch)
    L = diaconis_cycle_lift(8)
    assert full_mixing_time(L, 0.25, "s") == UNMIXED
    assert lengths == [1]  # period 2: certified UNMIXED at step 0


def _whole_window_tv(A, X, target, t_max, C=None, *, eps=None):
    """The window scan without the frozen-state stop: every step of the
    window is taken, and only the certified full-state stop returns early."""
    A = csr_array(A)
    if eps is not None:
        drift = 0.5 * np.abs(A @ target - target).sum(axis=0).max() + 1e-12
    if C is not None and X is None:
        step, state, read = A.T, np.ascontiguousarray(C.T), (lambda S: S.T)
    else:
        step, state = A, np.eye(A.shape[0]) if X is None else X
        read = (lambda S: S) if C is None else (lambda S: C @ S)
    worst = np.empty(t_max + 1)
    gap = None
    for t in range(t_max + 1):
        if t:
            state = step @ state
        gap = np.subtract(read(state), target, out=gap)
        worst[t] = 0.5 * np.abs(gap, out=gap).sum(axis=0).max()
        if eps is not None and worst[t] <= eps - (t_max - t) * drift - 1e-9:
            return worst[:t + 1]
    return worst


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 80), st.sampled_from([0.05, 0.25, 0.5]))
def test_frozen_state_stop_is_bit_identical_to_the_whole_window(seed, t_max, eps):
    rng = rng_from_seed(seed)
    if rng.random() < 0.2:
        L = diaconis_cycle_lift(int(rng.choice([4, 6])))  # period 2
        pi = uniform_distribution(L.map.base_n)
    else:
        L, pi = _random_lift(rng, mixer_variants=("reducible", "flows", "irreducible"))
    A, C, n = L.A, L.map.C, L.map.lifted_n
    x = random_distribution(rng, n).weights if rng.random() < 0.5 else np.eye(n)[0]
    # marginal: adjoint (s), init-map batch (S), one 1-D start
    marginal = [(None, pi.weights[:, None]), (x, pi.weights)]
    if L.F is not None:
        marginal.append((L.F, pi.weights[:, None]))
    for X, target in marginal:
        whole = _whole_window_tv(A.entries, X, target, t_max, C)
        assert np.array_equal(_window_tv(A, X, target, t_max, C), whole)
    # full state, against the exact long-run targets, without and with eps
    full = [(None, _ergodic_limits(A, None)), (x, _ergodic_limits(A, x[:, None])[:, 0])]
    if L.F is not None:
        full.append((L.F, _ergodic_limits(A, L.F)))
    for X, target in full:
        whole = _whole_window_tv(A.entries, X, target, t_max)
        assert np.array_equal(_window_tv(A, X, target, t_max), whole)
        early = _window_tv(A, X, target, t_max, eps=eps)
        certified = _whole_window_tv(A.entries, X, target, t_max, eps=eps)
        if A._cyclic is None or A._cyclic[0] == 1:
            # either both stop at the certified t, or the freeze came first
            # and the window is whole; a periodic A may stop sooner, on its
            # periodic certificate or its residue limits
            assert len(early) in (len(certified), t_max + 1)
        assert np.array_equal(early, whole[:len(early)])
        assert _settle_time(early, eps) == _settle_time(certified, eps)


def _certified_scan_lift(rng):
    """A lift with its base target law: a replicated lift, an irreducible
    mixer, the four-cycle lift, a direction lift (period 2) or a
    periodic-clock lift (period T, one class per time layer)."""
    kind = int(rng.integers(0, 5))
    if kind == 0:
        P = random_local_chain(rng, random_connected_graph(rng, n_max=4))
        return si_replicated_lift(P, copies=int(rng.integers(2, 4))), stationary(P)
    if kind == 1:
        return _random_lift(rng, mixer_variants=("irreducible",))
    if kind == 2:
        return four_cycle_lift(0.05, 0.01)[0], uniform_distribution(4)
    if kind == 3:
        N = int(rng.choice([4, 6, 8]))
        return diaconis_cycle_lift(N), uniform_distribution(N)
    g = random_connected_graph(rng, n_max=5)
    pi = random_distribution(rng, g.n)
    return periodic_clock_lift(g, stochastic_bridge(g, pi, pi)), pi


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 80))
def test_certified_stop_gives_the_whole_window_tau(seed, t_max):
    rng = rng_from_seed(seed)
    L, pi = _certified_scan_lift(rng)
    A, C, n = L.A, L.map.C, L.map.lifted_n
    assert A._cyclic is not None
    x = random_distribution(rng, n).weights if rng.random() < 0.5 else np.eye(n)[0]
    batch = L.F if L.F is not None else np.column_stack(
        [np.eye(n)[int(rng.integers(0, n))], random_distribution(rng, n).weights])
    off = random_distribution(rng, L.map.base_n).weights  # a target off the fixed points
    wild = random_distribution(rng, n).weights
    # marginal: adjoint (every vertex), forward batch, one 1-D start
    scans = [(X, target, C) for X, target in [
        (None, pi.weights[:, None]), (None, off[:, None]), (batch, pi.weights[:, None]),
        (batch, off[:, None]), (x, pi.weights), (x, off)]]
    # full state: every vertex, a batch, one start, against their exact
    # long-run targets and against a target off the fixed points
    scans += [(X, target, None) for X, target in [
        (None, _ergodic_limits(A, None)), (None, wild[:, None]),
        (batch, _ergodic_limits(A, batch)), (x, _ergodic_limits(A, None)[:, 0]), (x, wild)]]
    for X, target, proj in scans:
        whole = _whole_window_tv(A.entries, X, target, t_max, proj)
        for eps in (0.05, 0.25, 0.5):
            early = _window_tv(A, X, target, t_max, proj, eps=eps)
            assert np.array_equal(early, whole[:len(early)])
            assert _settle_time(early, eps) == _settle_time(whole, eps)


def test_certified_stops_end_periodic_and_mixed_scans(monkeypatch):
    # the direction lift of the 16-cycle has period 2: a vertex start is on
    # one parity class, which holds half of pi, so its full-state and
    # every-vertex marginal scans are UNMIXED from step 0; a start spread
    # evenly over both classes mixes, and its scan stops once certified
    L = diaconis_cycle_lift(16)
    pi = uniform_distribution(16)
    lengths = _recorded_scan_lengths(monkeypatch)
    monkeypatch.setattr(cli_module, "_window_tv", lift_module._window_tv)
    assert full_mixing_time(L, 0.25, "s", 1500) == UNMIXED
    assert marginal_mixing_time(L, pi, 0.25, "s", 1500) == UNMIXED
    assert lengths == [1, 1]
    lengths.clear()
    spread = Distribution(np.r_[np.full(16, 1 / 32), np.full(16, 1 / 32)])
    tau = _tau_from_start(L, pi, spread, 0.25, 1600)
    assert tau == 0 and lengths == [1]
    x0 = Distribution(np.r_[[0.5, 0.5], np.zeros(30)])  # nodes 0 and 1, clockwise
    tau = _tau_from_start(L, pi, x0, 0.25, 1600)
    assert 0 < tau < lengths[-1] < 1601
    assert tau == _settle_time(_whole_window_tv(L.A.entries, x0.weights, pi.weights,
                                                1600, L.map.C), 0.25)


def _chunked_scan_lift(rng):
    """A replicated lift or a mixer of any of the three variants, a
    direction lift (period 2) or a periodic-clock lift (period T)."""
    kind = int(rng.integers(0, 4))
    if kind < 2:
        return _random_lift(rng, mixer_variants=("reducible", "flows", "irreducible"))[0]
    if kind == 2:
        return diaconis_cycle_lift(int(rng.choice([4, 6, 8])))
    g = random_connected_graph(rng, n_max=5)
    pi = random_distribution(rng, g.n)
    return periodic_clock_lift(g, stochastic_bridge(g, pi, pi))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 80), st.sampled_from([1, 3, 7]))
def test_chunked_full_state_scan_gives_the_whole_window_tau(seed, t_max, width):
    rng = rng_from_seed(seed)
    L = _chunked_scan_lift(rng)
    A, n = L.A, L.map.lifted_n
    Pi, H = A._ergodic
    Z = _ergodic_limits(A, None)  # one broadcast column for an irreducible A
    whole = _whole_window_tv(A.entries, None, Z, t_max)
    taus = []

    def recording(*args, **kwargs):
        worst = _window_tv(*args, **kwargs)
        taus.append(_settle_time(worst, kwargs["eps"]))
        return worst

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(markov_module, "_CHUNK_WIDTH", width)
        chunks = list(_vertex_chunks(n, Pi, H))
        mp.setattr(markov_module, "_window_tv", recording)
        for eps in (0.05, 0.25, 0.5):
            taus.clear()
            tau = full_mixing_time(L, eps, "s", t_max)
            assert tau == _settle_time(whole, eps)
            # one scan per chunk, up to the first UNMIXED one
            assert UNMIXED not in taus[:-1]
            assert len(taus) == len(chunks) or taus[-1] == UNMIXED
            if H is None:  # the chain's own every-vertex scan, chunked alike
                assert mixing_time(A, stationary(A), eps, t_max) == tau
    # the chunks split the identity in order, at least two columns wide, and
    # their targets are Z's columns bit for bit
    w = max(width, 2)
    assert all(min(n, w) <= X.shape[1] < 2 * w for X, _ in chunks)
    assert np.array_equal(np.hstack([X for X, _ in chunks]), np.eye(n))
    at = 0
    for X, target in chunks:
        assert np.array_equal(target, Z if H is None else Z[:, at:at + X.shape[1]])
        at += X.shape[1]
    # each chunk's TVs are the whole batch's columns, summed in the same order
    chunked = np.max([_window_tv(A, X, target, t_max) for X, target in chunks], axis=0)
    assert np.array_equal(chunked, whole)


def test_full_state_scan_peaks_below_one_dense_lifted_array():
    # 1,152 states: one dense lifted array is 10.6 MB, and the whole-batch
    # scan held its identity, target, gap buffer and state at once
    L = diameter_mixer(cycle(12), uniform_distribution(12), "reducible")
    n = L.map.lifted_n
    assert n == 1152
    tracemalloc.start()
    try:
        tau = full_mixing_time(L, 0.25, "s")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tau == 7
    assert peak < n * n * 8


@pytest.mark.parametrize("eps", [0.0, 1.0, float("nan")])
def test_mixing_times_reject_eps_outside_the_open_unit_interval(eps):
    L = four_cycle_lift(0.05, 0.01)[0]
    pi = uniform_distribution(4)
    with pytest.raises(DimensionMismatch):
        mixing_time(lazy_walk(cycle(4)), pi, eps)
    with pytest.raises(DimensionMismatch):
        marginal_mixing_time(L, pi, eps, "S")
    with pytest.raises(DimensionMismatch):
        full_mixing_time(L, eps, "S")


def test_scans_read_the_decomposition_only_for_a_certificate():
    # a scan without eps reads only the CSR form; the adjoint marginal scan
    # takes the periodic certificate, which needs the cyclic classes but
    # not the law pi-hat
    pi = uniform_distribution(6)
    L = diameter_mixer(cycle(6), pi, "irreducible")
    check_invariance(L, pi, "S")
    assert "_cyclic" not in L.A.__dict__ and "_ergodic" not in L.A.__dict__
    marginal_mixing_time(L, pi, 0.25, "s")
    assert "_cyclic" in L.A.__dict__ and "_ergodic" not in L.A.__dict__


def _counted_sparse_products(monkeypatch):
    products = []
    for cls in (csr_array, csc_array):  # A and its transpose A.T
        def counting(S, other, _matmul=cls.__matmul__):
            products.append(S.shape)
            return _matmul(S, other)

        monkeypatch.setattr(cls, "__matmul__", counting)
    return products


def test_frozen_scans_stop_at_the_freeze(monkeypatch):
    # every start of the reducible mixer is held in its top layer within
    # D + 2 steps; from there each step returns its state bit for bit
    g, pi = cycle(6), uniform_distribution(6)
    L = diameter_mixer(g, pi, "reducible")
    D, t_max = diameter(g), 10_000
    lengths = _recorded_scan_lengths(monkeypatch)
    monkeypatch.setattr(cli_module, "_window_tv", lift_module._window_tv)  # the same recorder
    products = _counted_sparse_products(monkeypatch)
    assert marginal_mixing_time(L, pi, 0.25, "s", t_max) == UNMIXED
    assert 0 < len(products) <= D + 3
    products.clear()
    assert _tau_from_start(L, pi, point_distribution(L.map.lifted_n, 0), 0.25, t_max) == 3
    assert 0 < len(products) <= D + 3
    assert lengths == [t_max + 1, t_max + 1]


def test_report_path_never_forms_the_dense_lifted_view(monkeypatch):
    # the mixer is built as CSR, written as triplets and read back as CSR;
    # no report converts a dense lifted array to CSR, and a designed-start
    # report reads C A, the flows and the locality off the CSR form
    g, pi = cycle(12), random_distribution(rng_from_seed(0), 12)
    L = diameter_mixer(g, pi, "reducible")
    n = L.map.lifted_n
    conversions = []

    class Counting(csr_array):
        def __init__(self, arg, *args, **kwargs):
            if isinstance(arg, np.ndarray) and arg.shape == (n, n):
                conversions.append(arg)
            super().__init__(arg, *args, **kwargs)

    for module in [m for key, m in sys.modules.items() if key.startswith("liftmix")]:
        if hasattr(module, "csr_array"):
            monkeypatch.setattr(module, "csr_array", Counting)
    back = lift_from_json(json.loads(json.dumps(lift_to_json(L))))
    report = scenario_report(back, "SIMRE", pi)
    assert report["measured"]["marginal"]["mixed"]
    check_invariance(back, pi, "s")
    pi_hat = Distribution(_ergodic_limits(back.A, back.F @ pi.weights))
    check_flow_match(back, pi_hat, metropolis_chain(g, pi))
    assert conversions == []
    for A in (L.A, back.A):
        assert A.n == n and "entries" not in vars(A)
    assert "lifted" not in vars(back)


def test_marginal_step_and_thm2_never_form_the_dense_view(monkeypatch):
    # unlift_si reads C A and conditional_unlift its flows off A's CSR form, and thm2's
    # exact-at-diameter row is a window scan: no sparse-built matrix gets
    # its dense view, except an irreducible one, whose stationary law is
    # still a dense least-squares solve
    built = []
    dense = StochasticMatrix.entries

    def spying(self):
        built.append(self)
        return dense.func(self)

    spy = functools.cached_property(spying)
    spy.__set_name__(StochasticMatrix, "entries")
    monkeypatch.setattr(StochasticMatrix, "entries", spy)
    pi = random_distribution(rng_from_seed(1), 6)
    L = diameter_mixer(cycle(6), pi, "reducible")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the mixer's step depends on the representative
        unlift_si(L, [fiber[0] for fiber in L.map.fibers])
    conditional_unlift(L, fiber_uniform_init(L.map, pi))
    assert built == []
    assert run_suite("thm2", 0)[1]
    assert len(built) == 2 and all(is_irreducible(A) for A in built)


def test_lower_bound_is_the_rule_of_the_report_thm3_and_example3():
    # the three rules it replaces, written out: scenario_report's entry,
    # thm3's bound shifted by one, and example3's 1/(8 phi) row
    slack = TOL["bound_slack"]

    def report_rule(tau, phi, factor):
        value = UNMIXED if phi == 0 else 1.0 / (factor * phi)
        if tau == UNMIXED:
            return value, True
        if value == UNMIXED:
            return value, False
        return value, tau >= value - 1 - slack

    def thm3_rule(tau, phi):
        bound = UNMIXED if phi == 0 else 1.0 / (4.0 * phi) - 1.0
        return bound, (tau == UNMIXED if bound == UNMIXED else tau >= bound - slack)

    def example3_rule(tau, pg):
        bound = 1.0 / (8.0 * pg)
        return bound, tau >= bound - 1 - slack

    # 5e-324 is the smallest subnormal: 1/(k phi) overflows to inf
    for phi in (0.0, 5e-324, 0.0625, 0.1, 1 / 3, 0.5):
        for factor in (4.0, 8.0):
            taus = [UNMIXED, 0.0, 7.0]
            if phi != 0 and 1.0 / (factor * phi) != UNMIXED:
                edge = 1.0 / (factor * phi) - 1 - slack
                taus += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
                assert [_lower_bound(tau, phi, factor)[1] for tau in taus[-3:]] == [
                    False, True, True]
            for tau in taus:
                value, ok = _lower_bound(tau, phi, factor)
                assert (value, ok) == report_rule(tau, phi, factor)
                if factor == 4.0:
                    assert (value - 1.0, ok) == thm3_rule(tau, phi)
                if factor == 8.0 and phi != 0:
                    assert (value, ok) == example3_rule(tau, phi)
    assert _lower_bound(5.0, 5e-324, 4.0) == (UNMIXED, False)
    assert _lower_bound(UNMIXED, 0.0, 8.0) == (UNMIXED, True)


def test_bundle_round_trip_is_byte_identical():
    # the forms whose stored entries renormalise to themselves on loading
    lifts = [diameter_mixer(cycle(8), uniform_distribution(8), "reducible"),
             diaconis_cycle_lift(16), four_cycle_lift(0.05, 0.01)[0]]
    for L in lifts:
        text = json.dumps(lift_to_json(L))
        assert json.dumps(lift_to_json(lift_from_json(json.loads(text)))) == text
    # with a random pi the load renormalises a few entries by an ulp (an open
    # defect); the triplet reader then still matches the dense-rows reader
    L = diameter_mixer(cycle(8), random_distribution(rng_from_seed(3), 8), "reducible")
    bundle = lift_to_json(L)
    rows = dict(bundle, A=L.A.to_json())
    assert lift_to_json(lift_from_json(bundle)) == lift_to_json(lift_from_json(rows))


def test_scenario_parse_and_format_round_trip():
    for text in ("sImre", "SIMRE", "sImrE", "SiMre"):
        assert format_scenario(parse_scenario(text)) == text
    spec = parse_scenario("SImre:0.001")
    assert spec.delta == pytest.approx(0.001)
    assert format_scenario(spec) == "SImre:0.001"


def test_scenario_validation_errors():
    with pytest.raises(BadScenario):
        parse_scenario("sImr")  # too short
    with pytest.raises(BadScenario):
        parse_scenario("zImre")
    with pytest.raises(BadScenario):
        parse_scenario("sImre0.1")  # suffix without the colon
    with pytest.raises(BadScenario):
        parse_scenario("sImre:abc")
    with pytest.raises(BadScenario):
        ScenarioSpec("s", "I", "M", "r", "E", delta=0.1)  # budget without 'e'
    with pytest.raises(BadScenario):
        ScenarioSpec("s", "I", "M", "r", "e", delta=-0.1)


def test_scenario_requires_reference_for_pinned_flows():
    spec = parse_scenario("sImre")
    with pytest.raises(MissingReferenceChain):
        spec.require_reference()
    walk = StochasticMatrix(simple_walk_entries(4), locality=cycle(4))
    assert parse_scenario("sImre", reference_chain=walk).require_reference() is walk


def bounds_by_name(report: dict) -> dict:
    return {b["name"]: b for b in report["bounds"]}


def test_scenario_report_uncontrolled_direction_lift():
    # pinned flows against the lift's own induced chain: the 1/(4 phi)
    # lower bound binds, and an unmixed chain is trivially consistent
    N = 16
    L = diaconis_cycle_lift(N)
    pi = uniform_distribution(N)
    ref = induced_chain(L, lifted_stationary(L, fiber_uniform_init(L.map, pi)))
    report = scenario_report(L, parse_scenario("sImrE", reference_chain=ref), pi)
    assert report["scenario"] == "sImrE"
    assert report["measured"]["marginal"]["mixed"] is False
    lower = bounds_by_name(report)["one-over-4-phi"]
    assert lower["binding"] is True
    assert lower["phi"] == pytest.approx(0.125)
    assert lower["phi_source"] == "reference-chain"
    assert lower["value"] == pytest.approx(2.0)
    assert lower["consistent"] is True


def test_scenario_report_reducible_mixer_diameter_bound():
    g = barbell(6)
    pi = uniform_distribution(12)
    L = diameter_mixer(g, pi, variant="reducible")
    report = scenario_report(L, "SIMRE", pi)
    assert report["measured"]["marginal"] == {"tau": 3, "mixed": True}
    upper = bounds_by_name(report)["diameter-plus-one"]
    assert upper["binding"] is True
    assert upper["value"] == pytest.approx(4.0)
    assert upper["consistent"] is True
    assert report["verdicts"]["invariance"]["ok"] is None  # 'I' imposes nothing


def test_scenario_report_four_cycle_beats_reference_bound():
    L, ref = four_cycle_lift(0.05, 0.01)
    pi = uniform_distribution(4)
    report = scenario_report(L, parse_scenario("SiMre", reference_chain=ref), pi)
    by_name = bounds_by_name(report)

    yardstick = by_name["one-over-4-phi"]
    assert yardstick["binding"] is False
    assert yardstick["value"] == pytest.approx(5.0746, abs=1e-3)
    assert yardstick["consistent"] is False  # beaten on purpose
    assert any("feature of the scenario" in n for n in report["notes"])

    graph_bound = by_name["one-over-8-phi"]
    assert graph_bound["binding"] is True
    assert graph_bound["phi"] == pytest.approx(0.5)
    assert graph_bound["phi_source"] == "graph"
    assert graph_bound["value"] == pytest.approx(0.25)
    assert graph_bound["consistent"] is True

    assert report["verdicts"]["flow_match"]["ok"] is True
    assert report["verdicts"]["flow_match"]["max_dev"] <= 1e-9
    assert report["measured"]["marginal"]["tau"] == 2


def test_scenario_report_embeds_tool_and_tolerances():
    P = StochasticMatrix(0.5 * (np.eye(4) + simple_walk_entries(4)), locality=cycle(4))
    L = si_replicated_lift(P, copies=2)
    report = scenario_report(L, "siMRE", uniform_distribution(4))
    assert report["tool"]["name"] == "liftmix"
    assert set(report["tolerances"]) >= {
        "invariance_one_step", "invariance_horizon_tv", "steady_state_residual",
    }
    assert report["sizes"] == {"base": 4, "lifted": 8}
    assert report["verdicts"]["invariance"]["ok"] is True
    assert report["verdicts"]["irreducible"]["ok"] is None


def test_lift_json_round_trip():
    for L in (diaconis_cycle_lift(6), four_cycle_lift(0.05, 0.01)[0]):
        obj = lift_to_json(L)
        back = lift_from_json(obj)
        assert np.allclose(back.A.entries, L.A.entries, atol=0)
        assert np.array_equal(back.map.projection, L.map.projection)
        assert back.metadata == L.metadata
        if L.F is None:
            assert back.F is None
        else:
            assert np.allclose(back.F, L.F, atol=0)
        assert back.base.arcs == L.base.arcs
        assert back.lifted.arcs == L.lifted.arcs


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sparse_bundle_round_trip_matches_the_dense_reader(seed):
    # A is written as the exact nonzero triplets of its stored entries, and
    # read back to the bits a dense "rows" bundle of the same entries gives.
    # Both readers renormalise the columns once more, which can move a last
    # bit against L.A.entries itself, so the dense reader is the reference.
    L, _ = _random_lift(rng_from_seed(seed), ("reducible", "flows", "irreducible"))
    obj = lift_to_json(L)
    A = obj["A"]
    assert "rows" not in A and A["n"] == L.map.lifted_n
    rebuilt = np.zeros((A["n"], A["n"]))
    rebuilt[A["row"], A["col"]] = A["value"]
    assert np.array_equal(rebuilt, L.A.entries)
    assert [A["row"], A["col"]] == [a.tolist() for a in np.nonzero(L.A.entries)]
    back = lift_from_json(obj)
    dense = lift_from_json({**obj, "A": L.A.to_json()})
    assert np.array_equal(back.A.entries, dense.A.entries)


def test_lift_json_rejects_nan_in_init_map():
    # json.load accepts NaN, and NaN compares False against any tolerance;
    # F is read from dense "rows" as from triplets
    L = four_cycle_lift(0.05, 0.01)[0]
    rows = lift_to_json(L)
    rows["F"] = {"rows": L.F.tolist()}
    rows["F"]["rows"][0][0] = float("nan")
    triplets = lift_to_json(L)
    triplets["F"]["value"][0] = float("nan")
    for obj in (rows, triplets):
        with pytest.raises(DimensionMismatch):
            lift_from_json(obj)


def _random_init_lift(rng) -> Lift:
    """A lift with an init map: a diameter mixer of each variant, a
    node-clock or a clock lift of a small random graph, or the four-cycle
    lift."""
    g = random_connected_graph(rng, n_max=4)
    pi = random_distribution(rng, g.n)
    kind = int(rng.integers(0, 6))
    if kind < 3:
        return diameter_mixer(g, pi, ("reducible", "flows", "irreducible")[kind])
    if kind == 3:
        bridges = [stochastic_bridge(g, point_distribution(g.n, i), pi) for i in range(g.n)]
        return node_clock_lift(g, bridges, pi)
    if kind == 4:
        return clock_lift(g, stochastic_bridge(g, point_distribution(g.n, 0), pi))
    return four_cycle_lift(0.05, 0.01)[0]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_init_map_triplets_round_trip_like_dense_rows(seed):
    # F is written as the nonzero triplets of its entries in row-major order,
    # and read back to the bits a dense "rows" bundle of the same F gives
    L = _random_init_lift(rng_from_seed(seed))
    obj = json.loads(json.dumps(lift_to_json(L)))
    F = obj["F"]
    row, col = np.nonzero(L.F)
    assert F == {"row": row.tolist(), "col": col.tolist(),
                 "value": L.F[row, col].tolist()}
    back = lift_from_json(obj)
    dense = lift_from_json({**obj, "F": {"rows": L.F.tolist()}})
    assert np.array_equal(back.F, dense.F)


@pytest.mark.parametrize("change, error", [
    (lambda F, shape: {"row": [float(F["row"][0])] + F["row"][1:]}, BadSize),
    (lambda F, shape: {"col": [True] + F["col"][1:]}, BadSize),
    (lambda F, shape: {"row": F["row"][:-1] + [shape[0]]}, BadSize),
    (lambda F, shape: {"col": [-1] + F["col"][1:]}, BadSize),
    (lambda F, shape: {"col": F["col"][:-1] + [shape[1]]}, BadSize),
    (lambda F, shape: {key: v + v[-1:] for key, v in F.items()}, BadSize),  # a pair twice
    (lambda F, shape: {"value": F["value"][:-1]}, LengthMismatch),
    (lambda F, shape: {"col": F["col"][1:]}, LengthMismatch),
    (lambda F, shape: {"value": [str(F["value"][0])] + F["value"][1:]}, BadColumnSum),
    (lambda F, shape: {"value": [True] + F["value"][1:]}, BadColumnSum),
], ids=["float-index", "bool-index", "row-past-end", "negative-col", "col-past-end",
        "repeated-pair", "short-value", "short-col", "str-value", "bool-value"])
def test_lift_json_rejects_malformed_init_map_triplets(change, error):
    obj = lift_to_json(four_cycle_lift(0.05, 0.01)[0])
    shape = (len(obj["projection"]), obj["base"]["n"])
    obj["F"] = {**obj["F"], **change(obj["F"], shape)}
    with pytest.raises(error):
        lift_from_json(obj)


def _lazy_cycle_walk(n):
    return StochasticMatrix(0.5 * (np.eye(n) + simple_walk_entries(n)), locality=cycle(n))


def test_scenario_phi_source_across_the_report_guard():
    # the graph program runs on bases up to 14 nodes (the best chain on an
    # even cycle reaches 2/n); past that the induced chain, here the lazy
    # walk, whose bottleneck is a half cycle, stands in with a note saying so
    for n, source, phi in ((14, "graph", 2 / 14), (16, "induced-chain", 1 / 16),
                           (25, "induced-chain", 1 / 24)):
        L = si_replicated_lift(_lazy_cycle_walk(n), copies=2)
        report = scenario_report(L, "sIMRE", uniform_distribution(n))
        lower = bounds_by_name(report)["one-over-4-phi"]
        assert lower["phi_source"] == source
        assert lower["phi"] == pytest.approx(phi, abs=1e-9)
        guard_notes = [note for note in report["notes"] if "guard" in note]
        assert len(guard_notes) == (source != "graph")


def test_scenario_phi_reference_chain_past_the_report_guard():
    # with a reference chain, the graph-first 1/(8 phi) bound falls back to
    # it past the guard, and the 1/(4 phi) bound reads it without a note
    P = _lazy_cycle_walk(16)
    L = si_replicated_lift(P, copies=2)
    spec = parse_scenario("siMRE", reference_chain=P)
    report = scenario_report(L, spec, uniform_distribution(16))
    by_name = bounds_by_name(report)
    for name in ("one-over-4-phi", "one-over-8-phi"):
        assert by_name[name]["phi_source"] == "reference-chain"
        assert by_name[name]["phi"] == pytest.approx(1 / 16, abs=1e-9)
    guard_notes = [note for note in report["notes"] if "guard" in note]
    assert len(guard_notes) == 1 and "reference chain" in guard_notes[0]


def test_scenario_phi_reference_chain_past_the_cut_guard():
    # a cycle-supported reference chain past 24 nodes feeds the bound from
    # phi_chain_cycle's contiguous windows
    ref, pi = lazy_walk(cycle(26)), uniform_distribution(26)
    report = scenario_report(diaconis_cycle_lift(26), parse_scenario("sIMRE", ref), pi)
    lower = bounds_by_name(report)["one-over-4-phi"]
    assert lower["phi_source"] == "reference-chain"
    assert lower["phi"] == phi_chain_cycle(ref, pi)[0]


def test_scenario_report_notes_a_reducible_lift_under_flow_matching():
    # the flows mixer is reducible, so its flow verdict holds for one seed only
    g, pi = cycle(6), uniform_distribution(6)
    ref = lazy_walk(g)
    for variant, noted in (("flows", True), ("irreducible", False)):
        L = diameter_mixer(g, pi, variant, reference=ref)
        report = scenario_report(L, parse_scenario("SIMRe", ref), pi)
        assert report["verdicts"]["flow_match"] is not None
        assert any(note.startswith("lift is reducible") for note in report["notes"]) is noted


def test_scenario_report_omits_the_diameter_bound_under_exact_flows():
    # S I r e claims no construction when flows must match exactly; a
    # positive deviation budget brings the diameter-plus-one bound back
    g, pi = cycle(6), uniform_distribution(6)
    ref = lazy_walk(g)
    L = diameter_mixer(g, pi, "flows", reference=ref)
    for scenario, omitted in (("SIMre", True), ("SIMre:0", True), ("SIMre:0.1", False)):
        report = scenario_report(L, parse_scenario(scenario, ref), pi)
        assert ("diameter-plus-one" not in bounds_by_name(report)) is omitted
        assert any("diameter upper bound is omitted" in note
                   for note in report["notes"]) is omitted


def test_scenario_report_runs_graph_program_once(monkeypatch):
    # siMRE without a reference chain feeds both lower bounds from phi_graph
    import liftmix.lift as lift_module

    calls = []

    def counting_phi_graph(g, pi):
        calls.append(g.n)
        return phi_graph(g, pi)

    monkeypatch.setattr(lift_module, "phi_graph", counting_phi_graph)
    L = si_replicated_lift(_lazy_cycle_walk(8), copies=2)
    report = scenario_report(L, "siMRE", uniform_distribution(8))
    by_name = bounds_by_name(report)
    assert by_name["one-over-4-phi"]["phi"] == by_name["one-over-8-phi"]["phi"]
    assert calls == [8]


def test_evolve_matches_lift_dynamics():
    # a lift's A is an ordinary stochastic matrix; evolve applies to it
    L, _ = four_cycle_lift(0.05, 0.01)
    x0 = Distribution(L.F @ uniform_distribution(4).weights)
    x3 = evolve(L.A, x0, 3)
    manual = np.linalg.matrix_power(L.A.entries, 3) @ x0.weights
    assert np.allclose(x3.weights, manual, atol=1e-14)


def test_flow_collapse_consistency():
    # collapsed lifted flows equal the induced chain's flows at the marginal
    L, _ = four_cycle_lift(0.05, 0.01)
    pi_hat = lifted_stationary(L, Distribution(L.F @ uniform_distribution(4).weights))
    ind = induced_chain(L, pi_hat)
    marg = marginal(L, pi_hat)
    collapsed = L.map.C @ (L.A.entries * pi_hat.weights[None, :]) @ L.map.C.T
    assert np.allclose(collapsed, ergodic_flows(ind, marg), atol=1e-14)
