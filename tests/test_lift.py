"""Lift maps, projections, invariance checks, scenario machinery."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftmix import (
    BadScenario,
    DimensionMismatch,
    Distribution,
    EmptyCutWeight,
    Graph,
    InitMap,
    Lift,
    LiftMap,
    LocalityViolation,
    MissingInitMap,
    MissingReferenceChain,
    NotStationary,
    ScenarioSpec,
    StochasticMatrix,
    UNMIXED,
    ZeroMarginalSupport,
    adversarial_init,
    barbell,
    check_flow_match,
    check_invariance,
    clock_lift,
    conditional_unlift,
    cycle,
    diaconis_cycle_lift,
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
    lift_from_json,
    lift_to_json,
    lifted_stationary,
    marginal,
    marginal_mixing_time,
    mixing_time,
    parse_scenario,
    path,
    phi_chain,
    phi_graph,
    point_distribution,
    scenario_report,
    si_replicated_lift,
    stationary,
    stochastic_bridge,
    uniform_distribution,
    unlift_si,
)
from liftmix.cli import _tau_from_start
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


def test_init_map_columns_confined_to_fibers():
    m = LiftMap(base_n=2, projection=(0, 1, 0))
    F = np.array([[0.5, 0.0], [0.0, 1.0], [0.5, 0.0]])
    im = InitMap(map=m, entries=F)
    assert np.allclose(m.C @ im.entries, np.eye(2))
    with pytest.raises(LocalityViolation):
        InitMap(map=m, entries=np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]]))
    with pytest.raises(DimensionMismatch):
        InitMap(map=m, entries=np.eye(3))


def test_lift_validation_catches_bad_arcs_and_dynamics():
    base = graph_from_edges(2, [])  # two isolated base nodes
    lifted = graph_from_edges(2, [(0, 1)], directed=True)
    m = LiftMap(base_n=2, projection=(0, 1))
    A = StochasticMatrix(np.eye(2))
    with pytest.raises(LocalityViolation):
        Lift(base=base, lifted=lifted, map=m, A=A)

    base2 = path(2)
    lifted2 = graph_from_edges(3, [(0, 2), (2, 0)], directed=True)
    m2 = LiftMap(base_n=2, projection=(0, 0, 1))
    bad = np.array([[0.5, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(LocalityViolation):
        # mass flows 1 -> 1 is fine, but 0 -> 1 has no lifted arc (0,1)
        Lift(base=base2, lifted=lifted2, map=m2,
             A=StochasticMatrix(bad))


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
    # the lift that never leaves copy 0 still unlifts cleanly when copy 1
    # holds no mass: empty fibers get the uniform spread convention
    P = StochasticMatrix(simple_walk_entries(4), locality=cycle(4))
    L = si_replicated_lift(P, copies=2)
    x = np.zeros(8)
    x[:4] = 0.25
    back = conditional_unlift(L, Distribution(x))
    assert np.allclose(back.entries, P.entries, atol=1e-12)


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
    L, _, _, _ = four_cycle_lift(0.05, gamma)
    pi_hat = lifted_stationary(L, L.F.apply(uniform_distribution(4)))
    layer = np.array([gamma, gamma, 1.0]) / (1.0 + 2.0 * gamma)
    expect = np.kron(layer, np.full(4, 0.25))
    assert np.abs(pi_hat.weights - expect).max() <= 1e-12


def test_lifted_stationary_reducible_depends_on_seed():
    g = path(4)
    bridge = stochastic_bridge(g, point_distribution(4, 0), uniform_distribution(4))
    L = clock_lift(g, bridge)
    from_design = lifted_stationary(L, L.F.apply(point_distribution(4, 0)))
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
    L, _, _, _ = four_cycle_lift(0.05, 0.01)
    ok, witness = check_invariance(L, uniform_distribution(4), "S")
    assert ok and witness is None


def test_check_invariance_S_fails_on_reducible_mixer():
    # the bridges pass through intermediate marginals that are not pi
    pi = Distribution([0.1, 0.2, 0.3, 0.4])
    L = diameter_mixer(path(4), pi, "reducible")
    ok, witness = check_invariance(L, pi, "S")
    assert not ok
    assert np.array_equal(witness.weights, L.F.entries @ pi.weights)


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
    L, ref, _, _ = four_cycle_lift(0.05, 0.01)
    pi_hat = lifted_stationary(L, L.F.apply(uniform_distribution(4)))
    dev, ok = check_flow_match(L, pi_hat, ref)
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
    L, _, _, _ = four_cycle_lift(0.05, 0.01)
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
    L, _, _, _ = four_cycle_lift(0.05, 0.01)
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
    L, ref, _, _ = four_cycle_lift(0.05, 0.01)
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
        assert back.map.projection == L.map.projection
        assert back.metadata == L.metadata
        if L.F is None:
            assert back.F is None
        else:
            assert np.allclose(back.F.entries, L.F.entries, atol=0)
        assert back.base.arcs == L.base.arcs
        assert back.lifted.arcs == L.lifted.arcs


def test_lift_json_rejects_nan_in_init_map():
    # json.load accepts NaN, and NaN compares False against any tolerance
    obj = lift_to_json(four_cycle_lift(0.05, 0.01)[0])
    obj["F"]["rows"][0][0] = float("nan")
    with pytest.raises(DimensionMismatch):
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
    L, _, _, _ = four_cycle_lift(0.05, 0.01)
    x0 = L.F.apply(uniform_distribution(4))
    x3 = evolve(L.A, x0, 3)
    manual = np.linalg.matrix_power(L.A.entries, 3) @ x0.weights
    assert np.allclose(x3.weights, manual, atol=1e-14)


def test_flow_collapse_consistency():
    # collapsed lifted flows equal the induced chain's flows at the marginal
    L, _, _, _ = four_cycle_lift(0.05, 0.01)
    pi_hat = lifted_stationary(L, L.F.apply(uniform_distribution(4)))
    ind = induced_chain(L, pi_hat)
    marg = marginal(L, pi_hat)
    collapsed = L.map.C @ (L.A.entries * pi_hat.weights[None, :]) @ L.map.C.T
    assert np.allclose(collapsed, ergodic_flows(ind, marg), atol=1e-14)
