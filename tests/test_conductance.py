"""Cut, chain, and graph conductance plus the bound-check helpers."""

import numpy as np
import pytest
from scipy.optimize import linprog

from liftmix import (
    BadGamma,
    Cut,
    DimensionMismatch,
    Distribution,
    EmptyCutWeight,
    NotStationary,
    StochasticMatrix,
    TooManyNodes,
    barbell,
    clock_contraction_check,
    complete,
    cycle,
    diameter_conductance_check,
    enumerate_cuts,
    ergodic_flows,
    four_cycle_lift,
    graph_from_edges,
    is_irreducible,
    lazy_walk,
    lemma1_check,
    metropolis_chain,
    path,
    phi_chain,
    phi_chain_cycle,
    phi_cut,
    phi_graph,
    stationary,
    uniform_distribution,
)
from liftmix.randomgen import (
    random_connected_graph,
    random_distribution,
    random_local_chain,
    random_zero_sum,
    rng_from_seed,
)


def brute_phi_cut(P: StochasticMatrix, pi, members) -> float:
    """Direct double-sum oracle for one cut ratio."""
    inside = set(members)
    flow = sum(
        P.entries[j, i] * pi.weights[i]
        for i in inside
        for j in range(P.n)
        if j not in inside
    )
    return flow / sum(pi.weights[i] for i in inside)


def full_cut_lp_phi(g, pi) -> float:
    """Graph conductance from the LP with one row for every cut: the
    permitted entries of P and t are the variables, columns sum to one,
    P pi = pi, and every cut's outflow is at least t * pi(X)."""
    n, w = g.n, pi.weights
    entries = [(i, i) for i in range(n)] + [(j, i) for (i, j) in sorted(g.arcs)]
    rows = np.array([e[0] for e in entries])
    cols = np.array([e[1] for e in entries])
    ne = len(entries)
    a_eq = np.zeros((2 * n, ne + 1))
    a_eq[cols, np.arange(ne)] = 1.0
    a_eq[n + rows, np.arange(ne)] = w[cols]
    b_eq = np.concatenate([np.ones(n), w])
    cuts = [c for c in enumerate_cuts(g, pi) if c.weight > 0.0]
    inside = np.array([[c.contains(i) for i in range(n)] for c in cuts])
    a_ub = np.zeros((len(cuts), ne + 1))
    a_ub[:, :ne] = -((inside[:, cols] & ~inside[:, rows]) * w[cols])
    a_ub[:, ne] = [c.weight for c in cuts]
    cost = np.zeros(ne + 1)
    cost[ne] = -1.0
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(len(cuts)), A_eq=a_eq,
                  b_eq=b_eq, bounds=[(0.0, 1.0)] * (ne + 1), method="highs")
    assert res.success
    return float(res.x[ne])


def simple_walk(g) -> StochasticMatrix:
    """Uniform step to a neighbor, no laziness."""
    M = np.zeros((g.n, g.n))
    for i in range(g.n):
        nbrs = g.out_neighbors(i)
        for j in nbrs:
            M[j, i] = 1.0 / len(nbrs)
    return StochasticMatrix(M, locality=g)


def test_phi_cut_identity_is_zero():
    P = StochasticMatrix(np.eye(4))
    pi = uniform_distribution(4)
    for X in enumerate_cuts(4, pi):
        assert phi_cut(P, pi, X) == 0.0


def test_phi_cut_barbell_bridge_prob_one():
    # all mass crossing the single central edge with probability 1 gives
    # ratio (1 * 1/2n) / (1/2) = 1/n for the left-clique cut
    for half in (3, 4, 5):
        g = barbell(half)
        n2 = 2 * half
        M = np.eye(n2)
        M[half, half - 1] = 1.0
        M[half - 1, half - 1] = 0.0
        P = StochasticMatrix(M, locality=g)
        pi = uniform_distribution(n2)
        left = Cut(member_mask=(1 << half) - 1, weight=0.5)
        assert phi_cut(P, pi, left) == pytest.approx(1.0 / half)


def test_phi_cut_k4_uniform_chain():
    P = StochasticMatrix(np.full((4, 4), 0.25))
    pi = uniform_distribution(4)
    X = Cut(member_mask=0b0011, weight=0.5)
    # 4 crossing pairs, each carrying (1/4)(1/4), over weight 1/2
    assert phi_cut(P, pi, X) == pytest.approx(0.5)
    assert brute_phi_cut(P, pi, [0, 1]) == pytest.approx(0.5)


def test_phi_cut_empty_weight():
    P = StochasticMatrix(np.eye(3))
    pi = Distribution([0.5, 0.5, 0.0])
    with pytest.raises(EmptyCutWeight):
        phi_cut(P, pi, Cut(member_mask=0b100, weight=0.0))


def test_phi_chain_identity_and_uniform_k4():
    pi = uniform_distribution(4)
    val, _ = phi_chain(StochasticMatrix(np.eye(4)), pi)
    assert val == 0.0
    val, X = phi_chain(StochasticMatrix(np.full((4, 4), 0.25)), pi)
    assert val == pytest.approx(0.5)
    assert len(X.members()) == 2  # a balanced pair is the bottleneck


def test_phi_chain_lazy_cycle4():
    val, X = phi_chain(lazy_walk(cycle(4)), uniform_distribution(4))
    # crossing flow of {0,1}: arcs 0->3 and 1->2, each (1/4)(1/4)
    assert val == pytest.approx(0.25)
    assert X.members() == [0, 1]


def test_phi_chain_is_min_over_cuts():
    rng = rng_from_seed(8)
    for _ in range(15):
        g = random_connected_graph(rng, n_max=7)
        P = random_local_chain(rng, g)
        if not is_irreducible(P):
            continue
        pi = stationary(P)
        val, X = phi_chain(P, pi)
        ratios = [phi_cut(P, pi, c) for c in enumerate_cuts(g, pi)]
        assert val == pytest.approx(min(ratios), abs=1e-12)
        assert phi_cut(P, pi, X) == pytest.approx(val, abs=1e-12)


def test_phi_chain_guards():
    with pytest.raises(NotStationary):
        phi_chain(lazy_walk(path(3)), uniform_distribution(3))
    n = 25
    P = StochasticMatrix(np.eye(n))
    with pytest.raises(TooManyNodes):
        phi_chain(P, uniform_distribution(n))


def test_phi_chain_four_cycle_reference_value():
    # reference chain of the three-layer cycle lift at delta=0.05, gamma=0.01:
    # conductance equals (1 - phi) * delta with phi = 1.5g/(1+2g)
    _, ref, phi, _ = four_cycle_lift(0.05, 0.01)
    expect = (1.0 - phi) * 0.05
    val, _ = phi_chain(ref, uniform_distribution(4))
    assert val == pytest.approx(expect, abs=1e-12)
    assert val == pytest.approx(0.0492647, abs=1e-7)


def test_phi_chain_cycle_agrees_with_enumeration():
    rng = rng_from_seed(19)
    for n in (4, 5, 6, 8):
        g = cycle(n)
        for _ in range(6):
            P = random_local_chain(rng, g)
            if not is_irreducible(P):
                continue
            pi = stationary(P)
            full_val, _ = phi_chain(P, pi)
            arc_val, X = phi_chain_cycle(P, pi)
            assert arc_val == pytest.approx(full_val, abs=1e-12)
            assert phi_cut(P, pi, X) == pytest.approx(full_val, abs=1e-12)


def test_phi_chain_cycle_rejects_an_off_cycle_entry():
    # lazy walk on the 6-cycle plus a symmetric chord 0 <-> 3: doubly
    # stochastic, so uniform is stationary and only locality can fail
    n = 6
    M = 0.5 * np.eye(n)
    for i in range(n):
        M[(i + 1) % n, i] = M[(i - 1) % n, i] = 0.25
    M[3, 0] = M[0, 3] = 0.1
    M[0, 0] = M[3, 3] = 0.4
    with pytest.raises(DimensionMismatch, match="cycle arcs only"):
        phi_chain_cycle(StochasticMatrix(M), uniform_distribution(n))


def test_phi_graph_path2_single_cut():
    # one cut {0}; the best chain swaps all mass across, ratio 1
    val, P = phi_graph(path(2), uniform_distribution(2))
    assert val == pytest.approx(1.0, abs=1e-8)
    assert P.entries[1, 0] == pytest.approx(1.0, abs=1e-8)


def test_phi_graph_k4_beats_half_and_matches_walk_witness():
    pi = uniform_distribution(4)
    val, P = phi_graph(complete(4), pi)
    assert val >= 0.5 - 1e-8
    # the plain simple walk is admissible and already achieves 2/3:
    # balanced cuts four crossing pairs * (1/3)(1/4) over 1/2 = 2/3,
    # singletons 3 * (1/3)(1/4) over 1/4 = 1, so the LP must reach 2/3
    walk = simple_walk(complete(4))
    wv, _ = phi_chain(walk, pi)
    assert wv == pytest.approx(2 / 3, abs=1e-12)
    assert val >= wv - 1e-8


def test_phi_graph_barbell_upper_bound():
    # the single central edge caps crossing flow at P=1, ratio <= 1/n
    for half in (3, 4):
        val, _ = phi_graph(barbell(half), uniform_distribution(2 * half))
        assert val <= 1.0 / half + 1e-8


def test_phi_graph_self_consistency_and_feasibility():
    rng = rng_from_seed(4)
    graphs = [path(3), cycle(5), barbell(3), complete(4)]
    graphs += [random_connected_graph(rng, n_max=7) for _ in range(4)]
    for g in graphs:
        pi = random_distribution(rng, g.n)
        val, P = phi_graph(g, pi)
        # returned optimizer is admissible: stationary for pi and local
        assert np.abs(P.entries @ pi.weights - pi.weights).max() <= 1e-8
        assert P.locality is g
        back, _ = phi_chain(P, pi)
        assert back == pytest.approx(val, abs=1e-8)


def test_phi_graph_dominates_admissible_chains():
    rng = rng_from_seed(6)
    for _ in range(8):
        g = random_connected_graph(rng, n_max=7)
        pi = random_distribution(rng, g.n)
        val, _ = phi_graph(g, pi)
        for witness in (
            metropolis_chain(g, pi),
            StochasticMatrix(
                0.5 * (np.eye(g.n) + metropolis_chain(g, pi).entries), locality=g
            ),
        ):
            wv, _ = phi_chain(witness, pi)
            assert val >= wv - 1e-8


def test_phi_graph_guard():
    with pytest.raises(TooManyNodes):
        phi_graph(cycle(25), uniform_distribution(25))


def test_phi_graph_matches_full_cut_lp():
    # cut generation must reach the optimum of the LP holding every cut
    rng = rng_from_seed(21)
    cases = [(g, uniform_distribution(g.n)) for g in (barbell(h) for h in range(3, 7))]
    cases += [(cycle(n), random_distribution(rng, n)) for n in range(4, 11)]
    for _ in range(8):
        g = random_connected_graph(rng, n=int(rng.integers(3, 13)))
        cases.append((g, random_distribution(rng, g.n)))
    for g, pi in cases:
        val, P = phi_graph(g, pi)
        assert abs(val - full_cut_lp_phi(g, pi)) <= 1e-9
        M = P.entries
        off = ~(np.eye(g.n, dtype=bool) | g.adjacency().T)
        assert (M[off] == 0.0).all()  # local: moves only along arcs
        assert M.min() >= 0.0
        assert np.abs(M.sum(axis=0) - 1.0).max() <= 1e-8
        assert np.abs(M @ pi.weights - pi.weights).max() <= 1e-8
        back, _ = phi_chain(P, pi)
        assert abs(back - val) <= 1e-9


def test_phi_graph_tightens_highs_when_a_cut_row_is_broken():
    # HiGHS's first solution of this LP broke a cut row by 4.3e-8: inside its
    # own 1e-7 primal tolerance, above phi_graph's 1e-8 check
    g = graph_from_edges(12, [
        (0, 1), (0, 2), (0, 10), (1, 2), (1, 4), (1, 5), (1, 7), (1, 9),
        (1, 10), (2, 3), (3, 5), (3, 6), (3, 8), (3, 11), (4, 6), (4, 8),
        (4, 10), (4, 11), (5, 7), (5, 11), (6, 9), (6, 10), (7, 9), (9, 10),
        (9, 11),
    ])
    pi = Distribution([
        0.12421808546650043, 0.061869068617657307, 0.1381500123034129,
        0.11245841335738141, 0.14304321153364752, 0.013351405074401973,
        0.016859535810970293, 0.02479503685943611, 0.05646001794645794,
        0.0832811915057528, 0.15743466454890773, 0.06807935697547358,
    ])
    val, P = phi_graph(g, pi)
    assert abs(val - 0.363365415783535) <= 1e-9
    assert abs(val - full_cut_lp_phi(g, pi)) <= 1e-9
    back, _ = phi_chain(P, pi)
    assert abs(back - val) <= 1e-9


def test_lemma1_t1_leakage_equals_cut_conductance():
    rng = rng_from_seed(12)
    for _ in range(10):
        g = random_connected_graph(rng, n_max=7)
        pi = random_distribution(rng, g.n)
        P = metropolis_chain(g, pi)
        cuts = enumerate_cuts(g, pi)
        X = cuts[int(rng.integers(len(cuts)))]
        leak, bound, ok = lemma1_check(P, pi, X, 1)
        assert ok
        assert leak == pytest.approx(phi_cut(P, pi, X), abs=1e-12)
        assert bound == pytest.approx(phi_cut(P, pi, X) + 1e-9)


def test_lemma1_identity_never_leaks():
    pi = uniform_distribution(5)
    P = StochasticMatrix(np.eye(5))
    for t in (1, 5, 20):
        leak, _, ok = lemma1_check(P, pi, Cut(member_mask=0b00111, weight=0.6), t)
        assert leak == 0.0 and ok


def test_lemma1_500_random_instances():
    rng = rng_from_seed(0)
    violations = 0
    for k in range(500):
        g = random_connected_graph(rng, n_max=8)
        if k % 2:
            P = random_local_chain(rng, g)
            if not is_irreducible(P):
                continue
            pi = stationary(P)
        else:
            pi = random_distribution(rng, g.n)
            P = metropolis_chain(g, pi)
        cuts = enumerate_cuts(g, pi)
        X = cuts[int(rng.integers(len(cuts)))]
        t = int(rng.integers(1, 21))
        _, _, ok = lemma1_check(P, pi, X, t)
        violations += not ok
    assert violations == 0


def test_diameter_conductance_examples():
    g = cycle(16)
    pi = uniform_distribution(16)
    lhs, rhs, ok = diameter_conductance_check(lazy_walk(g), pi, 8)
    assert ok and lhs <= rhs
    val, P = phi_graph(barbell(3), uniform_distribution(6))
    lhs, rhs, ok = diameter_conductance_check(P, uniform_distribution(6), 3)
    assert ok
    assert lhs == pytest.approx(val, abs=1e-8)
    assert rhs == pytest.approx(4 * np.log(6.0) / 2)


def test_diameter_conductance_d2_random():
    rng = rng_from_seed(33)
    for _ in range(10):
        g = random_connected_graph(rng, n_max=8)
        pi = random_distribution(rng, g.n)
        P = metropolis_chain(g, pi)
        _, _, ok = diameter_conductance_check(P, pi, 2)
        assert ok


def test_clock_contraction_zero_vector():
    ratio, bound, ok = clock_contraction_check(5, 0.01, np.zeros(7))
    assert ratio == 0.0 and ok
    assert bound == pytest.approx(0.12)


def test_clock_contraction_random_q0():
    rng = rng_from_seed(1)
    for D in (2, 5, 10):
        gamma = 0.4 / (2 * (D + 1))
        for _ in range(20):
            q0 = random_zero_sum(rng, D + 2)
            ratio, bound, ok = clock_contraction_check(D, gamma, q0)
            assert ok
            assert ratio <= bound + 1e-9
            assert bound == pytest.approx(2 * (D + 1) * gamma)


def test_clock_contraction_gamma_guard():
    q0 = np.zeros(7)
    with pytest.raises(BadGamma):
        clock_contraction_check(5, 1.0 / 12.0, q0)  # not strictly below
    with pytest.raises(BadGamma):
        clock_contraction_check(5, 0.0, q0)


def test_flows_of_lp_chain_cross_every_cut():
    # the optimizer must push at least phi * pi(X) across each cut; the
    # 16-node cycle is past the size the LP once had to stop at
    cases = [(cycle(6), uniform_distribution(6))]
    cases.append((cycle(16), random_distribution(rng_from_seed(16), 16)))
    for g, pi in cases:
        val, P = phi_graph(g, pi)
        Q = ergodic_flows(P, pi)
        cuts = enumerate_cuts(g, pi)
        inside = np.array([[X.contains(i) for i in range(g.n)] for X in cuts])
        crossing = ((~inside @ Q) * inside).sum(axis=1)
        weights = np.array([X.weight for X in cuts])
        assert (crossing >= val * weights - 1e-8).all()
