"""Cut, chain, and graph conductance plus the bound-check helpers."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
    diameter_mixer,
    enumerate_cuts,
    ergodic_flows,
    four_cycle_lift,
    graph_from_edges,
    induced_chain,
    is_irreducible,
    lazy_walk,
    lemma1_check,
    lifted_stationary,
    marginal,
    metropolis_chain,
    path,
    phi_chain,
    phi_chain_cycle,
    phi_cut,
    phi_graph,
    stationary,
    uniform_distribution,
)
from liftmix import conductance
from liftmix._tolerances import TOL
from liftmix.conductance import (
    _CHUNK_BITS,
    _chunk_count,
    _cut_chunks,
    _cut_phis,
    _screen_bounds,
    _screen_cuts,
)
from liftmix.randomgen import (
    random_connected_graph,
    random_distribution,
    random_local_chain,
    random_reversible_chain,
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
    L, ref = four_cycle_lift(0.05, 0.01)
    phi = L.metadata["phi"]
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


def loop_phi_chain_cycle(P: StochasticMatrix, pi) -> tuple[float, Cut]:
    """phi_chain_cycle as a loop over every contiguous window: the oracle
    its array form must match bit for bit, lowest mask winning ties."""
    n, w, flows = P.n, pi.weights, ergodic_flows(P, pi)
    best, cap = None, 0.5 + TOL["cut_weight"]
    for a in range(n):
        weight = 0.0
        for length in range(1, n):
            b = (a + length - 1) % n
            weight += w[b]
            if weight > cap or weight <= 0.0:
                continue
            cross = flows[(a - 1) % n, a] + flows[(b + 1) % n, b]
            phi = max(cross, 0.0) / weight
            mask = 0
            for off_i in range(length):
                mask |= 1 << ((a + off_i) % n)
            if best is None or (phi, mask) < (best[0], best[1]):
                best = (phi, mask, weight)
    if best is None:
        raise EmptyCutWeight("no window carries positive stationary mass")
    return best[0], Cut(member_mask=best[1], weight=best[2])


def _with_a_zero_entry(rng, pi):
    """pi with one random entry set to 0, the rest rescaled to sum to 1."""
    w = pi.weights.copy()
    w[int(rng.integers(len(w)))] = 0.0
    return Distribution(w / w.sum())


def cycle_chain(pi, conductances) -> StochasticMatrix:
    """The pi-reversible chain on the standard cycle whose edge (i, i + 1)
    carries flow conductances[i] each way; a node of zero mass, whose two
    edges must carry 0, steps to its successor."""
    n, w = pi.n, pi.weights
    M = np.zeros((n, n))
    for i, c in enumerate(conductances):
        j = (i + 1) % n
        if c > 0.0:
            M[j, i], M[i, j] = c / w[i], c / w[j]
    for i in range(n):
        if w[i] == 0.0:
            M[(i + 1) % n, i] = 1.0
        else:
            M[i, i] = 1.0 - M[:, i].sum()
    return StochasticMatrix(M, locality=cycle(n))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 40), st.integers(0, 2**32 - 1), st.booleans(),
    st.sampled_from(["random", "dyadic", "zero-mass"]),
)
def test_phi_chain_cycle_matches_the_window_loop_bit_for_bit(n, seed, uniform, kind):
    # dyadic edge flows on uniform pi tie many windows exactly, zero flows
    # tie them at phi = 0, and a zero-mass node gives windows of weight 0
    rng = rng_from_seed(seed)
    pi = uniform_distribution(n) if uniform else random_distribution(rng, n)
    if kind == "zero-mass":
        pi = _with_a_zero_entry(rng, pi)
    w = pi.weights
    room = np.minimum(w, np.roll(w, -1)) / 2.0
    if kind == "dyadic":
        scale = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
    else:
        scale = rng.random(n)
    P = cycle_chain(pi, room * scale)
    phi, cut = phi_chain_cycle(P, pi)
    want, want_cut = loop_phi_chain_cycle(P, pi)
    assert (phi.hex(), cut.member_mask, cut.weight.hex()) == (
        want.hex(), want_cut.member_mask, want_cut.weight.hex()
    )


def full_scan_phi_chain(P: StochasticMatrix, pi) -> tuple[str, int, str]:
    """phi_chain as a scan of every cut computes it: `_cut_phis` over all
    `_cut_chunks` chunks, the lowest mask winning ties; floats as hex."""
    w = pi.weights
    best = (math.inf, 0, 0.0)
    chunks = _cut_chunks(P.n, w, range(_chunk_count(P.n)))  # every chunk
    for masks, _, weights, phis in _cut_phis(chunks, P.entries * w[None, :]):
        k = int(np.argmin(phis))
        if phis[k] < best[0]:
            best = (float(phis[k]), int(masks[k]), float(weights[k]))
    return best[0].hex(), best[1], best[2].hex()


def assert_matches_full_scan(P: StochasticMatrix, pi) -> Cut:
    phi, cut = phi_chain(P, pi)
    assert (phi.hex(), cut.member_mask, cut.weight.hex()) == full_scan_phi_chain(P, pi)
    return cut


def chain_with_transient_nodes(rng, n: int):
    """A reversible chain on the recurrent nodes and 1 to n // 2 transient
    nodes, at random positions, that drain into them: pi is 0 there."""
    transient = rng.permutation(n)[: int(rng.integers(1, n // 2 + 1))]
    recurrent = np.setdiff1d(np.arange(n), transient)
    R, pi_r = random_reversible_chain(rng, random_connected_graph(rng, n=len(recurrent)))
    M = np.zeros((n, n))
    M[np.ix_(recurrent, recurrent)] = R.entries
    for t in transient.tolist():
        column = rng.random(n) * (rng.random(n) < 0.5)
        column[t] = 0.05 + rng.random()
        column[recurrent[int(rng.integers(len(recurrent)))]] += 0.05
        M[:, t] = column / column.sum()
    w = np.zeros(n)
    w[recurrent] = pi_r.weights
    return StochasticMatrix(M), Distribution(w)


def reducible_mixer_chain(g, pi):
    """The chain the reducible diameter mixer induces on g, with its
    marginal: its conductance is rounding noise, about 1e-12."""
    L = diameter_mixer(g, pi, "reducible")
    pi_hat = lifted_stationary(L, Distribution(L.F @ pi.weights))
    return induced_chain(L, pi_hat), marginal(L, pi_hat)


def chain_of_kind(kind: str, n: int, seed: int):
    rng = rng_from_seed(seed)
    if kind == "reversible":
        return random_reversible_chain(rng, random_connected_graph(rng, n=n))
    if kind == "local":
        P = random_local_chain(rng, random_connected_graph(rng, n=n))
        return P, stationary(P)
    if kind == "uniform":
        # cuts of n/2 nodes weigh 1/2, as do their complements
        pi = uniform_distribution(n)
        return metropolis_chain(random_connected_graph(rng, n=n), pi), pi
    if kind == "transient":
        return chain_with_transient_nodes(rng, n)
    g = random_connected_graph(rng, n=min(n, 8))
    return reducible_mixer_chain(g, random_distribution(rng, g.n))


CHAIN_KINDS = ("reversible", "local", "uniform", "transient", "reducible-mixer")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CHAIN_KINDS), st.integers(2, 18), st.integers(0, 2**32 - 1))
def test_phi_chain_is_bit_identical_to_the_full_scan(kind, n, seed):
    if kind == "transient":
        n = max(n, 3)
    P, pi = chain_of_kind(kind, n, seed)
    assert_matches_full_scan(P, pi)


@pytest.mark.parametrize("n, seed", [(20, 20), (22, 22), (24, 24)])
def test_phi_chain_matches_the_full_scan_past_the_first_chunk(n, seed):
    rng = rng_from_seed(seed)
    P, pi = random_reversible_chain(rng, random_connected_graph(rng, n=n))
    assert assert_matches_full_scan(P, pi).member_mask >> _CHUNK_BITS > 0


def test_phi_chain_matches_the_full_scan_on_larger_noise_level_chains():
    # past 16 nodes the screen runs: a reducible mixer's induced chain,
    # whose conductance is rounding noise, and uniform pi with its 1/2 ties
    for seed, n in ((4, 18), (3, 17)):
        g = random_connected_graph(rng_from_seed(seed), n=n)
        P, pi = reducible_mixer_chain(g, random_distribution(rng_from_seed(1), n))
        phi, _ = phi_chain(P, pi)
        assert phi < 1e-11
        assert_matches_full_scan(P, pi)
    assert_matches_full_scan(lazy_walk(cycle(18)), uniform_distribution(18))


def near_cap_weights(rng, n: int) -> np.ndarray:
    """Weights whose exact sum over a random cut is `_cut_chunks`' cap of
    1/2 + 1e-12, so different summation orders fall on either side of it."""
    w = rng.random(n) + 0.1
    inside = rng.random(n) < 0.5
    inside[[0, n - 1]] = False, True
    w[inside] *= (0.5 + 1e-12) / math.fsum(w[inside])
    w[~inside] *= (0.5 - 1e-12) / math.fsum(w[~inside])
    return w


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CHAIN_KINDS), st.integers(2, 14), st.integers(0, 2**32 - 1))
def test_screened_phis_lie_within_delta_of_the_full_scan(kind, n, seed):
    if kind == "transient":
        n = max(n, 3)
    P, pi = chain_of_kind(kind, n, seed)
    w = pi.weights
    flows = P.entries * w[None, :]
    [(_, _, screened)] = _screen_cuts(flows, w)  # one chunk: position = mask
    delta, _, _ = _screen_bounds(P.n)
    for masks, _, _, phis in _cut_phis(_cut_chunks(P.n, w, [0]), flows):
        assert np.abs(screened[masks] - phis).max() <= delta


@pytest.mark.parametrize("kind, n, seed", [
    ("reversible", 17, 3), ("transient", 18, 4), ("uniform", 19, 5), ("local", 20, 6),
])
def test_screened_phis_index_every_chunk_by_mask(kind, n, seed):
    # past 16 nodes position l of chunk c is mask (c << 16) + l, and
    # phi_graph's LP rows are built from masks read off that position, and
    # `_cut_chunks` chunk c holds exactly the cuts whose mask >> 16 is c
    P, pi = chain_of_kind(kind, n, seed)
    w = pi.weights
    flows = P.entries * w[None, :]
    delta, _, _ = _screen_bounds(n)
    screened = list(_screen_cuts(flows, w))
    assert [c for c, _, _ in screened] == list(range(_chunk_count(n)))
    by_mask = np.concatenate([phis for _, _, phis in screened])
    for c in range(len(screened)):
        for masks, _, _, want in _cut_phis(_cut_chunks(n, w, [c]), flows):
            assert (masks >> _CHUNK_BITS == c).all()
            assert np.abs(by_mask[masks] - want).max() <= delta


def test_screen_weight_caps_bracket_the_full_scan_cap():
    # every cut the full scan keeps passes the widened cap, and every cut
    # under the narrowed cap is kept, though the two sum in different orders
    rng = rng_from_seed(17)
    for _ in range(200):
        n = int(rng.integers(8, 15))
        w = near_cap_weights(rng, n)
        [(_, weights, _)] = _screen_cuts(np.zeros((n, n)), w)
        _, sure, wide = _screen_bounds(n)
        kept = np.concatenate([m for m, _, _ in _cut_chunks(n, w, [0])])
        assert (weights[kept] <= wide).all()
        surely = np.flatnonzero(weights <= sure)
        assert np.isin(surely[surely > 0], kept).all()


def test_phi_chain_settles_a_cut_at_the_weight_cap():
    # mixing with pi at rate 0.1 gives cut X conductance 0.1 (1 - pi(X)),
    # so the least one is the heaviest cut that `_cut_chunks` keeps, here
    # one that holds node 16 and so lies past the first chunk
    rng = rng_from_seed(170)
    for _ in range(6):
        w = near_cap_weights(rng, 17)
        M = 0.9 * np.eye(17) + 0.1 * w[:, None]
        assert_matches_full_scan(StochasticMatrix(M), Distribution(w))


def one_shot_cut_phis(n: int, w: np.ndarray, flows: np.ndarray, only):
    """`_cut_phis` over `_cut_chunks(n, w, only)` as one product per chunk
    computes it: members by an int64 shift table, weights and internal
    flows by whole-chunk products."""
    total = (1 << n) - 1
    bits = np.arange(n, dtype=np.int64)
    for c in only:
        masks = np.arange(max(c << _CHUNK_BITS, 1), min((c + 1) << _CHUNK_BITS, total),
                          dtype=np.int64)
        assert (masks >> _CHUNK_BITS == c).all()
        members = ((masks[:, None] >> bits[None, :]) & 1).astype(bool)
        weights = members @ w
        kept = (weights <= 0.5 + 1e-12) & (weights > 0.0)
        if kept.any():
            masks, members, weights = masks[kept], members[kept], weights[kept]
            internal = ((members @ flows.T) * members).sum(axis=1)
            yield masks, members, weights, np.maximum(weights - internal, 0.0) / weights


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(("reversible", "uniform", "transient")),
    st.integers(3, 22),
    st.integers(0, 2**32 - 1),
    st.sampled_from([64, 256, 4096]),
)
@example("reversible", 20, 87649, 64)
@example("reversible", 20, 87649, 256)
def test_slabbed_cut_products_match_whole_chunk_products(kind, n, seed, slab_rows):
    # chunk 0 holds 2^16 - 1 masks (2^n - 2 below 17 nodes); the cap and the
    # positivity filter leave the rest of the lengths.  In the examples the
    # last chunk keeps 14,593 rows, one past a multiple of every slab size,
    # and a 1-row product takes other bits than the whole chunk's
    P, pi = chain_of_kind(kind, n, seed)
    w = pi.weights
    flows = P.entries * w[None, :]
    chunks = _chunk_count(n)
    only = sorted({0, seed % chunks, chunks - 1})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conductance, "_SLAB_ROWS", slab_rows)
        got = list(_cut_phis(_cut_chunks(n, w, only), flows))
    want = list(one_shot_cut_phis(n, w, flows, only))
    assert len(got) == len(want)
    for parts, expected in zip(got, want):
        assert parts[1].dtype == bool
        assert all(np.array_equal(a, b) for a, b in zip(parts, expected))


def test_phi_chain_peaks_below_one_chunk_of_float_members():
    # 22 nodes fill 64 chunks; one 2^16 x 22 float64 array is 11.5 MB
    rng = rng_from_seed(22)
    P, pi = random_reversible_chain(rng, random_connected_graph(rng, n=22))
    tracemalloc.start()
    try:
        phi_chain(P, pi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << 16) * 22 * 8


def test_phi_chain_guards_raise_in_order_before_any_scan(monkeypatch):
    screened = []

    def spy(flows, w):
        screened.append(len(w))
        return _screen_cuts(flows, w)

    monkeypatch.setattr(conductance, "_screen_cuts", spy)
    off = Distribution(np.arange(1.0, 26.0) / 325.0)  # no lazy cycle walk keeps it
    with pytest.raises(DimensionMismatch, match="sizes differ"):
        phi_chain(StochasticMatrix(np.eye(26)), off)
    with pytest.raises(DimensionMismatch, match="two nodes"):
        phi_chain(StochasticMatrix(np.eye(1)), uniform_distribution(1))
    with pytest.raises(TooManyNodes):
        phi_chain(lazy_walk(cycle(25)), off)
    weights = np.arange(1.0, 19.0)
    with pytest.raises(NotStationary):
        phi_chain(lazy_walk(cycle(18)), Distribution(weights / weights.sum()))
    assert screened == []
    phi_chain(lazy_walk(cycle(18)), uniform_distribution(18))
    assert screened == [18]


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


def test_phi_graph_separates_on_the_screen_once_per_round(monkeypatch):
    # a 17-node graph fills two chunks; each Kelley round, the last one
    # included, reads the subset recursion once and unpacks no chunk
    screens, solves = [], []
    screen, honest = conductance._screen_cuts, scipy.optimize.linprog

    def spy_screen(flows, w):
        screens.append(len(w))
        return screen(flows, w)

    def spy_linprog(*args, **kwargs):
        solves.append(kwargs["options"])
        return honest(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("phi_graph unpacked a cut chunk")

    monkeypatch.setattr(conductance, "_screen_cuts", spy_screen)
    monkeypatch.setattr(conductance, "_cut_chunks", refuse)
    monkeypatch.setattr(conductance, "_cut_phis", refuse)
    monkeypatch.setattr(scipy.optimize, "linprog", spy_linprog)
    rng = rng_from_seed(17)
    g = random_connected_graph(rng, n=17)
    phi_graph(g, random_distribution(rng, 17))
    assert screens == [17] * (len(solves) + 1)
    assert all(options["presolve"] is False for options in solves)


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
    # HiGHS broke a cut row of this LP by 4.3e-8, inside its own 1e-7 primal
    # tolerance and above phi_graph's 1e-8 check, when Kelley's loop started
    # from the identity chain; from the uniform admissible chain it solves
    # in 3 LPs and never re-solves, so the re-solve is driven by the next test
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


def _row_breaking_linprog(calls):
    """linprog that, on a call without primal_feasibility_tolerance, raises
    t so that the heaviest tight cut row is broken by 5e-8, as HiGHS may
    return a point inside its own 1e-7 primal tolerance; every call's
    options are appended to calls."""
    honest = scipy.optimize.linprog

    def linprog(c, A_ub, b_ub, **kwargs):
        options = dict(kwargs.get("options") or {})
        calls.append(options)
        res = honest(c, A_ub=A_ub, b_ub=b_ub, **kwargs)
        if res.success and "primal_feasibility_tolerance" not in options:
            weights = A_ub[:, -1]
            tight = A_ub @ res.x - b_ub >= -1e-9
            k = int(np.argmax(np.where(tight, weights, -np.inf)))
            res.x[-1] += 5e-8 / weights[k]
        return res

    return linprog


@pytest.mark.parametrize("g, pi", [
    (barbell(3), uniform_distribution(6)),
    (cycle(7), random_distribution(rng_from_seed(7), 7)),
    (random_connected_graph(rng_from_seed(8), n=10), random_distribution(rng_from_seed(9), 10)),
])
def test_phi_graph_resolves_at_lp_resolve_when_highs_leaves_a_cut_row_broken(
    monkeypatch, g, pi
):
    calls: list[dict] = []
    monkeypatch.setattr(scipy.optimize, "linprog", _row_breaking_linprog(calls))
    val, P = phi_graph(g, pi)
    assert any(call.get("primal_feasibility_tolerance") == TOL["lp_resolve"] for call in calls)
    assert abs(val - full_cut_lp_phi(g, pi)) <= 1e-9
    back, _ = phi_chain(P, pi)
    assert abs(back - val) <= 1e-9


def _strongly_connected_digraph(rng, n: int):
    """A directed cycle plus n random extra arcs."""
    extra = rng.integers(0, n, size=(n, 2)).tolist()
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)] + extra, directed=True)


@pytest.mark.parametrize("directed, zero", [(True, False), (True, True), (False, True)])
def test_phi_graph_matches_full_cut_lp_on_digraphs_and_pi_with_a_zero(directed, zero):
    # Kelley's first round separates at the uniform chain over each column's
    # admissible entries, which exists on any graph and for any pi
    rng = rng_from_seed(31 + 2 * directed + zero)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        if directed:
            g = _strongly_connected_digraph(rng, n)
        else:
            g = random_connected_graph(rng, n=n)
        pi = random_distribution(rng, n)
        if zero:
            pi = _with_a_zero_entry(rng, pi)
        val, P = phi_graph(g, pi)
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
