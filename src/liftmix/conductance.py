"""Cuts, cut and chain conductance, the graph conductance LP, and bound checks.

Conductance of a set X under stationary weights pi is the probability mass
flowing out of X in one step, normalized by pi(X).  Chain conductance
minimizes over cuts; graph conductance maximizes chain conductance over all
chains respecting the graph's locality, solved here as a single linear
program (the cut minimum linearizes because the pi(X) are constants) whose
cut rows are generated on demand.  The cut layer is all here: how a cut
is encoded (a mask in chunk mask >> 16, unpacked by `_mask_members`),
guarded (`_cut_guard`, the one 24-node limit), capped (`_cut_cap`),
screened by subset recursion (`_screen_cuts`, which also separates
phi_graph's Kelley rounds) and evaluated (`_cut_phis`, in slabs of
`_SLAB_ROWS` to 2 `_SLAB_ROWS` - 1 rows).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._tolerances import TOL, _gamma
from .errors import (
    BadGamma,
    BadSize,
    DimensionMismatch,
    EmptyCutWeight,
    InfeasibleLP,
    LocalityViolation,
    TooManyNodes,
)
from .graph_core import Graph, cycle
from .markov import Distribution, StochasticMatrix, _check_local, check_stationary, ergodic_flows

# Most violated cuts that each chunk adds to phi_graph's LP per round.
_CUTS_PER_ROUND = 32
# A cut chunk holds the 2^16 masks that agree above their low 16 bits.
_CHUNK_BITS = 16
# Rows per slab of a chunk's matrix products (see `_cut_chunks`).
_SLAB_ROWS = 4096

__all__ = [
    "Cut",
    "enumerate_cuts",
    "phi_cut",
    "phi_chain",
    "phi_chain_cycle",
    "phi_graph",
    "lemma1_check",
    "diameter_conductance_check",
    "clock_contraction_check",
]


def _chunk_count(n: int) -> int:
    """Chunks covering every mask on n nodes."""
    return 1 << max(n - _CHUNK_BITS, 0)


@dataclass(frozen=True)
class Cut:
    """Node subset X encoded as a bit mask, with its stationary weight pi(X)."""

    member_mask: int
    weight: float

    def members(self) -> list[int]:
        return [i for i in range(self.member_mask.bit_length()) if self.member_mask >> i & 1]

    def contains(self, i: int) -> bool:
        return bool(self.member_mask >> i & 1)


def _cut_cap() -> float:
    """The one cut cap, 1/2 + cut_weight, read from TOL when called."""
    return 0.5 + TOL["cut_weight"]


def _cut_guard(n: int) -> None:
    """The one size guard of the cut layer: over 24 nodes raises TooManyNodes."""
    if n > 24:
        raise TooManyNodes(f"cut enumeration guarded to n <= 24, got {n}")


def _by_slabs(product, members: np.ndarray) -> np.ndarray:
    """product(rows) over consecutive slabs of members, concatenated:
    `_SLAB_ROWS` rows each, the last taking the remainder, so a slab of a
    multi-slab chunk holds `_SLAB_ROWS` to 2 `_SLAB_ROWS` - 1 rows and
    product's temporaries hold one slab, never the chunk."""
    ends = range(_SLAB_ROWS, len(members) - _SLAB_ROWS + 1, _SLAB_ROWS)
    return np.concatenate([product(slab) for slab in np.split(members, ends)])


def _mask_members(masks: np.ndarray, n: int) -> np.ndarray:
    """The one mask-to-members rule: row k holds the n low bits of masks[k]
    as bool, unpacked from its little-endian bytes."""
    octets = masks.astype("<u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(octets, axis=1, count=n, bitorder="little").view(bool)


def _cut_chunks(n: int, w: np.ndarray, chunks):
    """Lazy (masks, members, weights) of each of the given chunks, in their
    order: chunk c's cuts under `_cut_cap` (both sides when pi(X) = 1/2),
    from masks c << 16 to ((c + 1) << 16) - 1 without 0 and 2^n - 1, as
    `_screen_cuts` indexes them; weights are BLAS dot products.  The only
    cut enumerator; `_cut_guard` raises TooManyNodes at the call.

    Members come from `_mask_members`, 2^16 n bytes a chunk.  Its products
    (here and in `_cut_phis`) run by `_by_slabs`, never holding more than
    2 `_SLAB_ROWS` n floats, not 2^16 n (11.5 MB at n = 22).  Every slab is
    far above the BLAS kernels' row blocking, so every row gets the bits of
    a whole-chunk product; slabs of a few rows would change them.
    """
    _cut_guard(n)
    total = (1 << n) - 1
    cap = _cut_cap()

    def cuts():
        for c in chunks:
            masks = np.arange(max(c << _CHUNK_BITS, 1), min((c + 1) << _CHUNK_BITS, total),
                              dtype=np.int64)
            members = _mask_members(masks, n)
            weights = _by_slabs(lambda m: m @ w, members)
            keep = weights <= cap
            if keep.any():
                # rebound, so the whole chunk is freed while the caller works
                masks, members, weights = masks[keep], members[keep], weights[keep]
                yield masks, members, weights

    return cuts()


def enumerate_cuts(g_or_n, pi) -> list[Cut]:
    """All nonempty proper subsets X with pi(X) <= 1/2, in ascending mask
    order, with the dedup rule and weights of `_cut_chunks`."""
    n = g_or_n.n if isinstance(g_or_n, Graph) else int(g_or_n)
    w = np.asarray(getattr(pi, "weights", pi), dtype=float)
    return [
        Cut(member_mask=mask, weight=weight)
        for masks, _, weights in _cut_chunks(n, w, range(_chunk_count(n)))
        for mask, weight in zip(masks.tolist(), weights.tolist())
    ]


def _subset_sums(v: np.ndarray) -> np.ndarray:
    """s[m] = sum of v[j] over the set bits j of m, for every m < 2^len(v),
    by doubling."""
    s = np.zeros(1 << len(v))
    for j, x in enumerate(v.tolist()):
        s[1 << j : 2 << j] = s[: 1 << j] + x
    return s


def _screen_cuts(flows: np.ndarray, w: np.ndarray):
    """Yield (chunk index, weights, phis) of every mask, chunk by chunk in
    `_cut_chunks`' layout, position l of chunk c being mask (c << 16) + l;
    `_cut_guard` raises TooManyNodes on the first read.

    The conductances come by subset recursion in O(2^n) additions:
    adding node b to a set m adds flows[b, b] and the sum over j in m of
    flows[b, j] + flows[j, b] to its internal flow.  The low 16 nodes'
    tables are built once; each chunk adds its high nodes' internal flow,
    weight and cross flows.  No array exceeds 2^16 entries.  Weights and
    phis differ from `_cut_chunks`' and `_cut_phis`' in their summation
    order only; phis are inf where the weight is 0.
    """
    n = len(w)
    _cut_guard(n)
    lo = min(n, _CHUNK_BITS)
    internal_lo = np.zeros(1 << lo)
    for b in range(lo):
        cross = _subset_sums(flows[b, :b] + flows[:b, b])
        internal_lo[1 << b : 2 << b] = internal_lo[: 1 << b] + flows[b, b] + cross
    weight_lo = _subset_sums(w[:lo])
    high_bits = np.arange(n - lo)
    for c in range(_chunk_count(n)):
        high = lo + np.flatnonzero((c >> high_bits) & 1)
        weights = w[high].sum() + weight_lo
        cross = _subset_sums(flows[:lo, high].sum(axis=1) + flows[high, :lo].sum(axis=0))
        internal = flows[np.ix_(high, high)].sum() + internal_lo + cross
        # a cut of weight 0 has no internal flow either: 0 / 0, then inf
        with np.errstate(invalid="ignore"):
            phis = np.maximum(weights - internal, 0.0) / weights
        phis[weights == 0.0] = np.inf
        yield c, weights, phis


def _screen_bounds(n: int) -> tuple[float, float, float]:
    """(delta, sure, wide) for `_screened_chunks` on n nodes.

    delta = gamma_k (_tolerances._gamma), k = n^2 + 3n + 4, bounds the
    distance of both `_screen_cuts`' phis and `_cut_phis`' from the exact
    conductances of the same flows and weights: an internal flow sums at
    most n^2 nonnegative terms and a weight at most n, each in any order,
    the ratio adds a subtraction and a division, and a StochasticMatrix
    column sums to within gamma_2n of 1.  A cut whose screened weight is at
    most `sure` passes `_cut_cap`, and one that passes the cap has a
    screened weight of at most `wide`: the cap moved by the weights' own
    bound, 4 gamma_n.
    """
    cap = _cut_cap()
    slack = 4.0 * _gamma(n)
    return _gamma(n * n + 3 * n + 4), cap * (1.0 - slack), cap * (1.0 + slack)


def _screened_chunks(flows: np.ndarray, w: np.ndarray):
    """Ascending indices of the `_cut_chunks` chunks that can hold the cut
    of least conductance under `_cut_phis`, for the chain with these
    stationary flows and weights.

    Cuts on at most 16 nodes fill one chunk, which is given unscreened.
    Otherwise a chunk is given when it holds a cut that may pass the weight
    cap and whose `_screen_cuts` phi lies within 4 delta of the least one
    among cuts that surely pass it (`_screen_bounds`): the lowest cut of
    least `_cut_phis` conductance is then in a given chunk.
    """
    n = len(w)
    if n <= _CHUNK_BITS:
        yield 0
        return
    delta, sure, wide = _screen_bounds(n)
    least = np.empty(_chunk_count(n))
    least_sure = math.inf
    for c, weights, phis in _screen_cuts(flows, w):
        # phis lie in [0, 1] or are inf, so adding 4 past a cap takes a cut
        # out of the minimum without a masked (branching) reduction
        least[c] = (phis + 4.0 * (weights > wide)).min()
        least_sure = min(least_sure, (phis + 4.0 * (weights > sure)).min())
    limit = min(least_sure + 4.0 * delta, 1.0)
    yield from np.flatnonzero(least <= limit).tolist()


def _members_of(X, n: int) -> np.ndarray:
    """Boolean membership vector from a Cut or an iterable of node indices."""
    sel = np.zeros(n, dtype=bool)
    if isinstance(X, Cut):
        nodes = X.members()
    else:
        nodes = list(X)
    for i in nodes:
        i = int(i)
        if not 0 <= i < n:
            raise DimensionMismatch(f"cut member {i} outside node range [0, {n})")
        sel[i] = True
    return sel


def phi_cut(P: StochasticMatrix, pi: Distribution, X) -> float:
    """Conductance of the set X: mass leaving X in one step over pi(X)."""
    if P.n != pi.n:
        raise DimensionMismatch("chain and distribution sizes differ")
    sel = _members_of(X, P.n)
    w = pi.weights
    weight = float(w[sel].sum())
    if weight <= 0.0:
        raise EmptyCutWeight("cut carries no stationary mass")
    flows = ergodic_flows(P, pi)
    internal = float(flows[np.ix_(sel, sel)].sum())
    return max(weight - internal, 0.0) / weight


def _cut_phis(chunks, flows: np.ndarray):
    """Yield (masks, members, weights, phis) for the positive-weight cuts of
    each chunk, phis being their conductances under the stationary flows
    flows[j, i] = P[j, i] pi_i; the internal flows are taken by `_by_slabs`."""
    for masks, members, weights in chunks:
        positive = weights > 0.0
        if not positive.any():
            continue
        masks, members, weights = masks[positive], members[positive], weights[positive]
        internal = _by_slabs(lambda m: ((m @ flows.T) * m).sum(axis=1), members)
        yield masks, members, weights, np.maximum(weights - internal, 0.0) / weights


def phi_chain(P: StochasticMatrix, pi: Distribution) -> tuple[float, Cut]:
    """Chain conductance: minimum of phi_cut over all cuts, with the argmin.

    Ties break toward the lowest cut bitmask.  Every cut is screened by
    subset recursion, and `_cut_phis` settles the minimum on the chunks
    that can hold it (`_screened_chunks`), so the result is the one the
    full scan gives, bit for bit.
    """
    if P.n != pi.n:
        raise DimensionMismatch("chain and distribution sizes differ")
    if P.n < 2:
        raise DimensionMismatch("conductance needs at least two nodes")
    w, flows = pi.weights, ergodic_flows(P, pi)
    chunks = _cut_chunks(P.n, w, _screened_chunks(flows, w))
    check_stationary(P, pi, TOL["stationary_residual"])
    best_phi = math.inf
    best_mask = 0
    best_weight = 0.0
    for masks, _, weights, phis in _cut_phis(chunks, flows):
        k = int(np.argmin(phis))
        if phis[k] < best_phi:
            best_phi = float(phis[k])
            best_mask = int(masks[k])
            best_weight = float(weights[k])
    if not math.isfinite(best_phi):
        raise EmptyCutWeight("no cut carries positive stationary mass")
    return best_phi, Cut(member_mask=best_mask, weight=best_weight)


def phi_chain_cycle(P: StochasticMatrix, pi: Distribution) -> tuple[float, Cut]:
    """Chain conductance for a chain supported on the standard cycle.

    Off-diagonal support must sit on arcs (i, i+-1 mod n).  Every minimizing
    cut of such a chain can be taken contiguous: splitting a cut into its
    contiguous runs splits weight and boundary flow into parts, and a ratio
    of sums is never below the smallest ratio of parts.  Scanning the
    O(n^2) contiguous windows is therefore exact, with no size guard.
    """
    n = P.n
    if n != pi.n:
        raise DimensionMismatch("chain and distribution sizes differ")
    if n < 3:
        return phi_chain(P, pi)
    check_stationary(P, pi, TOL["stationary_residual"])
    try:
        _check_local(*P._triplets(), n, cycle(n))
    except LocalityViolation:
        raise DimensionMismatch(
            "phi_chain_cycle needs off-diagonal support on cycle arcs only"
        ) from None
    w, flows = pi.weights, ergodic_flows(P, pi)
    # window (a, off) holds nodes a, a + 1, ..., a + off mod n; add.accumulate
    # adds its weights one by one in that order, as a running sum would
    ends = (np.arange(n)[:, None] + np.arange(n - 1)) % n
    weights = np.add.accumulate(w[ends], axis=1)
    cross = flows[np.arange(n) - 1, np.arange(n)][:, None] + flows[(ends + 1) % n, ends]
    a, off = np.nonzero((weights <= _cut_cap()) & (weights > 0.0))
    if not len(a):
        raise EmptyCutWeight("no window carries positive stationary mass")
    weights, cross = weights[a, off], cross[a, off]
    # max(cross, 0.0): a negative zero stays, as Python's max keeps it
    phis = np.where(cross < 0.0, 0.0, cross) / weights
    full = (1 << n) - 1

    def mask(k: int) -> int:
        run = (1 << (int(off[k]) + 1)) - 1
        return ((run << int(a[k])) | (run >> (n - int(a[k])))) & full

    # ties break toward the lowest mask; only the tied windows get one
    k = min(np.flatnonzero(phis == phis.min()).tolist(), key=mask)
    return phis[k], Cut(member_mask=mask(k), weight=weights[k])


def _phi_chain_or_cycle(P: StochasticMatrix, pi: Distribution) -> tuple[float, Cut]:
    """The one dispatch for a chain's conductance: phi_chain, or
    phi_chain_cycle's contiguous windows past the cut guard; a chain too
    large to enumerate and not cycle-supported raises DimensionMismatch."""
    try:
        return phi_chain(P, pi)
    except TooManyNodes as guard:
        try:
            return phi_chain_cycle(P, pi)
        except DimensionMismatch:
            raise DimensionMismatch(
                f"{guard}, and the chain's off-diagonal support is not on "
                "cycle arcs, so contiguous cuts cannot stand in"
            ) from None


def phi_graph(g: Graph, pi: Distribution) -> tuple[float, StochasticMatrix]:
    """Best achievable chain conductance on g, with one optimizing chain.

    Linear program: variables are the permitted entries of P (arcs of g
    plus the diagonal) and a scalar t; constraints fix column sums to one,
    impose P pi = pi, and require every cut's outflow to be at least
    t * pi(X); the objective maximizes t.  The cut rows are generated
    (Kelley's cutting planes): starting at t = 1 from the uniform chain
    over each column's admissible entries, whose conductance is below 1,
    every cut is scanned against the current chain and t, each chunk's
    most violated cuts join the LP, and the LP is solved again, until no
    cut's conductance falls below t by more than lp_cut_violation.  The
    scan is `_screen_cuts`' subset recursion, which gives every cut's
    weight and conductance in O(2^n) additions and holds the cut layer's
    one 24-node guard; only the new cuts' rows are built, from their masks.
    HiGHS runs without presolve: each LP is small and solved once with
    fresh rows, so presolve's reductions cost more than they save.  It
    accepts rows broken within its own primal tolerance; if a cut row is
    then broken by more than the lp_feasibility that the result must meet,
    the LP is solved once more at lp_resolve and the loop goes on.  The LP is
    degenerate, so the chain is one optimal chain among possibly many, and
    which one depends on the cuts the loop added.
    """
    from scipy.optimize import linprog  # here: its import adds 0.09-0.16 s to every CLI start

    n = g.n
    if n != pi.n:
        raise DimensionMismatch("graph and distribution sizes differ")
    w = pi.weights
    # the diagonal, then each arc (i, j) as entry (j, i), ascending in i * n + j
    tail, head = np.divmod(g._arc_keys, n)
    rows_e = np.concatenate([np.arange(n), head])
    cols_e = np.concatenate([np.arange(n), tail])
    ne = len(rows_e)
    t_col = ne
    nv = ne + 1

    a_eq = np.zeros((2 * n, nv))
    a_eq[cols_e, np.arange(ne)] = 1.0
    a_eq[n + rows_e, np.arange(ne)] = w[cols_e]
    b_eq = np.concatenate([np.ones(n), w])

    cost = np.zeros(nv)
    cost[t_col] = -1.0
    bounds = [(0.0, 1.0)] * nv
    rows: list[np.ndarray] = []
    in_lp: set[int] = set()
    # round 0 separates at the uniform admissible chain, not the identity,
    # where every cut's conductance is 0 and rounding would pick the cuts
    P, phi = np.zeros((n, n)), 1.0
    P[rows_e, cols_e] = 1.0 / np.bincount(cols_e)[cols_e]
    options: dict = {"presolve": False}
    violation, feasible, cap = TOL["lp_cut_violation"], TOL["lp_feasibility"], _cut_cap()
    while True:
        lp_masks = np.fromiter(in_lp, dtype=np.int64, count=len(in_lp))
        cut_err = -math.inf
        for c, weights, phis in _screen_cuts(P * w[None, :], w):
            kept = np.flatnonzero((weights > 0.0) & (weights <= cap))
            if not len(kept):
                continue
            weights, short = weights[kept], phi - phis[kept]
            cut_err = max(cut_err, float((short * weights).max()))
            new = np.flatnonzero(short > violation)
            masks = (c << _CHUNK_BITS) + kept[new]
            # LP cuts can read as violated by solver tolerance: drop them first
            fresh = ~np.isin(masks, lp_masks)
            new, masks = new[fresh], masks[fresh]
            if len(new) > _CUTS_PER_ROUND:
                top = np.argpartition(-short[new], _CUTS_PER_ROUND - 1)[:_CUTS_PER_ROUND]
                new, masks = new[top], masks[top]
            in_lp.update(masks.tolist())
            members = _mask_members(masks, n)
            crossing = members[:, cols_e] & ~members[:, rows_e]
            rows.append(np.column_stack([-(crossing * w[cols_e]), weights[new]]))
        if not math.isfinite(cut_err):
            raise EmptyCutWeight("no cut carries positive stationary mass")
        if len(in_lp) == len(lp_masks):
            if cut_err <= feasible or "primal_feasibility_tolerance" in options:
                break
            # HiGHS accepts rows broken within its default primal tolerance:
            # re-solve the same rows once, tighter, and rescan
            options = {**options, "primal_feasibility_tolerance": TOL["lp_resolve"]}
        res = linprog(
            cost, A_ub=np.vstack(rows), b_ub=np.zeros(len(in_lp)), A_eq=a_eq,
            b_eq=b_eq, bounds=bounds, method="highs", options=options,
        )
        if not res.success:
            raise InfeasibleLP(f"conductance LP failed: {res.message}")
        phi = float(res.x[t_col])
        P = np.zeros((n, n))
        P[rows_e, cols_e] = res.x[:ne]

    # cut_err comes from the last full scan, so it covers every cut
    col_err = np.abs(P.sum(axis=0) - 1.0).max()
    stat_err = np.abs(P @ w - w).max()
    if col_err > feasible or stat_err > feasible or cut_err > feasible:
        raise InfeasibleLP(
            f"LP solution violates constraints beyond {feasible} "
            f"(columns {col_err:.2e}, stationarity {stat_err:.2e}, "
            f"cuts {cut_err:.2e})"
        )
    # + 0.0 turns negative zeros from the clamped LP solution into plain zeros
    return phi, StochasticMatrix(P + 0.0, locality=g)


def lemma1_check(
    P: StochasticMatrix, pi: Distribution, X, t: int
) -> tuple[float, float, bool]:
    """Leakage after t steps from the pi-restriction to X, against t*phi.

    Starts from pi conditioned on X and measures the mass outside X after
    t steps; that mass never exceeds t times the cut conductance.
    """
    if t < 1:
        raise BadSize("need at least one step")
    check_stationary(P, pi, TOL["stationary_residual"])
    sel = _members_of(X, P.n)
    w = pi.weights
    weight = float(w[sel].sum())
    if weight <= 0.0:
        raise EmptyCutWeight("cut carries no stationary mass")
    phi = phi_cut(P, pi, X)
    p = np.where(sel, w, 0.0) / weight
    for _ in range(int(t)):
        p = P.entries @ p
    leakage = float(p[~sel].sum())
    bound = t * phi
    return leakage, bound, leakage <= bound + TOL["bound_slack"]


def diameter_conductance_check(
    P: StochasticMatrix, pi: Distribution, D: int
) -> tuple[float, float, bool]:
    """Compare chain conductance against 4*log(1/pi_min)/(D-1).

    Reports both sides; a violation only warns, because the relationship
    carries an unpinned constant.
    """
    if D < 2:
        raise BadSize("diameter must be at least 2")
    lhs, _ = _phi_chain_or_cycle(P, pi)
    positive = pi.weights[pi.weights > 0.0]
    pi_min = float(positive.min())
    rhs = 4.0 * math.log(1.0 / pi_min) / (D - 1)
    ok = lhs <= rhs + TOL["bound_slack"]
    if not ok:
        warnings.warn(
            f"conductance {lhs:.6g} exceeds diameter bound {rhs:.6g}",
            stacklevel=2,
        )
    return lhs, rhs, ok


def clock_contraction_check(
    D: int, gamma: float, q0
) -> tuple[float, float, bool]:
    """l1 contraction of a zero-sum perturbation over one clock period.

    The clock chain steps deterministically 0 -> 1 -> ... -> D+1 and leaks
    mass gamma from the top state back to 0.  A perturbation q summing to
    zero shrinks in l1 by at least the factor 2*(D+1)*gamma after D+1
    steps.
    """
    if D < 1:
        raise BadSize("clock depth must be at least 1")
    if not 0.0 < gamma < 1.0 / (2.0 * (D + 1)):
        raise BadGamma(
            f"gamma must lie in (0, 1/{2 * (D + 1)}) for depth {D}"
        )
    q = np.asarray(q0, dtype=float)
    if q.shape != (D + 2,):
        raise DimensionMismatch(f"perturbation must have length {D + 2}")
    if abs(q.sum()) > TOL["vector_sum"]:
        raise BadGamma("perturbation must sum to zero")
    n = D + 2
    P = np.zeros((n, n))
    for i in range(D + 1):
        P[i + 1, i] = 1.0
    P[n - 1, n - 1] = 1.0 - gamma
    P[0, n - 1] = gamma
    start = float(np.abs(q).sum())
    for _ in range(D + 1):
        q = P @ q
    end = float(np.abs(q).sum())
    ratio = 0.0 if start == 0.0 else end / start
    bound = 2.0 * (D + 1) * gamma
    return ratio, bound, ratio <= bound + TOL["bound_slack"]
