"""Cut and chain conductance, the graph conductance LP, and bound checks.

Conductance of a set X under stationary weights pi is the probability mass
flowing out of X in one step, normalized by pi(X).  Chain conductance
minimizes over cuts; graph conductance maximizes chain conductance over all
chains respecting the graph's locality, solved here as a single linear
program (the cut minimum linearizes because the pi(X) are constants) whose
cut rows are generated on demand.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ._tolerances import TOL
from .errors import (
    BadGamma,
    BadSize,
    DimensionMismatch,
    EmptyCutWeight,
    InfeasibleLP,
    LocalityViolation,
    TooManyNodes,
)
from .graph_core import Cut, Graph, _by_slabs, _cut_chunks, _screened_chunks, cycle
from .markov import Distribution, StochasticMatrix, check_stationary

# Most violated cuts that each chunk adds to phi_graph's LP per round.
_CUTS_PER_ROUND = 32

__all__ = [
    "phi_cut",
    "phi_chain",
    "phi_chain_cycle",
    "phi_graph",
    "lemma1_check",
    "diameter_conductance_check",
    "clock_contraction_check",
]


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
    flows = P.entries * w[None, :]
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
    that can hold it (graph_core._screened_chunks), so the result is the
    one the full scan gives, bit for bit.
    """
    if P.n != pi.n:
        raise DimensionMismatch("chain and distribution sizes differ")
    if P.n < 2:
        raise DimensionMismatch("conductance needs at least two nodes")
    w = pi.weights
    chunks = _cut_chunks(P.n, w, _screened_chunks(P.entries, w))
    check_stationary(P, pi, TOL["stationary_residual"])
    best_phi = math.inf
    best_mask = 0
    best_weight = 0.0
    for masks, _, weights, phis in _cut_phis(chunks, P.entries * w[None, :]):
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
        P._check_locality(cycle(n))
    except LocalityViolation:
        raise DimensionMismatch(
            "phi_chain_cycle needs off-diagonal support on cycle arcs only"
        ) from None
    w = pi.weights
    flows = P.entries * w[None, :]
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
            cand = (phi, mask, weight)
            if best is None or (phi, mask) < (best[0], best[1]):
                best = cand
    if best is None:
        raise EmptyCutWeight("no window carries positive stationary mass")
    return best[0], Cut(member_mask=best[1], weight=best[2])


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
    (Kelley's cutting planes): starting from the identity chain at t = 1,
    every cut is scanned against the current chain and t, each chunk's
    most violated cuts join the LP, and the LP is solved again, until no
    cut's conductance falls below t by more than lp_cut_violation.  HiGHS
    accepts rows broken within its own primal tolerance; if a cut row is
    then broken by more than the lp_feasibility that the result must meet,
    the LP is solved once more at lp_resolve and the loop goes on.  The LP is
    degenerate, so the chain is one optimal chain among possibly many.
    """
    from scipy.optimize import linprog  # here: its import adds ~0.4 s to every CLI start

    n = g.n
    if n != pi.n:
        raise DimensionMismatch("graph and distribution sizes differ")
    w = pi.weights
    entries = [(i, i) for i in range(n)] + [(j, i) for (i, j) in sorted(g.arcs)]
    ne = len(entries)
    t_col = ne
    nv = ne + 1
    rows_e = np.array([e[0] for e in entries])
    cols_e = np.array([e[1] for e in entries])

    a_eq = np.zeros((2 * n, nv))
    a_eq[cols_e, np.arange(ne)] = 1.0
    a_eq[n + rows_e, np.arange(ne)] = w[cols_e]
    b_eq = np.concatenate([np.ones(n), w])

    cost = np.zeros(nv)
    cost[t_col] = -1.0
    bounds = [(0.0, 1.0)] * nv
    rows: list[np.ndarray] = []
    in_lp: set[int] = set()
    P, phi = np.eye(n), 1.0
    options: dict = {}
    violation, feasible = TOL["lp_cut_violation"], TOL["lp_feasibility"]
    while True:
        lp_masks = np.fromiter(in_lp, dtype=np.int64, count=len(in_lp))
        cut_err = -math.inf
        for masks, members, weights, phis in _cut_phis(_cut_chunks(n, w), P * w[None, :]):
            short = phi - phis
            cut_err = max(cut_err, float((short * weights).max()))
            # LP cuts can read as violated by solver tolerance: drop them first
            new = np.flatnonzero((short > violation) & ~np.isin(masks, lp_masks))
            if len(new) > _CUTS_PER_ROUND:
                new = new[np.argpartition(-short[new], _CUTS_PER_ROUND - 1)[:_CUTS_PER_ROUND]]
            in_lp.update(masks[new].tolist())
            crossing = members[new][:, cols_e] & ~members[new][:, rows_e]
            rows.append(np.column_stack([-(crossing * w[cols_e]), weights[new]]))
        if not math.isfinite(cut_err):
            raise EmptyCutWeight("no cut carries positive stationary mass")
        if len(in_lp) == len(lp_masks):
            if cut_err <= feasible or options:
                break
            # HiGHS accepts rows broken within its default primal tolerance:
            # re-solve the same rows once, tighter, and rescan
            options = {"primal_feasibility_tolerance": TOL["lp_resolve"]}
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
