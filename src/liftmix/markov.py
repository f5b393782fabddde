"""Distributions, column-stochastic matrices, mixing times, ergodic flows.

Convention: entry (j, i) of a transition matrix is Prob(i -> j), so columns
sum to 1 and states evolve by p(t+1) = P p(t). Matrix JSON uses
rows[j][i] = P_{j,i}; distribution JSON is {"weights": [...]}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadColumnSum,
    DimensionMismatch,
    LengthMismatch,
    LocalityViolation,
    NotStationary,
    ReducibleChain,
)
from .graph_core import Graph, _strong_components

#: Sentinel returned by mixing-time measurements that never settle below eps.
UNMIXED = math.inf

_ENTRY_CLAMP = 1e-12
_COLUMN_TOL = 1e-6


@dataclass(frozen=True)
class Distribution:
    """Probability vector; entries >= -1e-12 are clamped to 0, sum must be
    within 1e-9 of 1 (no renormalization — a bad sum is an error)."""

    weights: np.ndarray

    def __init__(self, weights) -> None:
        w = np.array(weights, dtype=float).reshape(-1).copy()
        if (w < -_ENTRY_CLAMP).any():
            raise BadColumnSum(f"negative probability entry: min={w.min()}")
        w[w < 0] = 0.0
        s = w.sum()
        if not abs(s - 1.0) <= 1e-9:  # NaN-safe: a NaN sum fails too
            raise BadColumnSum(f"distribution sums to {s}, not 1")
        object.__setattr__(self, "weights", w)
        self.weights.setflags(write=False)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def to_json(self) -> dict:
        return {"weights": [float(x) for x in self.weights]}


def uniform_distribution(n: int) -> Distribution:
    return Distribution(np.full(n, 1.0 / n))


def point_distribution(n: int, i: int) -> Distribution:
    w = np.zeros(n)
    w[i] = 1.0
    return Distribution(w)


def distribution_from_json(obj: dict) -> Distribution:
    return Distribution(np.asarray(obj["weights"], dtype=float))


@dataclass(frozen=True)
class StochasticMatrix:
    """Column-stochastic matrix with an optional locality graph.

    Entries are clamped to [0, 1] from within 1e-12; each raw column sum must
    be within 1e-6 of 1 (then the column is renormalized exactly). When a
    locality graph is set, off-diagonal support > 1e-12 must sit on its arcs.
    """

    entries: np.ndarray
    locality: Graph | None = None

    def __init__(self, entries, locality: Graph | None = None) -> None:
        M = np.array(entries, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
        if (M < -_ENTRY_CLAMP).any() or (M > 1 + _ENTRY_CLAMP).any():
            raise BadColumnSum("matrix entries outside [0,1] beyond clamp tolerance")
        M = np.clip(M, 0.0, 1.0)
        sums = M.sum(axis=0)
        bad = ~(np.abs(sums - 1.0) <= _COLUMN_TOL)  # NaN-safe
        if bad.any():
            j = int(np.nonzero(bad)[0][0])
            raise BadColumnSum(f"column {j} sums to {sums[j]}")
        M /= sums
        if locality is not None:
            if locality.n != M.shape[0]:
                raise DimensionMismatch(
                    f"matrix is {M.shape[0]}x{M.shape[0]} but graph has {locality.n} nodes"
                )
            adj = locality.adjacency()
            off = M > _ENTRY_CLAMP
            np.fill_diagonal(off, False)
            illegal = off & ~adj.T  # entry (j,i) needs arc (i,j)
            if illegal.any():
                j, i = map(int, np.argwhere(illegal)[0])
                raise LocalityViolation(f"entry ({j},{i}) = {M[j, i]} has no arc ({i},{j})")
        object.__setattr__(self, "entries", M)
        object.__setattr__(self, "locality", locality)
        self.entries.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [[float(x) for x in row] for row in self.entries]}


def matrix_from_json(obj: dict, locality: Graph | None = None) -> StochasticMatrix:
    return StochasticMatrix(np.asarray(obj["rows"], dtype=float), locality=locality)


@dataclass(frozen=True)
class TimeVaryingChain:
    """Finite sequence P(1..T) of stochastic matrices over one node set."""

    steps: tuple[StochasticMatrix, ...]

    def __init__(self, steps) -> None:
        steps = tuple(steps)
        if steps:
            n = steps[0].n
            for k, P in enumerate(steps):
                if P.n != n:
                    raise LengthMismatch(f"step {k + 1} has size {P.n}, expected {n}")
        object.__setattr__(self, "steps", steps)

    @property
    def T(self) -> int:
        return len(self.steps)

    @property
    def n(self) -> int:
        return self.steps[0].n

    def product(self) -> np.ndarray:
        """P(T) ... P(1) as a plain array."""
        M = np.eye(self.n)
        for P in self.steps:
            M = P.entries @ M
        return M


def tv_distance(p: Distribution, q: Distribution) -> float:
    if p.n != q.n:
        raise DimensionMismatch(f"lengths {p.n} and {q.n} differ")
    return 0.5 * float(np.abs(p.weights - q.weights).sum())


def evolve(P: StochasticMatrix, p: Distribution, t: int) -> Distribution:
    if P.n != p.n:
        raise DimensionMismatch(f"matrix size {P.n} vs vector size {p.n}")
    if t < 0:
        raise DimensionMismatch("t must be >= 0")
    w = p.weights
    for _ in range(t):
        w = P.entries @ w
    return Distribution(w)


def is_irreducible(P: StochasticMatrix) -> bool:
    """Strong connectivity of the support digraph (entries > 1e-12)."""
    return bool(_strong_components(P.entries > _ENTRY_CLAMP).max() == 0)


def stationary(P: StochasticMatrix) -> Distribution:
    """Unique stationary distribution of an irreducible chain (linear solve)."""
    if not is_irreducible(P):
        raise ReducibleChain("chain is reducible; use lifted_stationary with a seed")
    n = P.n
    A = np.vstack([P.entries - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    # one polish step tightens the residual
    pi = P.entries @ pi
    pi /= pi.sum()
    res = float(np.abs(P.entries @ pi - pi).sum())
    if res > 1e-10:
        raise NotStationary(f"stationary solve residual {res} exceeds 1e-10")
    return Distribution(pi)


def check_stationary(P: StochasticMatrix, pi: Distribution, tol: float = 1e-9) -> None:
    if P.n != pi.n:
        raise DimensionMismatch(f"matrix size {P.n} vs vector size {pi.n}")
    res = float(np.abs(P.entries @ pi.weights - pi.weights).sum())
    if res > tol:
        raise NotStationary(f"P pi = pi fails: residual {res} > {tol}")


def default_t_max(n: int) -> int:
    return max(100, 50 * n)


def _settle_time(worst_tv: np.ndarray, eps: float) -> float:
    """Smallest t with worst_tv[t'] <= eps for all t' in [t, end], else UNMIXED."""
    bad = np.nonzero(worst_tv > eps)[0]
    if len(bad) == 0:
        return 0
    t = int(bad[-1]) + 1
    if t >= len(worst_tv):
        return UNMIXED
    return t


def _window_tv(
    A: np.ndarray, X: np.ndarray, target: np.ndarray, t_max: int,
    C: np.ndarray | None = None,
) -> np.ndarray:
    """Worst column TV of C A^t X against target for t = 0..t_max.

    X is a batch of starts as columns, or a single 1-D start; C (default
    identity) projects each state before comparing.  Single starts stay
    1-D, since a one-column matrix would sum in a different order.
    """
    if t_max < 0:
        raise DimensionMismatch(f"t_max must be at least 0, got {t_max}")
    worst = np.empty(t_max + 1)
    for t in range(t_max + 1):
        if t:
            X = A @ X
        Y = X if C is None else C @ X
        worst[t] = 0.5 * np.abs(Y - target).sum(axis=0).max()
    return worst


def mixing_time(
    P: StochasticMatrix, pi: Distribution, eps: float, t_max: int | None = None
) -> float:
    """Smallest t such that every vertex initialization is within TV eps of pi
    for all t' in [t, t_max]; UNMIXED if none. Vertex worst case is exact
    because TV distance to pi is convex in the initial distribution."""
    if not 0 < eps < 1:
        raise DimensionMismatch(f"eps must be in (0,1), got {eps}")
    check_stationary(P, pi)
    if t_max is None:
        t_max = default_t_max(P.n)
    worst = _window_tv(P.entries, np.eye(P.n), pi.weights[:, None], t_max)
    return _settle_time(worst, eps)


def ergodic_flows(P: StochasticMatrix, pi: Distribution) -> np.ndarray:
    """Stationary probability currents Q_{j,i} = P_{j,i} pi_i (column i sums to pi_i)."""
    if P.n != pi.n:
        raise DimensionMismatch(f"matrix size {P.n} vs vector size {pi.n}")
    return P.entries * pi.weights[None, :]


def metropolis_chain(g: Graph, pi: Distribution) -> StochasticMatrix:
    """Metropolis chain on g with stationary pi: uniform proposal over
    neighbors, acceptance min(1, pi_j deg_i / (pi_i deg_j)), remainder on the
    diagonal. Exactly pi-stationary by detailed balance."""
    if g.n != pi.n:
        raise DimensionMismatch(f"graph has {g.n} nodes but pi has {pi.n}")
    n = g.n
    deg = np.array([len(g.out_neighbors(i)) for i in range(n)], dtype=float)
    P = np.zeros((n, n))
    for i in range(n):
        for j in g.out_neighbors(i):
            P[j, i] = (1.0 / deg[i]) * min(1.0, (pi.weights[j] * deg[i]) / (pi.weights[i] * deg[j]))
        P[i, i] = 1.0 - P[:, i].sum()
    return StochasticMatrix(P, locality=g)


def lazy_walk(g: Graph) -> StochasticMatrix:
    """Lazy simple walk: stay 1/2, else uniform over neighbors."""
    n = g.n
    P = np.zeros((n, n))
    for i in range(n):
        nbrs = g.out_neighbors(i)
        for j in nbrs:
            P[j, i] = 0.5 / len(nbrs)
        P[i, i] = 0.5
    return StochasticMatrix(P, locality=g)
