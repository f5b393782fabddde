"""Distributions, column-stochastic matrices, mixing times, ergodic flows.

Convention: entry (j, i) of a transition matrix is Prob(i -> j), so columns
sum to 1 and states evolve by p(t+1) = P p(t). Matrix JSON is either dense,
rows[j][i] = P_{j,i}, or sparse triplets {"n", "row", "col", "value"} with
P_{row[k], col[k]} = value[k] and every other entry 0; distribution JSON is
{"weights": [...]}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.sparse import coo_array, csc_array, csr_array, eye_array, issparse
from scipy.sparse.linalg import splu

from .errors import (
    BadColumnSum,
    BadSize,
    DimensionMismatch,
    LengthMismatch,
    LocalityViolation,
    NotStationary,
    ReducibleChain,
)
from ._tolerances import TOL
from .graph_core import Graph, _levels, _read_only, _strong_components

#: Sentinel returned by mixing-time measurements that never settle below eps.
UNMIXED = math.inf

#: Columns of the identity per every-vertex full-state chunk (_vertex_chunks);
#: 64, 128 and 256 run alike.
_CHUNK_WIDTH = 128


@dataclass(frozen=True)
class Distribution:
    """Probability vector; entries >= -entry_clamp are clamped to 0, sum must
    be within vector_sum of 1 (no renormalization — a bad sum is an error)."""

    weights: np.ndarray

    def __init__(self, weights) -> None:
        w = np.array(weights, dtype=float).reshape(-1).copy()
        if (w < -TOL["entry_clamp"]).any():
            raise BadColumnSum(f"negative probability entry: min={w.min()}")
        w[w < 0] = 0.0
        s = w.sum()
        if not abs(s - 1.0) <= TOL["vector_sum"]:  # NaN-safe: a NaN sum fails too
            raise BadColumnSum(f"distribution sums to {s}, not 1")
        object.__setattr__(self, "weights", w)
        self.weights.setflags(write=False)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def to_json(self) -> dict:
        return {"weights": self.weights.tolist()}


def uniform_distribution(n: int) -> Distribution:
    return Distribution(np.full(n, 1.0 / n))


def point_distribution(n: int, i: int) -> Distribution:
    w = np.zeros(n)
    w[i] = 1.0
    return Distribution(w)


def distribution_from_json(obj: dict) -> Distribution:
    return Distribution(_json_floats(obj["weights"], "distribution weights"))


def _json_floats(seq, what: str) -> np.ndarray:
    """A JSON number, list of numbers or list of such lists as a float
    array; a str or bool in it is refused, never coerced."""
    leaves = seq if type(seq) is list else [seq]
    if set(map(type, leaves)) == {list}:
        leaves = chain.from_iterable(leaves)
    if not set(map(type, leaves)) <= {int, float}:  # at C speed
        raise BadColumnSum(f"{what} must be JSON numbers")
    try:
        return np.asarray(seq, dtype=float)
    except ValueError as exc:  # ragged lists
        raise BadColumnSum(f"{what} are not a rectangular array: {exc}") from exc


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Column-stochastic matrix with an optional locality graph.

    Kept in the form it is built from, dense or scipy sparse; the other form
    is derived once, on first read (entries, _csr).  Its nonzero triplets
    pass `_normalise`, with the locality graph when one is set.  Its
    classes, then their laws, and the cyclic classes of an irreducible
    matrix are built once, on first use, and shared read-only (_labels,
    _ergodic, _cyclic).
    """

    n: int
    locality: Graph | None = None

    def __init__(self, entries, locality: Graph | None = None) -> None:
        sparse = issparse(entries)
        # a sparse input becomes a new CSR, duplicates summed and rows sorted
        M = coo_array(entries, dtype=float).tocsr() if sparse else np.array(entries, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
        object.__setattr__(self, "n", M.shape[0])
        self.__dict__["_csr" if sparse else "entries"] = M
        row, col, value = self._triplets()  # a sparse input's value is M.data itself
        _normalise(0, row, col, value, 1, self.n, locality)
        if sparse:
            M.eliminate_zeros()  # the clamped entries leave the support
        else:
            M = np.zeros_like(M)  # the input's layout, which dense products read
            M[row, col] = value
        self.__dict__["_csr" if sparse else "entries"] = _read_only(M)
        object.__setattr__(self, "locality", locality)

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense view, built from the CSR form on first read."""
        return _read_only(self._csr.toarray())

    @cached_property
    def _csr(self) -> csr_array:
        """The CSR form, read by every scan and the projector's LU."""
        return _read_only(csr_array(self.entries))

    def _triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero entries as (row, col, value) in row-major order, read
        off the CSR form once it is built and off the dense one before."""
        if "_csr" in self.__dict__:
            S = self._csr
            return np.repeat(np.arange(self.n), np.diff(S.indptr)), S.indices, S.data
        row, col = np.nonzero(self.entries)
        return row, col, self.entries[row, col]

    @cached_property
    def _labels(self) -> np.ndarray:
        """Strong-component label of each state, arcs being entries above
        entry_clamp, on one CSR built straight from the row-major triplets."""
        row, col, value = self._triplets()
        arc = value > TOL["entry_clamp"]
        indptr = np.searchsorted(row[arc], np.arange(self.n + 1))
        return _strong_components(csr_array((value[arc], col[arc], indptr), (self.n,) * 2))

    @cached_property
    def _ergodic(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The ergodic projector Z = lim (1/T) sum_{t<T} M^t of the entries
        M (Kemeny-Snell, Finite Markov Chains) as read-only factors
        Z = Pi H^T, each n x classes.  The closed classes are the strong
        components (_labels) that no arc leaves.  Column c of Pi is class
        c's stationary law, periodic classes included (Levin-Peres-Wilmer,
        Markov Chains and Mixing Times, 1.3).  Column c of H is each state's
        probability h_c of absorption in c, which over the transient states
        T solves (I - M_TT)^T h_c = b_c, b_c(v) being v's one-step mass into
        c: one sparse LU, one right-hand side per class.  An irreducible M
        gives (pi[:, None], None), solved on the dense view."""
        labels = self._labels
        if labels.max() == 0:
            return _read_only(_stationary_weights(self.entries)[:, None]), None
        to, frm = (self._csr > TOL["entry_clamp"]).nonzero()
        leaky = np.zeros(labels.max() + 1, dtype=bool)
        leaky[labels[frm[labels[to] != labels[frm]]]] = True
        closed = np.flatnonzero(~leaky)
        Pi = np.zeros((self.n, len(closed)))
        H = np.zeros((self.n, len(closed)))
        for k, c in enumerate(closed):
            members = np.flatnonzero(labels == c)
            if len(members) == 1:  # the law the solve would return
                Pi[members, k] = 1.0
            else:
                Pi[members, k] = _stationary_weights(self._csr[members][:, members].toarray())
            H[members, k] = 1.0
        T = np.flatnonzero(leaky[labels])
        if len(T):
            lu = splu(csc_array((eye_array(len(T)) - self._csr[T][:, T]).T))
            H[T] = lu.solve(self._csr[:, T].T @ H)
        return _read_only(Pi), _read_only(H)

    @cached_property
    def _cyclic(self) -> tuple[int, np.ndarray] | None:
        """The period p of an irreducible matrix and each state's cyclic
        class in 0..p-1 (Levin-Peres-Wilmer, 1.3); None for a reducible one.
        Levels are BFS distances from state 0 over the exact stored support
        (entries > 0, so that mass outside the class a start occupies stays
        exactly 0.0), p is the gcd of level[j] + 1 - level[i] over the arcs
        j -> i, and each arc leads from class c to class c + 1 mod p."""
        if self._labels.max() > 0:
            return None
        to, frm = self._csr.nonzero()  # the CSR holds exactly the entries > 0
        level = _levels(self._csr.T, 0)
        p = int(np.gcd.reduce(level[frm] + 1 - level[to]))
        return p, _read_only(level % p)

    def to_json(self) -> dict:
        return {"n": self.n, "rows": self.entries.tolist()}

    def _sparse_json(self) -> dict:
        """The nonzero entries as triplets in row-major order."""
        return {"n": self.n, **_triplet_json(*self._triplets())}


def _normalise(matrix, row, col, value, k: int, n: int, locality: Graph | None) -> None:
    """The one rule of column-stochastic matrices, in place on the row-major
    nonzero triplets of k n x n matrices (`matrix`: each entry's, 0 for one):
    entries are clamped to [0, 1] from within entry_clamp; each raw column
    sum, added in row order, must be within column_sum of 1, and the column
    is then renormalized exactly; off-diagonal support > entry_clamp must
    sit on the locality graph's arcs, when one is given."""
    if (value < -TOL["entry_clamp"]).any() or (value > 1 + TOL["entry_clamp"]).any():
        raise BadColumnSum("matrix entries outside [0,1] beyond clamp tolerance")
    np.clip(value, 0.0, 1.0, out=value)
    key = matrix * n + col
    sums = np.bincount(key, weights=value, minlength=k * n)
    bad = ~(np.abs(sums - 1.0) <= TOL["column_sum"])  # NaN-safe
    if bad.any():
        j = int(np.nonzero(bad)[0][0])
        raise BadColumnSum(f"column {j % n} sums to {sums[j]}")
    value /= sums[key]
    if locality is not None:
        _check_local(row, col, value, n, locality)


def _stochastic_stack(stack: np.ndarray, locality: Graph | None) -> np.ndarray:
    """A stack of n x n matrices under one `_normalise` pass, read-only and
    C-ordered: each slice holds what StochasticMatrix(slice, locality)
    would, bit for bit."""
    n = stack.shape[-1]
    flat = stack.reshape(math.prod(stack.shape[:-2]), n, n)  # -1 fails on (0, 0, 0)
    m, row, col = np.nonzero(flat)
    value = flat[m, row, col]
    _normalise(m, row, col, value, len(flat), n, locality)
    out = np.zeros(flat.shape)
    out[m, row, col] = value
    return _read_only(out.reshape(stack.shape))


def _check_size(n: int, g: Graph) -> None:
    """An n x n matrix can be local on g only if g has n nodes."""
    if g.n != n:
        raise DimensionMismatch(f"matrix is {n}x{n} but graph has {g.n} nodes")


def _check_local(j, i, value, n: int, g: Graph) -> None:
    """The one locality check: each entry (j, i) > entry_clamp off the
    diagonal needs the arc (i, j) of g."""
    _check_size(n, g)
    illegal = (value > TOL["entry_clamp"]) & (j != i) & ~g._adjacency[i, j]
    if illegal.any():
        e = int(np.argmax(illegal))
        raise LocalityViolation(f"entry ({j[e]},{i[e]}) = {value[e]} has no arc ({i[e]},{j[e]})")


def _support_graph(P: StochasticMatrix) -> Graph:
    """Directed graph of P's off-diagonal support above entry_clamp: the arc
    (i, j) for each entry (j, i), the smallest graph P is local on."""
    j, i, value = P._triplets()
    off = (value > TOL["entry_clamp"]) & (i != j)
    return Graph(n=P.n, arcs=frozenset(zip(i[off].tolist(), j[off].tolist())))


def _triplet_json(row, col, value) -> dict:
    """Sparse triplets as JSON lists, in the order given."""
    return {"row": row.tolist(), "col": col.tolist(), "value": value.tolist()}


def matrix_from_json(obj: dict, locality: Graph | None = None) -> StochasticMatrix:
    """Read either matrix form (triplets as sparse); both get every check."""
    if "rows" in obj:
        return StochasticMatrix(_json_floats(obj["rows"], "matrix rows"), locality=locality)
    n = obj["n"]
    if type(n) is not int or n < 1:
        raise BadSize(f"matrix size n must be a positive integer, got {n!r}")
    return StochasticMatrix(_sparse_from_json(obj, (n, n)), locality=locality)


def _sparse_from_json(obj: dict, shape: tuple[int, int]) -> coo_array:
    """The matrix of this shape with triplets {"row", "col", "value"}: indices
    integers in range, values JSON numbers, no (row, col) pair twice."""
    row, col = (_triplet_indices(obj[key], key, size) for key, size in zip(("row", "col"), shape))
    value = _json_floats(obj["value"], "matrix values")
    if value.ndim != 1 or not len(row) == len(col) == len(value):
        raise LengthMismatch(
            f"row, col and value hold {len(row)}, {len(col)} and {value.size} entries"
        )
    if len(np.unique(row * shape[1] + col)) != len(row):
        raise BadSize("matrix triplets repeat a (row, col) pair")
    return coo_array((value, (row, col)), shape=shape)


def _triplet_indices(seq, key: str, n: int) -> np.ndarray:
    """One index list of a sparse matrix, each an integer in [0, n)."""
    if type(seq) is not list or not set(map(type, seq)) <= {int}:  # at C speed
        raise BadSize(f"matrix {key} indices must be a list of integers")
    if seq and (min(seq) < 0 or max(seq) >= n):
        raise BadSize(f"matrix {key} index outside [0, {n})")
    return np.array(seq, dtype=np.int64)


def _step_array(k: int, P) -> np.ndarray:
    """Step k of a chain as a float array; a step that is not a numeric
    array (a StochasticMatrix, ragged rows) is refused by its number."""
    try:
        return np.asarray(P, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(
            f"step {k} is not a numeric array ({exc}); pass a StochasticMatrix P as P.entries"
        ) from exc


@dataclass(frozen=True, eq=False)
class TimeVaryingChain:
    """Finite sequence P(1..T) of stochastic matrices over one node set, as
    one read-only, C-ordered (T, n, n) array: each raw step's shape is
    checked, then all pass `_normalise` at once (`_stochastic_stack`), so
    steps[t] holds what StochasticMatrix(steps[t], locality) would."""

    steps: np.ndarray

    def __init__(self, steps, locality: Graph | None = None) -> None:
        steps = [_step_array(k, P) for k, P in enumerate(steps, start=1)]
        for k, P in enumerate(steps, start=1):
            if P.ndim != 2 or P.shape[0] != P.shape[1]:
                raise DimensionMismatch(f"expected a square matrix, got shape {P.shape}")
            if locality is not None:
                _check_size(len(P), locality)
            if len(P) != len(steps[0]):
                raise LengthMismatch(f"step {k} has size {len(P)}, expected {len(steps[0])}")
        n = len(steps[0]) if steps else (0 if locality is None else locality.n)
        stack = np.array(steps).reshape(len(steps), n, n)
        object.__setattr__(self, "steps", _stochastic_stack(stack, locality))

    @property
    def T(self) -> int:
        return self.steps.shape[0]

    @property
    def n(self) -> int:
        return self.steps.shape[1]

    def product(self) -> np.ndarray:
        """P(T) ... P(1) as a plain array."""
        M = np.eye(self.n)
        for P in self.steps:
            M = P @ M
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
    """Strong connectivity of the support digraph (entries > entry_clamp): one
    component in P's classes, the first half of its ergodic decomposition."""
    return bool(P._labels.max() == 0)


def stationary(P: StochasticMatrix) -> Distribution:
    """Unique stationary distribution of an irreducible chain: the law of
    the one class in P's ergodic decomposition."""
    if not is_irreducible(P):
        raise ReducibleChain("chain is reducible; use lifted_stationary with a seed")
    return Distribution(P._ergodic[0][:, 0])


def _stationary_weights(M: np.ndarray) -> np.ndarray:
    """The fixed probability vector of a column-stochastic M whose support
    is strongly connected, by least squares and one polish step."""
    n = M.shape[0]
    A = np.vstack([M - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    # one polish step tightens the residual
    pi = M @ pi
    pi /= pi.sum()
    res, tol = float(np.abs(M @ pi - pi).sum()), TOL["stationary_solve"]
    if res > tol:
        raise NotStationary(f"stationary solve residual {res} exceeds {tol}")
    return pi


def _ergodic_limits(P: StochasticMatrix, X: np.ndarray | None) -> np.ndarray:
    """Exact long-run average Pi (H^T X) of the starts X under P, every
    vertex when X is None; an irreducible P gives its stationary law as one
    column, which broadcasts against every start."""
    Pi, H = P._ergodic
    if H is None:
        return Pi
    return Pi @ H.T if X is None else Pi @ (H.T @ X)


def check_stationary(P: StochasticMatrix, pi: Distribution,
                     tol: float = TOL["stationary_residual"]) -> None:
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
    P: StochasticMatrix, X: np.ndarray | None, target: np.ndarray, t_max: int,
    C: np.ndarray | None = None, *, eps: float | None = None,
) -> np.ndarray:
    """Worst column TV of C A^t X against target for t = 0..t_max, A being
    the entries of P, propagated as P's cached CSR form (P._csr).

    X is a batch of starts as columns, a single 1-D start, or None for every
    vertex (the identity batch); C (default identity) projects each state
    before comparing.  When C is given for every vertex, the scan runs the
    adjoint rows M_{t+1} = M_t A from M_0 = C and compares M_t itself,
    base_n rows instead of lifted_n columns; an explicit batch (the init
    map's base_n columns, or one start) propagates forward, X <- A X.
    Single starts stay 1-D, since a one-column matrix would sum in a
    different order.  Every scan stops once worst[t] == worst[t-1] and the
    state is bit-equal to the last one, and repeats worst[t] to t_max:
    step @ state is deterministic, so a state that maps to itself always
    will.  Cheap scalar tests (the TV, then the first entry) go first.

    With eps, the scan may return a prefix worst[:t+1] instead of the whole
    window once its verdict is proven; _settle_time reads the prefix as the
    same tau.  A (column-stochastic) never grows an l1 distance
    (Levin-Peres-Wilmer, Markov Chains and Mixing Times, 4.4), and a
    one-hot C does not either.  Two certificates, read off the cyclic
    classes of an irreducible P (StochasticMatrix._cyclic; a reducible P
    has none and counts as p = 1):

    - periodic: a start held in one class c sits in class c + t_max mod p
      at t_max, every other entry exactly 0.0.  If the target holds less
      than (start mass + target mass)/2 - eps - scan_margin on that class
      (with C, on the base nodes it projects to), the TV there is above
      eps, so the scan returns at the first step whose worst TV is above
      eps: UNMIXED.
    - mixed: the residue limits z_r, r mod p, are law itself for p = 1 and
      p law o (the start's class masses, rolled by r) otherwise.  law is
      the target of a full-state scan, and pi-hat of a forward marginal
      scan of an irreducible P (_ergodic_limits).  The adjoint state holds
      no lifted state to measure, and a reducible P's marginal TV can rise
      again, so neither has a law.  Each column of x_{t+1} - z_{t+1} is
      A (x_t - z_t) + (A z_t - z_{t+1}), so with rho = max_r 1/2 ||A z_r -
      z_{r+1}||_1, measured once, TV(C x_t', target) <= max_r TV(C z_r,
      target) + d_t + (t' - t) rho for t' >= t, d_t = max_col 1/2 ||x_t -
      z_{t mod p}||_1.  The scan returns at the first t with d_t <= eps -
      max_r TV(C z_r, target) - (t_max - t)(rho + scan_drift) - scan_margin.
      For a full-state scan with p = 1, z_0 is the target and d_t is
      worst[t].  The targets need only be near-fixed: their residuals are
      at most stationary_residual from check_stationary, stationary_solve
      from stationary, and rounding level from _ergodic_limits' exact
      projector.  The margins cover the floats: CSR rounding adds far less
      than scan_drift per step, and the TV sums and rho itself are off by
      far less than scan_margin.
    """
    if t_max < 0:
        raise DimensionMismatch(f"t_max must be at least 0, got {t_max}")
    A = P._csr
    if C is not None and X is None:
        # the state is M_t^T = (A^T)^t C^T, lifted x base
        step, state, read = A.T, np.ascontiguousarray(C.T), (lambda S: S.T)
    else:
        step, state = A, np.eye(A.shape[0]) if X is None else X
        read = (lambda S: S) if C is None else (lambda S: C @ S)
    unmixed, limits = False, None
    if eps is not None:
        cyclic = P._cyclic
        unmixed = cyclic is not None and _off_target_class(X, target, t_max, C, eps, cyclic)
        if C is None:
            law = target  # a full-state scan's limit is its own target
        elif X is not None and cyclic is not None:
            law = _ergodic_limits(P, None)  # pi-hat, for a forward marginal scan
        else:
            law = None  # the adjoint scan, or a reducible P's marginal one
        if not unmixed and law is not None:
            limits = _residue_limits(law, X, state.ndim, cyclic)
            p = len(limits)
            # a limit that is the target itself is 0 from it
            slack = eps - max((_worst(read(z) - target) for z in limits if z is not target),
                              default=0.0)
            rho = max(_worst(A @ z - limits[(r + 1) % p]) for r, z in enumerate(limits))
            drift, margin = rho + TOL["scan_drift"], TOL["scan_margin"]
    worst = np.empty(t_max + 1)
    gap = None  # reused: a fresh full-state buffer each step costs more than the step
    for t in range(t_max + 1):
        if t:
            state = step @ (prev := state)  # the older prev is freed first
        gap = np.subtract(read(state), target, out=gap)
        worst[t] = 0.5 * np.abs(gap, out=gap).sum(axis=0).max()
        if unmixed and worst[t] > eps:
            return worst[:t + 1]
        if limits is not None and worst[t] <= eps:
            z = limits[t % p]
            d = worst[t] if z is target else _worst(state - z)  # d_t
            if d <= slack - (t_max - t) * drift - margin:
                return worst[:t + 1]
        if (t and worst[t] == worst[t - 1] and state.flat[0] == prev.flat[0]
                and np.array_equal(state, prev)):
            worst[t:] = worst[t]
            break
    return worst


def _worst(gap: np.ndarray) -> float:
    """Largest column half-l1 norm of gap (1-D: one column)."""
    return 0.5 * np.abs(gap).sum(axis=0).max()


def _class_masses(X: np.ndarray | None, cyclic: tuple[int, np.ndarray]) -> np.ndarray:
    """Mass of each start in each cyclic class, p x starts (p for one 1-D
    start); every vertex's row of the identity when X is None."""
    p, cls = cyclic
    Q = csr_array((np.ones(len(cls)), (cls, np.arange(len(cls)))), shape=(p, len(cls)))
    return Q.toarray() if X is None else Q @ X


def _off_target_class(X, target, t_max, C, eps, cyclic) -> bool:
    """The periodic certificate: whether some start held in one cyclic
    class is, at t_max, in a class whose compared entries (its states, or
    with C the base nodes it projects to) hold less than (start mass +
    target mass)/2 - eps - scan_margin of the target, which bounds its TV
    below by more than eps."""
    p = cyclic[0]
    if p == 1:
        return False
    held = _class_masses(None, cyclic)
    if C is not None:
        held = (held @ C.T > 0).astype(float)
    T = target.reshape(len(target), -1)
    held = held @ T
    m = _class_masses(X, cyclic).reshape(p, -1)
    end = ((m > 0).argmax(axis=0) + t_max) % p
    col = np.arange(m.shape[1]) if T.shape[1] > 1 else 0
    need = 0.5 * (m.sum(axis=0) + T.sum(axis=0)[col]) - eps - TOL["scan_margin"]
    return bool(((held[end, col] < need) & ((m > 0).sum(axis=0) == 1)).any())


def _residue_limits(law, X, ndim, cyclic) -> list[np.ndarray]:
    """The limits z_r of A^t X along t = r mod p: law itself for p = 1, and
    z_r(v) = p law(v) m_{cls(v) - r} otherwise, m being each start's class
    masses.  law, a column, is made 1-D for a 1-D start."""
    law = law[:, 0] if law.ndim > ndim else law
    if cyclic is None or cyclic[0] == 1:
        return [law]
    p, cls = cyclic
    m = _class_masses(X, cyclic)
    return [p * law * m[(cls - r) % p] for r in range(p)]


def _vertex_chunks(n: int, Pi: np.ndarray, H: np.ndarray | None):
    """The every-vertex starts (the n x n identity) in consecutive column
    chunks of _CHUNK_WIDTH to 2 _CHUNK_WIDTH - 1 columns, or one chunk of
    all n on a smaller chain, each with its columns of the target
    Z = Pi H^T, as (starts, target).  H None gives the one column Pi to
    every chunk, as _ergodic_limits does.  Each row of Pi holds at most one
    nonzero (a state's closed class), so every entry of Pi @ H[cols].T is
    one product, the bits of Z's entry; Pi is multiplied as CSR, which
    skips the zeros.  A chunk is never one column wide: numpy sums a single
    column pairwise, not row by row as it sums a wider batch."""
    w = max(_CHUNK_WIDTH, 2)
    if H is not None:
        Pi = csr_array(Pi)
    for cols in np.array_split(np.arange(n), max(1, n // w)):
        X = np.eye(n, len(cols), -cols[0])  # X[cols[0] + j, j] = 1
        yield X, (Pi if H is None else Pi @ H[cols].T)


def _vertex_tau(P: StochasticMatrix, Pi: np.ndarray, H: np.ndarray | None,
                t_max: int, eps: float) -> float:
    """The every-vertex full-state tau of P against Z = Pi H^T: the largest
    tau of its column chunks (_vertex_chunks), each scanned by _window_tv
    with eps, UNMIXED at the first UNMIXED chunk.  The chunks' TVs are the
    whole batch's columns bit for bit (CSR products and axis-0 sums run
    column by column), and each certificate of _window_tv holds for any
    subset of starts, so every chunk stops on its own once its own
    columns are proven; no n x n state, target or gap is formed."""
    tau = 0
    for X, target in _vertex_chunks(P.n, Pi, H):
        tau = max(tau, _settle_time(_window_tv(P, X, target, t_max, eps=eps), eps))
        if tau == UNMIXED:
            break
    return tau


def mixing_time(
    P: StochasticMatrix, pi: Distribution, eps: float, t_max: int | None = None
) -> float:
    """Smallest t such that every vertex initialization is within TV eps of pi
    for all t' in [t, t_max]; UNMIXED if none. Vertex worst case is exact
    because TV distance to pi is convex in the initial distribution.  The
    starts are scanned in column chunks (_vertex_tau), and each chunk's
    scan ends once its verdict is proven (markov._window_tv): on a periodic
    P at the first step above eps, as UNMIXED; otherwise once the rest of
    the window is certified under eps."""
    if not 0 < eps < 1:
        raise DimensionMismatch(f"eps must be in (0,1), got {eps}")
    check_stationary(P, pi)
    if t_max is None:
        t_max = default_t_max(P.n)
    return _vertex_tau(P, pi.weights[:, None], None, t_max, eps)


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
