"""Lifted Markov chains: projections, init maps, scenarios, and analysis.

A lift runs dynamics A on an enlarged node set together with a projection
c onto the base nodes; the object of interest is the projected (marginal)
trajectory.  This module holds the lift containers, the scenario algebra
(who controls the initialization, whether marginal invariance is imposed,
marginal vs full convergence, reducibility, and ergodic-flow constraints),
and every measurement on lifts: marginal and full mixing times, induced
chains, invariance checks, flow matching, and the scenario report that
ties measured values to the applicable conductance and diameter bounds.

Convention: matrices are column-stochastic, entry (j, i) is the i -> j
transition probability, and distributions evolve by x(t+1) = A x(t).
"""

from __future__ import annotations

import functools
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ._tolerances import TOL
from ._version import __version__
from .conductance import _members_of, _phi_chain_or_cycle, phi_graph
from .errors import (
    BadChoiceMap,
    BadScenario,
    BadSize,
    DimensionMismatch,
    EmptyCutWeight,
    LocalityViolation,
    MissingInitMap,
    MissingReferenceChain,
    NoConvergence,
    ZeroMarginalSupport,
)
from .graph_core import (
    Graph,
    diameter,
    graph_from_json,
    graph_to_json,
)
from .markov import (
    UNMIXED,
    Distribution,
    StochasticMatrix,
    check_stationary,
    default_t_max,
    ergodic_flows,
    is_irreducible,
    matrix_from_json,
    stationary,
    _ergodic_limits,
    _json_floats,
    _settle_time,
    _sparse_from_json,
    _support_graph,
    _triplet_json,
    _vertex_tau,
    _window_tv,
)

__all__ = [
    "LiftMap",
    "InitMap",
    "Lift",
    "ScenarioSpec",
    "parse_scenario",
    "format_scenario",
    "marginal",
    "fiber_uniform_init",
    "conditional_unlift",
    "induced_chain",
    "lifted_stationary",
    "check_invariance",
    "marginal_mixing_time",
    "full_mixing_time",
    "check_flow_match",
    "unlift_si",
    "adversarial_init",
    "scenario_report",
    "validate_lift",
    "lift_to_json",
    "lift_from_json",
]


@dataclass(frozen=True, eq=False)
class LiftMap:
    """Surjective projection c from lifted nodes onto base nodes 0..base_n-1."""

    base_n: int
    projection: tuple[int, ...]

    def __post_init__(self) -> None:
        # a bool is refused too: its type is neither int nor an np.integer
        if not all(k is int or issubclass(k, np.integer) for k in set(map(type, self.projection))):
            raise BadSize("lift projection values must be integers")
        object.__setattr__(self, "projection", tuple(map(int, self.projection)))
        if self.base_n < 1:
            raise DimensionMismatch("base needs at least one node")
        fibers: list[list[int]] = [[] for _ in range(self.base_n)]
        for k, c in enumerate(self.projection):
            if not 0 <= c < self.base_n:
                raise DimensionMismatch(
                    f"projection value {c} outside base range [0, {self.base_n})"
                )
            fibers[c].append(k)
        empty = [j for j, f in enumerate(fibers) if not f]
        if empty:
            raise DimensionMismatch(f"projection misses base nodes {empty}")
        object.__setattr__(self, "_fibers", tuple(tuple(f) for f in fibers))
        C = np.zeros((self.base_n, len(self.projection)))
        C[np.array(self.projection), np.arange(len(self.projection))] = 1.0
        C.setflags(write=False)
        object.__setattr__(self, "_C", C)

    @property
    def lifted_n(self) -> int:
        return len(self.projection)

    @property
    def fibers(self) -> tuple[tuple[int, ...], ...]:
        return self._fibers

    def fiber(self, j: int) -> tuple[int, ...]:
        return self._fibers[j]

    @property
    def C(self) -> np.ndarray:
        """0/1 projection matrix: marginal p = C x."""
        return self._C


@dataclass(frozen=True, eq=False)
class InitMap:
    """Column-stochastic F sending base distributions into the lift.

    Column j is supported inside fiber(j), which makes C F the identity, so
    the designed initialization is marginal-faithful by construction.
    """

    map: LiftMap
    entries: np.ndarray

    def __post_init__(self) -> None:
        F = np.array(self.entries, dtype=float)
        expected = (self.map.lifted_n, self.map.base_n)
        if F.shape != expected:
            raise DimensionMismatch(
                f"init map shape {F.shape}, expected {expected}"
            )
        if (F < -TOL["entry_clamp"]).any():
            raise DimensionMismatch("init map has negative entries")
        F[F < 0] = 0.0
        sums = F.sum(axis=0)
        if not np.abs(sums - 1.0).max() <= TOL["vector_sum"]:
            j = int(np.abs(sums - 1.0).argmax())
            raise DimensionMismatch(f"init map column {j} sums to {sums[j]}")
        F /= sums[None, :]
        proj = np.array(self.map.projection)
        outside = (F > TOL["entry_clamp"]) & (proj[:, None] != np.arange(self.map.base_n)[None, :])
        if outside.any():
            k, j = np.argwhere(outside)[0]
            raise LocalityViolation(
                f"init map sends base node {j} mass outside its fiber (lifted node {k})"
            )
        F.setflags(write=False)
        object.__setattr__(self, "entries", F)

    def apply(self, p: Distribution) -> Distribution:
        if p.n != self.map.base_n:
            raise DimensionMismatch(
                f"init map expects base size {self.map.base_n}, got {p.n}"
            )
        return Distribution(self.entries @ p.weights)


@dataclass(frozen=True, eq=False)
class Lift:
    """A lifted chain: base graph, projection, dynamics A, optional
    designed-initialization map F, and construction metadata."""

    base: Graph
    map: LiftMap
    A: StochasticMatrix
    F: InitMap | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate_lift(self)

    @functools.cached_property
    def lifted(self) -> Graph:
        """The lifted graph: A's off-diagonal support, the smallest graph A
        is local on, built when first read."""
        return _support_graph(self.A)


def validate_lift(L: Lift) -> None:
    """Structural checks, run by every Lift: sizes, the init map's
    projection, and locality through the projection: every off-diagonal
    entry (j, i) of A above entry_clamp stays in one fiber or projects
    onto the base arc (c(i), c(j))."""
    if L.map.base_n != L.base.n:
        raise DimensionMismatch(
            f"projection targets {L.map.base_n} nodes, base has {L.base.n}"
        )
    if L.A.n != L.map.lifted_n:
        raise DimensionMismatch(
            f"dynamics on {L.A.n} nodes, projection covers {L.map.lifted_n}"
        )
    j, i, value = L.A._triplets()
    proj = np.asarray(L.map.projection)
    cj, ci = proj[j], proj[i]
    bad = np.flatnonzero((value > TOL["entry_clamp"]) & (ci != cj) & ~L.base._adjacency[ci, cj])
    if bad.size:
        k = bad[0]
        raise LocalityViolation(
            f"entry ({j[k]},{i[k]}) = {value[k]} projects to missing base arc ({ci[k]},{cj[k]})"
        )
    if L.F is not None:
        if L.F.map.projection != L.map.projection:
            raise DimensionMismatch("init map built for a different projection")


def marginal(lift_or_map, x) -> Distribution:
    """Project a lifted distribution to the base by fiber sums: p = C x."""
    m = lift_or_map.map if isinstance(lift_or_map, Lift) else lift_or_map
    w = x.weights if isinstance(x, Distribution) else np.asarray(x, dtype=float)
    if w.shape != (m.lifted_n,):
        raise DimensionMismatch(
            f"lifted vector of size {w.shape} against {m.lifted_n} lifted nodes"
        )
    return Distribution(m.C @ w)


def fiber_uniform_init(m: LiftMap, pi: Distribution) -> Distribution:
    """The canonical x with C x = pi: each fiber shares its mass uniformly."""
    if pi.n != m.base_n:
        raise DimensionMismatch(f"pi has size {pi.n}, base has {m.base_n}")
    x = np.zeros(m.lifted_n)
    for j, fiber in enumerate(m.fibers):
        x[list(fiber)] = pi.weights[j] / len(fiber)
    return Distribution(x)


def conditional_unlift(L: Lift, x) -> StochasticMatrix:
    """One-step base chain P^(x) = C A B^(x) seen by the marginal at state x.

    B^(x) spreads base mass back over fibers proportionally to x; a fiber
    holding no mass gets a uniform column (any convention works there, no
    mass flows through it).
    """
    m = L.map
    w = x.weights if isinstance(x, Distribution) else np.asarray(x, dtype=float)
    if w.shape != (m.lifted_n,):
        raise DimensionMismatch("distribution does not live on the lifted nodes")
    B = np.zeros((m.lifted_n, m.base_n))
    for j, fiber in enumerate(m.fibers):
        idx = list(fiber)
        mass = float(w[idx].sum())
        if mass > 0.0:
            B[idx, j] = w[idx] / mass
        else:
            B[idx, j] = 1.0 / len(fiber)
    return StochasticMatrix(_marginal_step(L) @ B, locality=L.base)


def induced_chain(L: Lift, pi_hat: Distribution) -> StochasticMatrix:
    """Base chain induced by a steady state: collapsed flows over marginals.

    P_{i,j} = (sum of A-flows from fiber(j) into fiber(i) under pi_hat)
    divided by the marginal mass of j; stationary at marginal(pi_hat).
    """
    collapsed = _collapsed_flows(L, pi_hat)
    check_stationary(L.A, pi_hat, tol=TOL["steady_state_residual"])
    marg = L.map.C @ pi_hat.weights
    dead = np.nonzero(marg <= TOL["dead_marginal"])[0]
    if len(dead):
        raise ZeroMarginalSupport(
            f"marginal of pi_hat vanishes on base nodes {dead.tolist()}"
        )
    return StochasticMatrix(collapsed / marg[None, :], locality=L.base)


def _collapsed_flows(L: Lift, pi_hat: Distribution) -> np.ndarray:
    """The lift's flows under pi_hat summed over fibers, C (A o pi_hat) C^T."""
    w = pi_hat.weights
    if w.shape != (L.map.lifted_n,):
        raise DimensionMismatch("pi_hat does not live on the lifted nodes")
    # C S in C order, as the dense C @ A is, so that C^T is summed alike
    return np.ascontiguousarray(L.map.C @ L.A._csr.multiply(w[None, :])) @ L.map.C.T


def lifted_stationary(L: Lift, seed_init: Distribution) -> Distribution:
    """Steady state of A reached from a stated seed.

    Irreducible dynamics have a unique steady state, the law of the one
    class in A's ergodic decomposition (markov.stationary).  Reducible
    dynamics admit several; the limit then depends on the seed, and is
    computed as the long-run average of the trajectory (evaluated through
    the half-lazy iteration y <- (y + A y)/2, which converges to the same
    limit and tolerates periodic components).
    """
    if seed_init.n != L.map.lifted_n:
        raise DimensionMismatch("seed does not live on the lifted nodes")
    if is_irreducible(L.A):
        return stationary(L.A)
    return Distribution(_batch_limits(L.A.entries, seed_init.weights))


def _stationary_seed(L: Lift, pi: Distribution) -> tuple[Distribution, str]:
    """The seed of a reducible lift's steady state, and its name: F pi when
    the lift has an init map, otherwise the fiber-uniform spread of pi."""
    if L.F is not None:
        return L.F.apply(pi), "init-map"
    return fiber_uniform_init(L.map, pi), "fiber-uniform"


def check_invariance(
    L: Lift, pi: Distribution, scenario_init: str, horizon: int = 50
) -> tuple[bool, Distribution | None]:
    """Does every admissible start with marginal pi keep marginal pi forever?

    Under (s) the admissible set is the whole slice {x : C x = pi}, an
    affine set; it suffices to test one point (the fiber-uniform spread)
    plus every same-fiber difference direction, both in one step.  Under
    (S) the only admissible start is F pi, tested over a finite horizon.
    Returns (ok, witness): the witness is an initialization whose marginal
    leaves pi.
    """
    if pi.n != L.map.base_n:
        raise DimensionMismatch(f"pi has size {pi.n}, base has {L.map.base_n}")
    if horizon < 1:
        raise DimensionMismatch("horizon must be >= 1")
    X = _init_batch(L, scenario_init)
    if X is not None:
        x = X @ pi.weights
        worst = _window_tv(L.A, x, pi.weights, horizon, L.map.C)
        if (worst[1:] > TOL["invariance_horizon_tv"]).any():
            return False, Distribution(x)
        return True, None
    xs = fiber_uniform_init(L.map, pi)
    M = _marginal_step(L)
    if 0.5 * np.abs(M @ xs.weights - pi.weights).sum() > TOL["invariance_one_step"]:
        return False, xs
    pair = _fiber_column_mismatch(M, L.map)
    if pair is None:
        return True, None
    j0, k = pair
    w = xs.weights.copy()
    w[k] += w[j0]
    w[j0] = 0.0
    return False, Distribution(w)


def _init_batch(L: Lift, scenario_init: str) -> np.ndarray | None:
    """Extreme initializations as columns: every lifted vertex under (s),
    signalled by None (the identity batch, never built for marginal scans),
    the init-map columns under (S). Worst case over these is exact because
    TV to any fixed target is convex in the initialization."""
    if scenario_init == "s":
        return None
    if scenario_init == "S":
        if L.F is None:
            raise MissingInitMap("scenario (S) needs an initialization map")
        return L.F.entries
    raise BadScenario(f"scenario_init must be 'S' or 's', got {scenario_init!r}")


def marginal_mixing_time(
    L: Lift,
    pi: Distribution,
    eps: float,
    scenario_init: str = "s",
    t_max: int | None = None,
) -> float:
    """Smallest t with every extreme start's marginal within TV eps of pi
    for all later times up to t_max; UNMIXED if the window never closes.
    On irreducible dynamics the scan ends once its verdict is proven by
    the cyclic classes of L.A (markov._window_tv)."""
    if not 0 < eps < 1:
        raise DimensionMismatch(f"eps must be in (0,1), got {eps}")
    if pi.n != L.map.base_n:
        raise DimensionMismatch(f"pi has size {pi.n}, base has {L.map.base_n}")
    if t_max is None:
        t_max = default_t_max(L.map.base_n)
    X = _init_batch(L, scenario_init)
    worst = _window_tv(L.A, X, pi.weights[:, None], t_max, L.map.C, eps=eps)
    return _settle_time(worst, eps)


def _batch_limits(A: np.ndarray, X0: np.ndarray) -> np.ndarray:
    """Long-run average limit of each column's trajectory under A (a 1-D
    X0 is a single start and gives a 1-D limit), by half-lazy averaging
    that stops at an averaging_step change; only lifted_stationary uses it."""
    Y = X0.copy()
    step, residual = TOL["averaging_step"], TOL["averaging_residual"]
    for _ in range(100_000):
        Z = 0.5 * (Y + A @ Y)
        if 0.5 * np.abs(Z - Y).sum(axis=0).max() < step:
            if np.abs(A @ Z - Z).sum(axis=0).max() <= residual:
                return Z
        Y = Z
    raise NoConvergence("steady-state averaging did not settle in 1e5 steps")


def full_mixing_time(
    L: Lift,
    eps: float,
    scenario_init: str = "s",
    t_max: int | None = None,
) -> float:
    """Mixing time of the full lifted state toward its seeded steady state.

    Each extreme initialization is compared against the steady state it
    converges to in long-run average (the unique one when A is
    irreducible), taken exactly from the ergodic projector of L.A
    (StochasticMatrix._ergodic, made once per matrix).  Periodic
    dynamics never settle pointwise and come out UNMIXED even when the
    marginal converges.  Under (s) the lifted vertices are scanned in
    column chunks (markov._vertex_tau).  A scan stops once its verdict is
    proven (markov._window_tv): once the rest of the window is certified
    under eps, or, on periodic dynamics, at the first step above eps, once
    a start's class at t_max holds too little of its target.
    """
    if not 0 < eps < 1:
        raise DimensionMismatch(f"eps must be in (0,1), got {eps}")
    if t_max is None:
        t_max = default_t_max(L.map.base_n)
    X = _init_batch(L, scenario_init)
    if X is None:
        return _vertex_tau(L.A, *L.A._ergodic, t_max, eps)
    return _settle_time(_window_tv(L.A, X, _ergodic_limits(L.A, X), t_max, eps=eps), eps)


def check_flow_match(
    L: Lift, pi_hat: Distribution, P_ref: StochasticMatrix, delta: float = 0.0
) -> tuple[float, bool]:
    """Compare collapsed steady-state flows of the lift against a reference.

    max_dev is the largest entrywise gap between the lift's fiber-collapsed
    ergodic flows under pi_hat and the reference chain's flows at the same
    marginal, judged at max(delta, flow_exact_slack), so no budget is
    judged more strictly than exact matching (delta = 0).
    """
    collapsed = _collapsed_flows(L, pi_hat)
    if P_ref.n != L.map.base_n:
        raise DimensionMismatch("reference chain is not on the base nodes")
    marg = Distribution(L.map.C @ pi_hat.weights)
    check_stationary(P_ref, marg, tol=TOL["flow_reference_residual"])
    reference = ergodic_flows(P_ref, marg)
    max_dev = float(np.abs(collapsed - reference).max())
    return max_dev, max_dev <= max(delta, TOL["flow_exact_slack"])


def _marginal_step(L: Lift) -> np.ndarray:
    """The marginal step C A, dense, taken off A's CSR form."""
    return np.ascontiguousarray(L.map.C @ L.A._csr)


def _fiber_column_mismatch(M: np.ndarray, m: LiftMap) -> tuple[int, int] | None:
    """First same-fiber pair (j0, k) whose columns of the marginal step
    M = C A differ by more than invariance_one_step, else None.

    None means the marginal step does not depend on where mass sits within
    a fiber; j0 is the first lifted node of the fiber holding k.
    """
    tol = TOL["invariance_one_step"]
    for fiber in m.fibers:
        j0 = fiber[0]
        for k in fiber[1:]:
            if np.abs(M[:, k] - M[:, j0]).max() > tol:
                return j0, k
    return None


def unlift_si(L: Lift, q_choice) -> StochasticMatrix:
    """Base chain read off one representative per fiber.

    P_{i,j} sums the dynamics from the chosen representative of fiber(j)
    into fiber(i).  When the lift's marginal step is representative-
    independent this chain reproduces every marginal trajectory; otherwise
    it is still returned, with a warning that it is not equivalent.
    """
    m = L.map
    q = [int(q_choice[j]) for j in range(m.base_n)]
    for j, k in enumerate(q):
        if not 0 <= k < m.lifted_n or m.projection[k] != j:
            raise BadChoiceMap(
                f"choice for base node {j} is {k}, not in its fiber"
            )
    M = _marginal_step(L)
    if _fiber_column_mismatch(M, m) is not None:
        warnings.warn(
            "lift marginal depends on placement within fibers; the unlifted "
            "chain does not reproduce its trajectories",
            stacklevel=2,
        )
    return StochasticMatrix(M[:, q], locality=L.base)


def adversarial_init(
    m: LiftMap, pi_hat: Distribution, X
) -> Distribution:
    """pi_hat conditioned on the fiber preimage of a base node set X."""
    if pi_hat.n != m.lifted_n:
        raise DimensionMismatch("pi_hat does not live on the lifted nodes")
    sel = _members_of(X, m.base_n)[np.array(m.projection)]
    mass = float(pi_hat.weights[sel].sum())
    if mass <= 0.0:
        raise EmptyCutWeight("fiber preimage of the cut carries no mass")
    w = np.where(sel, pi_hat.weights, 0.0) / mass
    return Distribution(w)


_FLAG_PAIRS = ("Ss", "Ii", "Mm", "Rr", "Ee")
_FLAG_NAMES = ("init", "invariance", "convergence", "reducibility", "flows")


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """Five-flag scenario: init S/s, invariance I/i, convergence M/m,
    reducibility R/r, flows E/e (e optionally with a deviation budget
    delta).  Lowercase means the constrained/uncontrolled side: s = no
    initialization control, i = invariance imposed, m = full-state
    convergence required, r = irreducibility required, e = ergodic flows
    must match the reference chain."""

    init: str
    invariance: str
    convergence: str
    reducibility: str
    flows: str
    delta: float | None = None
    reference_chain: StochasticMatrix | None = None

    def __post_init__(self) -> None:
        values = (
            self.init, self.invariance, self.convergence,
            self.reducibility, self.flows,
        )
        for name, pair, v in zip(_FLAG_NAMES, _FLAG_PAIRS, values):
            if v not in pair:
                raise BadScenario(
                    f"{name} flag must be one of {pair!r}, got {v!r}"
                )
        if self.delta is not None:
            if self.flows != "e":
                raise BadScenario("a deviation budget needs the flows flag 'e'")
            if not self.delta >= 0:
                raise BadScenario(f"delta must be >= 0, got {self.delta}")

    def require_reference(self) -> StochasticMatrix:
        if self.flows == "e" and self.reference_chain is None:
            raise MissingReferenceChain(
                "flows flag 'e' needs a reference chain"
            )
        return self.reference_chain


def parse_scenario(text: str, reference_chain: StochasticMatrix | None = None) -> ScenarioSpec:
    """Parse a five-letter scenario string, e.g. "sImre" or "SIre:0.001"."""
    if len(text) < 5:
        raise BadScenario(f"scenario string too short: {text!r}")
    core, rest = text[:5], text[5:]
    delta = None
    if rest:
        if not rest.startswith(":"):
            raise BadScenario(f"unexpected scenario suffix {rest!r}")
        try:
            delta = float(rest[1:])
        except ValueError:
            raise BadScenario(f"bad deviation budget {rest[1:]!r}") from None
    return ScenarioSpec(
        init=core[0], invariance=core[1], convergence=core[2],
        reducibility=core[3], flows=core[4], delta=delta,
        reference_chain=reference_chain,
    )


def format_scenario(spec: ScenarioSpec) -> str:
    core = (
        spec.init + spec.invariance + spec.convergence
        + spec.reducibility + spec.flows
    )
    if spec.delta is not None:
        return f"{core}:{spec.delta:g}"
    return core


def _steps_json(tau: float) -> dict:
    if tau == UNMIXED:
        return {"tau": None, "mixed": False}
    return {"tau": int(tau), "mixed": True}


def _induced_conductance(L: Lift, pi_hat: Distribution):
    """(phi, cut) of the chain that the steady state pi_hat induces on the base."""
    return _phi_chain_or_cycle(induced_chain(L, pi_hat), marginal(L, pi_hat))


def _lower_bound(tau: float, phi: float, factor: float) -> tuple[float, bool]:
    """The lower bound 1/(factor phi) on tau, UNMIXED when phi = 0, and whether
    tau is UNMIXED or meets a finite bound: tau >= bound - 1 - bound_slack."""
    value = UNMIXED if phi == 0 else 1.0 / (factor * phi)
    consistent = tau == UNMIXED or (value != UNMIXED and tau >= value - 1 - TOL["bound_slack"])
    return value, bool(consistent)


# phi_graph reaches the 24-node cut guard, but at seconds to minutes a call;
# reports run it only up to the largest base the benchmark times.
_REPORT_GRAPH_MAX_NODES = 14

_GUARD_NOTE = (
    "base graph exceeds the conductance-program guard; the bound uses the "
    "{} chain's conductance instead"
)


def _scenario_phi(
    L: Lift,
    ref: StochasticMatrix | None,
    pi: Distribution,
    pi_hat: Callable[[], Distribution],
    prefer_graph: bool,
):
    """(phi, source, notes) feeding a scenario bound, from the first source
    that applies: the graph conductance program when prefer_graph is set
    (the bounds about the graph itself) or there is no reference chain, on
    bases of at most _REPORT_GRAPH_MAX_NODES; else the reference chain's
    conductance; else that of the chain the steady state pi_hat() induces,
    or None when that chain is too large to enumerate and not cycle-
    supported."""
    if (prefer_graph or ref is None) and L.base.n <= _REPORT_GRAPH_MAX_NODES:
        phi, _ = phi_graph(L.base, pi)
        return phi, "graph", []
    if ref is not None:
        phi, _ = _phi_chain_or_cycle(ref, pi)
        return phi, "reference-chain", [_GUARD_NOTE.format("reference")] if prefer_graph else []
    notes = [_GUARD_NOTE.format("induced")]
    try:
        phi, _ = _induced_conductance(L, pi_hat())
    except DimensionMismatch:
        notes.append(
            "induced chain too large to enumerate and not cycle-"
            "supported; conductance bound skipped"
        )
        return None, "unavailable", notes
    return phi, "induced-chain", notes


def scenario_report(
    L: Lift,
    spec: ScenarioSpec | str,
    pi: Distribution,
    eps: float = 0.25,
    t_max: int | None = None,
) -> dict:
    """Measure a lift under a scenario and judge it against the applicable
    bounds: the 1/(4 phi) lower bound without initialization control
    (conductance of the reference chain when flows are pinned, of the
    graph otherwise), the 1/(8 phi) lower bound when invariance is imposed
    on a designed initialization (consistency check only), and the
    diameter-plus-one upper bound for designed initialization with free
    marginals.  Verdicts cover invariance, irreducibility, and flow
    matching as the scenario demands them."""
    if isinstance(spec, str):
        spec = parse_scenario(spec)
    ref = spec.require_reference()
    if t_max is None:
        t_max = default_t_max(L.map.base_n)
    notes: list[str] = []

    tau_m = marginal_mixing_time(L, pi, eps, spec.init, t_max)
    tau_f = full_mixing_time(L, eps, spec.init, t_max)
    measured = tau_m if spec.convergence == "M" else tau_f

    irreducible = is_irreducible(L.A)
    inv_ok, inv_witness = check_invariance(L, pi, spec.init)

    seed, seed_name = _stationary_seed(L, pi)
    # only flow verdicts and the induced-chain conductance read the steady state
    pi_hat = functools.cache(functools.partial(lifted_stationary, L, seed))

    flow_verdict = None
    if spec.flows == "e":
        delta = spec.delta if spec.delta is not None else 0.0
        max_dev, flow_ok = check_flow_match(L, pi_hat(), ref, delta)
        flow_verdict = {
            "max_dev": max_dev,
            "delta": delta,
            "ok": bool(flow_ok),
        }
        if not irreducible:
            notes.append(
                "lift is reducible: steady states are seed-dependent, so the "
                "flow-match verdict covers only the stated seed"
            )

    def lower_entry(name: str, phi, source: str, factor: float, binding: bool) -> dict:
        value, consistent = _lower_bound(measured, phi, factor)
        return {
            "name": name,
            "kind": "lower",
            "binding": binding,
            "phi": phi,
            "phi_source": source,
            "value": None if value == UNMIXED else value,
            "consistent": consistent,
        }

    # without a reference chain both lower bounds read one graph program
    scenario_phi = functools.cache(functools.partial(_scenario_phi, L, ref, pi, pi_hat))
    bounds: list[dict] = []
    if spec.init == "s":
        phi, source, phi_notes = scenario_phi(ref is None)
        notes.extend(phi_notes)
        if phi is not None:
            bounds.append(lower_entry("one-over-4-phi", phi, source, 4.0, True))
        if spec.invariance == "i":
            notes.append(
                "uncontrolled initialization with imposed marginal "
                "invariance reproduces a local chain on the base graph: no "
                "speedup over the best such chain is possible"
            )
    elif spec.flows == "e":
        # Controlled initialization is exactly what evades the reference
        # chain's conductance bound; report it as a non-binding yardstick.
        phi, source, _ = scenario_phi(False)
        entry = lower_entry("one-over-4-phi", phi, source, 4.0, False)
        bounds.append(entry)
        if not entry["consistent"]:
            notes.append(
                "controlled initialization beats the reference chain's "
                "conductance bound; this is a feature of the scenario, not "
                "a violation"
            )
    if spec.invariance == "i":
        phi, source, phi_notes = scenario_phi(True)
        notes.extend(phi_notes)
        if phi is not None:
            bounds.append(lower_entry("one-over-8-phi", phi, source, 8.0, True))
            notes.append(
                "the 1/(8 phi) lower bound is reported as a consistency "
                "check only, never as a tightness claim"
            )
    if spec.init == "S" and spec.invariance == "I":
        strict_flows = spec.flows == "e" and (spec.delta is None or spec.delta == 0)
        if spec.reducibility == "r" and strict_flows:
            notes.append(
                "no construction is claimed for irreducible lifts with "
                "exactly matching ergodic flows; the diameter upper bound "
                "is omitted"
            )
        else:
            value = diameter(L.base) + 1
            bounds.append({
                "name": "diameter-plus-one",
                "kind": "upper",
                "binding": True,
                "value": float(value),
                "consistent": bool(measured <= value + TOL["bound_slack"]),
            })

    return {
        "tool": {"name": "liftmix", "version": __version__},
        "scenario": format_scenario(spec),
        "eps": eps,
        "t_max": int(t_max),
        "sizes": {"base": L.base.n, "lifted": L.map.lifted_n},
        "diameter": diameter(L.base),
        "construction": dict(L.metadata),
        "stationary_seed": seed_name,
        "tolerances": {key: TOL[key] for key in (
            "invariance_one_step", "invariance_horizon_tv", "steady_state_residual",
            "flow_exact_slack")},
        "measured": {
            "marginal": _steps_json(tau_m),
            "full": _steps_json(tau_f),
        },
        "verdicts": {
            "irreducible": {
                "value": bool(irreducible),
                "required": spec.reducibility == "r",
                "ok": bool(irreducible) if spec.reducibility == "r" else None,
            },
            "invariance": {
                "value": bool(inv_ok),
                "required": spec.invariance == "i",
                "ok": bool(inv_ok) if spec.invariance == "i" else None,
                "witness": None if inv_witness is None
                else inv_witness.weights.tolist(),
            },
            "flow_match": flow_verdict,
        },
        "bounds": bounds,
        "notes": notes,
    }


def lift_to_json(L: Lift) -> dict:
    """A and F as nonzero triplets in row-major order; F's shape is implied,
    and the lifted graph is A's support, so it is not written."""
    F = None if L.F is None else L.F.entries
    return {
        "base": graph_to_json(L.base),
        "projection": list(L.map.projection),
        "A": L.A._sparse_json(),
        "F": None if F is None else _triplet_json(*np.nonzero(F), F[F != 0]),
        "metadata": dict(L.metadata),
    }


def lift_from_json(obj: dict) -> Lift:
    """Read a bundle; F may also be dense "rows", as older bundles hold it,
    and their "lifted" graph, like any other key, is ignored."""
    base = graph_from_json(obj["base"])
    projection = obj["projection"]
    if type(projection) is not list:
        raise BadSize("lift projection must be a list of integers")
    m = LiftMap(base.n, tuple(projection))
    A = matrix_from_json(obj["A"])
    F = obj.get("F")
    if F is not None:
        F = InitMap(m, _json_floats(F["rows"], "init map rows") if "rows" in F
                    else _sparse_from_json(F, (m.lifted_n, m.base_n)).toarray())
    return Lift(
        base=base, map=m, A=A, F=F,
        metadata=dict(obj.get("metadata", {})),
    )
