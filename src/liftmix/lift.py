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
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .conductance import phi_chain, phi_chain_cycle, phi_graph
from .errors import (
    BadChoiceMap,
    BadScenario,
    DimensionMismatch,
    EmptyCutWeight,
    LocalityViolation,
    MissingInitMap,
    MissingReferenceChain,
    NoConvergence,
    NotStationary,
    TooManyNodes,
    ZeroMarginalSupport,
)
from .graph_core import Cut, Graph, diameter, graph_from_json, graph_to_json
from .markov import (
    UNMIXED,
    Distribution,
    StochasticMatrix,
    check_stationary,
    default_t_max,
    ergodic_flows,
    is_irreducible,
    stationary,
    _settle_time,
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
        object.__setattr__(
            self, "projection", tuple(int(c) for c in self.projection)
        )
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
        if (F < -1e-12).any():
            raise DimensionMismatch("init map has negative entries")
        F[F < 0] = 0.0
        sums = F.sum(axis=0)
        if not np.abs(sums - 1.0).max() <= 1e-9:
            j = int(np.abs(sums - 1.0).argmax())
            raise DimensionMismatch(f"init map column {j} sums to {sums[j]}")
        F /= sums[None, :]
        proj = np.array(self.map.projection)
        outside = (F > 1e-12) & (proj[:, None] != np.arange(self.map.base_n)[None, :])
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
    """A lifted chain: base graph, lifted graph, projection, dynamics A,
    optional designed-initialization map F, and construction metadata."""

    base: Graph
    lifted: Graph
    map: LiftMap
    A: StochasticMatrix
    F: InitMap | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _validate_lift(self)


def _validate_lift(L: Lift) -> None:
    if L.map.base_n != L.base.n:
        raise DimensionMismatch(
            f"projection targets {L.map.base_n} nodes, base has {L.base.n}"
        )
    if L.map.lifted_n != L.lifted.n:
        raise DimensionMismatch(
            f"projection covers {L.map.lifted_n} nodes, lifted graph has {L.lifted.n}"
        )
    if L.A.n != L.lifted.n:
        raise DimensionMismatch(
            f"dynamics on {L.A.n} nodes, lifted graph has {L.lifted.n}"
        )
    proj = L.map.projection
    for i, j in L.lifted.arcs:
        ci, cj = proj[i], proj[j]
        if ci != cj and not L.base.has_arc(ci, cj):
            raise LocalityViolation(
                f"lifted arc ({i},{j}) projects to missing base arc ({ci},{cj})"
            )
    adj = L.lifted.adjacency()
    off = L.A.entries > 1e-12
    np.fill_diagonal(off, False)
    illegal = off & ~adj.T
    if illegal.any():
        j, i = np.argwhere(illegal)[0]
        raise LocalityViolation(
            f"dynamics entry ({j},{i}) has no lifted arc ({i},{j})"
        )
    if L.F is not None:
        if L.F.map.projection != L.map.projection:
            raise DimensionMismatch("init map built for a different projection")


def validate_lift(L: Lift) -> None:
    """Re-run all structural checks: projection legality of every lifted
    arc, dynamics support inside the lifted graph, init-map fiber support."""
    _validate_lift(L)


def _as_map(lift_or_map) -> LiftMap:
    return lift_or_map.map if isinstance(lift_or_map, Lift) else lift_or_map


def marginal(lift_or_map, x) -> Distribution:
    """Project a lifted distribution to the base by fiber sums: p = C x."""
    m = _as_map(lift_or_map)
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
    return StochasticMatrix(m.C @ L.A.entries @ B, locality=L.base)


def induced_chain(L: Lift, pi_hat: Distribution) -> StochasticMatrix:
    """Base chain induced by a steady state: collapsed flows over marginals.

    P_{i,j} = (sum of A-flows from fiber(j) into fiber(i) under pi_hat)
    divided by the marginal mass of j; stationary at marginal(pi_hat).
    """
    m = L.map
    w = pi_hat.weights
    if w.shape != (m.lifted_n,):
        raise DimensionMismatch("pi_hat does not live on the lifted nodes")
    res = float(np.abs(L.A.entries @ w - w).sum())
    if res > 1e-8:
        raise NotStationary(f"pi_hat is not a steady state: residual {res}")
    marg = m.C @ w
    dead = np.nonzero(marg <= 1e-15)[0]
    if len(dead):
        raise ZeroMarginalSupport(
            f"marginal of pi_hat vanishes on base nodes {dead.tolist()}"
        )
    collapsed = m.C @ (L.A.entries * w[None, :]) @ m.C.T
    return StochasticMatrix(collapsed / marg[None, :], locality=L.base)


def lifted_stationary(L: Lift, seed_init: Distribution) -> Distribution:
    """Steady state of A reached from a stated seed.

    Irreducible dynamics have a unique steady state, solved exactly.
    Reducible dynamics admit several; the limit then depends on the seed,
    and is computed as the long-run average of the trajectory (evaluated
    through the half-lazy iteration y <- (y + A y)/2, which converges to
    the same limit and tolerates periodic components).
    """
    if seed_init.n != L.map.lifted_n:
        raise DimensionMismatch("seed does not live on the lifted nodes")
    if is_irreducible(L.A):
        return stationary(L.A)
    return Distribution(_batch_limits(L.A.entries, seed_init.weights))


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
    if scenario_init == "s":
        xs = fiber_uniform_init(L.map, pi)
        M = L.map.C @ L.A.entries
        if 0.5 * np.abs(M @ xs.weights - pi.weights).sum() > 1e-12:
            return False, xs
        pair = _fiber_column_mismatch(L)
        if pair is None:
            return True, None
        j0, k = pair
        w = xs.weights.copy()
        w[k] += w[j0]
        w[j0] = 0.0
        return False, Distribution(w)
    if scenario_init == "S":
        if L.F is None:
            raise MissingInitMap("scenario (S) needs an initialization map")
        x = L.F.entries @ pi.weights
        worst = _window_tv(L.A.entries, x, pi.weights, horizon, L.map.C)
        if (worst[1:] > 1e-9).any():
            return False, Distribution(x)
        return True, None
    raise BadScenario(f"scenario_init must be 'S' or 's', got {scenario_init!r}")


def _init_batch(L: Lift, scenario_init: str) -> np.ndarray:
    """Extreme initializations as columns: lifted vertices under (s), the
    init-map columns under (S). Worst case over these is exact because TV
    to any fixed target is convex in the initialization."""
    if scenario_init == "s":
        return np.eye(L.map.lifted_n)
    if scenario_init == "S":
        if L.F is None:
            raise MissingInitMap("scenario (S) needs an initialization map")
        return L.F.entries.copy()
    raise BadScenario(f"scenario_init must be 'S' or 's', got {scenario_init!r}")


def marginal_mixing_time(
    L: Lift,
    pi: Distribution,
    eps: float,
    scenario_init: str = "s",
    t_max: int | None = None,
) -> float:
    """Smallest t with every extreme start's marginal within TV eps of pi
    for all later times up to t_max; UNMIXED if the window never closes."""
    if not 0 < eps < 1:
        raise DimensionMismatch(f"eps must be in (0,1), got {eps}")
    if pi.n != L.map.base_n:
        raise DimensionMismatch(f"pi has size {pi.n}, base has {L.map.base_n}")
    if t_max is None:
        t_max = default_t_max(L.map.base_n)
    X = _init_batch(L, scenario_init)
    worst = _window_tv(L.A.entries, X, pi.weights[:, None], t_max, L.map.C)
    return _settle_time(worst, eps)


def _batch_limits(A: np.ndarray, X0: np.ndarray) -> np.ndarray:
    """Long-run average limit of each column's trajectory under A (a 1-D
    X0 is a single start and gives a 1-D limit)."""
    Y = X0.copy()
    for _ in range(100_000):
        Z = 0.5 * (Y + A @ Y)
        if 0.5 * np.abs(Z - Y).sum(axis=0).max() < 1e-10:
            if np.abs(A @ Z - Z).sum(axis=0).max() <= 1e-9:
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
    irreducible).  Periodic dynamics never settle pointwise and come out
    UNMIXED even when the marginal converges.
    """
    if not 0 < eps < 1:
        raise DimensionMismatch(f"eps must be in (0,1), got {eps}")
    if t_max is None:
        t_max = default_t_max(L.map.base_n)
    X = _init_batch(L, scenario_init)
    A = L.A.entries
    if is_irreducible(L.A):
        targets = stationary(L.A).weights[:, None]
    else:
        targets = _batch_limits(A, X)
    return _settle_time(_window_tv(A, X, targets, t_max), eps)


def check_flow_match(
    L: Lift, pi_hat: Distribution, P_ref: StochasticMatrix, delta: float = 0.0
) -> tuple[float, bool]:
    """Compare collapsed steady-state flows of the lift against a reference.

    max_dev is the largest entrywise gap between the lift's fiber-collapsed
    ergodic flows under pi_hat and the reference chain's flows at the same
    marginal.  delta = 0 means exact matching, judged with 1e-8 slack.
    """
    m = L.map
    w = pi_hat.weights
    if w.shape != (m.lifted_n,):
        raise DimensionMismatch("pi_hat does not live on the lifted nodes")
    if P_ref.n != m.base_n:
        raise DimensionMismatch("reference chain is not on the base nodes")
    marg = Distribution(m.C @ w)
    check_stationary(P_ref, marg, tol=1e-6)
    collapsed = m.C @ (L.A.entries * w[None, :]) @ m.C.T
    reference = ergodic_flows(P_ref, marg)
    max_dev = float(np.abs(collapsed - reference).max())
    threshold = delta if delta > 0 else 1e-8
    return max_dev, max_dev <= threshold


def _fiber_column_mismatch(L: Lift) -> tuple[int, int] | None:
    """First same-fiber pair (j0, k) whose columns of C A differ, else None.

    None means the marginal step does not depend on where mass sits within
    a fiber; j0 is the first lifted node of the fiber holding k.
    """
    M = L.map.C @ L.A.entries
    for fiber in L.map.fibers:
        j0 = fiber[0]
        for k in fiber[1:]:
            if np.abs(M[:, k] - M[:, j0]).max() > 1e-12:
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
    P = (m.C @ L.A.entries)[:, q]
    if _fiber_column_mismatch(L) is not None:
        warnings.warn(
            "lift marginal depends on placement within fibers; the unlifted "
            "chain does not reproduce its trajectories",
            stacklevel=2,
        )
    return StochasticMatrix(P, locality=L.base)


def adversarial_init(
    m: LiftMap, pi_hat: Distribution, X
) -> Distribution:
    """pi_hat conditioned on the fiber preimage of a base node set X."""
    if pi_hat.n != m.lifted_n:
        raise DimensionMismatch("pi_hat does not live on the lifted nodes")
    members = set(X.members() if isinstance(X, Cut) else (int(i) for i in X))
    for i in members:
        if not 0 <= i < m.base_n:
            raise DimensionMismatch(f"cut member {i} outside base range")
    proj = np.array(m.projection)
    sel = np.isin(proj, list(members))
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


def _induced_phi(L: Lift, pi: Distribution, pi_hat: Distribution):
    notes = [
        "base graph exceeds the conductance-program guard; the bound uses "
        "the induced chain's conductance instead"
    ]
    P_ind = induced_chain(L, pi_hat)
    pi_m = marginal(L, pi_hat)
    try:
        phi, _ = phi_chain(P_ind, pi_m)
    except TooManyNodes:
        try:
            phi, _ = phi_chain_cycle(P_ind, pi_m)
        except DimensionMismatch:
            notes.append(
                "induced chain too large to enumerate and not cycle-"
                "supported; conductance bound skipped"
            )
            return None, "unavailable", notes
    return phi, "induced-chain", notes


# phi_graph reaches the 24-node cut guard, but at seconds to minutes a call;
# reports run it only up to the largest base the benchmark times.
_REPORT_GRAPH_MAX_NODES = 14


def _scenario_phi(
    L: Lift,
    spec: ScenarioSpec,
    pi: Distribution,
    pi_hat: Distribution,
    prefer_graph: bool,
):
    """Conductance feeding a scenario bound.

    Default dispatch uses the reference chain's conductance when one is
    supplied and the graph conductance program otherwise; prefer_graph
    flips the priority for the bounds about the graph itself.  Past
    _REPORT_GRAPH_MAX_NODES the reference, then the induced chain stands in.
    """
    ref = spec.reference_chain
    if (prefer_graph or ref is None) and L.base.n <= _REPORT_GRAPH_MAX_NODES:
        phi, _ = phi_graph(L.base, pi)
        return phi, "graph", []
    if ref is None:
        return _induced_phi(L, pi, pi_hat)
    phi, _ = phi_chain(ref, pi)
    notes = [
        "base graph exceeds the conductance-program guard; the "
        "bound uses the reference chain's conductance instead"
    ] if prefer_graph else []
    return phi, "reference-chain", notes


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
    spec.require_reference()
    if t_max is None:
        t_max = default_t_max(L.map.base_n)
    notes: list[str] = []

    tau_m = marginal_mixing_time(L, pi, eps, spec.init, t_max)
    tau_f = full_mixing_time(L, eps, spec.init, t_max)
    measured = tau_m if spec.convergence == "M" else tau_f

    irreducible = is_irreducible(L.A)
    inv_ok, inv_witness = check_invariance(L, pi, spec.init)

    if L.F is not None:
        seed = L.F.apply(pi)
        seed_name = "init-map"
    else:
        seed = fiber_uniform_init(L.map, pi)
        seed_name = "fiber-uniform"
    pi_hat = lifted_stationary(L, seed)

    flow_verdict = None
    if spec.flows == "e":
        ref = spec.require_reference()
        delta = spec.delta if spec.delta is not None else 0.0
        max_dev, flow_ok = check_flow_match(L, pi_hat, ref, delta)
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
        value = UNMIXED if phi == 0 else 1.0 / (factor * phi)
        if measured == UNMIXED:
            consistent = True
        elif value == UNMIXED:
            consistent = False
        else:
            consistent = measured >= value - 1 - 1e-9
        return {
            "name": name,
            "kind": "lower",
            "binding": binding,
            "phi": phi,
            "phi_source": source,
            "value": None if value == UNMIXED else value,
            "consistent": bool(consistent),
        }

    # without a reference chain both lower bounds read one graph program
    scenario_phi = functools.cache(functools.partial(_scenario_phi, L, spec, pi, pi_hat))
    bounds: list[dict] = []
    if spec.init == "s":
        phi, source, phi_notes = scenario_phi(spec.reference_chain is None)
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
        ref = spec.require_reference()
        phi, _ = phi_chain(ref, pi)
        entry = lower_entry("one-over-4-phi", phi, "reference-chain", 4.0, False)
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
                "consistent": bool(measured <= value + 1e-9),
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
        "tolerances": {
            "invariance_one_step": 1e-12,
            "invariance_horizon_tv": 1e-9,
            "steady_state_residual": 1e-8,
            "flow_exact_slack": 1e-8,
        },
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
                else [float(v) for v in inv_witness.weights],
            },
            "flow_match": flow_verdict,
        },
        "bounds": bounds,
        "notes": notes,
    }


def lift_to_json(L: Lift) -> dict:
    return {
        "base": graph_to_json(L.base),
        "lifted": graph_to_json(L.lifted),
        "projection": list(L.map.projection),
        "A": L.A.to_json(),
        "F": None if L.F is None else {
            "rows": [[float(v) for v in row] for row in L.F.entries]
        },
        "metadata": dict(L.metadata),
    }


def lift_from_json(obj: dict) -> Lift:
    base = graph_from_json(obj["base"])
    lifted = graph_from_json(obj["lifted"])
    m = LiftMap(base.n, tuple(obj["projection"]))
    A = StochasticMatrix(np.asarray(obj["A"]["rows"], dtype=float), locality=lifted)
    F = None
    if obj.get("F") is not None:
        F = InitMap(m, np.asarray(obj["F"]["rows"], dtype=float))
    return Lift(
        base=base, lifted=lifted, map=m, A=A, F=F,
        metadata=dict(obj.get("metadata", {})),
    )
