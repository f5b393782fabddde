"""Lift builders: bridges, clock lifts, the diameter-time mixer, and the
named example lifts.

Everything here returns validated Lift objects (or, for bridges, the
time-varying chain itself).  Lifted nodes are indexed layer-major: a clock
state (t, v) sits at t*N + v, and a node-clock state (t, v0, v) at
t*N^2 + v0*N + v, where v0 remembers the base node the walk started from
and v is the projected position.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadGamma,
    BadSize,
    EmptyChain,
    GammaTooLarge,
    GammaTooLargeForDelta,
    LengthMismatch,
    LiftmixError,
    NegativeEntry,
    NotStationary,
)
from .graph_core import (
    Graph,
    _strong_components,
    cycle,
    diameter,
    distance_matrix,
    rooted_spanning_tree,
    shortest_path,
)
from .lift import InitMap, Lift, LiftMap
from .markov import (
    Distribution,
    StochasticMatrix,
    TimeVaryingChain,
    check_stationary,
    metropolis_chain,
    point_distribution,
)

__all__ = [
    "stochastic_bridge",
    "clock_lift",
    "periodic_clock_lift",
    "node_clock_lift",
    "periodic_node_clock_lift",
    "diameter_mixer",
    "mixer_default_reference",
    "spanning_tree_correction",
    "diaconis_cycle_lift",
    "four_cycle_lift",
    "si_replicated_lift",
]


def mixer_default_reference(g: Graph, pi: Distribution) -> StochasticMatrix:
    """Reference chain the irreducible mixer falls back to: half-lazy
    Metropolis.  The diagonal of at least 1/2 leaves room for the
    spanning-tree correction's diagonal compensations at small gamma."""
    half = 0.5 * (np.eye(g.n) + metropolis_chain(g, pi).entries)
    return StochasticMatrix(half, locality=g)


def _support_graph(A: np.ndarray) -> Graph:
    """Directed graph of the off-diagonal support of a dynamics matrix."""
    n = A.shape[0]
    arcs = set()
    rows, cols = np.nonzero(A > 1e-12)
    for j, i in zip(rows.tolist(), cols.tolist()):
        if i != j:
            arcs.add((i, j))
    return Graph(n=n, arcs=frozenset(arcs))


def _make_lift(base: Graph, proj, A: np.ndarray, F: np.ndarray | None, metadata: dict) -> Lift:
    lifted = _support_graph(A)
    m = LiftMap(base.n, tuple(proj))
    init = None if F is None else InitMap(m, F)
    return Lift(
        base=base,
        lifted=lifted,
        map=m,
        A=StochasticMatrix(A, locality=lifted),
        F=init,
        metadata=metadata,
    )


def stochastic_bridge(
    g: Graph, p_src: Distribution, p_dst: Distribution
) -> TimeVaryingChain:
    """Time-varying local chain carrying p_src to p_dst in diameter steps.

    Independent coupling: the (i, u) commodity of mass p_src(i) * p_dst(u)
    waits at i until exactly d(i, u) steps remain, then walks the canonical
    shortest path.  Aggregating commodity flows per node and per step gives
    column-stochastic, locality-respecting kernels whose product maps
    p_src to p_dst exactly.
    """
    if p_src.n != g.n or p_dst.n != g.n:
        raise LengthMismatch("endpoint distributions must live on the graph")
    dist = distance_matrix(g)  # raises DisconnectedGraph
    D = int(dist.max())
    n = g.n
    if D == 0:
        return TimeVaryingChain([])
    flow = np.zeros((D, n, n))  # flow[t, w, v]: mass moving v -> w in step t+1
    occupancy = np.zeros((D, n))  # mass at each node before step t+1
    paths: dict[tuple[int, int], list[int]] = {}
    for i in np.nonzero(p_src.weights > 0)[0]:
        for u in np.nonzero(p_dst.weights > 0)[0]:
            mass = p_src.weights[i] * p_dst.weights[u]
            d = int(dist[i, u])
            wait = D - d
            path = paths.setdefault((int(i), int(u)), shortest_path(g, int(i), int(u)))
            pos = int(i)
            for t in range(D):
                nxt = pos if t < wait else path[t - wait + 1]
                occupancy[t, pos] += mass
                flow[t, nxt, pos] += mass
                pos = nxt
    steps = []
    for t in range(D):
        P = np.eye(n)
        populated = occupancy[t] > 0
        P[:, populated] = flow[t][:, populated] / occupancy[t][populated][None, :]
        steps.append(StochasticMatrix(P, locality=g))
    return TimeVaryingChain(steps)


def clock_lift(g: Graph, chain: TimeVaryingChain) -> Lift:
    """Run a finite kernel sequence on a time-layered copy of the graph.

    Layers 0..T; layer t-1 feeds layer t through P(t); the top layer holds
    its state.  The marginal of the initialized trajectory reproduces the
    inhomogeneous product P(t)...P(1) p.
    """
    T = chain.T
    if T == 0:
        raise EmptyChain("clock lift needs at least one step")
    _require_local(chain, g)
    n = g.n
    size = (T + 1) * n
    A = np.zeros((size, size))
    for t in range(1, T + 1):
        A[t * n:(t + 1) * n, (t - 1) * n:t * n] = chain.steps[t - 1].entries
    A[T * n:, T * n:] = np.eye(n)
    F = np.zeros((size, n))
    F[:n, :] = np.eye(n)
    proj = [v for _ in range(T + 1) for v in range(n)]
    return _make_lift(g, proj, A, F, {"construction": "clock", "T": T})


def periodic_clock_lift(g: Graph, chain: TimeVaryingChain) -> Lift:
    """Clock lift on a time cycle: layer T-1 wraps to layer 0 through P(T),
    so the kernel sequence applies periodically forever."""
    T = chain.T
    if T == 0:
        raise EmptyChain("periodic clock lift needs at least one step")
    _require_local(chain, g)
    n = g.n
    size = T * n
    A = np.zeros((size, size))
    for t in range(1, T):
        A[t * n:(t + 1) * n, (t - 1) * n:t * n] = chain.steps[t - 1].entries
    A[:n, (T - 1) * n:] = chain.steps[T - 1].entries
    F = np.zeros((size, n))
    F[:n, :] = np.eye(n)
    proj = [v for _ in range(T) for v in range(n)]
    return _make_lift(g, proj, A, F, {"construction": "periodic-clock", "T": T})


def _require_local(chain: TimeVaryingChain, g: Graph) -> None:
    for k, P in enumerate(chain.steps):
        if P.n != g.n:
            raise LengthMismatch(f"step {k + 1} is on {P.n} nodes, graph has {g.n}")
        StochasticMatrix(P.entries, locality=g)


def _node_clock_blocks(
    g: Graph, per_node, pi: Distribution, periodic: bool
) -> tuple[np.ndarray, np.ndarray, list[int], int]:
    """Shared grid for node-clock lifts: states (t, v0, v) at t*n^2+v0*n+v.

    Returns (A with bridge blocks and the layer-T handoff, F, projection,
    T).  The handoff differs: the plain variant resamples v0 from pi into
    an extra holding layer T+1, the periodic variant maps (T, v0, v)
    straight onto the start state (0, v, v).
    """
    n = g.n
    chains = list(per_node)
    if len(chains) != n:
        raise LengthMismatch(f"need one chain per node: got {len(chains)} for {n}")
    if pi.n != n:
        raise LengthMismatch("target distribution must live on the graph")
    T = chains[0].T
    for v0, ch in enumerate(chains):
        if ch.T != T:
            raise LengthMismatch(
                f"chain for node {v0} has length {ch.T}, expected {T}"
            )
        _require_local(ch, g)
    if T == 0:
        raise EmptyChain("node-clock lift needs at least one step")
    layers = T + 1 if periodic else T + 2
    size = layers * n * n

    def idx(t: int, v0: int, v: int) -> int:
        return t * n * n + v0 * n + v

    A = np.zeros((size, size))
    for t in range(1, T + 1):
        for v0 in range(n):
            P = chains[v0].steps[t - 1].entries
            block = slice(idx(t, v0, 0), idx(t, v0, n))
            prev = slice(idx(t - 1, v0, 0), idx(t - 1, v0, n))
            A[block, prev] = P
    if periodic:
        # wrap: (T, v0, v) -> (0, v, v) with probability one
        for v0 in range(n):
            for v in range(n):
                A[idx(0, v, v), idx(T, v0, v)] = 1.0
    else:
        # (T, v0, v) -> (T+1, w, v) with probability pi(w); top layer holds
        for v0 in range(n):
            for v in range(n):
                for w in range(n):
                    A[idx(T + 1, w, v), idx(T, v0, v)] = pi.weights[w]
        for v0 in range(n):
            for v in range(n):
                k = idx(T + 1, v0, v)
                A[k, k] = 1.0
    F = np.zeros((size, n))
    for v in range(n):
        F[idx(0, v, v), v] = 1.0
    proj = [v for _ in range(layers) for _ in range(n) for v in range(n)]
    return A, F, proj, T


def node_clock_lift(g: Graph, per_node, pi: Distribution) -> Lift:
    """Clock lift that also remembers the starting node v0, running one
    kernel sequence per start; after the sequences finish, v0 is resampled
    from pi and the state freezes in a holding layer."""
    A, F, proj, T = _node_clock_blocks(g, per_node, pi, periodic=False)
    return _make_lift(g, proj, A, F, {"construction": "node-clock", "T": T})


def periodic_node_clock_lift(g: Graph, per_node, pi: Distribution) -> Lift:
    """Node-clock lift on a time cycle: after its T steps, a walk at
    projected position v restarts the sequence for start node v.  Every
    lifted start reaches the restart set within T+1 steps."""
    A, F, proj, T = _node_clock_blocks(g, per_node, pi, periodic=True)
    return _make_lift(
        g, proj, A, F, {"construction": "periodic-node-clock", "T": T}
    )


def _mixer_bridges(g: Graph, pi: Distribution) -> list[TimeVaryingChain]:
    D = diameter(g)
    if D == 0:
        raise BadSize("mixer needs a graph with positive diameter")
    return [stochastic_bridge(g, point_distribution(g.n, i), pi) for i in range(g.n)]


def spanning_tree_correction(
    g: Graph, P: StochasticMatrix, pi_tilde: Distribution, target
) -> np.ndarray:
    """Signed correction P' supported on a spanning tree with P' pi = y,
    where y = target - P pi.

    The tree is rooted at node 0 over arcs carrying the largest possible
    minimum dynamics weight (binary search over the entry set); subtree
    demands are accumulated leaves-first, each met by the parent arc and
    compensated on the parent's diagonal, so columns sum to zero.  The
    combined chain P + P' must stay entrywise in [0, 1].
    """
    n = g.n
    w = pi_tilde.weights
    t = target.weights if isinstance(target, Distribution) else np.asarray(target, dtype=float)
    if t.shape != (n,):
        raise LengthMismatch("target must be a base-sized vector")
    y = t - P.entries @ w
    if abs(float(y.sum())) > 1e-10:
        raise LengthMismatch(f"correction demand sums to {y.sum()}, not 0")
    if n == 1:
        return np.zeros((1, 1))

    # raises NoSpanningTree unless the positive arcs span, so the search
    # below always has a tree at its lowest level
    rooted_spanning_tree(g, lambda child, parent: P.entries[child, parent] > 0, 0)
    arc_weights = sorted({float(P.entries[j, i]) for (i, j) in g.arcs if P.entries[j, i] > 0})

    def has_tree(beta: float) -> bool:
        try:
            rooted_spanning_tree(g, lambda child, parent: P.entries[child, parent] >= beta, 0)
            return True
        except LiftmixError:
            return False

    lo, hi = 0, len(arc_weights) - 1
    while lo < hi:  # largest beta keeping a rooted spanning tree
        mid = (lo + hi + 1) // 2
        if has_tree(arc_weights[mid]):
            lo = mid
        else:
            hi = mid - 1
    beta = arc_weights[lo]
    parent, leaves_first = rooted_spanning_tree(
        g, lambda child, parent_: P.entries[child, parent_] >= beta, 0
    )

    corr = np.zeros((n, n))
    flow = y.copy()
    for j in leaves_first:
        p = parent[j]
        if p == j:
            continue
        corr[j, p] += flow[j] / w[p]
        corr[p, p] -= flow[j] / w[p]
        flow[p] += flow[j]

    residual = float(np.abs(corr @ w - y).max())
    if residual > 1e-10:
        raise LiftmixError(f"tree correction residual {residual} exceeds 1e-10")
    combined = P.entries + corr
    if (combined < -1e-12).any() or (combined > 1 + 1e-12).any():
        raise NegativeEntry("corrected chain leaves [0, 1]; reduce gamma")
    return corr


def _solve_top_chain(
    g: Graph, pi: Distribution, bridges, gamma: float, reference: StochasticMatrix
) -> tuple[StochasticMatrix, Distribution]:
    """Top-layer chain of the irreducible mixer and its stationary law.

    The cohort returning to the start layer carries the top layer's
    projected law pi_tilde; riding the bridges for D+1 steps and mixing
    with the held mass must average out to pi, which pins pi_tilde through
    a small linear system.  The top chain is the reference chain plus a
    tree correction making pi_tilde its (1-gamma)-damped fixed point.
    """
    n = g.n
    D = bridges[0].T
    B = np.zeros((n, n))
    for i in range(n):
        q = np.zeros(n)
        q[i] = 1.0
        B[:, i] += q
        for t in range(D):
            q = bridges[i].steps[t].entries @ q
            B[:, i] += q
    B /= D + 1
    a = 1.0 / (1.0 + (D + 1) * gamma)
    system = a * np.eye(n) + (1.0 - a) * B
    pi_tilde = np.linalg.solve(system, pi.weights)
    if (pi_tilde <= 0).any():
        raise GammaTooLarge(
            f"top-layer law loses positivity at gamma={gamma}"
        )
    pi_tilde /= pi_tilde.sum()
    target = (pi_tilde - gamma * pi.weights) / (1.0 - gamma)
    if (target < 0).any():
        raise GammaTooLarge(f"damped fixed-point demand negative at gamma={gamma}")
    tilde = Distribution(pi_tilde)
    corr = spanning_tree_correction(g, reference, tilde, target)
    top = StochasticMatrix(reference.entries + corr, locality=g)
    return top, tilde


def diameter_mixer(
    g: Graph,
    pi: Distribution,
    variant: str = "reducible",
    gamma: float = 1e-3,
    reference: StochasticMatrix | None = None,
) -> Lift:
    """Designed-initialization lift mixing to pi in diameter-many steps.

    All variants ride one stochastic bridge e_i -> pi per start node, so
    the marginal is exactly pi at t = diameter.  Variants differ in the
    holding layer reached afterwards: "reducible" freezes (marginal stays
    pi exactly), "flows" runs a reference chain there so the absorbed
    flows match its ergodic flows, and "irreducible" adds a small
    probability gamma of restarting the bridges, with the held chain
    corrected so the overall marginal of the (now unique) stationary state
    is still pi; gamma halves on failure, up to 20 times.
    """
    if (pi.weights <= 0).any():
        raise BadSize("mixer needs a full-support target")
    if variant not in ("reducible", "flows", "irreducible"):
        raise BadSize(f"unknown mixer variant {variant!r}")
    bridges = _mixer_bridges(g, pi)
    n = g.n
    T = bridges[0].T
    A, F, proj, _ = _node_clock_blocks(g, bridges, pi, periodic=False)
    meta = {"construction": "diameter-mixer", "variant": variant, "T": T}
    if variant == "reducible":
        return _make_lift(g, proj, A, F, meta)

    if reference is None:
        reference = mixer_default_reference(g, pi)
    check_stationary(reference, pi, tol=1e-9)

    def idx(t: int, v0: int, v: int) -> int:
        return t * n * n + v0 * n + v

    if variant == "flows":
        for v0 in range(n):
            block = slice(idx(T + 1, v0, 0), idx(T + 1, v0, n))
            A[block, block] = reference.entries
        return _make_lift(g, proj, A, F, meta)

    if not gamma > 0:
        raise BadGamma(f"restart probability gamma must be positive, got {gamma}")
    last_error: LiftmixError | None = None
    for _ in range(20):
        try:
            top, _ = _solve_top_chain(g, pi, bridges, gamma, reference)
        except (GammaTooLarge, NegativeEntry) as err:
            last_error = err
            gamma /= 2.0
            continue
        A_full = A.copy()
        for v0 in range(n):
            block = slice(idx(T + 1, v0, 0), idx(T + 1, v0, n))
            A_full[block, block] = (1.0 - gamma) * top.entries
        for v0 in range(n):
            for v in range(n):
                A_full[idx(0, v, v), idx(T + 1, v0, v)] += gamma
        # keep the strong component of the start states (0, v, v), which
        # the restarts make mutually reachable; the rest is never reached
        # from a start or never returns to one
        labels = _strong_components(A_full > 1e-12)
        keep = np.flatnonzero(labels == labels[idx(0, 0, 0)]).tolist()
        A_red = A_full[np.ix_(keep, keep)]
        proj_red = [proj[k] for k in keep]
        pos = {k: r for r, k in enumerate(keep)}
        F_red = np.zeros((len(keep), n))
        for v in range(n):
            F_red[pos[idx(0, v, v)], v] = 1.0
        meta = dict(meta, gamma=gamma)
        return _make_lift(g, proj_red, A_red, F_red, meta)
    raise last_error if last_error is not None else GammaTooLarge("gamma retry failed")


def diaconis_cycle_lift(N: int) -> Lift:
    """Direction-memory walk on the even cycle: two layers (clockwise and
    counterclockwise), each step moves one position in the current
    direction and flips direction with probability 1/N.  Stationary
    uniform on the 2N nodes; no initialization map."""
    if N < 4 or N % 2 != 0:
        raise BadSize("cycle size must be even and at least 4")
    g = cycle(N)
    A = np.zeros((2 * N, 2 * N))
    stay, flip = 1.0 - 1.0 / N, 1.0 / N
    for k in range(N):
        fwd, back = (k + 1) % N, (k - 1) % N
        A[fwd, k] = stay          # (+, k) -> (+, k+1)
        A[N + fwd, k] = flip      # (+, k) -> (-, k+1)
        A[N + back, N + k] = stay  # (-, k) -> (-, k-1)
        A[back, N + k] = flip      # (-, k) -> (+, k-1)
    proj = list(range(N)) * 2
    return _make_lift(g, proj, A, None, {"construction": "diaconis", "N": N})


def four_cycle_lift(
    delta: float, gamma: float
) -> tuple[Lift, StochasticMatrix, float, float]:
    """Three-layer lift of the 4-cycle beating its flow conductance bound.

    Layer 0 scatters to the two neighbors, layer 1 spreads over a
    3-window, and layer 2 holds a slow biased walk that leaks back to
    layer 0 at rate gamma.  The internal bias epsilon and the reference
    chain's laziness phi are tuned so the lift's ergodic flows equal those
    of the reference chain with edge weights delta / (1 - delta), while
    the designed initialization mixes in two steps.  Returns
    (lift, reference chain, phi, epsilon).
    """
    if not 0 < delta < 1:
        raise BadSize(f"delta must lie in (0,1), got {delta}")
    if not 0 < gamma < 1:
        raise GammaTooLargeForDelta(f"gamma must lie in (0,1), got {gamma}")
    ratio = (1.0 + gamma / 2.0) / (1.0 - gamma) * (1.0 - 2.0 * delta)
    if not -1.0 < ratio < 1.0:
        raise GammaTooLargeForDelta(
            f"no internal bias exists for delta={delta}, gamma={gamma}"
        )
    epsilon = (1.0 - ratio) / 2.0
    phi = (1.5 * gamma) / (1.0 + 2.0 * gamma)

    g = cycle(4)
    A = np.zeros((12, 12))
    for v in range(4):
        up, down = (v + 1) % 4, (v - 1) % 4
        A[4 + up, v] = 0.5
        A[4 + down, v] = 0.5
        A[8 + v, 4 + v] = 0.5
        A[8 + up, 4 + v] = 0.25
        A[8 + down, 4 + v] = 0.25
        A[v, 8 + v] = gamma
    # layer-2 walk: epsilon-weight between {0,1} and {2,3} partners,
    # (1-epsilon)-weight between {0,3} and {1,2} partners
    eps_partner = {0: 1, 1: 0, 2: 3, 3: 2}
    other_partner = {0: 3, 3: 0, 1: 2, 2: 1}
    for v in range(4):
        A[8 + eps_partner[v], 8 + v] = (1.0 - gamma) * epsilon
        A[8 + other_partner[v], 8 + v] = (1.0 - gamma) * (1.0 - epsilon)

    P = np.full((4, 4), 0.0)
    np.fill_diagonal(P, phi)
    for v, w in ((0, 1), (2, 3)):
        P[w, v] = P[v, w] = (1.0 - phi) * delta
    for v, w in ((0, 3), (1, 2)):
        P[w, v] = P[v, w] = (1.0 - phi) * (1.0 - delta)
    reference = StochasticMatrix(P, locality=g)

    F = np.zeros((12, 4))
    F[:4, :] = np.eye(4)
    proj = list(range(4)) * 3
    L = _make_lift(
        g, proj, A, F,
        {"construction": "four-cycle", "delta": delta, "gamma": gamma},
    )
    return L, reference, phi, epsilon


def si_replicated_lift(P: StochasticMatrix, copies: int = 2) -> Lift:
    """Uniformly mixed copies of one chain: from any copy, pick a fresh
    copy uniformly and step with P.  The marginal step never depends on
    the copy, so the lift is invariant under uncontrolled initialization
    and unlifts back to P for any representative choice."""
    if copies < 2:
        raise BadSize("need at least two copies")
    base = P.locality if P.locality is not None else _support_graph(P.entries)
    k, n = copies, P.n
    A = np.tile(P.entries / k, (k, k))
    proj = list(range(n)) * k
    return _make_lift(
        base, proj, A, None,
        {"construction": "si-replicated", "copies": k},
    )
