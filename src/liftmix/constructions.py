"""Lift builders: bridges, clock lifts, the diameter-time mixer, and the
named example lifts.

Everything here returns validated Lift objects (or, for bridges, the
time-varying chain itself).  Lifted nodes are indexed layer-major: a clock
state (t, v) sits at t*N + v, and a node-clock state (t, v0, v) at
t*N^2 + v0*N + v, where v0 remembers the base node the walk started from
and v is the projected position.  `_layered` lays out every such lift.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_array, csr_array, eye_array

from ._tolerances import TOL
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
    _next_hops,
    _strong_components,
    cycle,
    diameter,
    distance_matrix,
    rooted_spanning_tree,
)
from .lift import InitMap, Lift, LiftMap
from .markov import (
    Distribution,
    StochasticMatrix,
    TimeVaryingChain,
    check_stationary,
    metropolis_chain,
    point_distribution,
    _support_graph,
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


def _make_lift(base: Graph, proj, A, F: np.ndarray | None, metadata: dict) -> Lift:
    m = LiftMap(base.n, tuple(proj))
    init = None if F is None else InitMap(m, F)
    return Lift(base=base, map=m, A=StochasticMatrix(A), F=init, metadata=metadata)


def stochastic_bridge(
    g: Graph, p_src: Distribution, p_dst: Distribution
) -> TimeVaryingChain:
    """Time-varying local chain carrying p_src to p_dst in diameter steps.

    Independent coupling: the (i, u) commodity of mass p_src(i) * p_dst(u)
    waits at i until exactly d(i, u) steps remain, then walks the canonical
    shortest path: each hop goes to the lowest-index out-neighbour one step
    closer to u.  Aggregating commodity flows per node and per step gives
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
    hop = _next_hops(g.adjacency(), dist)
    for i in np.nonzero(p_src.weights > 0)[0]:
        for u in np.nonzero(p_dst.weights > 0)[0]:
            mass = p_src.weights[i] * p_dst.weights[u]
            wait = D - int(dist[i, u])
            pos = int(i)
            for t in range(D):
                nxt = pos
                if t >= wait:
                    nxt = int(hop[pos, u])
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


def _layered(steps, periodic: bool, hold=None, restart=None) -> csr_array:
    """Time-layered dynamics, as CSR: layer t-1 feeds layer t through steps[t-1].

    When periodic, the last step wraps back to layer 0 (len(steps)
    layers); otherwise a top layer len(steps) holds its state through
    `hold`, the identity by default, and feeds layer 0 through `restart`.
    """
    m = steps[0].shape[0]
    layers = len(steps) if periodic else len(steps) + 1
    placed = [(t % layers, t - 1, P) for t, P in enumerate(steps, start=1)]
    if not periodic:
        placed.append((layers - 1, layers - 1, eye_array(m) if hold is None else hold))
    if restart is not None:
        placed.append((0, layers - 1, restart))
    blocks = [(i, j, coo_array(P)) for i, j, P in placed]
    row = np.concatenate([P.row + i * m for i, _, P in blocks])
    col = np.concatenate([P.col + j * m for _, j, P in blocks])
    value = np.concatenate([P.data for _, _, P in blocks])
    return csr_array((value, (row, col)), shape=(layers * m, layers * m))


def _block_diagonal(blocks) -> coo_array:
    """The block-diagonal matrix of k square m x m blocks, as COO."""
    k, r, c = np.nonzero(stack := np.asarray(blocks))
    m = stack.shape[1]
    return coo_array((stack[k, r, c], (k * m + r, k * m + c)), shape=(len(stack) * m,) * 2)


def _restart(n: int) -> coo_array:
    """Node-clock map (v0, v) -> (v, v): a walk at v restarts from start v."""
    cols = np.arange(n * n)
    return coo_array((np.ones(n * n), (cols % n * (n + 1), cols)), shape=(n * n, n * n))


def _clock(g: Graph, chain: TimeVaryingChain, periodic: bool, name: str) -> Lift:
    if chain.T == 0:
        raise EmptyChain(f"{name.replace('-', ' ')} lift needs at least one step")
    if chain.n != g.n:
        raise LengthMismatch(f"chain is on {chain.n} nodes, graph has {g.n}")
    A = _layered([P.entries for P in chain.steps], periodic)
    F = np.eye(A.shape[0], g.n)
    proj = np.tile(np.arange(g.n), A.shape[0] // g.n)
    return _make_lift(g, proj, A, F, {"construction": name, "T": chain.T})


def clock_lift(g: Graph, chain: TimeVaryingChain) -> Lift:
    """Run a finite kernel sequence on a time-layered copy of the graph.

    Layers 0..T; layer t-1 feeds layer t through P(t); the top layer holds
    its state.  The marginal of the initialized trajectory reproduces the
    inhomogeneous product P(t)...P(1) p.
    """
    return _clock(g, chain, False, "clock")


def periodic_clock_lift(g: Graph, chain: TimeVaryingChain) -> Lift:
    """Clock lift on a time cycle: layer T-1 wraps to layer 0 through P(T),
    so the kernel sequence applies periodically forever."""
    return _clock(g, chain, True, "periodic-clock")


def _node_clock_blocks(
    g: Graph, per_node, pi: Distribution, periodic: bool
) -> tuple[list, np.ndarray, np.ndarray, int]:
    """Shared grid for node-clock lifts: states (t, v0, v) at t*n^2+v0*n+v.

    Returns (the sparse block-diagonal bridge steps and layer-T handoff
    for `_layered`, F, projection, T).  The handoff differs: the plain
    variant resamples v0 from pi into an extra holding layer T+1, the
    periodic variant restarts (T, v0, v) at the start state (0, v, v).
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
        if T and ch.n != n:
            raise LengthMismatch(f"chain for node {v0} is on {ch.n} nodes, graph has {n}")
    if T == 0:
        raise EmptyChain("node-clock lift needs at least one step")
    steps = [_block_diagonal([ch.steps[t].entries for ch in chains]) for t in range(T)]
    if periodic:
        steps.append(_restart(n))
    else:  # (T, v0, v) -> (T+1, w, v) with probability pi_w
        w, v0, v = np.indices((n, n, n)).reshape(3, -1)
        steps.append(coo_array((pi.weights[w], (w * n + v, v0 * n + v)), shape=(n * n,) * 2))
    size = (T + 1 if periodic else T + 2) * n * n
    F = np.zeros((size, n))
    F[np.arange(n) * (n + 1), np.arange(n)] = 1.0
    proj = np.tile(np.arange(n), size // n)
    return steps, F, proj, T


def node_clock_lift(g: Graph, per_node, pi: Distribution) -> Lift:
    """Clock lift that also remembers the starting node v0, running one
    kernel sequence per start; after the sequences finish, v0 is resampled
    from pi and the state freezes in a holding layer."""
    steps, F, proj, T = _node_clock_blocks(g, per_node, pi, periodic=False)
    return _make_lift(g, proj, _layered(steps, False), F, {"construction": "node-clock", "T": T})


def periodic_node_clock_lift(g: Graph, per_node, pi: Distribution) -> Lift:
    """Node-clock lift on a time cycle: after its T steps, a walk at
    projected position v restarts the sequence for start node v.  Every
    lifted start reaches the restart set within T+1 steps."""
    steps, F, proj, T = _node_clock_blocks(g, per_node, pi, periodic=True)
    return _make_lift(
        g, proj, _layered(steps, True), F, {"construction": "periodic-node-clock", "T": T}
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
    minimum dynamics weight (one widest-path sweep from the root); subtree
    demands are accumulated leaves-first, each met by the parent arc and
    compensated on the parent's diagonal, so columns sum to zero.  The
    combined chain P + P' must stay entrywise in [0, 1].
    """
    n = g.n
    w = pi_tilde.weights
    t = target.weights if isinstance(target, Distribution) else np.asarray(target, dtype=float)
    if t.shape != (n,):
        raise LengthMismatch("target must be a base-sized vector")
    y, tol = t - P.entries @ w, TOL["tree_residual"]
    if abs(float(y.sum())) > tol:
        raise LengthMismatch(f"correction demand sums to {y.sum()}, not 0")
    if n == 1:
        return np.zeros((1, 1))

    # widest paths from the root over arcs p -> u of width P[u, p]: beta is
    # the largest weight whose arcs still span, 0 when positive arcs do not
    W = np.where(g.adjacency(), P.entries.T, 0.0)
    width, settled = np.zeros(n), np.zeros(n, dtype=bool)
    width[0] = np.inf
    for _ in range(n):
        u = int(np.argmax(np.where(settled, -1.0, width)))
        settled[u] = True
        width = np.maximum(width, np.minimum(width[u], W[u]))
    beta = width[1:].min()
    # raises NoSpanningTree unless the positive arcs span
    parent, leaves_first = rooted_spanning_tree(
        g, lambda child, p: P.entries[child, p] > 0 and P.entries[child, p] >= beta, 0
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
    if residual > tol:
        raise LiftmixError(f"tree correction residual {residual} exceeds {tol}")
    combined, clamp = P.entries + corr, TOL["entry_clamp"]
    if (combined < -clamp).any() or (combined > 1 + clamp).any():
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
    is still pi; gamma halves on failure, up to 20 times.  "flows" and
    "irreducible" both refuse gamma outside (0,1).
    """
    if (pi.weights <= 0).any():
        raise BadSize("mixer needs a full-support target")
    if variant not in ("reducible", "flows", "irreducible"):
        raise BadSize(f"unknown mixer variant {variant!r}")
    bridges = _mixer_bridges(g, pi)
    n = g.n
    T = bridges[0].T
    steps, F, proj, _ = _node_clock_blocks(g, bridges, pi, periodic=False)
    meta = {"construction": "diameter-mixer", "variant": variant, "T": T}
    if variant == "reducible":
        return _make_lift(g, proj, _layered(steps, False), F, meta)

    if not 0 < gamma < 1:
        raise BadGamma(f"restart probability gamma must lie in (0,1), got {gamma}")
    if reference is None:
        reference = mixer_default_reference(g, pi)
    check_stationary(reference, pi, TOL["stationary_residual"])

    if variant == "flows":
        A = _layered(steps, False, hold=_block_diagonal([reference.entries] * n))
        return _make_lift(g, proj, A, F, meta)

    last_error: LiftmixError | None = None
    for _ in range(20):
        try:
            held, _ = _solve_top_chain(g, pi, bridges, gamma, reference)
        except (GammaTooLarge, NegativeEntry) as err:
            last_error = err
            gamma /= 2.0
            continue
        A = _layered(steps, False, hold=_block_diagonal([(1.0 - gamma) * held.entries] * n),
                     restart=gamma * _restart(n))
        # keep the strong component of the start states (0, v, v), which
        # the restarts make mutually reachable; the rest is never reached
        # from a start or never returns to one
        labels = _strong_components(A > TOL["entry_clamp"])
        keep = np.flatnonzero(labels == labels[0])
        meta = dict(meta, gamma=gamma)
        return _make_lift(g, proj[keep], A[keep][:, keep], F[keep], meta)
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
    base = P.locality if P.locality is not None else _support_graph(P)
    k, n = copies, P.n
    A = np.tile(P.entries / k, (k, k))
    proj = list(range(n)) * k
    return _make_lift(
        base, proj, A, None,
        {"construction": "si-replicated", "copies": k},
    )
