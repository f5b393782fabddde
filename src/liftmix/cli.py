"""Command-line front end: file I/O, construction commands, analysis
commands, and the named verification suites.

All randomness flows from one 64-bit seed (default 0) through numpy's
default generator family.  Reports are emitted as JSON with sorted keys
and fixed separators, so identical inputs and seed produce byte-identical
output; an optional CSV summary carries the (check, measured, bound,
pass) table.  Exit codes: 0 all checks pass, 1 a numerical check failed
(named on stderr), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import stat
import sys
from contextlib import ExitStack
from functools import cache
from itertools import chain

import numpy as np

from ._tolerances import TOL
from ._version import __version__
from .conductance import (
    _phi_chain_or_cycle,
    clock_contraction_check,
    lemma1_check,
    phi_graph,
)
from .constructions import (
    _node_clock,
    _point_bridges,
    clock_lift,
    diaconis_cycle_lift,
    diameter_mixer,
    four_cycle_lift,
    mixer_default_reference,
    node_clock_lift,
    periodic_clock_lift,
    periodic_node_clock_lift,
    si_replicated_lift,
    stochastic_bridge,
)
from .errors import BadScenario, BadSize, LiftmixError
from .graph_core import (
    Graph,
    barbell,
    cycle,
    diameter,
    graph_from_json,
    is_connected,
    path,
)
from .lift import (
    Lift,
    _induced_conductance,
    _lower_bound,
    _stationary_seed,
    adversarial_init,
    check_flow_match,
    check_invariance,
    lift_from_json,
    lift_to_json,
    lifted_stationary,
    marginal,
    marginal_mixing_time,
    parse_scenario,
    scenario_report,
    unlift_si,
)
from .markov import (
    UNMIXED,
    Distribution,
    TimeVaryingChain,
    _json_floats,
    _settle_time,
    _window_tv,
    distribution_from_json,
    is_irreducible,
    lazy_walk,
    matrix_from_json,
    mixing_time,
    point_distribution,
    stationary,
    tv_distance,
    uniform_distribution,
)
from .randomgen import (
    random_connected_graph,
    random_distribution,
    random_local_chain,
    random_reversible_chain,
    random_zero_sum,
    rng_from_seed,
)

TOOL = {"name": "liftmix", "version": __version__}
_MIXER_GAMMA = 1e-3  # restart probability of the suites' irreducible mixers
_EPS = 0.25  # the TV threshold of every mixing time the suites measure


# ---------------------------------------------------------------------------
# plumbing


def _plain(obj):
    """Recursively convert report values to JSON-safe plain Python.

    Non-finite floats become the strings "inf", "-inf" and "nan" so the
    output stays strict JSON.  Exact built-in types are dispatched first,
    since bundles hold long lists of plain numbers: a list whose elements
    are all int and str, or all finite float, is returned as it is, and so
    is a list of such lists (edges, rows), all tested at C speed; any other
    list (bools, numpy scalars, non-finite floats, deeper nesting) is
    converted element by element.
    """
    kind = type(obj)
    if kind is float:
        if math.isfinite(obj):
            return obj
        if math.isnan(obj):
            return "nan"
        return "inf" if obj > 0 else "-inf"
    if kind is list:
        flat = list(chain.from_iterable(obj)) if set(map(type, obj)) == {list} else obj
        kinds = set(map(type, flat))
        if kinds <= {int, str} or kinds == {float} and all(map(math.isfinite, flat)):
            return obj
        return [_plain(v) for v in obj]
    if kind is int or kind is str:
        return obj
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _plain(float(obj))
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":")) + "\n"


def _emit(*outputs: tuple[str, str | None]) -> None:
    """Each (text, path) in turn to its path, or to stdout for None.  Every
    path is opened, without truncation, before any text is written: a path
    that cannot be written is an input error that names it, and nothing is
    emitted before it.  A regular file is overwritten from its start and
    cut to the new length, in place: after a truncate to zero (or a rename
    over it) ext4's auto_da_alloc flushes the file on close, tens of ms."""
    try:
        with ExitStack() as stack:
            handles = []
            for _, path in outputs:
                handles.append(None if path is None else stack.enter_context(open(
                    path, "w", newline="",
                    opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666))))
            for (text, path), fh in zip(outputs, handles):
                if fh is None:
                    sys.stdout.write(text)
                    continue
                with fh:
                    fh.write(text)
                    if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                        fh.truncate()
    except OSError as exc:
        raise LiftmixError(f"cannot write {path}: {exc}") from exc


def _read(path: str, reader, *args):
    """reader(obj, *args) on the JSON object in the file at path.  A file
    that cannot be read, whose JSON has the wrong shape for reader, or
    that reader rejects is an input error that names the file."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise LiftmixError(f"cannot read JSON from {path}: {exc}") from exc
    try:
        return reader(obj, *args)
    except (KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise LiftmixError(f"malformed input in {path}: {type(exc).__name__}: {exc}") from exc
    except LiftmixError as exc:
        raise type(exc)(f"malformed input in {path}: {exc}") from exc


def _read_distribution(spec: str, n: int) -> Distribution:
    """Distribution argument: 'uniform', 'e:K' for a point mass, or a path."""
    if spec == "uniform":
        return uniform_distribution(n)
    if spec.startswith("e:"):
        k = spec[2:]
        if not (k.isdecimal() and int(k) < n):
            raise BadSize(f"point mass {spec!r} needs a node index in [0, {n})")
        return point_distribution(n, int(k))
    d = _read(spec, distribution_from_json)
    if d.n != n:
        raise BadSize(f"distribution has size {d.n}, expected {n}")
    return d


def _chain_from_steps(steps: list, g: Graph) -> TimeVaryingChain:
    """A chain file's steps as dense rows, validated once as a chain on g."""
    return TimeVaryingChain([_json_floats(rows, "matrix rows") for rows in steps], g)


def _check(name: str, measured, bound, ok=None) -> dict:
    """One suite row; it passes when ok, by default when measured <= bound."""
    return {
        "check": name,
        "measured": measured,
        "bound": bound,
        "pass": bool(measured <= bound if ok is None else ok),
    }


def _tau_from_start(L: Lift, pi: Distribution, x0: Distribution, eps: float,
                    t_max: int) -> float:
    """Marginal settle time from one explicit lifted start."""
    worst = _window_tv(L.A, x0.weights, pi.weights, t_max, L.map.C, eps=eps)
    return _settle_time(worst, eps)


# ---------------------------------------------------------------------------
# verification suites: each returns (checks, notes, extras)


def _criterion1_cases(seed: int):
    rng = rng_from_seed(seed)
    cases = [
        ("barbell-6", barbell(6)),
        ("cycle-8", cycle(8)),
        ("path-5", path(5)),
    ]
    for k in range(20):
        cases.append((f"random-{k:02d}", random_connected_graph(rng, n_max=10)))
    return [(name, g, random_distribution(rng, g.n)) for name, g in cases]


def _irreducible_mixers():
    """(name, lift, pi, reference) of each irreducible mixer the suites check."""
    for name, g, make_ref in (
        ("cycle-4", cycle(4), lambda g, pi: lazy_walk(g)),
        ("barbell-3", barbell(3), mixer_default_reference),
    ):
        pi = uniform_distribution(g.n)
        ref = make_ref(g, pi)
        yield name, diameter_mixer(g, pi, "irreducible", _MIXER_GAMMA, ref), pi, ref


def _suite_thm2(seed: int):
    checks = []
    tols = {key: TOL[key] for key in ("exact_tv", "stationary_tv")}
    for name, g, pi in _criterion1_cases(seed):
        L = diameter_mixer(g, pi, "reducible")
        D = diameter(g)
        tv = _window_tv(L.A, L.F, pi.weights[:, None], D, L.map.C)[D]
        checks.append(_check(f"thm2/{name}/exact-at-diameter", tv, tols["exact_tv"]))
        tau = marginal_mixing_time(L, pi, _EPS, "S", t_max=max(20, 4 * (D + 1)))
        checks.append(_check(f"thm2/{name}/marginal-mixing", tau, D + 1))

    for name, L, pi, ref in _irreducible_mixers():
        used = L.metadata["gamma"]
        irreducible = is_irreducible(L.A)
        checks.append(_check(f"thm2/{name}/irreducible", irreducible, True, irreducible))
        pi_hat = stationary(L.A)
        tv = tv_distance(marginal(L, pi_hat), pi)
        checks.append(_check(f"thm2/{name}/marginal-stationary", tv, tols["stationary_tv"]))
        dev, ok = check_flow_match(L, pi_hat, ref, 10 * used)
        checks.append(_check(f"thm2/{name}/flow-deviation", dev, 10 * used, ok))
        D = diameter(L.base)
        tau = marginal_mixing_time(L, pi, _EPS, "S", t_max=200)
        checks.append(_check(f"thm2/{name}/marginal-mixing", tau, D + 1))
    return checks, [], {"tolerances": tols | {"eps": _EPS, "gamma": _MIXER_GAMMA}}


def _suite_thm1(seed: int):
    rng = rng_from_seed(seed)
    checks = []
    unlift, step_tv, horizon, starts = TOL["unlift_match"], TOL["step_tv"], 50, 20
    for idx, copies in enumerate((2, 3)):
        g = random_connected_graph(rng, n_max=8)
        P, pi = random_reversible_chain(rng, g)
        L = si_replicated_lift(P, copies)
        ok_inv, _ = check_invariance(L, pi, "s")
        checks.append(_check(f"thm1/replicated-{idx}/invariant", ok_inv, True, ok_inv))
        Q = unlift_si(L, list(range(g.n)))
        dq = np.abs(Q.entries - P.entries).max()
        checks.append(_check(f"thm1/replicated-{idx}/unlift-returns-base", dq, unlift))
        worst = 0.0
        m = L.map.lifted_n
        for _ in range(starts):
            x = np.asarray(random_distribution(rng, m).weights)
            p = L.map.C @ x
            for _ in range(horizon):
                x = L.A.entries @ x
                p = Q.entries @ p
                worst = max(worst, 0.5 * np.abs(L.map.C @ x - p).sum())
        checks.append(_check(f"thm1/replicated-{idx}/trajectories-match", worst, step_tv))

    N = 16
    L = diaconis_cycle_lift(N)
    pi = uniform_distribution(N)
    x = np.zeros(2 * N)
    x[3] = 0.5
    x[N + 1] = 0.5
    starved = float((L.map.C @ (L.A.entries @ x))[2])
    checks.append(_check("thm1/direction-lift/witness-starves-fiber", starved, 0.0,
                         starved == 0.0))
    ok_inv, witness = check_invariance(L, pi, "s")
    checks.append(_check("thm1/direction-lift/invariance-fails", ok_inv, False,
                         not ok_inv and witness is not None))
    tols = {"step_tv": step_tv, "horizon": horizon, "starts": starts}
    return checks, [], {"tolerances": tols}


def _suite_lemma1(seed: int):
    rng = rng_from_seed(seed)
    violations = 0
    worst_margin = -np.inf
    slack, instances, max_nodes, max_t = TOL["bound_slack"], 500, 8, 20
    for k in range(instances):
        g = random_connected_graph(rng, n=int(rng.integers(2, max_nodes + 1)))
        if rng.random() < 0.5:
            P, pi = random_reversible_chain(rng, g)
        else:
            P = random_local_chain(rng, g)
            pi = stationary(P)
        size = int(rng.integers(1, g.n))
        X = [int(v) for v in rng.choice(g.n, size=size, replace=False)]
        t = int(rng.integers(1, max_t + 1))
        leaked, bound, ok = lemma1_check(P, pi, X, t)
        if not ok:
            violations += 1
        worst_margin = max(worst_margin, leaked - bound)
    checks = [
        _check("lemma1/violations", violations, 0, violations == 0),
        _check("lemma1/worst-margin", worst_margin, slack),
    ]
    tols = {"slack": slack, "instances": instances, "max_nodes": max_nodes, "max_t": max_t}
    return checks, [], {"tolerances": tols}


def _criterion_lifts(seed: int):
    """Every lift the reproduction suites construct, with its base target,
    built one at a time as it is read."""
    for name, g, pi in _criterion1_cases(seed):
        yield f"mixer-reducible/{name}", diameter_mixer(g, pi, "reducible"), pi
    for name, L, pi, _ in _irreducible_mixers():
        yield f"mixer-irreducible/{name}", L, pi
    for N in (16, 32, 64):
        yield f"direction-lift/cycle-{N}", diaconis_cycle_lift(N), uniform_distribution(N)
    L, _ = four_cycle_lift(0.05, 0.01)
    yield "four-cycle", L, uniform_distribution(4)


def _suite_thm3(seed: int):
    checks = []
    tols = {"eps": _EPS, "slack": TOL["bound_slack"]}
    for name, L, pi in _criterion_lifts(seed):
        pi_hat = lifted_stationary(L, _stationary_seed(L, pi)[0])
        phi, cut = _induced_conductance(L, pi_hat)
        x0 = adversarial_init(L.map, pi_hat, cut)
        t_max = min(1600, max(200, 100 * L.map.base_n))
        tau = _tau_from_start(L, pi, x0, _EPS, t_max)
        value, ok = _lower_bound(tau, phi, 4.0)
        checks.append(_check(f"thm3/{name}/adversarial-lower-bound", tau, value - 1.0, ok))
    return checks, [], {"tolerances": tols}


def _rotation_cycle_fixture():
    """Rotation-symmetric periodic node-clock lift on the 8-cycle."""
    g = cycle(8)
    pi = uniform_distribution(8)
    base_bridge = stochastic_bridge(g, point_distribution(8, 0), pi).steps
    per_node = []
    for i in range(8):
        p = (np.arange(8) - i) % 8  # start i's bridge is start 0's, node v moved to v + i
        per_node.append(TimeVaryingChain([E[np.ix_(p, p)] for E in base_bridge], g))
    return periodic_node_clock_lift(g, per_node, pi), g, pi


def _suite_thm4(seed: int):
    checks = []
    L, g, pi = _rotation_cycle_fixture()
    D = diameter(g)
    tau = marginal_mixing_time(L, pi, _EPS, "s")
    checks.append(_check("thm4/periodic-node-clock/marginal-mixing", tau, 2 * (D + 1)))

    L4, ref = four_cycle_lift(0.05, 0.01)
    pi4 = uniform_distribution(4)
    rep = scenario_report(L4, parse_scenario("SiMre", reference_chain=ref), pi4)
    eight = [b for b in rep["bounds"] if b["name"] == "one-over-8-phi"]
    checks.append(_check("thm4/four-cycle/one-over-8-phi-consistent",
                         eight[0]["consistent"] if eight else None, True,
                         bool(eight) and eight[0]["consistent"]))
    flow_ok = rep["verdicts"]["flow_match"]["ok"]
    checks.append(_check("thm4/four-cycle/flows-match", flow_ok, True, flow_ok))
    inv_ok = rep["verdicts"]["invariance"]["ok"]
    checks.append(_check("thm4/four-cycle/invariant", inv_ok, True, inv_ok))
    four = [b for b in rep["bounds"] if b["name"] == "one-over-4-phi"]
    beaten = bool(four) and not four[0]["binding"] and four[0]["value"] is not None
    measured = rep["measured"]["marginal"]["tau"]
    checks.append(_check("thm4/four-cycle/beats-flow-bound",
                         four[0]["value"] if four else None, measured,
                         beaten and four[0]["value"] > measured))

    g4 = cycle(4)
    pi_c = uniform_distribution(4)
    Ls = si_replicated_lift(lazy_walk(g4), 2)
    rep_s = scenario_report(Ls, "siMRE", pi_c)
    all_ok = all(b["consistent"] for b in rep_s["bounds"])
    checks.append(_check("thm4/replicated/bounds-consistent", all_ok, True, all_ok))
    tols = {"eps": _EPS}
    return checks, [], {"tolerances": tols}


def _suite_example1(seed: int):
    sizes, lift_t_max = (16, 32, 64), 1500
    walk_tau = {}
    lift_tau = {}
    for N in sizes:
        g = cycle(N)
        pi = uniform_distribution(N)
        walk_tau[N] = mixing_time(lazy_walk(g), pi, _EPS)
        L = diaconis_cycle_lift(N)
        pi_hat = Distribution(np.full(2 * N, 1.0 / (2 * N)))
        lift_tau[N] = mixing_time(L.A, pi_hat, _EPS, t_max=lift_t_max)

    checks = []
    for a, b in ((16, 32), (32, 64)):
        r = walk_tau[b] / walk_tau[a]
        checks.append(_check(f"example1/walk-ratio-{a}-{b}", r, [3.2, 4.8],
                             3.2 <= r <= 4.8))
        if lift_tau[a] == UNMIXED or lift_tau[b] == UNMIXED:
            checks.append(_check(f"example1/lift-ratio-{a}-{b}", UNMIXED,
                                 [1.6, 2.6], False))
        else:
            r = lift_tau[b] / lift_tau[a]
            checks.append(_check(f"example1/lift-ratio-{a}-{b}", r, [1.6, 2.6],
                                 1.6 <= r <= 2.6))
    speedup_ok = (lift_tau[64] != UNMIXED
                  and lift_tau[64] * 4 <= walk_tau[64])
    checks.append(_check("example1/lift-4x-faster-at-64", lift_tau[64],
                         walk_tau[64] / 4, speedup_ok))
    notes = []
    if any(v == UNMIXED for v in lift_tau.values()):
        notes.append(
            "the direction-memory lift of an even cycle is 2-periodic "
            "(every step changes the parity of position plus direction), so "
            "its full-state total variation stays at 1/2 forever and no "
            "finite tau exists; the failing rows above are the honest "
            "measurement of that obstruction"
        )
    tols = {"eps": _EPS, "lift_t_max": lift_t_max}
    extras = {
        "tolerances": tols,
        "walk_tau": {str(k): v for k, v in walk_tau.items()},
        "lift_tau": {str(k): v for k, v in lift_tau.items()},
    }
    return checks, notes, extras


def _suite_example2(seed: int):
    checks = []
    tols = {"slack": TOL["lp_feasibility"]}
    for half in (3, 4, 5, 6):
        g = barbell(half)
        pi = uniform_distribution(g.n)
        phi, _ = phi_graph(g, pi)
        checks.append(_check(f"example2/barbell-{half}/phi-graph", phi,
                             1.0 / half + tols["slack"]))
    return checks, [], {"tolerances": tols}


def _suite_example3(seed: int):
    delta, gamma = 0.05, 0.01
    tols = {"flow_tv": TOL["flow_tv"], "eps": _EPS, "delta": delta, "gamma": gamma}
    L, ref = four_cycle_lift(delta, gamma)
    pi = uniform_distribution(4)
    tau = marginal_mixing_time(L, pi, _EPS, "S")
    checks = [_check("example3/marginal-mixing", tau, 2, tau == 2)]
    pi_hat = stationary(L.A)
    dev, _ = check_flow_match(L, pi_hat, ref, 0.0)
    checks.append(_check("example3/flow-deviation", dev, tols["flow_tv"]))
    phi_ref, _ = _phi_chain_or_cycle(ref, pi)
    bound_ref = 1.0 / (4.0 * phi_ref)
    checks.append(_check("example3/flow-bound-value", bound_ref, [5.0, 5.15],
                         5.0 <= bound_ref <= 5.15))
    checks.append(_check("example3/beats-flow-bound", tau, bound_ref,
                         tau < bound_ref))
    pg, _ = phi_graph(cycle(4), pi)
    bound_graph, ok = _lower_bound(tau, pg, 8.0)
    checks.append(_check("example3/one-over-8-phi-consistent", tau, bound_graph, ok))
    extras = {
        "tolerances": tols,
        "tau_M": tau,
        "flow_dev": dev,
        "bound_1_over_4PhiP": bound_ref,
        "phi": L.metadata["phi"],
        "epsilon": L.metadata["epsilon"],
    }
    return checks, [], extras


def _suite_clock_contraction(seed: int):
    rng = rng_from_seed(seed)
    checks = []
    violations, trials_per_D = 0, 100
    for D in range(2, 11):
        gamma = 0.4 / (2 * (D + 1))
        worst = 0.0
        for _ in range(trials_per_D):
            q0 = random_zero_sum(rng, D + 2)
            ratio, bound, ok = clock_contraction_check(D, gamma, q0)
            worst = max(worst, ratio)
            if not ok:
                violations += 1
        checks.append(_check(f"clock-contraction/D-{D}", worst, 2 * (D + 1) * gamma))
    checks.append(_check("clock-contraction/violations", violations, 0,
                         violations == 0))
    tols = {"trials_per_D": trials_per_D}
    return checks, [], {"tolerances": tols}


def _suite_bridge_exactness(seed: int):
    rng = rng_from_seed(seed)
    worst_tv = 0.0
    worst_colsum = 0.0
    locality_violations = 0
    bridges, graphs, clamp, endpoint_tv = 0, 50, TOL["entry_clamp"], TOL["exact_tv"]
    for _ in range(graphs):
        g = random_connected_graph(rng, n_max=10)
        pi = random_distribution(rng, g.n)
        steps = _point_bridges(g, pi)  # steps[i, t]: step t+1 of the bridge from i
        bridges += g.n
        worst_colsum = max(worst_colsum, float(np.abs(steps.sum(axis=2) - 1.0).max()))
        off = steps > clamp
        off[..., np.arange(g.n), np.arange(g.n)] = False
        locality_violations += int((off & ~g.adjacency().T).sum())
        for i in range(g.n):
            x = np.eye(g.n)[i]
            for E in steps[i]:
                x = E @ x
            worst_tv = max(worst_tv, 0.5 * float(np.abs(x - pi.weights).sum()))
    checks = [
        _check("bridge-exactness/endpoint-tv", worst_tv, endpoint_tv),
        _check("bridge-exactness/column-sums", worst_colsum, TOL["bridge_column_sum"]),
        _check("bridge-exactness/locality-violations", locality_violations, 0,
               locality_violations == 0),
    ]
    tols = {"endpoint_tv": endpoint_tv, "graphs": graphs, "bridges": bridges}
    return checks, [], {"tolerances": tols}


_SUITES = {
    "lemma1": _suite_lemma1,
    "thm1": _suite_thm1,
    "thm2": _suite_thm2,
    "thm3": _suite_thm3,
    "thm4": _suite_thm4,
    "example1": _suite_example1,
    "example2": _suite_example2,
    "example3": _suite_example3,
    "clock-contraction": _suite_clock_contraction,
    "bridge-exactness": _suite_bridge_exactness,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0) -> tuple[dict, bool]:
    """Run one named verification suite; returns (report, all_passed)."""
    if name not in _SUITES:
        raise BadScenario(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if seed < 0:
        raise BadSize(f"seed must be at least 0, got {seed}")
    checks, notes, extras = _SUITES[name](seed)
    passed = all(c["pass"] for c in checks)
    report = {
        "suite": name,
        "seed": seed,
        "tool": TOOL,
        "checks": checks,
        "notes": notes,
        "pass": passed,
    }
    report.update(extras)
    return report, passed


def _csv_text(report: dict) -> str:
    """The (check, measured, bound, pass) table, in csv's own line ends."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["check", "measured", "bound", "pass"])
    for row in report["checks"]:
        writer.writerow([
            row["check"],
            _plain(row["measured"]),
            _plain(row["bound"]),
            str(row["pass"]).lower(),
        ])
    return text.getvalue()


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_graph_stats(args) -> int:
    g = _read(args.graph, graph_from_json)
    report = {"n": g.n, "arcs": len(g.arcs), "connected": is_connected(g)}
    report["diameter"] = diameter(g) if report["connected"] else None
    _emit((_dump_json(report), args.out))
    return 0


def _cmd_conductance(args) -> int:
    if args.mode_command == "chain":
        P = _read(args.chain, matrix_from_json)
        pi = _read_distribution(args.pi, P.n)
        phi, cut = _phi_chain_or_cycle(P, pi)
        report = {
            "phi": phi,
            "argmin_cut": {"members": list(cut.members()), "weight": cut.weight},
        }
    else:
        g = _read(args.graph, graph_from_json)
        pi = _read_distribution(args.pi, g.n)
        phi, best = phi_graph(g, pi)
        report = {
            "phi": phi,
            "argmax_chain": best.to_json(),
        }
    _emit((_dump_json(report), args.out))
    return 0


def _cmd_bridge(args) -> int:
    g = _read(args.graph, graph_from_json)
    dst = _read_distribution(args.dst, g.n)
    if args.all_sources:
        steps = _point_bridges(g, dst)
        report = {"n": g.n, "T": steps.shape[1], "per_node": steps.tolist()}
    else:
        src = _read_distribution(args.src, g.n)
        chain = stochastic_bridge(g, src, dst)
        report = {"n": g.n, "T": chain.T, "steps": chain.steps.tolist()}
    _emit((_dump_json(report), args.out))
    return 0


# every construction, with the options without a default that it needs and
# those it reads besides; a needed one missing is refused, and so is any
# other one given, never silently ignored
_BUILD_OPTIONS = ("graph", "pi", "chain", "chains", "delta", "nodes", "ref_chain", "ref_out")
_BUILD_READS = {
    "clock": (("graph", "chain"), ()), "periodic-clock": (("graph", "chain"), ()),
    "node-clock": (("graph",), ("pi", "chains")),
    "periodic-node-clock": (("graph",), ("pi", "chains")),
    "diameter": (("graph",), ("pi", "ref_chain")), "diaconis": (("nodes",), ()),
    "four-cycle": (("delta",), ("ref_out",)),
}


def _build_lift(args, outputs: list) -> Lift:
    """The lift; a --ref-out text joins outputs."""
    kind = args.construction
    needs, reads = _BUILD_READS[kind]
    unread = [o for o in _BUILD_OPTIONS if getattr(args, o) is not None
              and o not in needs + reads]
    if unread:
        raise BadSize(f"--construction {kind} does not read --{unread[0].replace('_', '-')}")
    for o in needs:
        if getattr(args, o) is None:
            raise BadSize(f"--construction {kind} needs --{o}")
    if kind == "diaconis":
        return diaconis_cycle_lift(args.nodes)
    if kind == "four-cycle":
        L, ref = four_cycle_lift(args.delta, args.gamma)
        if args.ref_out:
            outputs.append((_dump_json(ref.to_json()), args.ref_out))
        return L

    g = _read(args.graph, graph_from_json)
    if kind in ("clock", "periodic-clock"):
        chain = _read(args.chain, lambda blob: _chain_from_steps(blob["steps"], g))
        builder = clock_lift if kind == "clock" else periodic_clock_lift
        return builder(g, chain)

    pi = _read_distribution(args.pi or "uniform", g.n)
    if kind in ("node-clock", "periodic-node-clock"):
        if args.chains is None:  # the bridge e_v0 -> pi of every start v0
            return _node_clock(g, _point_bridges(g, pi), pi, kind != "node-clock")
        per_node = _read(args.chains, lambda blob: [
            _chain_from_steps(s, g) for s in blob["per_node"]
        ])
        builder = node_clock_lift if kind == "node-clock" else periodic_node_clock_lift
        return builder(g, per_node, pi)
    ref = _read(args.ref_chain, matrix_from_json, g) if args.ref_chain else None
    return diameter_mixer(g, pi, args.variant, gamma=args.gamma, reference=ref)


def _cmd_lift_build(args) -> int:
    outputs: list = []
    L = _build_lift(args, outputs)
    _emit(*outputs, (_dump_json(lift_to_json(L)), args.out))
    return 0


def _cmd_lift_analyze(args) -> int:
    L = _read(args.lift, lift_from_json)
    pi = _read_distribution(args.pi, L.map.base_n)
    ref = _read(args.ref_chain, matrix_from_json, L.base) if args.ref_chain else None
    spec = parse_scenario(args.scenario, reference_chain=ref)
    report = scenario_report(L, spec, pi, eps=args.eps, t_max=args.t_max)
    _emit((_dump_json(report), args.out))
    return 0


def _cmd_verify(args) -> int:
    report, passed = run_suite(args.suite, args.seed)
    csv_out = [(_csv_text(report), args.csv)] if args.csv else []
    _emit((_dump_json(report), args.out), *csv_out)
    if not passed:
        for row in report["checks"]:
            if not row["pass"]:
                print(f"FAIL: {row['check']}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process and shared; parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="liftmix",
        description="Construct and analyze lifted Markov chains at desk scale.",
    )
    p.add_argument("--version", action="version", version=f"liftmix {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pg = sub.add_parser("graph", help="graph queries")
    pg_sub = pg.add_subparsers(dest="graph_command", required=True)
    pg_stats = pg_sub.add_parser("stats", help="node count, diameter, connectivity")
    pg_stats.add_argument("graph", help="graph JSON file")
    pg_stats.add_argument("--out", help="write JSON here instead of stdout")
    pg_stats.set_defaults(func=_cmd_graph_stats)

    pc = sub.add_parser("conductance", help="cut conductance programs")
    pc_sub = pc.add_subparsers(dest="mode_command", required=True)
    pc_chain = pc_sub.add_parser("chain", help="conductance of a fixed chain")
    pc_chain.add_argument("--chain", required=True, help="matrix JSON file")
    pc_chain.add_argument("--pi", required=True,
                          help="'uniform', 'e:K', or a distribution JSON file")
    pc_chain.add_argument("--out")
    pc_chain.set_defaults(func=_cmd_conductance)
    pc_graph = pc_sub.add_parser("graph", help="best conductance over local chains")
    pc_graph.add_argument("--graph", required=True, help="graph JSON file")
    pc_graph.add_argument("--pi", required=True)
    pc_graph.add_argument("--out")
    pc_graph.set_defaults(func=_cmd_conductance)

    pb = sub.add_parser("bridge", help="steer one distribution to another")
    pb.add_argument("--graph", required=True)
    sources = pb.add_mutually_exclusive_group(required=True)
    sources.add_argument("--src", help="'uniform', 'e:K', or a distribution JSON file")
    sources.add_argument("--all-sources", action="store_true",
                         help="one bridge per base vertex instead of --src")
    pb.add_argument("--dst", required=True)
    pb.add_argument("--out")
    pb.set_defaults(func=_cmd_bridge)

    pl = sub.add_parser("lift", help="build and analyze lifts")
    pl_sub = pl.add_subparsers(dest="lift_command", required=True)
    pl_build = pl_sub.add_parser("build", help="construct a lift bundle")
    pl_build.add_argument("--construction", required=True, choices=list(_BUILD_READS))
    pl_build.add_argument("--graph")
    pl_build.add_argument("--pi")
    pl_build.add_argument("--chain", help="chain JSON ({'steps': [...]})")
    pl_build.add_argument("--chains", help="per-node chains JSON ({'per_node': [...]})")
    pl_build.add_argument("--variant", default="reducible",
                          choices=["reducible", "flows", "irreducible"])
    pl_build.add_argument("--gamma", type=float, default=1e-3)
    pl_build.add_argument("--delta", type=float)
    pl_build.add_argument("--nodes", type=int, help="cycle size for diaconis")
    pl_build.add_argument("--ref-chain", help="reference chain JSON")
    pl_build.add_argument("--ref-out", help="write four-cycle reference here")
    pl_build.add_argument("--out", required=True)
    pl_build.set_defaults(func=_cmd_lift_build)
    pl_an = pl_sub.add_parser("analyze", help="scenario report for a lift bundle")
    pl_an.add_argument("--lift", required=True, help="lift bundle JSON file")
    pl_an.add_argument("--pi", required=True)
    pl_an.add_argument("--scenario", required=True,
                       help="five flags, e.g. SIMRE or sImrE or Sie-style SiMre:0.01")
    pl_an.add_argument("--ref-chain")
    pl_an.add_argument("--eps", type=float, default=0.25)
    pl_an.add_argument("--t-max", type=int)
    pl_an.add_argument("--out")
    pl_an.set_defaults(func=_cmd_lift_analyze)

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("--suite", required=True, choices=list(SUITE_NAMES))
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--csv", help="also write a (check, measured, bound, pass) table")
    pv.add_argument("--out")
    pv.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    """Run one command and return its exit code, argparse's own included."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2), --help or --version (0)
        return exc.code
    try:
        return args.func(args)
    except LiftmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
