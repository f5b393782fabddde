"""The three benchmark workloads and their correctness gate.

A workload turns a seed into inputs (`inputs`), runs one pass of operations
on them (`run`, the only timed step), and judges every operation's output
(`check`) against invariants that hold at any seed and, at the reference
seed, against the outputs `reference` recorded.  Each operation is one call a user of liftmix would make: one
verification suite, one `liftmix lift ...` command, or one conductance
program.  Calls into liftmix go through module attributes at call time, so
the tracing wrappers in `tracing.py` see them.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

REFERENCE_SEED = 0
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# Relative tolerance for float measurements against the recorded references:
# |got - ref| <= FLOAT_RTOL * max(1, |got|, |ref|).  Integers, booleans,
# strings, None and "inf" must match exactly.
FLOAT_RTOL = 1e-9
# phi_chain of phi_graph's optimal chain, and phi_cut of phi_chain's argmin
# cut, must reproduce the returned conductance to this absolute tolerance.
PHI_TOL = 1e-9


def pass_seed(seed: int, k: int) -> int:
    """Input seed of pass k of a run: the run seed itself for the first pass,
    then seeds drawn from it, so one run's median spans several inputs."""
    if k == 0:
        return seed
    return random.Random(f"{seed}/{k}").randrange(2**31)


@dataclass
class Op:
    """One operation of a pass: its name, and whatever `check` needs."""

    name: str
    output: object


def plain(obj):
    """JSON-safe copy of a report: numpy scalars to Python, inf to "inf"."""
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if hasattr(obj, "tolist"):
        return plain(obj.tolist())
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def mismatch(ref, got, where: str = "") -> str | None:
    """First difference between a recorded reference and a new output, or None.

    The `tool` block (name and version) is not compared.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return f"{where}: keys differ"
        for key in sorted(ref):
            if key == "tool":
                continue
            found = mismatch(ref[key], got[key], f"{where}/{key}")
            if found:
                return found
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return f"{where}: lengths differ"
        for i, (r, g) in enumerate(zip(ref, got)):
            found = mismatch(r, g, f"{where}[{i}]")
            if found:
                return found
        return None
    if isinstance(ref, float) and isinstance(got, float):
        if abs(got - ref) <= FLOAT_RTOL * max(1.0, abs(got), abs(ref)):
            return None
        return f"{where}: {got!r} != {ref!r}"
    if type(ref) is not type(got) or ref != got:
        return f"{where}: {got!r} != {ref!r}"
    return None


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------


class VerifySuites:
    """The ten `liftmix verify` suites in SUITE_NAMES order, via cli.run_suite."""

    name = "verify-suites"

    def __init__(self, suites: tuple[str, ...] | None = None) -> None:
        from liftmix import cli

        self.suites = tuple(cli.SUITE_NAMES) if suites is None else suites

    def inputs(self, seed: int, workdir: str) -> dict:
        return {"seed": seed}

    def run(self, inp: dict) -> list[Op]:
        from liftmix import cli

        return [Op(s, cli.run_suite(s, inp["seed"])) for s in self.suites]

    def check(self, inp: dict, ops: list[Op], refs: dict) -> list[str]:
        expected = refs["verify-suites"]["expected"]
        recorded = refs["verify-suites"]["reports"] if inp["seed"] == REFERENCE_SEED else {}
        failures = []
        for op in ops:
            report, passed = op.output
            want = expected[op.name]
            problem = None
            if bool(passed) != want["pass"] or report["pass"] != want["pass"]:
                problem = f"verdict {passed}, expected {want['pass']}"
            elif len(report["checks"]) != want["checks"]:
                problem = f"{len(report['checks'])} checks, expected {want['checks']}"
            elif op.name in recorded:
                problem = mismatch(recorded[op.name], plain(report))
            if problem:
                failures.append(f"{op.name}: {problem}")
        return failures

    def reference(self, ops: list[Op]) -> dict:
        return {
            "expected": {op.name: {"pass": bool(op.output[1]),
                                   "checks": len(op.output[0]["checks"])} for op in ops},
            "reports": {op.name: plain(op.output[0]) for op in ops},
        }

    def counts(self, ops: list[Op]) -> dict:
        return {}


class MixerLadder:
    """`lift build --construction diameter` then `lift analyze` on cycles,
    through cli.main with bundle files on disk."""

    name = "mixer-ladder"
    # sIMRE on cycle 12 (about 36 s) and cycles 16 and 20 (minutes) are left
    # out until the scans get cheaper; see README.md.
    RUNGS = ((6, ("SIMRE", "sIMRE")), (8, ("SIMRE", "sIMRE")),
             (10, ("SIMRE", "sIMRE")), (12, ("SIMRE",)))

    def __init__(self, rungs=RUNGS) -> None:
        self.rungs = rungs

    def inputs(self, seed: int, workdir: str) -> dict:
        from liftmix import randomgen

        rng = randomgen.rng_from_seed(seed)
        files = {}
        for n, _ in self.rungs:
            graph = os.path.join(workdir, f"cycle-{n}.json")
            pi = os.path.join(workdir, f"pi-{n}.json")
            with open(graph, "w") as fh:
                json.dump({"n": n, "edges": [[i, (i + 1) % n] for i in range(n)]}, fh)
            with open(pi, "w") as fh:
                weights = randomgen.random_distribution(rng, n).weights
                json.dump({"weights": weights.tolist()}, fh)
            files[n] = (graph, pi, os.path.join(workdir, f"bundle-{n}.json"))
        return {"seed": seed, "workdir": workdir, "files": files}

    def run(self, inp: dict) -> list[Op]:
        from liftmix import cli

        ops = []
        for n, scenarios in self.rungs:
            graph, pi, bundle = inp["files"][n]
            rc = cli.main(["lift", "build", "--construction", "diameter",
                           "--graph", graph, "--pi", pi, "--out", bundle])
            ops.append(Op(f"cycle-{n}/build", (rc, bundle)))
            for scenario in scenarios:
                out = os.path.join(inp["workdir"], f"report-{n}-{scenario}.json")
                rc = cli.main(["lift", "analyze", "--lift", bundle, "--pi", pi,
                               "--scenario", scenario, "--out", out])
                ops.append(Op(f"cycle-{n}/{scenario}", (rc, out)))
        return ops

    def check(self, inp: dict, ops: list[Op], refs: dict) -> list[str]:
        recorded = refs["mixer-ladder"] if inp["seed"] == REFERENCE_SEED else {}
        failures = []
        for op in ops:
            rc, path = op.output
            problem = None
            if rc != 0:
                problem = f"exit code {rc}"
            elif op.name.endswith("/build"):
                if os.path.getsize(path) == 0:
                    problem = "empty bundle"
            else:
                report = self._report(op)
                problem = self._judge(op.name, report)
                if problem is None and op.name in recorded:
                    problem = mismatch(recorded[op.name], report)
            if problem:
                failures.append(f"{op.name}: {problem}")
        return failures

    def reference(self, ops: list[Op]) -> dict:
        return {op.name: self._report(op) for op in ops if not op.name.endswith("/build")}

    @staticmethod
    def _report(op: Op) -> dict:
        with open(op.output[1]) as fh:
            return json.load(fh)

    @staticmethod
    def _judge(name: str, report: dict) -> str | None:
        marginal = report["measured"]["marginal"]
        full = report["measured"]["full"]
        if name.endswith("/SIMRE"):
            d = report["diameter"]
            if not marginal["mixed"] or marginal["tau"] > d + 1:
                return f"marginal tau {marginal['tau']} above diameter+1 = {d + 1}"
            upper = [b for b in report["bounds"] if b["name"] == "diameter-plus-one"]
            if len(upper) != 1 or not upper[0]["consistent"]:
                return "diameter-plus-one bound missing or inconsistent"
            return None
        if marginal["mixed"]:
            return f"marginal mixed at {marginal['tau']} without initialization control"
        if not full["mixed"]:
            return "full-state tau is not finite"
        return None

    def counts(self, ops: list[Op]) -> dict:
        size = sum(os.path.getsize(op.output[1]) for op in ops
                   if op.name.endswith("/build") and op.output[0] == 0)
        return {"cli.bundle_bytes": size}


class ConductanceSweep:
    """phi_graph on barbell, cycle and random graphs; phi_chain on random
    reversible chains."""

    name = "conductance-sweep"
    GRAPH_SIZES = (12, 13, 14)
    CHAIN_SIZES = (18, 20, 22)

    def __init__(self, graph_sizes=GRAPH_SIZES, chain_sizes=CHAIN_SIZES,
                 barbell_half: int = 7, cycle_n: int = 14) -> None:
        self.graph_sizes = graph_sizes
        self.chain_sizes = chain_sizes
        self.barbell_half = barbell_half
        self.cycle_n = cycle_n

    def inputs(self, seed: int, workdir: str) -> dict:
        from liftmix import graph_core, randomgen

        rng = randomgen.rng_from_seed(seed)
        graphs = [(f"barbell-{self.barbell_half}", graph_core.barbell(self.barbell_half)),
                  (f"cycle-{self.cycle_n}", graph_core.cycle(self.cycle_n))]
        graphs += [(f"random-{n}", randomgen.random_connected_graph(rng, n=n))
                   for n in self.graph_sizes]
        graphs = [(name, g, randomgen.random_distribution(rng, g.n)) for name, g in graphs]
        chains = []
        for n in self.chain_sizes:
            P, pi = randomgen.random_reversible_chain(
                rng, randomgen.random_connected_graph(rng, n=n))
            chains.append((f"chain-{n}", P, pi))
        return {"seed": seed, "graphs": graphs, "chains": chains}

    def run(self, inp: dict) -> list[Op]:
        from liftmix import conductance

        ops = [Op(f"phi_graph/{name}", conductance.phi_graph(g, pi))
               for name, g, pi in inp["graphs"]]
        ops += [Op(f"phi_chain/{name}", conductance.phi_chain(P, pi))
                for name, P, pi in inp["chains"]]
        return ops

    def check(self, inp: dict, ops: list[Op], refs: dict) -> list[str]:
        from liftmix import conductance

        recorded = refs["conductance-sweep"] if inp["seed"] == REFERENCE_SEED else {}
        given = {f"phi_graph/{n}": (None, pi) for n, _, pi in inp["graphs"]}
        given.update({f"phi_chain/{n}": (P, pi) for n, P, pi in inp["chains"]})
        failures = []
        for op in ops:
            P_in, pi = given[op.name]
            if op.name.startswith("phi_graph/"):
                phi, P = op.output
                again, _ = conductance.phi_chain(P, pi)
                what = "phi_chain of the optimal chain"
            else:
                phi, cut = op.output
                again = conductance.phi_cut(P_in, pi, cut.members())
                what = "phi_cut of the argmin cut"
            problem = None
            if not 0.0 < phi <= 1.0:
                problem = f"phi {phi} outside (0, 1]"
            elif abs(again - phi) > PHI_TOL:
                problem = f"{what} is {again!r}, phi is {phi!r}"
            elif op.name in recorded:
                problem = mismatch(recorded[op.name], self._value(op))
            if problem:
                failures.append(f"{op.name}: {problem}")
        return failures

    def reference(self, ops: list[Op]) -> dict:
        return {op.name: self._value(op) for op in ops}

    @staticmethod
    def _value(op: Op) -> dict:
        """The recorded part of an output: phi, and phi_chain's argmin cut."""
        if op.name.startswith("phi_graph/"):
            return {"phi": op.output[0]}
        phi, cut = op.output
        return {"phi": phi, "cut": cut.member_mask}

    def counts(self, ops: list[Op]) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (VerifySuites, MixerLadder, ConductanceSweep)}
