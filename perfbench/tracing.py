"""Span recorder for the traced benchmark run.

Every public function of each `liftmix` module is wrapped from outside the
package: the module attribute and every other reference a liftmix module
holds to the same function object (the names `cli`, `lift`, `constructions`
and the package import with `from ... import`).  `cli._tau_from_start` and
`StochasticMatrix.__init__` are wrapped too.  A span records its name,
start, end, parent span and a few counts; spans stay in memory and are
written out when the run ends.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import math
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("graph_core", "markov", "conductance", "lift", "constructions", "randomgen", "cli")
PRIVATE_WRAPPED = {"cli": ("_tau_from_start",)}
SCANS = ("lift.marginal_mixing_time", "lift.full_mixing_time")


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, parent: int) -> None:
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Holds the spans of one run; wrappers record only while `enabled`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, info: dict | None = None):
        """Record a span around a block of benchmark code."""
        s = Span(name, self._stack[-1] if self._stack else -1)
        s.info = info
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        s.start = perf_counter()
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    @contextmanager
    def recording(self, info: dict):
        """Record wrapped calls inside one `bench.pass` span."""
        self.enabled = True
        try:
            with self.span("bench.pass", info):
                yield
        finally:
            self.enabled = False

    def wrap(self, name: str, fn, annotate=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            with rec.span(name) as s:
                result = fn(*args, **kwargs)
            if annotate is not None:
                rec.enabled = False  # helpers called by annotate record nothing
                try:
                    s.info = annotate(args, kwargs, result)
                finally:
                    rec.enabled = True
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap liftmix for the duration of the block, then restore it."""
        modules = {name: importlib.import_module(f"liftmix.{name}") for name in LAYERS}
        wrappers = {}
        for short, mod in modules.items():
            names = [n for n, obj in vars(mod).items()
                     if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                     and not n.startswith("_")]
            for n in names + list(PRIVATE_WRAPPED.get(short, ())):
                fn = getattr(mod, n)
                wrappers[fn] = self.wrap(f"{short}.{n}", fn, _annotator(short, n, fn))
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "liftmix" or mod_name.startswith("liftmix.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        matrix = modules["markov"].StochasticMatrix
        original_init = matrix.__init__
        matrix.__init__ = self.wrap("markov.StochasticMatrix", original_init)
        try:
            yield
        finally:
            matrix.__init__ = original_init
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start", "end", "info"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s.parent, s.name, repr(s.start), repr(s.end),
                              "" if s.info is None else repr(s.info)])


def _annotator(module: str, name: str, fn):
    """Counts attached to a span after its call returns, or None."""
    full = f"{module}.{name}"
    if full in SCANS:
        sig = inspect.signature(fn)

        def scan(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            L = bound.arguments["L"]
            t_max = bound.arguments["t_max"]
            if t_max is None:
                from liftmix.markov import default_t_max
                t_max = default_t_max(L.map.base_n)
            columns = L.map.lifted_n if bound.arguments["scenario_init"] == "s" else L.map.base_n
            return {"steps": t_max + 1, "columns": columns}

        return scan
    if full == "cli.run_suite":
        return lambda args, kwargs, result: {"suite": args[0] if args else kwargs["name"]}
    if module == "constructions":
        sig = inspect.signature(fn)

        def built(args, kwargs, result):
            from liftmix.lift import Lift

            L = result[0] if isinstance(result, tuple) else result
            if not isinstance(L, Lift):
                return None
            info = {"lifted_n": L.map.lifted_n}
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if "gamma" in L.metadata and "gamma" in bound.arguments:
                info["gamma_halvings"] = math.log2(bound.arguments["gamma"] / L.metadata["gamma"])
            return info

        return built
    return None


def layer_metrics(spans: list[Span], passes: int, counts: Counter) -> dict[str, float]:
    """Per-layer metrics, averaged per traced pass.

    `<layer>.self_s` sums the self time of that module's spans.  A metric
    named after one function (`markov.mixing_time_s`, `conductance.phi_graph_s`,
    ...) is its inclusive time, counting only calls not nested in a call of
    the same function; `lift.scan_s` and `lift.report_self_s` are self times.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    totals: Counter = Counter()
    suites: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        dur = s.end - s.start
        self_by_name[s.name] += dur - child[i]
        self_by_layer[s.layer] += dur - child[i]
        calls[s.name] += 1
        if not _nested_in(spans, s, lambda a: a.name == s.name):
            inclusive[s.name] += dur
        if s.name == "cli.run_suite":
            suites[s.info["suite"]] += dur
        if s.info and s.name in SCANS:
            totals["lift.scan_steps"] += s.info["steps"]
            totals["lift.scan_columns"] += s.info["columns"]
        if (s.info and s.layer == "constructions"
                and not _nested_in(spans, s, lambda a: a.layer == "constructions")):
            totals["constructions.lifted_states"] += s.info["lifted_n"]
            totals["constructions.gamma_halvings"] += s.info.get("gamma_halvings", 0.0)

    from liftmix.cli import SUITE_NAMES

    m = {
        "lift.scan_s": sum(self_by_name[n] for n in SCANS),
        "lift.scan_calls": sum(calls[n] for n in SCANS),
        "lift.scan_steps": totals["lift.scan_steps"],
        "lift.scan_columns": totals["lift.scan_columns"],
        "lift.json_s": inclusive["lift.lift_to_json"] + inclusive["lift.lift_from_json"],
        "lift.stationary_s": inclusive["lift.lifted_stationary"],
        "lift.invariance_s": inclusive["lift.check_invariance"],
        "lift.report_self_s": self_by_name["lift.scenario_report"],
        "lift.self_s": self_by_layer["lift"],
        "cli.tau_from_start_s": inclusive["cli._tau_from_start"],
        "cli.self_s": self_by_layer["cli"] - self_by_name["cli._tau_from_start"],
        "cli.bundle_bytes": counts["cli.bundle_bytes"],
        "markov.mixing_time_s": inclusive["markov.mixing_time"],
        "markov.irreducible_s": inclusive["markov.is_irreducible"],
        "markov.self_s": self_by_layer["markov"],
        "markov.matrix_validations": calls["markov.StochasticMatrix"],
        "constructions.self_s": self_by_layer["constructions"],
        "constructions.bridge_calls": calls["constructions.stochastic_bridge"],
        "constructions.lifted_states": totals["constructions.lifted_states"],
        "constructions.gamma_halvings": totals["constructions.gamma_halvings"],
        "graph_core.self_s": self_by_layer["graph_core"],
        "graph_core.shortest_path_calls": calls["graph_core.shortest_path"],
        "graph_core.distance_matrix_calls": calls["graph_core.distance_matrix"],
        "conductance.phi_chain_s": inclusive["conductance.phi_chain"],
        "conductance.phi_chain_calls": calls["conductance.phi_chain"],
        "conductance.phi_graph_s": inclusive["conductance.phi_graph"],
        "conductance.phi_graph_calls": calls["conductance.phi_graph"],
        "conductance.self_s": self_by_layer["conductance"],
        "randomgen.self_s": self_by_layer["randomgen"],
    }
    for suite in SUITE_NAMES:
        m[f"cli.suite_s.{suite}"] = suites[suite]
    return {k: v / passes for k, v in m.items()}


def _nested_in(spans: list[Span], s: Span, match) -> bool:
    p = s.parent
    while p >= 0:
        if match(spans[p]):
            return True
        p = spans[p].parent
    return False


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or ".suite_s." in metric:
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"
