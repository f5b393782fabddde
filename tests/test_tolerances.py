"""The tolerance table: every threshold is stated once, in
liftmix._tolerances.TOL, and every reported tolerance is the entry its
check reads."""

import ast
from pathlib import Path

import liftmix
from liftmix import four_cycle_lift, parse_scenario, scenario_report, uniform_distribution
from liftmix._tolerances import TOL
from liftmix.cli import run_suite


def test_patched_entry_moves_the_report_and_the_verdict_that_reads_it(monkeypatch):
    L, ref = four_cycle_lift(0.05, 0.01)
    spec = parse_scenario("SiMre", reference_chain=ref)
    pi = uniform_distribution(4)
    before = scenario_report(L, spec, pi)
    assert before["tolerances"]["invariance_horizon_tv"] == TOL["invariance_horizon_tv"]
    assert before["verdicts"]["invariance"]["ok"] is True
    # no marginal TV is below -1, so every step of the horizon breaks invariance
    monkeypatch.setitem(TOL, "invariance_horizon_tv", -1.0)
    after = scenario_report(L, spec, pi)
    assert after["tolerances"]["invariance_horizon_tv"] == -1.0
    assert after["verdicts"]["invariance"]["ok"] is False


def test_thm2_exact_rows_and_reported_tolerance_read_the_exact_tv_entry(monkeypatch):
    monkeypatch.setitem(TOL, "exact_tv", -1.0)
    report, passed = run_suite("thm2", seed=0)
    rows = [c for c in report["checks"] if c["check"].endswith("/exact-at-diameter")]
    assert len(rows) == 23
    assert all(not c["pass"] and c["bound"] == -1.0 for c in rows)
    assert report["tolerances"]["exact_tv"] == -1.0
    assert passed is False


def test_no_tolerance_literal_outside_the_table():
    found = []
    for path in sorted(Path(liftmix.__file__).parent.glob("*.py")):
        if path.name == "_tolerances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and type(node.value) is float:
                if 0.0 < node.value < 1e-5:
                    found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []
