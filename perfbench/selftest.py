"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the default `pytest` collection of
the package's own test suite; they start several fresh interpreters.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import RESULTS, run_passes  # noqa: E402

TINY = {
    "verify-suites": lambda: workloads.VerifySuites(("thm1", "example1", "example3")),
    "mixer-ladder": lambda: workloads.MixerLadder(((6, ("SIMRE", "sIMRE")),)),
    "conductance-sweep": lambda: workloads.ConductanceSweep((6,), (8,), barbell_half=3, cycle_n=6),
}


@pytest.fixture(scope="module")
def refs():
    os.makedirs(RESULTS, exist_ok=True)
    return workloads.load_references()


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("seed", [workloads.REFERENCE_SEED, 5])
def test_tiny_pass_of_each_workload_is_correct(name, seed, refs):
    res = run_passes(TINY[name](), refs, [seed])
    assert res["failures"] == []
    assert res["attempted"] > 0 and len(res["samples"]) == 1


def test_traced_tiny_pass_reports_every_layer_metric(refs):
    recorder = tracing.Recorder()
    with recorder.installed():
        res = run_passes(TINY["mixer-ladder"](), refs, [1], recorder=recorder)
    metrics = tracing.layer_metrics(recorder.spans, 1, res["counts"])
    declared = {m["name"] for m in _benchmark_json()["per_layer"]}
    assert set(metrics) == {n for n in declared if not n.startswith("trace.")}
    assert metrics["lift.scan_calls"] == 4  # marginal and full scan per scenario
    assert metrics["cli.bundle_bytes"] > 0
    assert metrics["lift.scan_s"] > 0
    # the wrappers are gone again
    from liftmix import cli, lift
    assert cli.marginal_mixing_time is lift.marginal_mixing_time
    assert not hasattr(lift.marginal_mixing_time, "__wrapped__")


def test_workload_and_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = _run_cli("--workload", "conductance-sweep", "--seed", "2",
                       "--seconds", "0", "--trace", str(trace))
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        printed = {line.split()[0] for line in out.stdout.splitlines()[1:-1]}
        assert set(declared) | {"failed_ops"} == printed


def test_gate_counts_a_perturbed_tau(refs, monkeypatch):
    from liftmix import cli

    original = cli.run_suite

    def perturbed(name, seed=0):
        report, passed = original(name, seed)
        report["checks"][0]["measured"] += 1  # example3/marginal-mixing: tau 2 -> 3
        return report, passed

    monkeypatch.setattr(cli, "run_suite", perturbed)
    res = run_passes(workloads.VerifySuites(("example3",)), refs, [workloads.REFERENCE_SEED])
    assert res["attempted"] == 1
    assert len(res["failures"]) == 1 and "checks[0]/measured" in res["failures"][0]


def test_gate_counts_a_perturbed_phi(refs, monkeypatch):
    from liftmix import conductance

    original = conductance.phi_chain

    def perturbed(P, pi):
        phi, cut = original(P, pi)
        return phi + 1e-6, cut

    monkeypatch.setattr(conductance, "phi_chain", perturbed)
    res = run_passes(TINY["conductance-sweep"](), refs, [7])
    # every phi_chain op fails phi_cut; every phi_graph op fails phi_chain
    assert res["attempted"] == 4 and len(res["failures"]) == 4


def test_reference_mismatch_rules():
    assert workloads.mismatch({"a": [1, 0.5]}, {"a": [1, 0.5 + 1e-12]}) is None
    assert workloads.mismatch({"a": [1, 0.5]}, {"a": [1, 0.5 + 1e-6]})
    assert workloads.mismatch({"tau": 2}, {"tau": 2.0})
    assert workloads.mismatch({"tau": "inf"}, {"tau": 40})
    assert workloads.mismatch({"tool": 1, "x": True}, {"tool": 2, "x": True}) is None


def test_exits_nonzero_without_the_program():
    with tempfile.TemporaryDirectory(dir=RESULTS) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        out = _run_cli("--workload", "verify-suites", "--seed", "0", "--seconds", "1",
                       "--trace", "0", cwd=bare)
        assert out.returncode != 0
        assert "{" not in out.stdout
