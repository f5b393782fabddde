"""Command-line surface: suites, determinism, exit codes, file formats."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import issparse

import liftmix
from liftmix import (
    Distribution, StochasticMatrix, barbell, clock_lift, complete, cycle, four_cycle_lift, graph_to_json,
    lazy_walk, lift_to_json, metropolis_chain, node_clock_lift, path, periodic_clock_lift,
    periodic_node_clock_lift, phi_chain_cycle, point_distribution, stochastic_bridge,
    uniform_distribution,
)
from liftmix.cli import SUITE_NAMES, _dump_json, main, run_suite
from liftmix.randomgen import random_connected_graph, random_distribution, rng_from_seed

EXPECTED_SUITE_PASS = {
    "lemma1": True,
    "thm1": True,
    "thm2": True,
    "thm3": True,
    "thm4": True,
    # the direction-memory lift of an even cycle is 2-periodic, so its
    # mixing-time rows come out unmixed; the suite reports that honestly
    "example1": False,
    "example2": True,
    "example3": True,
    "clock-contraction": True,
    "bridge-exactness": True,
}

EXPECTED_CHECK_COUNTS = {
    "lemma1": 2,
    "thm1": 8,
    "thm2": 54,
    "thm3": 29,
    "thm4": 6,
    "example1": 5,
    "example2": 4,
    "example3": 5,
    "clock-contraction": 10,
    "bridge-exactness": 3,
}


def write_graph(tmp_path, g, name="g.json"):
    f = tmp_path / name
    f.write_text(json.dumps(graph_to_json(g)))
    return str(f)


def test_suite_names_cover_expectations():
    assert set(SUITE_NAMES) == set(EXPECTED_SUITE_PASS)


@pytest.mark.parametrize("name", sorted(EXPECTED_SUITE_PASS))
def test_suite_runs_with_expected_verdict(name):
    report, passed = run_suite(name, seed=0)
    assert passed is EXPECTED_SUITE_PASS[name]
    assert report["pass"] is passed
    assert report["suite"] == name
    assert report["seed"] == 0
    assert report["tool"]["name"] == "liftmix"
    assert len(report["checks"]) == EXPECTED_CHECK_COUNTS[name]
    for row in report["checks"]:
        assert set(row) == {"check", "measured", "bound", "pass"}
    failing = [r for r in report["checks"] if not r["pass"]]
    assert bool(failing) == (not passed)


def test_example1_failure_is_the_periodic_lift():
    report, passed = run_suite("example1", seed=0)
    assert not passed
    failing = {r["check"] for r in report["checks"] if not r["pass"]}
    assert failing == {
        "example1/lift-ratio-16-32",
        "example1/lift-ratio-32-64",
        "example1/lift-4x-faster-at-64",
    }
    # the walk half of the claim holds
    assert all(r["pass"] for r in report["checks"] if "walk-ratio" in r["check"])
    assert any("periodic" in note for note in report["notes"])
    # quadratic walk growth is visible in the reported values
    walk = {int(k): v for k, v in report["walk_tau"].items()}
    assert walk[64] > walk[32] > walk[16]


def test_verify_json_is_byte_identical_for_same_seed(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--suite", "example3", "--out", str(out1)]) == 0
    assert main(["verify", "--suite", "example3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_seed_changes_randomized_suite(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--suite", "clock-contraction", "--out", str(out1)]) == 0
    assert main([
        "verify", "--suite", "clock-contraction", "--seed", "1", "--out", str(out2),
    ]) == 0
    r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert r1["seed"] == 0 and r2["seed"] == 1
    m1 = [c["measured"] for c in r1["checks"]]
    m2 = [c["measured"] for c in r2["checks"]]
    assert m1 != m2  # fresh random q0 draws move the worst ratios


def test_verify_failure_exit_code_and_stderr(tmp_path, capsys):
    code = main(["verify", "--suite", "example1", "--out", str(tmp_path / "r.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL: example1/lift-ratio-16-32" in captured.err


def test_verify_csv_table(tmp_path):
    csv_path = tmp_path / "table.csv"
    code = main([
        "verify", "--suite", "example2",
        "--out", str(tmp_path / "r.json"), "--csv", str(csv_path),
    ])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "check,measured,bound,pass"
    assert len(lines) == 1 + EXPECTED_CHECK_COUNTS["example2"]
    assert all(line.endswith(",true") for line in lines[1:])


def test_verify_unknown_suite():
    assert main(["verify", "--suite", "nope"]) == 2


def test_help_and_version_return_zero(capsys):
    # main returns argparse's own exit code instead of raising it
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("liftmix ")
    assert main(["verify", "--help"]) == 0
    assert "--suite" in capsys.readouterr().out


def test_verify_rejects_negative_seed(capsys):
    assert main(["verify", "--suite", "lemma1", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


def test_graph_stats_barbell(tmp_path, capsys):
    gfile = write_graph(tmp_path, barbell(6))
    assert main(["graph", "stats", gfile]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["n"] == 12
    assert got["diameter"] == 3
    assert got["connected"] is True


@pytest.mark.parametrize("g, expected", [
    (barbell(6), {"n": 12, "arcs": 62, "connected": True, "diameter": 3}),
    (liftmix.graph_from_edges(3, [(0, 1), (1, 2)], directed=True),
     {"n": 3, "arcs": 2, "connected": False, "diameter": None}),
])
def test_graph_stats_runs_one_sparse_distance_search(tmp_path, capsys, monkeypatch, g, expected):
    # one all-pairs BFS on the arc-key CSR answers both connectivity and
    # diameter: no component search, and no csgraph call gets a dense array
    calls = []
    for name in ("_csgraph_distances", "connected_components", "breadth_first_order"):
        def spy(graph, *args, _name=name, _search=getattr(liftmix.graph_core, name), **kwargs):
            calls.append((_name, issparse(graph)))
            return _search(graph, *args, **kwargs)
        monkeypatch.setattr(liftmix.graph_core, name, spy)
    assert main(["graph", "stats", write_graph(tmp_path, g)]) == 0
    assert json.loads(capsys.readouterr().out) == expected
    assert calls == [("_csgraph_distances", True)]


def test_graph_stats_missing_file(tmp_path, capsys):
    assert main(["graph", "stats", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    {"n": 4.9},
    {"n": "4"},
    {"edges": [[0, 1], [1, 2], [2, 3], [3, 0.7]]},
    {"edges": [[0, 1], [1, 2], [2, 3], [3, True]]},
    {"directed": "no"},
    {"directed": 0},
])
def test_graph_reader_refuses_what_it_would_truncate(tmp_path, capsys, change):
    # a float or bool node, or a directed flag that is no JSON bool, is an
    # input error (exit 2), never read as a truncated or coerced value
    obj = {**graph_to_json(cycle(4)), **change}
    f = tmp_path / "g.json"
    f.write_text(json.dumps(obj))
    assert main(["graph", "stats", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_lift_reader_refuses_a_fractional_projection(tmp_path, capsys):
    bundle = tmp_path / "lift.json"
    assert main(["lift", "build", "--construction", "diaconis", "--nodes", "4",
                 "--out", str(bundle)]) == 0
    obj = json.loads(bundle.read_text())
    obj["projection"] = [c + 0.5 for c in obj["projection"]]
    bundle.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["lift", "analyze", "--lift", str(bundle), "--pi", "uniform",
                 "--scenario", "sIMRE"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "projection" in captured.err


def test_conductance_graph_k4(tmp_path, capsys):
    gfile = write_graph(tmp_path, complete(4))
    assert main(["conductance", "graph", "--graph", gfile, "--pi", "uniform"]) == 0
    got = json.loads(capsys.readouterr().out)
    # the simple walk witness already achieves 2/3, the program must too
    assert got["phi"] == pytest.approx(2 / 3, abs=1e-8)
    P = np.array(got["argmax_chain"]["rows"])
    assert np.abs(P.sum(axis=0) - 1).max() <= 1e-9
    assert (P >= 0).all()


def test_conductance_chain_with_cycle_flag(tmp_path, capsys):
    # the dispatch picks the cut scan, so --cycle is a usage error
    lazy = {
        "n": 4,
        "rows": [
            [0.5, 0.25, 0.0, 0.25],
            [0.25, 0.5, 0.25, 0.0],
            [0.0, 0.25, 0.5, 0.25],
            [0.25, 0.0, 0.25, 0.5],
        ],
    }
    cfile = tmp_path / "chain.json"
    cfile.write_text(json.dumps(lazy))
    args = ["conductance", "chain", "--chain", str(cfile), "--pi", "uniform"]
    assert main(args) == 0
    full = json.loads(capsys.readouterr().out)
    assert full["phi"] == pytest.approx(0.25)
    assert full["argmin_cut"]["members"] == [0, 1]
    assert main(args + ["--cycle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --cycle" in captured.err


def test_conductance_chain_past_the_cut_guard(tmp_path, capsys):
    # a cycle-supported chain past 24 nodes gets phi_chain_cycle's windows;
    # any other is refused, naming both the guard and the cycle support
    lazy, g = lazy_walk(cycle(26)), barbell(13)
    off_cycle = StochasticMatrix(
        0.5 * (np.eye(26) + metropolis_chain(g, uniform_distribution(26)).entries), locality=g
    )
    args = ["conductance", "chain", "--pi", "uniform", "--chain", str(tmp_path / "chain.json")]
    (tmp_path / "chain.json").write_text(json.dumps(lazy.to_json()))
    assert main(args) == 0
    phi, cut = phi_chain_cycle(lazy, uniform_distribution(26))
    assert json.loads(capsys.readouterr().out) == {
        "phi": phi, "argmin_cut": {"members": list(cut.members()), "weight": cut.weight},
    }
    (tmp_path / "chain.json").write_text(json.dumps(off_cycle.to_json()))
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "guarded to n <= 24, got 26" in captured.err and "cycle arcs" in captured.err


def test_bridge_command_shapes(tmp_path, capsys):
    gfile = write_graph(tmp_path, path(4))
    assert main(["bridge", "--graph", gfile, "--src", "e:0", "--dst", "uniform"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["T"] == 3 and got["n"] == 4
    assert len(got["steps"]) == 3
    prod = np.eye(4)
    for rows in got["steps"]:
        prod = np.array(rows) @ prod
    assert np.abs(prod[:, 0] - 0.25).max() <= 1e-10

    assert main(["bridge", "--graph", gfile, "--all-sources", "--dst", "uniform"]) == 0
    per_node = json.loads(capsys.readouterr().out)["per_node"]
    assert len(per_node) == 4

    assert main(["bridge", "--graph", gfile, "--dst", "uniform"]) == 2


def test_bridge_refuses_src_with_all_sources(tmp_path, capsys):
    # --src and --all-sources are exclusive: one must not silently win
    gfile = write_graph(tmp_path, path(4))
    assert main(["bridge", "--graph", gfile, "--src", "e:0", "--all-sources",
                 "--dst", "uniform"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with argument" in captured.err


@pytest.mark.parametrize("spec", ["e:-1", "e:99", "e:x"])
def test_bridge_rejects_bad_point_mass(tmp_path, capsys, spec):
    gfile = write_graph(tmp_path, path(4))
    assert main(["bridge", "--graph", gfile, "--src", spec, "--dst", "uniform"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_lift_build_and_analyze_round_trip(tmp_path, capsys):
    bundle = tmp_path / "lift.json"
    ref = tmp_path / "ref.json"
    code = main([
        "lift", "build", "--construction", "four-cycle",
        "--delta", "0.05", "--gamma", "0.01",
        "--out", str(bundle), "--ref-out", str(ref),
    ])
    assert code == 0
    obj = json.loads(bundle.read_text())
    assert obj["metadata"]["construction"] == "four-cycle"
    assert "lifted" not in obj

    code = main([
        "lift", "analyze", "--lift", str(bundle), "--pi", "uniform",
        "--scenario", "SiMre", "--ref-chain", str(ref),
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "SiMre"
    assert report["measured"]["marginal"] == {"tau": 2, "mixed": True}
    names = {b["name"] for b in report["bounds"]}
    assert {"one-over-4-phi", "one-over-8-phi"} <= names


def test_lift_analyze_refuses_a_second_delta(tmp_path, capsys):
    # delta is set only by the scenario's ":delta"; --delta is a usage error
    bundle, ref = tmp_path / "lift.json", tmp_path / "ref.json"
    assert main(["lift", "build", "--construction", "four-cycle", "--delta", "0.05",
                 "--gamma", "0.01", "--out", str(bundle), "--ref-out", str(ref)]) == 0
    analyze = ["lift", "analyze", "--lift", str(bundle), "--pi", "uniform",
               "--ref-chain", str(ref), "--scenario"]
    capsys.readouterr()
    assert main(analyze + ["SiMre:0.01"]) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"]["flow_match"]["delta"] == 0.01
    for scenario in ("SiMre", "SiMre:0.01"):
        assert main(analyze + [scenario, "--delta", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --delta" in captured.err


def test_lift_analyze_reads_sparse_and_dense_bundles_alike(tmp_path, capsys):
    gfile = write_graph(tmp_path, cycle(6))
    sparse = tmp_path / "sparse.json"
    assert main([
        "lift", "build", "--construction", "diameter", "--graph", gfile,
        "--pi", "uniform", "--out", str(sparse),
    ]) == 0
    obj = json.loads(sparse.read_text())
    A = obj["A"]
    assert set(A) == {"n", "row", "col", "value"}
    rows = np.zeros((A["n"], A["n"]))
    rows[A["row"], A["col"]] = A["value"]
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps({**obj, "A": {"n": A["n"], "rows": rows.tolist()}}))
    # older bundles also held the lifted graph, A's off-diagonal support
    old = tmp_path / "old.json"
    arcs = sorted([i, j] for j, i in zip(A["row"], A["col"]) if i != j)
    old.write_text(json.dumps({**obj, "lifted": {"n": A["n"], "edges": arcs, "directed": True}}))
    capsys.readouterr()
    reports = []
    for bundle in (sparse, dense, old):
        assert main(["lift", "analyze", "--lift", str(bundle), "--pi", "uniform",
                     "--scenario", "sIMRE"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["sizes"]["lifted"] == A["n"]


def test_lift_build_mixer_from_graph_file(tmp_path, capsys):
    gfile = write_graph(tmp_path, cycle(4))
    bundle = tmp_path / "mixer.json"
    code = main([
        "lift", "build", "--construction", "diameter", "--graph", gfile,
        "--pi", "uniform", "--out", str(bundle),
    ])
    assert code == 0
    code = main([
        "lift", "analyze", "--lift", str(bundle), "--pi", "uniform",
        "--scenario", "SIMRE",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["measured"]["marginal"]["tau"] <= report["diameter"] + 1


def _four_cycle_bundle(part: str) -> dict:
    """The four-cycle lift's bundle with the first value of A or F as a str."""
    obj = lift_to_json(four_cycle_lift(0.05, 0.01)[0])
    obj[part]["value"][0] = str(obj[part]["value"][0])
    return obj


_ANALYZE = ["lift", "analyze", "--lift", "F", "--pi", "uniform", "--scenario", "SIMRE"]


@pytest.mark.parametrize("content, command", [
    ({"n": 2}, ["conductance", "chain", "--chain", "F", "--pi", "uniform"]),
    ({"base": 1}, ["lift", "analyze", "--lift", "F", "--pi", "uniform",
                   "--scenario", "SIMRE"]),
    ({"per_node": []}, ["lift", "build", "--construction", "clock", "--graph", "G",
                        "--chain", "F", "--out", "O"]),
    # the readers' own input errors
    ({"n": 4.9, "edges": []}, ["graph", "stats", "F"]),
    ({"base": {"n": 2, "edges": [[0, 1]]}, "lifted": {"n": 2, "edges": [[0, 1]]},
      "projection": [0, "1"]}, ["lift", "analyze", "--lift", "F", "--pi", "uniform",
                                "--scenario", "SIMRE"]),
    # numbers written as strings
    (_four_cycle_bundle("A"), _ANALYZE),
    (_four_cycle_bundle("F"), _ANALYZE),
    ({"weights": ["0.25"] * 4}, ["conductance", "graph", "--graph", "G", "--pi", "F"]),
    # integers past float range, and a size past C long
    ({"weights": [10**400, 0, 0, 0]}, ["conductance", "graph", "--graph", "G", "--pi", "F"]),
    ({"weights": [10**400, 0, 0, 0]}, ["bridge", "--graph", "G", "--src", "e:0",
                                       "--dst", "F"]),
    ({"n": 2, "rows": [[10**400, 0], [0, 1]]}, ["conductance", "chain", "--chain", "F",
                                                 "--pi", "uniform"]),
    ({"n": 2, "row": [0, 1], "col": [0, 1], "value": [10**400, 1]},
     ["conductance", "chain", "--chain", "F", "--pi", "uniform"]),
    ({"n": 10**30, "row": [0], "col": [0], "value": [1.0]},
     ["conductance", "chain", "--chain", "F", "--pi", "uniform"]),
    ({"n": 10**30, "edges": []}, ["graph", "stats", "F"]),
])
def test_malformed_input_file_is_an_input_error(tmp_path, capsys, content, command):
    # a file of the wrong shape exits 2 with one error line naming it, not a traceback
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    files = {"F": str(bad), "G": write_graph(tmp_path, cycle(4)),
             "O": str(tmp_path / "out.json")}
    assert main([files.get(arg, arg) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(bad) in lines[0]


@pytest.mark.parametrize("option", ["--out", "--csv"])
def test_unwritable_output_path_is_an_input_error(tmp_path, capsys, option):
    # every output path is opened before anything is written: no report
    # reaches stdout ahead of the failing path
    target = str(tmp_path / "missing" / "report")
    assert main(["verify", "--suite", "clock-contraction", option, target]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write") and target in lines[0]
    assert captured.out == ""


@pytest.mark.parametrize("bad", ["--ref-out", "--out"])
def test_unwritable_lift_build_path_writes_neither_file(tmp_path, capsys, bad):
    paths = {"--ref-out": tmp_path / "ref.json", "--out": tmp_path / "bundle.json"}
    paths[bad] = tmp_path / "missing" / "file.json"
    args = ["lift", "build", "--construction", "four-cycle", "--delta", "0.05",
            "--gamma", "0.01"]
    for option, target in paths.items():
        args += [option, str(target)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and str(paths[bad]) in captured.err
    assert all(not p.exists() or p.read_text() == "" for p in paths.values())


def _cli(*args):
    """liftmix's CLI in a fresh interpreter, with output captured."""
    env = dict(os.environ, PYTHONPATH=str(Path(liftmix.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60)


def test_failed_out_keeps_an_existing_ref_out_and_closes_it(tmp_path):
    # --ref-out opens, --out fails: one error line naming --out, the old
    # reference bytes untouched, and no handle left for the collector
    ref = tmp_path / "ref.json"
    ref.write_bytes(b"old reference\n")
    bad = str(tmp_path / "missing" / "bundle.json")
    run = _cli("-W", "error::ResourceWarning", "-m", "liftmix.cli", "lift", "build",
               "--construction", "four-cycle", "--delta", "0.05", "--gamma", "0.01",
               "--ref-out", str(ref), "--out", bad)
    assert run.returncode == 2 and run.stdout == b""
    lines = run.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {bad}:")
    assert ref.read_bytes() == b"old reference\n"


def test_rewritten_output_holds_only_the_new_bytes_in_the_same_file(tmp_path):
    # a shorter bundle over a longer one leaves no tail, and is written in
    # place: the inode stays (a temp file renamed over it would change it)
    def build(n, target):
        g = write_graph(tmp_path, cycle(n), f"c{n}.json")
        return main(["lift", "build", "--construction", "diameter", "--graph", g,
                     "--pi", "uniform", "--out", str(target)])

    out, fresh = tmp_path / "bundle.json", tmp_path / "fresh.json"
    assert build(8, out) == 0
    before = out.stat()
    assert build(6, out) == 0 and build(6, fresh) == 0
    assert out.read_bytes() == fresh.read_bytes() and fresh.stat().st_size < before.st_size
    assert out.stat().st_ino == before.st_ino


def test_same_path_for_out_and_ref_out_holds_the_bundle(tmp_path):
    target = tmp_path / "both.json"
    assert main(["lift", "build", "--construction", "four-cycle", "--delta", "0.05",
                 "--gamma", "0.01", "--out", str(target), "--ref-out", str(target)]) == 0
    assert json.loads(target.read_text())["metadata"]["construction"] == "four-cycle"


def test_output_to_a_device_or_pipe_is_written_without_truncation(capsys):
    # only a regular file is cut to length: a device or a pipe takes the
    # text as it is, and truncating it would fail
    assert main(["verify", "--suite", "clock-contraction", "--out", os.devnull]) == 0
    assert capsys.readouterr().out == ""
    args = ["-m", "liftmix.cli", "verify", "--suite", "clock-contraction"]
    piped, plain = _cli(*args, "--out", "/dev/stdout"), _cli(*args)
    assert piped.returncode == plain.returncode == 0
    assert piped.stdout == plain.stdout and plain.stdout.startswith(b"{")


def test_lift_build_chain_constructions_from_bridge_output(tmp_path):
    # the clock lifts read one bridge's steps, the node-clock lifts every
    # source's bridge from --chains; each bundle is the library's, bit for
    # bit.  The cycle runs on the default uniform pi (no --pi); the random
    # graph's random pi, passed as a file, makes the steps non-dyadic
    rng = rng_from_seed(23)
    g_random = random_connected_graph(rng, n=7)
    pi_random = random_distribution(rng, g_random.n)
    pi_file = str(tmp_path / "pi.json")
    Path(pi_file).write_text(json.dumps(pi_random.to_json()))
    inputs = [(cycle(5), uniform_distribution(5), "uniform", []),
              (g_random, pi_random, pi_file, ["--pi", pi_file])]
    for k, (g, pi, dst, pi_option) in enumerate(inputs):
        gfile = write_graph(tmp_path, g, f"g{k}.json")
        one, every = str(tmp_path / f"one{k}.json"), str(tmp_path / f"every{k}.json")
        assert main(["bridge", "--graph", gfile, "--src", "e:0", "--dst", dst,
                     "--out", one]) == 0
        assert main(["bridge", "--graph", gfile, "--all-sources", "--dst", dst,
                     "--out", every]) == 0
        chain = stochastic_bridge(g, point_distribution(g.n, 0), pi)
        per_node = [stochastic_bridge(g, point_distribution(g.n, i), pi) for i in range(g.n)]
        chains = [*pi_option, "--chains", every]
        for construction, option, expected in (
            ("clock", ["--chain", one], clock_lift(g, chain)),
            ("periodic-clock", ["--chain", one], periodic_clock_lift(g, chain)),
            ("node-clock", chains, node_clock_lift(g, per_node, pi)),
            ("periodic-node-clock", chains, periodic_node_clock_lift(g, per_node, pi)),
        ):
            out = tmp_path / f"{construction}{k}.json"
            assert main(["lift", "build", "--construction", construction, "--graph", gfile,
                         *option, "--out", str(out)]) == 0
            assert out.read_text() == _dump_json(lift_to_json(expected))


@pytest.mark.parametrize("construction, build", [
    ("node-clock", node_clock_lift),
    ("periodic-node-clock", periodic_node_clock_lift),
])
def test_lift_build_node_clock_without_chains_rides_every_bridge_to_pi(tmp_path, construction,
                                                                      build):
    # without --chains every start v0 rides the bridge e_v0 -> pi
    g, weights = barbell(3), [0.1, 0.2, 0.3, 0.15, 0.15, 0.1]
    pi_file = tmp_path / "pi.json"
    pi_file.write_text(json.dumps({"weights": weights}))
    pi = Distribution(weights)
    per_node = [stochastic_bridge(g, point_distribution(6, i), pi) for i in range(6)]
    out = tmp_path / f"{construction}.json"
    assert main(["lift", "build", "--construction", construction, "--graph",
                 write_graph(tmp_path, g), "--pi", str(pi_file), "--out", str(out)]) == 0
    assert out.read_text() == _dump_json(lift_to_json(build(g, per_node, pi)))


@pytest.mark.parametrize("construction, given, option", [
    ("diaconis", [], "--nodes"),
    ("four-cycle", [], "--delta"),
    ("clock", [], "--graph"),
    ("periodic-clock", ["--graph", "G"], "--chain"),
    ("clock", ["--graph", "M"], "--chain"),  # named before any file is read (M is missing)
])
def test_lift_build_names_the_option_it_needs(tmp_path, capsys, construction, given, option):
    files = {"G": write_graph(tmp_path, cycle(4)), "M": str(tmp_path / "missing.json")}
    assert main(["lift", "build", "--construction", construction,
                 *[files.get(arg, arg) for arg in given],
                 "--out", str(tmp_path / "out.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --construction {construction} needs {option}\n"


@pytest.mark.parametrize("construction, given, option", [
    ("diameter", ["--graph", "G", "--ref-out", "R"], "--ref-out"),
    ("diaconis", ["--nodes", "8", "--graph", "M", "--chains", "M", "--ref-chain", "M"],
     "--graph"),
    ("node-clock", ["--graph", "G", "--chain", "M"], "--chain"),
    ("periodic-node-clock", ["--graph", "G", "--delta", "0.1"], "--delta"),
    ("clock", ["--graph", "G", "--chain", "M", "--pi", "uniform"], "--pi"),
    ("periodic-clock", ["--graph", "G", "--chain", "M", "--chains", "M"], "--chains"),
    ("four-cycle", ["--delta", "0.05", "--nodes", "4"], "--nodes"),
    ("four-cycle", ["--delta", "0.05", "--ref-chain", "M"], "--ref-chain"),
])
def test_lift_build_refuses_an_option_its_construction_never_reads(tmp_path, capsys,
                                                                  construction, given, option):
    # refused before any file is read (M is missing) or written (R, --out)
    files = {"G": write_graph(tmp_path, cycle(4)), "M": str(tmp_path / "missing.json"),
             "R": str(tmp_path / "ref.json")}
    out = tmp_path / "out.json"
    assert main(["lift", "build", "--construction", construction,
                 *[files.get(arg, arg) for arg in given], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --construction {construction} does not read {option}\n"
    assert not out.exists() and not (tmp_path / "ref.json").exists()


def test_lift_analyze_rejects_negative_window(tmp_path, capsys):
    bundle = tmp_path / "lift.json"
    assert main([
        "lift", "build", "--construction", "four-cycle",
        "--delta", "0.05", "--gamma", "0.01", "--out", str(bundle),
    ]) == 0
    capsys.readouterr()
    assert main([
        "lift", "analyze", "--lift", str(bundle), "--pi", "uniform",
        "--scenario", "SIMRE", "--t-max", "-1",
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_lift_analyze_rejects_eps_of_one(tmp_path, capsys):
    bundle = tmp_path / "lift.json"
    assert main([
        "lift", "build", "--construction", "four-cycle",
        "--delta", "0.05", "--gamma", "0.01", "--out", str(bundle),
    ]) == 0
    capsys.readouterr()
    assert main([
        "lift", "analyze", "--lift", str(bundle), "--pi", "uniform",
        "--scenario", "SIMRE", "--eps", "1",
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_lift_build_irreducible_mixer_rejects_zero_gamma(tmp_path, capsys):
    gfile = write_graph(tmp_path, cycle(6))
    assert main([
        "lift", "build", "--construction", "diameter", "--graph", gfile,
        "--pi", "uniform", "--variant", "irreducible", "--gamma", "0",
        "--out", str(tmp_path / "mixer.json"),
    ]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err


@pytest.mark.parametrize("variant", ["flows", "irreducible"])
@pytest.mark.parametrize("gamma", ["1", "2"])
def test_lift_build_mixer_rejects_gamma_of_one_or_more(tmp_path, capsys, variant, gamma):
    gfile = write_graph(tmp_path, cycle(6))
    out = tmp_path / "mixer.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([
            "lift", "build", "--construction", "diameter", "--graph", gfile,
            "--pi", "uniform", "--variant", variant, "--gamma", gamma,
            "--out", str(out),
        ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert not out.exists()


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_nonfinite_values_serialize_as_strings(tmp_path):
    out = tmp_path / "r.json"
    main(["verify", "--suite", "example1", "--out", str(out)])
    text = out.read_text()
    obj = json.loads(text)
    lifts = {int(k): v for k, v in obj["lift_tau"].items()}
    assert lifts[16] == "inf"
    assert text.endswith("\n")


def test_dump_json_converts_numpy_and_nonfinite_values():
    report = {
        "f64": np.float64(0.1),
        "f32": np.float32(0.5),
        "i64": np.int64(-3),
        "np_bool": np.bool_(False),
        "bool": True,
        "int": 7,
        "inf": math.inf,
        "ninf": -math.inf,
        "np_inf": np.float64(np.inf),
        "nan": math.nan,
        "np_nan": np.float64(np.nan),
        "tuple": (1, 2.5, (np.int32(4), None)),
        "rows": np.array([[0.25, np.inf], [-np.inf, np.nan]]),
        "flags": np.array([True, False]),
        "counts": np.arange(3),
        2: [{"nested": np.float64(-0.0)}, "text"],
        # lists of plain values, some returned as they are
        "ints": [3, -1, 0],
        "words": ["a", 1, "b"],
        "floats": [0.5, -0.0, 1e300],
        "float_inf": [0.5, math.inf],
        "float_nan": [math.nan, 0.5],
        "int_float": [1, 2.5, -math.inf],
        "bools": [True, 0, 1.0],
        "np_floats": [np.float64(0.5), 0.25],
        "np_ints": [np.int64(2), 3],
        "lists": [[1.0, math.nan], [], [2]],
        "edges": [[0, 1], [1, 2]],
        "float_rows": [[0.5, 0.25], [1.0]],
        "deep": [[[0.5]], [[1]]],
        "bool_rows": [[True], [1]],
        "empty": [],
    }
    assert _dump_json(report) == (
        '{"2":[{"nested":-0.0},"text"],"bool":true,"bool_rows":[[true],[1]],'
        '"bools":[true,0,1.0],"counts":[0,1,2],"deep":[[[0.5]],[[1]]],'
        '"edges":[[0,1],[1,2]],"empty":[],"f32":0.5,"f64":0.1,"flags":[true,false],'
        '"float_inf":[0.5,"inf"],"float_nan":["nan",0.5],"float_rows":[[0.5,0.25],[1.0]],'
        '"floats":[0.5,-0.0,1e+300],"i64":-3,"inf":"inf","int":7,'
        '"int_float":[1,2.5,"-inf"],"ints":[3,-1,0],"lists":[[1.0,"nan"],[],[2]],'
        '"nan":"nan","ninf":"-inf","np_bool":false,"np_floats":[0.5,0.25],'
        '"np_inf":"inf","np_ints":[2,3],"np_nan":"nan",'
        '"rows":[[0.25,"inf"],["-inf","nan"]],'
        '"tuple":[1,2.5,[4,null]],"words":["a",1,"b"]}\n'
    )


def test_lift_build_and_designed_report_form_no_dense_lifted_array(tmp_path):
    # the cycle-12 reducible mixer has 1,152 lifted states, so one dense
    # lifted array takes 10.6 MB: more than building, writing, reading and
    # reporting (SIMRE) allocate at their peak
    graph = write_graph(tmp_path, cycle(12))
    bundle, report = str(tmp_path / "L.json"), str(tmp_path / "r.json")
    tracemalloc.start()
    try:
        assert main(["lift", "build", "--construction", "diameter", "--graph", graph,
                     "--pi", "uniform", "--out", bundle]) == 0
        assert main(["lift", "analyze", "--lift", bundle, "--pi", "uniform",
                     "--scenario", "SIMRE", "--out", report]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(bundle) as fh:
        n = json.load(fh)["A"]["n"]
    assert n == 1152
    assert peak < 8 * n * n
