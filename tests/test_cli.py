"""Command-line surface: suites, determinism, exit codes, file formats."""

import json

import numpy as np
import pytest

from liftmix import barbell, complete, cycle, graph_to_json, path
from liftmix.cli import SUITE_NAMES, main, run_suite

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
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_graph_stats_barbell(tmp_path, capsys):
    gfile = write_graph(tmp_path, barbell(6))
    assert main(["graph", "stats", gfile]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["n"] == 12
    assert got["diameter"] == 3
    assert got["connected"] is True


def test_graph_stats_missing_file(tmp_path, capsys):
    assert main(["graph", "stats", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


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
    assert main(args + ["--cycle"]) == 0
    arc = json.loads(capsys.readouterr().out)
    assert arc["phi"] == pytest.approx(full["phi"])


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
    assert obj["lifted"]["n"] == 12

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


def test_lift_build_irreducible_mixer_rejects_zero_gamma(tmp_path, capsys):
    gfile = write_graph(tmp_path, cycle(6))
    assert main([
        "lift", "build", "--construction", "diameter", "--graph", gfile,
        "--pi", "uniform", "--variant", "irreducible", "--gamma", "0",
        "--out", str(tmp_path / "mixer.json"),
    ]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_nonfinite_values_serialize_as_strings(tmp_path):
    out = tmp_path / "r.json"
    main(["verify", "--suite", "example1", "--out", str(out)])
    text = out.read_text()
    obj = json.loads(text)
    lifts = {int(k): v for k, v in obj["lift_tau"].items()}
    assert lifts[16] == "inf"
    assert text.endswith("\n")
