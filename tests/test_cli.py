import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import polyflip
from polyflip import Triangulation, bfs_distances, build_slice
from polyflip.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count=5"
    assert len(lines) == 6
    for line in lines[:-1]:
        assert Triangulation.from_text(line).n == 5


def test_enumerate_json_round_trip(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 2
    keys = {Triangulation.from_text(s).canonical_key() for s in obj["triangulations"]}
    assert len(keys) == 2


def test_enumerate_usage_error(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "2")
    assert code == 2
    assert "error" in err


def test_distance_command(capsys):
    code, out, _ = run(capsys, "distance", "--n", "5", "--t", "0-2,0-3", "--u", "1-3,1-4")
    assert code == 0
    assert out.splitlines()[0] == "distance=2"
    code, out, _ = run(capsys, "distance", "--n", "5", "--t", "0-2,0-3", "--u", "0-2,0-3")
    assert out.splitlines()[0] == "distance=0"


def test_distance_bad_literal(capsys):
    code, _, err = run(capsys, "distance", "--n", "5", "--t", "0-2", "--u", "1-3,1-4")
    assert code == 2
    code, _, err = run(capsys, "distance", "--n", "5", "--t", "0-2,0-9", "--u", "1-3,1-4")
    assert code == 2


def test_eccentricity_command(capsys):
    code, out, _ = run(capsys, "eccentricity", "--n", "6", "--t", "0-2,0-3,0-4")
    assert code == 0
    assert out.splitlines()[0] == "eccentricity=3"


def test_profile_command(capsys):
    code, out, _ = run(capsys, "profile", "--n", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert "k=0 ecc=3 count=6" in lines
    assert "k=1 ecc=4 count=8" in lines
    assert lines[-1] == "count=14"


def test_profile_matches_per_node_bfs(capsys):
    code, out, _ = run(capsys, "profile", "--n", "8", "--format", "json")
    assert code == 0
    slc = build_slice(8)
    expected = Counter(
        (slc.triangulation(i).comb_gap(), int(bfs_distances(slc, i).max()))
        for i in range(len(slc))
    )
    strata = json.loads(out)["strata"]
    assert {(r["k"], r["eccentricity"]): r["count"] for r in strata} == expected


def test_witness_commands(capsys):
    code, out, _ = run(
        capsys, "witness", "omega", "--n", "6", "--t", "0-2,2-4,0-4", "--v", "0",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["bound"] == 4
    assert obj["distance"] >= 4
    assert obj["certificate"] is not None

    code, out, _ = run(capsys, "witness", "central", "--n", "6", "--t", "0-2,0-3,0-4",
                       "--format", "json")
    assert json.loads(out)["central"]["triple"] == [0, 2, 3]

    code, out, _ = run(capsys, "witness", "family", "--n", "10", "--k", "5",
                       "--format", "json")
    obj = json.loads(out)
    assert obj["max_interior_degree"] == 2
    assert Triangulation.from_text(obj["witness"]).comb_gap() == 5

    for kind in ("far-long", "far-short"):
        code, out, _ = run(capsys, "witness", kind, "--n", "8",
                           "--t", "0-2,0-3,0-4,0-5,0-6", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["distance"] >= obj["bound"]


def test_witness_missing_args(capsys):
    code, _, err = run(capsys, "witness", "omega", "--n", "6", "--t", "0-2,0-3,0-4")
    assert code == 2
    code, _, err = run(capsys, "witness", "family", "--n", "10")
    assert code == 2


def test_verify_command_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "close", "--n", "6..7",
                       "--no-timestamp")
    assert code == 0
    assert "close n=6: pass" in out
    code, out, _ = run(capsys, "verify", "--claim", "characterization", "--n", "12",
                       "--no-timestamp")
    assert code == 0
    assert "vacuous" in out
    code, _, err = run(capsys, "verify", "--n", "6")
    assert code == 2


def test_verify_deterministic_output(capsys):
    args = ["verify", "--all", "--n", "6", "--no-timestamp", "--format", "json"]
    _, first, _ = run(capsys, *args, "--workers", "1")
    _, second, _ = run(capsys, *args, "--workers", "8")
    assert first == second
    obj = json.loads(first)
    assert "generated" not in obj
    assert all("seconds" not in r for r in obj["reports"])


def test_verify_deletion_honours_max_nodes(capsys, monkeypatch):
    monkeypatch.setenv("POLYFLIP_NODE_BUDGET", "100")
    args = ["verify", "--claim", "deletion", "--n", "8", "--no-timestamp"]
    code, out, err = run(capsys, *args, "--max-nodes", "1000")
    assert (code, out, err) == (0, "deletion n=8: pass (8778 instances)\n", "")
    code, _, err = run(capsys, *args)
    assert code == 3 and "above the budget of 100" in err


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "far", "--n", "6",
                       "--format", "csv", "--no-timestamp")
    assert code == 0
    assert out.splitlines()[0] == "claim,n,instances,failures,status"
    assert out.splitlines()[1].startswith("far,6,14,0,pass")


def test_export_dot_and_json(capsys):
    code, out, _ = run(capsys, "export", "--n", "5", "--format", "dot")
    assert code == 0
    assert out.count(" -- ") == 5  # the flip graph of the pentagon is a 5-cycle
    assert out.count("label=") == 5
    code, out, _ = run(capsys, "export", "--n", "4", "--format", "json")
    obj = json.loads(out)
    assert len(obj["nodes"]) == 2 and obj["edges"] == [[0, 1]]
    code, out, _ = run(capsys, "export", "--n", "6", "--format", "json")
    obj = json.loads(out)
    assert len(obj["nodes"]) == 14 and len(obj["edges"]) == 21


def test_export_deterministic(capsys):
    _, a, _ = run(capsys, "export", "--n", "6", "--format", "dot")
    _, b, _ = run(capsys, "export", "--n", "6", "--format", "dot")
    assert a == b


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "9", "--max-nodes", "10")
    assert code == 3
    assert "budget" in err


ZIGZAG_10_T = "1-8,1-9,2-7,2-8,3-6,3-7,4-6"
ZIGZAG_10_U = "0-5,0-6,1-4,1-5,2-4,6-9,7-9"


def test_distance_honours_max_nodes(capsys):
    argv = ["distance", "--n", "10", "--t", ZIGZAG_10_T, "--u", ZIGZAG_10_U]
    code, out, err = run(capsys, *argv, "--max-nodes", "100")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "budget" in err
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0] == "distance=10"


def test_internal_error_exit_code(capsys, monkeypatch):
    import polyflip.cli as cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_enumerate", broken)
    code, out, err = run(capsys, "enumerate", "--n", "5")
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_bad_node_budget_variable_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("POLYFLIP_NODE_BUDGET", "abc")
    code, _, err = run(capsys, "enumerate", "--n", "5")
    assert code == 2
    assert "POLYFLIP_NODE_BUDGET" in err
    assert "Traceback" not in err


def test_negative_node_budget_is_usage_error(capsys, monkeypatch):
    code, _, err = run(capsys, "enumerate", "--n", "6", "--max-nodes", "-1")
    assert code == 2
    assert "negative" in err
    monkeypatch.setenv("POLYFLIP_NODE_BUDGET", "-1")
    code, _, err = run(capsys, "enumerate", "--n", "5")
    assert code == 2
    assert "negative" in err
    monkeypatch.delenv("POLYFLIP_NODE_BUDGET")
    code, _, err = run(capsys, "enumerate", "--n", "6", "--max-nodes", "0")
    assert code == 3
    assert "budget of 0" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "enumerate", "--n", "4", "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text().strip().endswith("count=2")


def test_range_rejected_outside_verify(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "5..7")
    assert code == 2


def test_witness_distance_honours_max_nodes(capsys, monkeypatch):
    monkeypatch.setenv("POLYFLIP_NODE_BUDGET", "100")
    code, out, err = run(capsys, "witness", "far-long", "--n", "10",
                         "--t", ZIGZAG_10_T, "--max-nodes", "100000")
    assert (code, err) == (0, "")
    assert any(line.startswith("distance=") for line in out.splitlines())


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(polyflip.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "polyflip", "verify", "--claim", "close", "--n", "6",
         "--no-timestamp"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "close n=6: pass (14 instances)\n"
