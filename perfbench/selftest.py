#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes, covering every code path.

    python3 perfbench/selftest.py

Runs each workload small (sweep on n=9/8, pairs on n=9 with zigzag pairs at
n=9/10, certify on `verify --all --n 6..7`), untraced and traced, and checks
the output schema against BENCHMARK.json.  A sweep with a deliberately wrong
expected answer and an exception must count as failed, corrupted geodesics
must be caught by the pair checks, a package without the traced functions
must report them absent, and the harness must refuse to run without the
polyflip source.  Takes well under a minute.  Exit code 0 when every check holds.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402

SMOKE = {
    "sweep": dict(run.WORKLOADS["sweep"], slices=[9, 8], diameter_n=9, diameter_radius=[9, 6],
                  close_n=8, close="close n=8: pass (124 instances)\n", items=429 + 124),
    "pairs": dict(run.WORKLOADS["pairs"], n=9, random_pairs=5, max_d=6, fixed=[
                      {"n": 9, "d": 8, "t": [[1, 7], [1, 8], [2, 6], [2, 7], [3, 5], [3, 6]],
                       "u": [[0, 3], [0, 4], [1, 3], [4, 8], [5, 7], [5, 8]]},
                      {"n": 10, "d": 10,
                       "t": [[1, 8], [1, 9], [2, 7], [2, 8], [3, 6], [3, 7], [4, 6]],
                       "u": [[0, 5], [0, 6], [1, 4], [1, 5], [2, 4], [6, 9], [7, 9]]}]),
    "certify": dict(run.WORKLOADS["certify"],
                    commands=[(["verify", "--all", "--n", "6..7"], "verify_all_6-7.json")]),
}

failures = []


def expect(condition: bool, what: str):
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def check_schema(name: str, result: dict, trace: bool, declared: dict):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{name}: result has exactly correct, attempted, failed, metrics")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1
           and isinstance(result["failed"], int), f"{name}: attempted/failed are counts")
    wanted = declared["per_layer"] if trace else declared["end_to_end"]
    expect(set(result["metrics"]) == set(wanted),
           f"{name}: metrics match BENCHMARK.json {'per_layer' if trace else 'end_to_end'}")
    for metric, spec in wanted.items():
        got = result["metrics"].get(metric, {})
        value = got.get("value")
        ok = (set(got) == {"value", "unit"} and got.get("unit") == spec["unit"]
              and isinstance(value, (int, float)) and math.isfinite(value))
        if not trace:
            ok = ok and value > 0
        expect(ok, f"{name}: {metric} = {value} {got.get('unit')}")


def main() -> int:
    declared_raw = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {key: {m["name"]: m for m in declared_raw[key]}
                for key in ("end_to_end", "per_layer")}
    expect([w["name"] for w in declared_raw["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json lists the harness's workloads")

    import polyflip as pf

    for pair, (a, b), (c, d) in zip(run.WORKLOADS["pairs"]["fixed"],
                                    ((0, 6), (0, 7)), ((9, 2), (11, 4))):
        poly = pf.Polygon.standard(pair["n"])
        same = ([list(e) for e in pf.zigzag(poly, a, b).key_pairs()] == pair["t"]
                and [list(e) for e in pf.zigzag(poly, c, d).key_pairs()] == pair["u"])
        expect(same, f"fixed pair at n={pair['n']} is zigzag({a},{b}) vs zigzag({c},{d})")
    for n in range(4, 10):
        expect(len(oracle.FlipGraph(n)) == pf.catalan(n - 2),
               f"oracle enumerates Catalan({n - 2}) triangulations")

    import types

    from layertrace import PER_LAYER, Tracer

    bare_modules = [types.ModuleType(f"polyflip.{layer}")
                    for layer in ("core", "flips", "metrics", "constructions", "verify", "cli")]
    tracer = Tracer()
    tracer.install(bare_modules)
    report = tracer.report()
    expect(report["absent"] == [name for name, _unit in PER_LAYER]
           and all(v == 0 for v in report["values"].values()),
           "a package without the traced functions gives absent metrics, not a crash")

    job = run.pair_job(SMOKE["pairs"], seed=5)
    expect([q["d"] for q in job] == [q["d"] for q in run.pair_job(SMOKE["pairs"], seed=6)]
           and job != run.pair_job(SMOKE["pairs"], seed=6)
           and all(q["d"] <= 6 for q in job[2:]),
           "another seed moves the pairs by symmetries and keeps their distances")
    q = job[3]
    good = {"distance": q["d"], "moves": [[list(r), list(i)] for r, i in oracle_path(q)]}
    expect(run.check_pair(q, good) is None, "a correct geodesic passes the pair checks")
    bad = dict(good, distance=q["d"] + 1)
    expect(run.check_pair(q, bad) is not None, "a wrong distance is caught")
    last_removed = good["moves"][-1][0]
    corrupt = dict(good, moves=good["moves"][:-1] + [[last_removed, last_removed]])
    expect(run.check_pair(q, corrupt) is not None, "a move that is not a flip is caught")

    for name, spec in SMOKE.items():
        for trace in (False, True):
            out = run.run_workload(spec, name, seed=7, seconds=1.0, trace=trace)
            label = f"{name} trace={int(trace)}"
            check_schema(label, out["result"], trace, declared)
            expect(out["result"]["correct"] and out["result"]["failed"] == 0,
                   f"{label}: every answer correct ({out['result']['attempted']} operations)")
            if trace:
                expect(not out["details"]["absent"],
                       f"{label}: every traced function found")

    for what, wrong in (("a wrong expected answer", dict(SMOKE["sweep"], diameter_radius=[9, 7])),
                        ("an exception", dict(SMOKE["sweep"], diameter_n=2))):
        out = run.run_workload(wrong, "sweep", seed=7, seconds=0.5, trace=False)
        result = out["result"]
        expect(not result["correct"] and result["failed"] >= 1
               and out["details"]["error_rate"] > 0,
               f"{what} counts as failed (error_rate {out['details']['error_rate']:.2f})")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"without the polyflip source the harness exits {proc.returncode} and prints no result")

    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


def oracle_path(query: dict):
    """A shortest flip path from t to u found with the oracle graph alone."""
    n = query["n"]
    graph = oracle.FlipGraph(n)
    target = graph.index[oracle.encode(n, query["u"])]
    dist = graph.distances(target)
    key = oracle.encode(n, query["t"])
    moves = []
    while key != graph.keys[target]:
        nb = oracle.neighbor_masks(n, key)
        for p, q in oracle.decode(n, key):
            new, inserted = oracle.flip(n, key, p, q, nb)
            if dist[graph.index[new]] == dist[graph.index[key]] - 1:
                moves.append(((p, q), inserted))
                key = new
                break
    return moves


if __name__ == "__main__":
    sys.exit(main())
