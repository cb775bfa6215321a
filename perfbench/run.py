#!/usr/bin/env python3
"""Benchmark of polyflip: one workload per run, in fresh Python processes.

    python3 perfbench/run.py --workload {sweep,pairs,certify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; polyflip is imported from its src/.
Workloads (see perfbench/README.md for the layers each loads and bypasses):

  sweep    pf.diameter_radius(12), then `polyflip verify --claim close --n 11`
           on the slices built at set-up;
  pairs    pf.flip_distance on two fixed zigzag pairs and a fixed sample of
           uniformly random n=13 pairs, each moved by a seeded symmetry;
  certify  `polyflip verify --all --n 6..8`, in-process, each job starting
           from empty caches.

The harness is the single caller of a closed loop: it sends one job to the
worker process, waits for the reply, checks it, and only then sends the next,
until the timed seconds are as near --seconds as whole jobs get.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it runs one job untraced and one traced,
in two processes, and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Details (samples, percentiles, absent metrics, machine) go to
perfbench/out/.  Exit code 2: no polyflip source in this checkout; 1: a
worker process died or ran past the deadline.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden"
DEADLINE_S = 170.0
# The tail is the nearest-rank p92.  Every pairs job holds the same queries,
# so a fixed percentile falls on the same queries of the job whatever the
# number of jobs a run holds; p92 falls in the middle of the three queries
# that take about a second, away from the gap in cost below them.
TAIL_PERCENTILE = 92

sys.path.insert(0, str(HERE))

import numpy  # noqa: E402  (polyflip's own dependency; the pair oracle uses it)
import oracle  # noqa: E402
from layertrace import PER_LAYER  # noqa: E402

# Zigzag pairs that share no diagonal: zigzag(P,0,6) vs zigzag(P,9,2) at
# n=13 and zigzag(P,0,7) vs zigzag(P,11,4) at n=14, with their distances.
ZIGZAG_13 = {
    "n": 13, "d": 15,
    "t": [[1, 11], [1, 12], [2, 10], [2, 11], [3, 9], [3, 10], [4, 8], [4, 9], [5, 7], [5, 8]],
    "u": [[0, 4], [0, 5], [1, 3], [1, 4], [5, 12], [6, 11], [6, 12], [7, 10], [7, 11], [8, 10]],
}
ZIGZAG_14 = {
    "n": 14, "d": 17,
    "t": [[1, 12], [1, 13], [2, 11], [2, 12], [3, 10], [3, 11], [4, 9], [4, 10], [5, 8],
          [5, 9], [6, 8]],
    "u": [[0, 7], [0, 8], [1, 6], [1, 7], [2, 5], [2, 6], [3, 5], [8, 13], [9, 12],
          [9, 13], [10, 12]],
}

WORKLOADS = {
    "sweep": {
        "kind": "sweep",
        "slices": [12, 11],
        "diameter_n": 12, "diameter_radius": [15, 9],
        "close_n": 11, "close": "close n=11: pass (1694 instances)\n",
        "items": 16796 + 1694,  # triangulations whose eccentricity one job settles
    },
    "pairs": {
        "kind": "pairs",
        "slices": [],
        "fixed": [ZIGZAG_13, ZIGZAG_14],
        # One job: the fixed pairs plus `random_pairs` uniformly random pairs
        # at n, drawn once with `sample_seed`, so every run times the same job.
        # Pairs at distance above `max_d` (0.33% at n=13) are redrawn: one of
        # them costs over a second, and the zigzag pairs cover that end.
        "n": 13, "random_pairs": 24, "sample_seed": 0, "max_d": 14,
    },
    "certify": {
        "kind": "certify",
        "slices": [],
        "commands": [
            (["verify", "--all", "--n", "6..8"], "verify_all_6-8.json"),
        ],
    },
}
SETUP_SLOT_S = 0.6  # set-up is sampled in each gap between jobs until this long has gone

END_TO_END = (
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
UNITS = dict(END_TO_END) | dict(PER_LAYER) | {"trace.overhead_ratio": "ratio"}


class WorkerError(RuntimeError):
    """The worker process died, misbehaved or ran past the deadline."""


# -- inputs ------------------------------------------------------------------

def transform(n: int, diagonals, r: int, mirror: bool) -> list:
    """The diagonals under v -> (r - v) mod n when mirrored, else v -> (v + r) mod n."""
    move = (lambda v: (r - v) % n) if mirror else (lambda v: (v + r) % n)
    return sorted(sorted((move(p), move(q))) for p, q in diagonals)


def pair_job(spec: dict, seed: int) -> list:
    """The pair queries of one job, each {n, d, t, u}.

    The random pairs are one fixed uniform sample: t and u uniform over the
    oracle's flip graph, d their oracle distance.  The seed maps every pair
    through its own symmetry of the polygon; a symmetry is a flip-graph
    automorphism, so the distances and the search effort do not change.
    """
    sample = random.Random(spec["sample_seed"])
    n = spec["n"]
    graph = oracle.FlipGraph(n)
    pairs = list(spec["fixed"])
    while len(pairs) < len(spec["fixed"]) + spec["random_pairs"]:
        t, u = sample.randrange(len(graph)), sample.randrange(len(graph))
        d = int(graph.distances(t)[u])
        if d <= spec["max_d"]:
            pairs.append({"n": n, "d": d, "t": oracle.decode(n, graph.keys[t]),
                          "u": oracle.decode(n, graph.keys[u])})
    rng = random.Random(seed)
    job = []
    for pair in pairs:
        r, mirror = rng.randrange(pair["n"]), rng.random() < 0.5
        job.append({"n": pair["n"], "d": pair["d"],
                    "t": transform(pair["n"], pair["t"], r, mirror),
                    "u": transform(pair["n"], pair["u"], r, mirror)})
    return job


def requests(spec: dict, pairs, tmp: str):
    """The endless sequence of (request, pair queries or None, items).  One
    request is one job; for pairs it holds one call per query."""
    kind = spec["kind"]
    if kind == "certify":
        items = sum(r["instances"] for _argv, golden in spec["commands"]
                    for r in json.loads(golden_text(golden))["reports"])
    i = 0
    while True:
        if kind == "sweep":
            out = os.path.join(tmp, f"close-{i}.txt")
            calls = [
                {"op": "diameter_radius", "n": spec["diameter_n"]},
                {"op": "cli", "output": out,
                 "argv": ["verify", "--claim", "close", "--n", str(spec["close_n"]),
                          "--no-timestamp", "-o", out]},
            ]
            yield {"calls": calls}, None, spec["items"]
        elif kind == "certify":
            calls = []
            for j, (argv, _golden) in enumerate(spec["commands"]):
                out = os.path.join(tmp, f"certify-{i}-{j}.json")
                calls.append({"op": "cli", "output": out, "argv": argv + [
                    "--format", "json", "--no-timestamp", "-o", out]})
            yield {"calls": calls, "fresh": True}, None, items
        else:
            calls = [{"op": "flip_distance", "n": q["n"], "t": q["t"], "u": q["u"]}
                     for q in pairs]
            yield {"calls": calls}, pairs, len(pairs)
        i += 1


# -- checks ------------------------------------------------------------------

def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def check_pair(query: dict, output: dict) -> str | None:
    """Distance against the oracle, bounds, and a move-by-move replay."""
    n, d = query["n"], output["distance"]
    if d != query["d"]:
        return f"distance {d}, oracle says {query['d']}"
    if len(output["moves"]) != d:
        return f"geodesic has {len(output['moves'])} moves for distance {d}"
    t, u = {tuple(e) for e in query["t"]}, {tuple(e) for e in query["u"]}
    degree = max(sum(v in e for e in side) for side in (t, u) for v in range(n))
    if not len(t - u) <= d <= 2 * n - 6 - degree:
        return f"distance {d} outside [|T-U|={len(t - u)}, 2n-6-e={2 * n - 6 - degree}]"
    return oracle.replay(n, query["t"], query["u"], [(m[0], m[1]) for m in output["moves"]])


def check(spec: dict, calls: list, records: list, queries) -> list:
    """One entry per call: None when the answer is right, else the reason."""
    verdicts = []
    kind = spec["kind"]
    for j, (call, record) in enumerate(zip(calls, records)):
        if record["error"]:
            verdicts.append("exception: " + record["error"].strip().splitlines()[-1])
            continue
        out = record["output"]
        if kind == "sweep" and call["op"] == "diameter_radius":
            ok = out == spec["diameter_radius"]
            verdicts.append(None if ok else f"diameter_radius gave {out}")
        elif kind == "sweep":
            ok = out["exit"] == 0 and out["text"] == spec["close"]
            verdicts.append(None if ok else f"close: exit {out['exit']}, {out['text']!r}")
        elif kind == "certify":
            golden = golden_text(spec["commands"][j][1])
            if out["exit"] != 0:
                verdicts.append(f"{call['argv'][:4]} exited {out['exit']}")
            else:
                verdicts.append(None if out["text"] == golden
                                else f"{call['argv'][:4]} output differs from its golden")
        else:
            verdicts.append(check_pair(queries[j], out))
    return verdicts


# -- worker processes ----------------------------------------------------------

def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


class Worker:
    """A fresh Python process running perfbench/worker.py, killed at the
    deadline if it has not finished by then."""

    def __init__(self, spec: dict, deadline: float, trace=False, spans=None):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerError("no time left before the deadline")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=str(ROOT), env=worker_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.timer = threading.Timer(remaining, self.proc.kill)
        self.timer.start()
        try:
            first = self.ask({"src": str(SRC), "slices": spec["slices"],
                              "trace": trace, "spans": spans})
        except BaseException:
            self.close()
            raise
        self.setup_s = first["setup_s"]

    def ask(self, message: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(message) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise WorkerError(self._death()) from None
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(self._death())
        return json.loads(line)

    def _death(self) -> str:
        code = self.proc.wait()
        if not self.timer.is_alive() and code < 0:
            return "worker killed at the deadline"
        return f"worker exited with code {code}"

    def finish(self) -> dict:
        return self.ask({"finish": True})

    def close(self):
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def measure(spec, pairs, seconds, deadline, jobs=None, trace=False, spans=None,
            between=None) -> dict:
    """Send whole jobs until `jobs` were made or the timed seconds are as
    near `seconds` as whole jobs get: another job starts only while the
    timed seconds plus half the last job's stay below `seconds`.  `between`
    runs before the first job, between jobs and after the last.  Returns the
    per-job and per-call seconds, the checks and the worker figures."""
    OUT.mkdir(exist_ok=True)
    job_s, call_s, items, verdicts, failures = [], [], [], [], []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp, \
            Worker(spec, deadline, trace, spans) as worker:
        for request, queries, n_items in requests(spec, pairs, tmp):
            if between:
                between()
            if job_s and (len(job_s) == jobs if jobs else
                          sum(job_s) + job_s[-1] / 2 >= seconds):
                break
            records = worker.ask(request)["records"]
            found = check(spec, request["calls"], records, queries)
            verdicts.extend(found)
            failures.extend(v for v in found if v)
            call_s.extend(r["seconds"] for r in records)
            job_s.append(sum(r["seconds"] for r in records))
            items.append(n_items)
        final = worker.finish()
    return {"setup_s": worker.setup_s, "job_s": job_s, "call_s": call_s, "items": items,
            "attempted": len(verdicts), "failed": sum(1 for v in verdicts if v),
            "failures": failures[:20], "peak_rss_kb": final["peak_rss_kb"],
            "trace": final.get("trace")}


def setup_samples(spec, deadline) -> list:
    """Set-up times of fresh processes, started one after another until
    SETUP_SLOT_S seconds have gone, at least one."""
    started, samples = time.monotonic(), []
    while not samples or time.monotonic() - started < SETUP_SLOT_S:
        with Worker(spec, deadline) as worker:
            worker.finish()
        samples.append(worker.setup_s)
    return samples


# -- metrics -------------------------------------------------------------------

def tail(latencies) -> float:
    """The nearest-rank TAIL_PERCENTILE of the latencies."""
    xs = sorted(latencies)
    return xs[math.ceil(TAIL_PERCENTILE * len(xs) / 100) - 1]


def machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "platform": platform.platform()}
    info["numpy"] = numpy.__version__
    try:
        pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        info["ram_gb"] = round(pages / 2**30, 1)
    except (ValueError, OSError):
        info["ram_gb"] = None
    return info


def end_to_end(spec, pairs, seconds, deadline) -> tuple[dict, dict, dict]:
    """Set-up is sampled in every gap between the measured jobs, so its
    median spans the run rather than one moment of the host's load.  Latency
    is per query for pairs and per job otherwise."""
    setups = []
    run = measure(spec, pairs, seconds, deadline,
                  between=lambda: setups.extend(setup_samples(spec, deadline)))
    setups.append(run["setup_s"])
    lat = run["call_s"] if spec["kind"] == "pairs" else run["job_s"]
    values = {
        "items_per_s": sum(run["items"]) / sum(run["job_s"]),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_tail_ms": tail(lat) * 1000,
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(setups),
    }
    details = {
        "jobs": len(run["job_s"]), "timed_s": sum(run["job_s"]), "job_s": run["job_s"],
        "latencies_s": lat,
        "tail_percentile": TAIL_PERCENTILE, "setup_samples_s": setups,
    }
    return values, details, run


def per_layer(spec, pairs, deadline, workload, seed) -> tuple[dict, dict, dict]:
    """One job untraced, then the same job traced, in separate processes."""
    plain = measure(spec, pairs, 0, deadline, jobs=1)
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    traced = measure(spec, pairs, 0, deadline, jobs=1, trace=True, spans=str(spans))
    report = traced["trace"]
    rate = lambda run: sum(run["items"]) / sum(run["job_s"])
    values = dict(report["values"])
    values["trace.overhead_ratio"] = rate(traced) / rate(plain)
    stats = report["stats"]
    setup_s = stats.get("bench.setup", [0, 0.0])[1]
    traced_s = setup_s + stats["bench.call"][1]
    shares = {name: round(stat[2] / traced_s, 3) for name, stat in stats.items()
              if stat[2] >= 0.01 * traced_s}
    details = {"absent": report["absent"], "undefined": report["undefined"],
               "absent_layer_figures": ["wait_s", "retries"],
               "traced_s": traced_s, "traced_setup_s": setup_s, "traced_job_s": sum(traced["job_s"]),
               "untraced_job_s": sum(plain["job_s"]),
               "self_time_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
               "stats": stats, "spans": report["spans"],
               "dropped_spans": report["dropped_spans"], "spans_file": spans.name}
    run = {"attempted": plain["attempted"] + traced["attempted"],
           "failed": plain["failed"] + traced["failed"],
           "failures": (plain["failures"] + traced["failures"])[:20]}
    return values, details, run


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object (the last output line)
    with the details that go to the report file under 'details'."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    pairs = pair_job(spec, seed) if spec["kind"] == "pairs" else None
    if trace:
        values, details, run = per_layer(spec, pairs, deadline, workload, seed)
    else:
        values, details, run = end_to_end(spec, pairs, seconds, deadline)
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()},
    }
    details.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                   wall_s=time.monotonic() - started, machine=machine(),
                   error_rate=run["failed"] / run["attempted"] if run["attempted"] else None,
                   failures=run["failures"])
    return {"result": result, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polyflip" / "__init__.py").is_file():
        print(f"error: no polyflip source under {SRC}", file=sys.stderr)
        return 2
    try:
        out = run_workload(WORKLOADS[args.workload], args.workload, args.seed,
                           args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result, details = out["result"], out["details"]
    OUT.mkdir(exist_ok=True)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={details.get('jobs', '1 untraced + 1 traced')} "
          f"error_rate={result['failed']}/{result['attempted']} report={report.relative_to(ROOT)}")
    for failure in details["failures"]:
        print(f"  failed: {failure}")
    if "tail_percentile" in details:
        print(f"  latency_tail_ms is p{details['tail_percentile']} of "
              f"{len(details['latencies_s'])} latencies; setup_s is the median of "
              f"{len(details['setup_samples_s'])} fresh processes")
    if "self_time_shares" in details:
        shares = ", ".join(f"{k} {v:.0%}" for k, v in details["self_time_shares"].items())
        print(f"  self-time shares of {details['traced_s']:.2f} traced s (set-up "
              f"{details['traced_setup_s']:.2f} s, job {details['traced_job_s']:.2f} s): {shares}")
        print(f"  absent (function gone): {', '.join(details['absent']) or 'none'}; "
              f"undefined (no calls): {', '.join(details['undefined']) or 'none'}; "
              f"not measured (one thread, no queues or retries): wait_s, retries")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
