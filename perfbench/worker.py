"""One benchmark process: imports polyflip from the checkout, sets up, then
executes the requests the harness sends, one at a time.

Protocol, one JSON object per line.  The first line on stdin is the spec:
{"src": dir, "slices": [n, ...], "trace": bool, "spans": path|null}.  The
worker imports polyflip, builds the listed slices and answers
{"setup_s": s}.  Each later line is a request: {"calls": [...], "fresh": b}
answered with one record per call; {"finish": true} is answered with peak
memory and, when tracing, the per-layer tables.  Each call is timed on its
own; building inputs, clearing caches and formatting replies stay outside
the timed region.  The process runs one thread and issues the next call only
after the previous one returned.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def _clearers(modules) -> list:
    """cache_clear of every functools cache in the package, so a request
    marked fresh pays what a new CLI process pays."""
    seen, out = set(), []
    for module in modules:
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and id(value) not in seen:
                seen.add(id(value))
                out.append(clear)
    return out


def _literal(n: int, diagonals) -> str:
    return f"n={n};" + ",".join(f"{p}-{q}" for p, q in diagonals)


def _execute(pf, cli, call: dict, measure):
    """Run one call; returns (seconds, output).  `measure` times only the
    library call itself."""
    op = call["op"]
    if op == "diameter_radius":
        seconds, result = measure(lambda: pf.diameter_radius(call["n"]))
        return seconds, list(result)
    if op == "cli":
        seconds, code = measure(lambda: cli.main(call["argv"]))
        with open(call["output"], encoding="utf-8") as handle:
            text = handle.read()
        os.remove(call["output"])
        return seconds, {"exit": code, "text": text}
    if op == "flip_distance":
        n = call["n"]
        t = pf.Triangulation.from_text(_literal(n, call["t"]))
        u = pf.Triangulation.from_text(_literal(n, call["u"]))
        seconds, result = measure(lambda: pf.flip_distance(t, u))
        obj = result.to_json_obj()  # the form `polyflip distance --format json` prints
        moves = [[m["removed"], m["inserted"]] for m in obj["geodesic"]]
        return seconds, {"distance": obj["distance"], "moves": moves}
    raise ValueError(f"unknown call {op!r}")


def _plain(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def main() -> int:
    channel = sys.stdout
    sys.stdout = sys.stderr  # anything the package prints stays off the channel

    def send(obj):
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    spec = json.loads(sys.stdin.readline())
    started = time.perf_counter()
    import polyflip as pf

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(pf.__file__).startswith(src + os.sep):
        print(f"polyflip was imported from {pf.__file__}, not from {src}", file=sys.stderr)
        return 2
    import polyflip.cli as cli

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "polyflip" or name.startswith("polyflip.")]
    clearers = _clearers(modules)
    tracer, root = None, lambda name: contextlib.nullcontext()
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install(modules)
        root = tracer.root

    def measure(fn):
        with root("call"):
            return _plain(fn)

    for n in spec["slices"]:
        with root("setup"):
            pf.build_slice(n)
    send({"setup_s": time.perf_counter() - started})

    while True:
        request = json.loads(sys.stdin.readline())
        if request.get("finish"):
            break
        if request.get("fresh"):
            for clear in clearers:
                clear()
        records = []
        for call in request["calls"]:
            call_started = time.perf_counter()
            try:
                seconds, output = _execute(pf, cli, call, measure)
                records.append({"seconds": seconds, "output": output, "error": None})
            except Exception:  # reported to the harness as a failed operation
                records.append({"seconds": time.perf_counter() - call_started, "output": None,
                                "error": traceback.format_exc()})
        send({"records": records})

    final = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        tracer.uninstall()
        final["trace"] = tracer.report()
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
    send(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
