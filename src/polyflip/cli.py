"""Command-line interface: enumeration, distances, witnesses, verification,
and graph exports.

Each `cmd_*` handler reads the parsed arguments directly, after
`_check_args` has rejected misuse and set `args.ns`, and hands its result to
`_emit`, the one place that chooses between indented JSON (`--format json`)
and text lines; `_write` sends the bytes to stdout or to `-o FILE`.

Exit codes: 0 success (including vacuous verifications), 1 verification
failure, 2 usage error (including a negative or malformed node budget), 3
resource budget exceeded, 4 internal error (any other exception, reported as
one `internal error: <type>: <message>` line on stderr, with no traceback).
`verify --workers` is accepted for compatibility and ignored; every run is
single-threaded and its output never depended on it.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from datetime import datetime, timezone

from .core import (
    BudgetExceededError,
    Polygon,
    Triangulation,
    TriangulationError,
    parse_diagonals,
    validate_triangulation,
)
from .flips import build_slice, catalan, max_degrees, node_budget
from .metrics import eccentricities, eccentricity, flip_distance
from .constructions import (
    central_triangle,
    eccentric_family,
    far_witness_long,
    far_witness_short,
    omega_member,
    omega_witness,
)
from .verify import CLAIMS, reports_to_csv, run_claim

USAGE_ERROR = 2
BUDGET_ERROR = 3
INTERNAL_ERROR = 4
FAR_WITNESSES = {"far-long": far_witness_long, "far-short": far_witness_short}


def _parse_n_range(text: str) -> list:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ValueError(f"empty range {text!r}")
        values = list(range(lo, hi + 1))
    else:
        values = [int(text)]
    if any(v < 3 for v in values):
        raise ValueError("n must be at least 3")
    return values


def _triangulation_arg(n: int, literal: str) -> Triangulation:
    return validate_triangulation(
        Polygon.standard(n), parse_diagonals(literal) if literal else []
    )


def _write(args, text: str):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, obj, lines, sort_keys=False):
    """Write `obj` as indented JSON under `--format json`, else the text
    `lines`, one per line."""
    if args.format == "json":
        _write(args, json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n")
    else:
        _write(args, "\n".join(lines) + "\n")


def cmd_enumerate(args) -> int:
    n = args.ns[0]
    slc = build_slice(n, args.max_nodes)
    texts = [slc.triangulation(i).text() for i in range(len(slc))]
    obj = {"n": n, "count": len(slc), "triangulations": texts}
    _emit(args, obj, texts + [f"count={len(slc)}"])
    return 0


def cmd_distance(args) -> int:
    n = args.ns[0]
    t = _triangulation_arg(n, args.t)
    u = _triangulation_arg(n, args.u)
    result = flip_distance(t, u, args.max_nodes)
    lines = [f"distance={result.distance}"] + [
        f"remove {m.removed[0]}-{m.removed[1]} insert {m.inserted[0]}-{m.inserted[1]}"
        for m in result.geodesic
    ]
    _emit(args, result.to_json_obj(), lines)
    return 0


def cmd_eccentricity(args) -> int:
    n = args.ns[0]
    result = eccentricity(_triangulation_arg(n, args.t), args.max_nodes)
    lines = [
        f"eccentricity={result.eccentricity}",
        f"witness={result.witness.text()}",
        "layers=" + ",".join(str(c) for c in result.layer_sizes),
    ]
    _emit(args, result.to_json_obj(), lines)
    return 0


def cmd_profile(args) -> int:
    """Eccentricity histogram per comb-gap stratum."""
    n = args.ns[0]
    slc = build_slice(n, args.max_nodes)
    gaps = (n - 3) - max_degrees(slc)
    strata = Counter(zip(gaps.tolist(), eccentricities(slc).tolist()))
    rows = [
        {"k": int(k), "eccentricity": int(e), "count": c}
        for (k, e), c in sorted(strata.items())
    ]
    lines = [f"k={r['k']} ecc={r['eccentricity']} count={r['count']}" for r in rows]
    _emit(args, {"n": n, "strata": rows}, lines + [f"count={len(slc)}"])
    return 0


def cmd_witness(args) -> int:
    n = args.ns[0]
    payload = {"n": n, "kind": args.kind}
    if args.kind == "family":
        witness = eccentric_family(n, args.k)
        payload.update(
            k=args.k,
            witness=witness.text(),
            max_interior_degree=witness.max_interior_degree(),
            bound=n - 4 + args.k,
        )
    else:
        t = _triangulation_arg(n, args.t)
        payload["t"] = t.text()
        if args.kind == "central":
            payload["central"] = central_triangle(t).to_json_obj()
        else:
            if args.kind == "omega":
                witness = omega_witness(t, args.v)
                cert = omega_member(t, args.v, witness)
                k_v = n - 3 - t.interior_degree(args.v)
                payload.update(
                    v=args.v,
                    bound=n - 3 + k_v,
                    certificate=cert.to_json_obj() if cert else None,
                )
            else:
                witness, payload["bound"] = FAR_WITNESSES[args.kind](t)
            payload["witness"] = witness.text()
            if catalan(n - 2) <= node_budget(args.max_nodes):
                payload["distance"] = flip_distance(t, witness, args.max_nodes).distance
    lines = [
        f"{key}={json.dumps(value) if isinstance(value, (dict, list)) else value}"
        for key, value in sorted(payload.items())
    ]
    _emit(args, payload, lines, sort_keys=True)
    return 0


def cmd_verify(args) -> int:
    reports = [
        run_claim(claim, n, max_nodes=args.max_nodes)
        for claim in args.claims
        for n in args.ns
    ]
    timing = not args.no_timestamp
    if args.format == "csv":
        _write(args, reports_to_csv(reports, timing))
    else:
        obj = {"reports": [r.to_json_obj(timing) for r in reports]}
        lines = [r.summary_line() for r in reports]
        if timing:
            obj["generated"] = datetime.now(timezone.utc).isoformat()
            lines.insert(0, f"generated {obj['generated']}")
        _emit(args, obj, lines, sort_keys=True)
    return 1 if any(r.status == "fail" for r in reports) else 0


def cmd_export(args) -> int:
    n = args.ns[0]
    slc = build_slice(n, args.max_nodes)
    nodes = [slc.triangulation(i).text() for i in range(len(slc))]
    edges = sorted(
        (i, int(j)) for i in range(len(slc)) for j in slc.adjacency[i] if i < j
    )
    obj = {"n": n, "nodes": nodes, "edges": [list(e) for e in edges]}
    lines = (
        [f"graph flipgraph{n} {{"]
        + [f'  t{i} [label="{text}"];' for i, text in enumerate(nodes)]
        + [f"  t{i} -- t{j};" for i, j in edges]
        + ["}"]
    )
    _emit(args, obj, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyflip",
        description="Exact computations in flip-graphs of convex polygons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, formats=("text", "json"), kinds=()):
        p = sub.add_parser(name, help=help)
        if kinds:
            p.add_argument("kind", choices=kinds)
        p.add_argument("--n", required=True, help="polygon size, or a range like 6..9")
        p.add_argument("--format", default=formats[0], choices=formats)
        p.add_argument("--max-nodes", type=int, default=None,
                       help="node budget for exhaustive searches")
        p.add_argument("-o", "--output", default=None)
        p.set_defaults(handler=handler)
        return p

    command("enumerate", cmd_enumerate, "list every triangulation of the n-gon")

    p = command("distance", cmd_distance, "exact flip distance and a geodesic")
    p.add_argument("--t", required=True, help='diagonal list, e.g. "0-2,0-3"')
    p.add_argument("--u", required=True)

    p = command("eccentricity", cmd_eccentricity, "max distance from one triangulation")
    p.add_argument("--t", required=True)

    command("profile", cmd_profile, "eccentricity histogram per comb-gap stratum")

    p = command("witness", cmd_witness, "construct lower-bound witnesses",
                kinds=["omega", "far-long", "far-short", "family", "central"])
    p.add_argument("--t", default=None)
    p.add_argument("--v", type=int, default=None, help="apex vertex for omega")
    p.add_argument("--k", type=int, default=None, help="comb gap for family")

    p = command("verify", cmd_verify, "replay the eccentricity statements",
                formats=("text", "json", "csv"))
    p.add_argument("--claim", choices=sorted(CLAIMS), default=None)
    p.add_argument("--all", action="store_true", dest="all_claims")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility and ignored")
    p.add_argument("--no-timestamp", action="store_true",
                   help="suppress timestamps and timings for reproducible output")

    command("export", cmd_export, "emit the flip-graph as DOT or JSON",
            formats=("dot", "json"))

    return parser


def _check_args(args):
    """Reject misuse with a ValueError (exit 2) and set `args.ns`, plus
    `args.claims` for verify."""
    args.ns = _parse_n_range(args.n)
    if args.command == "witness":
        if args.kind == "family":
            if args.k is None:
                raise ValueError("witness family needs --k")
        elif args.t is None:
            raise ValueError(f"witness {args.kind} needs --t")
        elif args.kind == "omega" and args.v is None:
            raise ValueError("witness omega needs --v")
    elif args.command == "verify":
        if args.all_claims:
            args.claims = list(CLAIMS)
        elif args.claim:
            args.claims = [args.claim]
        else:
            raise ValueError("verify needs --claim or --all")
    if args.command != "verify" and len(args.ns) != 1:
        raise ValueError(f"{args.command} takes a single n, not a range")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.handler(args)
    except TriangulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_ERROR if isinstance(exc, BudgetExceededError) else USAGE_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR

if __name__ == "__main__":
    sys.exit(main())
