"""Command-line interface: enumeration, distances, witnesses, verification,
and graph exports.

Exit codes: 0 success (including vacuous verifications), 1 verification
failure, 2 usage error (including a malformed POLYFLIP_NODE_BUDGET), 3
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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional

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
from .verify import CLAIMS, reports_to_csv, reports_to_json, run_claim

USAGE_ERROR = 2
BUDGET_ERROR = 3
INTERNAL_ERROR = 4


@dataclass
class RunConfig:
    ns: list
    fmt: str = "text"
    max_nodes: Optional[int] = None
    output: Optional[str] = None
    timestamp: bool = True
    extra: dict = field(default_factory=dict)


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


def _emit(config: RunConfig, text: str):
    if config.output:
        with open(config.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_enumerate(config: RunConfig) -> int:
    n = config.ns[0]
    slc = build_slice(n, config.max_nodes)
    if config.fmt == "json":
        obj = {
            "n": n,
            "count": len(slc),
            "triangulations": [slc.triangulation(i).text() for i in range(len(slc))],
        }
        _emit(config, json.dumps(obj, indent=2) + "\n")
    else:
        lines = [slc.triangulation(i).text() for i in range(len(slc))]
        lines.append(f"count={len(slc)}")
        _emit(config, "\n".join(lines) + "\n")
    return 0


def cmd_distance(config: RunConfig) -> int:
    n = config.ns[0]
    t = _triangulation_arg(n, config.extra["t"])
    u = _triangulation_arg(n, config.extra["u"])
    result = flip_distance(t, u, config.max_nodes)
    if config.fmt == "json":
        _emit(config, json.dumps(result.to_json_obj(), indent=2) + "\n")
    else:
        lines = [f"distance={result.distance}"]
        for move in result.geodesic:
            lines.append(
                f"remove {move.removed[0]}-{move.removed[1]}"
                f" insert {move.inserted[0]}-{move.inserted[1]}"
            )
        _emit(config, "\n".join(lines) + "\n")
    return 0


def cmd_eccentricity(config: RunConfig) -> int:
    n = config.ns[0]
    t = _triangulation_arg(n, config.extra["t"])
    result = eccentricity(t, config.max_nodes)
    if config.fmt == "json":
        _emit(config, json.dumps(result.to_json_obj(), indent=2) + "\n")
    else:
        lines = [
            f"eccentricity={result.eccentricity}",
            f"witness={result.witness.text()}",
            "layers=" + ",".join(str(c) for c in result.layer_sizes),
        ]
        _emit(config, "\n".join(lines) + "\n")
    return 0


def cmd_profile(config: RunConfig) -> int:
    """Eccentricity histogram per comb-gap stratum."""
    n = config.ns[0]
    slc = build_slice(n, config.max_nodes)
    gaps = (n - 3) - max_degrees(slc)
    strata = Counter(zip(gaps.tolist(), eccentricities(slc).tolist()))
    rows = [
        {"k": int(k), "eccentricity": int(e), "count": c}
        for (k, e), c in sorted(strata.items())
    ]
    if config.fmt == "json":
        _emit(config, json.dumps({"n": n, "strata": rows}, indent=2) + "\n")
    else:
        lines = [f"k={r['k']} ecc={r['eccentricity']} count={r['count']}" for r in rows]
        lines.append(f"count={len(slc)}")
        _emit(config, "\n".join(lines) + "\n")
    return 0


def cmd_witness(config: RunConfig) -> int:
    n = config.ns[0]
    kind = config.extra["kind"]
    payload = {"n": n, "kind": kind}
    if kind == "family":
        witness = eccentric_family(n, config.extra["k"])
        payload["k"] = config.extra["k"]
        payload["witness"] = witness.text()
        payload["max_interior_degree"] = witness.max_interior_degree()
        payload["bound"] = n - 4 + config.extra["k"]
    else:
        t = _triangulation_arg(n, config.extra["t"])
        payload["t"] = t.text()
        if kind == "central":
            ct = central_triangle(t)
            payload["central"] = ct.to_json_obj()
            _emit_witness(config, payload)
            return 0
        if kind == "omega":
            v = config.extra["v"]
            witness = omega_witness(t, v)
            cert = omega_member(t, v, witness)
            k_v = n - 3 - t.interior_degree(v)
            payload["v"] = v
            payload["witness"] = witness.text()
            payload["bound"] = n - 3 + k_v
            payload["certificate"] = cert.to_json_obj() if cert else None
        elif kind == "far-long":
            witness, bound = far_witness_long(t)
            payload["witness"] = witness.text()
            payload["bound"] = bound
        elif kind == "far-short":
            witness, bound = far_witness_short(t)
            payload["witness"] = witness.text()
            payload["bound"] = bound
        if catalan(n - 2) <= node_budget(config.max_nodes):
            other = Triangulation.from_text(payload["witness"])
            if "t" in payload:
                payload["distance"] = flip_distance(t, other).distance
    _emit_witness(config, payload)
    return 0


def _emit_witness(config: RunConfig, payload: dict):
    if config.fmt == "json":
        _emit(config, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        lines = [f"{key}={json.dumps(payload[key]) if isinstance(payload[key], (dict, list)) else payload[key]}"
                 for key in sorted(payload)]
        _emit(config, "\n".join(lines) + "\n")


def cmd_verify(config: RunConfig) -> int:
    claims = config.extra["claims"]
    reports = [
        run_claim(claim, n, max_nodes=config.max_nodes)
        for claim in claims
        for n in config.ns
    ]
    include_timing = config.timestamp
    if config.fmt == "csv":
        text = reports_to_csv(reports, include_timing)
    elif config.fmt == "json":
        body = json.loads(reports_to_json(reports, include_timing))
        obj = {"reports": body}
        if config.timestamp:
            obj["generated"] = datetime.now(timezone.utc).isoformat()
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    else:
        lines = [r.summary_line() for r in reports]
        if config.timestamp:
            lines.insert(0, f"generated {datetime.now(timezone.utc).isoformat()}")
        text = "\n".join(lines) + "\n"
    _emit(config, text)
    return 1 if any(r.status == "fail" for r in reports) else 0


def cmd_export(config: RunConfig) -> int:
    n = config.ns[0]
    slc = build_slice(n, config.max_nodes)
    count = len(slc)
    edges = sorted(
        (i, int(j))
        for i in range(count)
        for j in slc.adjacency[i]
        if i < j
    )
    if config.fmt == "json":
        obj = {
            "n": n,
            "nodes": [slc.triangulation(i).text() for i in range(count)],
            "edges": [list(e) for e in edges],
        }
        _emit(config, json.dumps(obj, indent=2) + "\n")
    else:
        lines = [f"graph flipgraph{n} {{"]
        for i in range(count):
            lines.append(f'  t{i} [label="{slc.triangulation(i).text()}"];')
        for i, j in edges:
            lines.append(f"  t{i} -- t{j};")
        lines.append("}")
        _emit(config, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyflip",
        description="Exact computations in flip-graphs of convex polygons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument("--n", required=True, help="polygon size, or a range like 6..9")
        p.add_argument("--format", default=formats[0], choices=formats)
        p.add_argument("--max-nodes", type=int, default=None,
                       help="node budget for exhaustive searches")
        p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("enumerate", help="list every triangulation of the n-gon")
    common(p)
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("distance", help="exact flip distance and a geodesic")
    common(p)
    p.add_argument("--t", required=True, help='diagonal list, e.g. "0-2,0-3"')
    p.add_argument("--u", required=True)
    p.set_defaults(handler=cmd_distance)

    p = sub.add_parser("eccentricity", help="max distance from one triangulation")
    common(p)
    p.add_argument("--t", required=True)
    p.set_defaults(handler=cmd_eccentricity)

    p = sub.add_parser("profile", help="eccentricity histogram per comb-gap stratum")
    common(p)
    p.set_defaults(handler=cmd_profile)

    p = sub.add_parser("witness", help="construct lower-bound witnesses")
    p.add_argument("kind", choices=["omega", "far-long", "far-short", "family", "central"])
    common(p)
    p.add_argument("--t", default=None)
    p.add_argument("--v", type=int, default=None, help="apex vertex for omega")
    p.add_argument("--k", type=int, default=None, help="comb gap for family")
    p.set_defaults(handler=cmd_witness)

    p = sub.add_parser("verify", help="replay the eccentricity statements")
    common(p, formats=("text", "json", "csv"))
    p.add_argument("--claim", choices=sorted(CLAIMS), default=None)
    p.add_argument("--all", action="store_true", dest="all_claims")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility and ignored")
    p.add_argument("--no-timestamp", action="store_true",
                   help="suppress timestamps and timings for reproducible output")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("export", help="emit the flip-graph as DOT or JSON")
    common(p, formats=("dot", "json"))
    p.set_defaults(handler=cmd_export)

    return parser


def _config_from_args(args) -> RunConfig:
    ns = _parse_n_range(args.n)
    config = RunConfig(
        ns=ns,
        fmt=args.format,
        max_nodes=args.max_nodes,
        output=args.output,
    )
    if args.command == "distance":
        config.extra = {"t": args.t, "u": args.u}
    elif args.command == "eccentricity":
        config.extra = {"t": args.t}
    elif args.command == "witness":
        if args.kind == "family":
            if args.k is None:
                raise ValueError("witness family needs --k")
            config.extra = {"kind": args.kind, "k": args.k}
        else:
            if args.t is None:
                raise ValueError(f"witness {args.kind} needs --t")
            config.extra = {"kind": args.kind, "t": args.t}
            if args.kind == "omega":
                if args.v is None:
                    raise ValueError("witness omega needs --v")
                config.extra["v"] = args.v
    elif args.command == "verify":
        if args.all_claims:
            claims = list(CLAIMS)
        elif args.claim:
            claims = [args.claim]
        else:
            raise ValueError("verify needs --claim or --all")
        config.extra = {"claims": claims}
        config.timestamp = not args.no_timestamp
    if args.command != "verify" and len(ns) != 1:
        raise ValueError(f"{args.command} takes a single n, not a range")
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.handler(config)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    except TriangulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
