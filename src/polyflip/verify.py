"""Exhaustive replay of the eccentricity statements against exact searches.

Each `verify_*` routine enumerates exactly the objects quantified by the
corresponding statement and returns a report; empty hypothesis ranges are
reported as vacuous rather than silently passing.
"""
from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass

import numpy as np

from .core import Triangulation, TriangulationError
from .flips import (
    build_slice,
    catalan,
    flip_incident_to,
    max_degrees,
    node_budget,
    orbit_representatives,
)
from .metrics import (
    bfs_distances,
    distance_matrix,
    eccentricities,
    farthest,
    flip_distance,
)
from .constructions import (
    comb,
    eccentric_family,
    far_witness_long,
    far_witness_short,
    omega_member,
    omega_witness,
)


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    n: int
    instances: int
    failures: tuple
    elapsed: float
    notes: tuple = ()

    @property
    def status(self) -> str:
        if self.failures:
            return "fail"
        return "pass" if self.instances > 0 else "vacuous"

    def to_json_obj(self, include_timing: bool = True) -> dict:
        obj = {
            "claim": self.claim,
            "n": self.n,
            "instances": self.instances,
            "failures": [dict(f) for f in self.failures],
            "status": self.status,
            "notes": list(self.notes),
        }
        if include_timing:
            obj["seconds"] = round(self.elapsed, 3)
        return obj

    def summary_line(self) -> str:
        extra = f", {len(self.failures)} failures" if self.failures else ""
        return (
            f"{self.claim} n={self.n}: {self.status}"
            f" ({self.instances} instances{extra})"
        )


def _sorted_failures(items, fn) -> tuple:
    """Apply fn across items and return the failures it lists, sorted so the
    report does not depend on item order."""
    failures = [f for x in items for f in fn(x)]
    failures.sort(key=lambda f: json.dumps(f, sort_keys=True))
    return tuple(failures)


def _finish(claim, n, instances, failures, started, notes=()) -> VerificationReport:
    return VerificationReport(
        claim, n, instances, tuple(failures), time.perf_counter() - started, tuple(notes)
    )


def _gap_values(slc) -> np.ndarray:
    return (slc.n - 3) - max_degrees(slc)


def _gap_formula_failures(slc, gaps, eligible) -> tuple:
    """Failures for the nodes among `eligible` whose eccentricity is not
    n-3+k."""
    eccs = eccentricities(slc, eligible)

    def check(j) -> list:
        i = int(eligible[j])
        expected = slc.n - 3 + int(gaps[i])
        if eccs[j] != expected:
            return [
                {
                    "t": slc.triangulation(i).text(),
                    "k": int(gaps[i]),
                    "eccentricity": int(eccs[j]),
                    "expected": expected,
                }
            ]
        return []

    return _sorted_failures(range(len(eligible)), check)


def verify_close(n: int, max_nodes=None) -> VerificationReport:
    """Eccentricity equals n-3+k for every triangulation whose comb gap k
    stays at most n/2-2."""
    started = time.perf_counter()
    slc = build_slice(n, max_nodes)
    gaps = _gap_values(slc)
    eligible = np.nonzero(2 * gaps <= n - 4)[0]
    failures = _gap_formula_failures(slc, gaps, eligible)
    return _finish("close", n, len(eligible), failures, started)


def verify_omega(n: int, max_nodes=None) -> VerificationReport:
    """The witness-set story at every (T, v): the constructed witness is a
    member at distance >= n-3+k, every member found by scanning is that far
    too, and no member exists once k exceeds n/2-2."""
    started = time.perf_counter()
    slc = build_slice(n, max_nodes)
    count = len(slc)
    all_ts = [slc.triangulation(j) for j in range(count)]
    ears_of = [t.ears() for t in all_ts]

    def check(i) -> list:
        t = all_ts[i]
        fails = []
        dist = bfs_distances(slc, i)
        for v in range(n):
            k_v = n - 3 - t.interior_degree(v)
            bound = n - 3 + k_v
            base = {"t": t.text(), "v": v, "k": k_v}
            if 2 * k_v <= n - 4:
                try:
                    witness = omega_witness(t, v)
                except TriangulationError as exc:
                    fails.append(dict(base, problem=f"witness construction: {exc}"))
                    continue
                if omega_member(t, v, witness) is None:
                    fails.append(
                        dict(base, u=witness.text(), problem="witness not a member")
                    )
                elif int(dist[slc.index_of(witness)]) < bound:
                    fails.append(
                        dict(
                            base,
                            u=witness.text(),
                            distance=int(dist[slc.index_of(witness)]),
                            bound=bound,
                            problem="witness too close",
                        )
                    )
                for j in range(count):
                    if v not in ears_of[j]:
                        continue
                    if omega_member(t, v, all_ts[j]) is None:
                        continue
                    if int(dist[j]) < bound:
                        fails.append(
                            dict(
                                base,
                                u=all_ts[j].text(),
                                distance=int(dist[j]),
                                bound=bound,
                                problem="member too close",
                            )
                        )
            else:
                for j in range(count):
                    if v not in ears_of[j]:
                        continue
                    if omega_member(t, v, all_ts[j]) is not None:
                        fails.append(
                            dict(
                                base,
                                u=all_ts[j].text(),
                                problem="member found in a provably empty set",
                            )
                        )
        return fails

    failures = _sorted_failures(range(count), check)
    return _finish("omega", n, count * n, failures, started)


def verify_far(n: int, max_nodes=None) -> VerificationReport:
    """Both far-witness bounds and the global eccentricity lower bound
    4*ecc >= 4n+k-21, for every triangulation."""
    started = time.perf_counter()
    slc = build_slice(n, max_nodes)
    gaps = _gap_values(slc)

    def check(i) -> list:
        t = slc.triangulation(i)
        fails = []
        dist = bfs_distances(slc, i)
        for kind, make in (("long", far_witness_long), ("short", far_witness_short)):
            try:
                u, bound = make(t)
            except TriangulationError as exc:
                fails.append({"t": t.text(), "witness": kind, "problem": str(exc)})
                continue
            shared = sorted(t.diagonals & u.diagonals)
            d = int(dist[slc.index_of(u)])
            if shared:
                fails.append(
                    {
                        "t": t.text(),
                        "witness": kind,
                        "u": u.text(),
                        "shared": [list(e) for e in shared],
                        "problem": "witness shares interior edges",
                    }
                )
            if d < bound:
                fails.append(
                    {
                        "t": t.text(),
                        "witness": kind,
                        "u": u.text(),
                        "distance": d,
                        "bound": bound,
                        "problem": "witness too close",
                    }
                )
        ecc = int(dist.max())
        if 4 * ecc < 4 * n + int(gaps[i]) - 21:
            fails.append(
                {
                    "t": t.text(),
                    "eccentricity": ecc,
                    "k": int(gaps[i]),
                    "problem": "eccentricity below 4n+k-21 over 4",
                }
            )
        return fails

    failures = _sorted_failures(range(len(slc)), check)
    return _finish("far", n, len(slc), failures, started)


def verify_characterization(n: int, max_nodes=None) -> VerificationReport:
    """Eccentricity n-3+k iff a vertex of interior degree n-3-k, for k up to
    n/8-5/2: vacuous below n=20, and checked at the k=0 comb sub-case beyond
    full-search scale via the upper/lower bound sandwich."""
    started = time.perf_counter()
    if n < 20:
        return _finish(
            "characterization", n, 0, (), started,
            ("the range 0 <= k <= n/8-5/2 is empty below n=20",),
        )
    k_top = (n - 20) // 8
    failures = []
    notes = []
    instances = 0
    if catalan(n - 2) <= node_budget(max_nodes):
        slc = build_slice(n, max_nodes)
        gaps = _gap_values(slc)
        eligible = np.nonzero(gaps <= k_top)[0]
        failures = list(_gap_formula_failures(slc, gaps, eligible))
        instances = len(eligible)
    else:
        # k = 0: the comb.  Its largest interior degree is n-3, so no
        # triangulation is farther than 2n-6-(n-3) = n-3; a witness sharing
        # no interior edge needs at least n-3 flips, closing the sandwich.
        t = comb(n, 0)
        upper = 2 * n - 6 - t.max_interior_degree()
        u = omega_witness(t, 0)
        shared = t.diagonals & u.diagonals
        instances = 1
        if shared or upper != n - 3:
            failures.append(
                {
                    "t": t.text(),
                    "k": 0,
                    "upper": upper,
                    "shared": [list(e) for e in sorted(shared)],
                    "problem": "bound sandwich did not close at n-3",
                }
            )
        notes.append("k=0 comb sub-case settled without search: eccentricity n-3")
        if k_top >= 1:
            notes.append(
                f"k=1..{k_top} needs a full sweep over {catalan(n - 2)}"
                " triangulations; out of desk scale"
            )
    return _finish("characterization", n, instances, failures, started, notes)


def verify_remark_family(n: int, max_nodes=None) -> VerificationReport:
    """The staircase family: comb gap exactly k and eccentricity at most
    n-4+k throughout n/2-2 < k <= n-5; for n > 12, two max-degree-4
    triangulations at distance 2n-10 next to one of eccentricity <= 2n-11."""
    started = time.perf_counter()
    slc = build_slice(n, max_nodes)
    k_low = (n - 2) // 2  # smallest k with 2k > n-4
    ks = list(range(k_low, n - 4))
    notes = []

    def check(k) -> list:
        fails = []
        fam = eccentric_family(n, k)
        if fam.comb_gap() != k:
            fails.append(
                {"k": k, "t": fam.text(), "gap": fam.comb_gap(), "problem": "wrong comb gap"}
            )
        ecc = int(farthest(slc, [slc.index_of(fam)])[0])
        if ecc > n - 4 + k:
            fails.append(
                {
                    "k": k,
                    "t": fam.text(),
                    "eccentricity": ecc,
                    "bound": n - 4 + k,
                    "problem": "family eccentricity above n-4+k",
                }
            )
        return fails

    failures = list(_sorted_failures(ks, check))
    instances = len(ks)
    if n > 12:
        degs = max_degrees(slc)
        four = degs == 4
        reps = orbit_representatives(slc)
        reps = reps[four[reps]]
        widest = int(farthest(slc, reps, four).max())
        calmest = int(farthest(slc, reps).min())
        instances += 1
        if widest != 2 * n - 10:
            failures.append(
                {
                    "n": n,
                    "max_distance": widest,
                    "expected": 2 * n - 10,
                    "problem": "max-degree-4 pairs never reach 2n-10",
                }
            )
        if calmest > 2 * n - 11:
            failures.append(
                {
                    "n": n,
                    "min_eccentricity": calmest,
                    "bound": 2 * n - 11,
                    "problem": "no max-degree-4 triangulation of eccentricity <= 2n-11",
                }
            )
        notes.append(
            f"max-degree-4 distance sweep over {len(reps)} orbit representatives"
        )
    else:
        notes.append("distance-2n-10 part needs n > 12; skipped")
    failures.sort(key=lambda f: json.dumps(f, sort_keys=True))
    return _finish("remark_family", n, instances, failures, started, notes)


def verify_deletion_lemmas(n: int, max_nodes=None) -> VerificationReport:
    """Vertex-deletion distance inequalities over every pair: monotonicity,
    the incident-flip counting bound along one geodesic per pair, and the
    ear-with-two-edges step of +2."""
    started = time.perf_counter()
    slc = build_slice(n, max_nodes)
    count = len(slc)
    mat = distance_matrix(n)
    if n > 4:
        slc_small = build_slice(n - 1, max_nodes)
        mat_small = distance_matrix(n - 1)
        del_idx = np.empty((count, n), dtype=np.int32)
        for i in range(count):
            t = slc.triangulation(i)
            for a in range(n):
                del_idx[i, a] = slc_small.index_of(t.delete(a))

    def deleted_distance(i, j, a) -> int:
        if n == 4:
            return 0  # deleting any vertex of a square leaves the triangle
        return int(mat_small[del_idx[i, a], del_idx[j, a]])

    all_ts = [slc.triangulation(i) for i in range(count)]

    def check(i) -> list:
        t = all_ts[i]
        t_ears = t.ears()
        fails = []
        for j in range(i, count):
            u = all_ts[j]
            d = int(mat[i, j])
            smaller = [deleted_distance(i, j, a) for a in range(n)]
            for a in range(n):
                if d < smaller[a]:
                    fails.append(
                        {
                            "t": t.text(),
                            "u": u.text(),
                            "a": a,
                            "distance": d,
                            "deleted": smaller[a],
                            "problem": "deletion increased the distance",
                        }
                    )
            geodesic = flip_distance(t, u).geodesic
            incident = [0] * n
            cur = t
            for move in geodesic:
                for a in range(n):
                    if flip_incident_to(cur, move.removed, (a, (a + 1) % n)):
                        incident[a] += 1
                cur = Triangulation(
                    cur.polygon, (cur.diagonals - {move.removed}) | {move.inserted}
                )
            for a in range(n):
                if d < smaller[a] + incident[a]:
                    fails.append(
                        {
                            "t": t.text(),
                            "u": u.text(),
                            "a": a,
                            "distance": d,
                            "deleted": smaller[a],
                            "incident_flips": incident[a],
                            "problem": "geodesic flip count breaks the bound",
                        }
                    )
            for a in range(n):
                b = (a + 1) % n
                if b in t_ears and u.interior_degree(b) >= 2:
                    if d < smaller[a] + 2 and d < deleted_distance(i, j, b) + 2:
                        fails.append(
                            {
                                "t": t.text(),
                                "u": u.text(),
                                "edge": [a, b],
                                "distance": d,
                                "problem": "no deletion gains two flips at the ear",
                            }
                        )
        return fails

    failures = _sorted_failures(range(count), check)
    return _finish("deletion", n, count * (count + 1) // 2, failures, started)


CLAIMS = {
    "close": verify_close,
    "omega": verify_omega,
    "far": verify_far,
    "characterization": verify_characterization,
    "remark_family": verify_remark_family,
    "deletion": verify_deletion_lemmas,
}


def run_claim(claim: str, n: int, workers: int = 1, max_nodes=None) -> VerificationReport:
    """Run one claim; `workers` is accepted for compatibility and ignored."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; choose from {sorted(CLAIMS)}")
    return CLAIMS[claim](n, max_nodes=max_nodes)


def run_all(ns, workers: int = 1, max_nodes=None) -> list:
    """Every claim at every n; `workers` is accepted and ignored."""
    return [
        run_claim(claim, n, max_nodes=max_nodes)
        for claim in CLAIMS
        for n in ns
    ]


def reports_to_json(reports, include_timing: bool = True) -> str:
    return json.dumps(
        [r.to_json_obj(include_timing) for r in reports], indent=2, sort_keys=True
    )


def reports_to_csv(reports, include_timing: bool = True) -> str:
    buf = io.StringIO()
    fields = ["claim", "n", "instances", "failures", "status"]
    if include_timing:
        fields.append("seconds")
    writer = csv.writer(buf)
    writer.writerow(fields)
    for r in reports:
        row = [r.claim, r.n, r.instances, len(r.failures), r.status]
        if include_timing:
            row.append(round(r.elapsed, 3))
        writer.writerow(row)
    return buf.getvalue()
