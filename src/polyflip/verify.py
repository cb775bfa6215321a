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

from .core import TriangulationError
from .flips import (
    build_slice,
    catalan,
    code_weights,
    flip_columns,
    interior_degrees,
    max_degrees,
    node_budget,
    orbit_representatives,
)
from .metrics import (
    distance_matrix,
    distance_rows,
    eccentricities,
    farthest,
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


def _finish(claim, n, instances, failures, started, notes=()) -> VerificationReport:
    """The report, with failures sorted so it does not depend on the order
    in which they were found."""
    failures = sorted(failures, key=lambda f: json.dumps(f, sort_keys=True))
    return VerificationReport(
        claim, n, instances, tuple(failures), time.perf_counter() - started, tuple(notes)
    )


def _gap_values(slc) -> np.ndarray:
    return (slc.n - 3) - max_degrees(slc)


def _gap_formula_failures(slc, gaps, eligible) -> list:
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

    return [f for j in range(len(eligible)) for f in check(j)]


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
    if n < 4:
        return _finish("omega", n, 0, (), started, ("witness sets need n >= 4",))
    slc = build_slice(n, max_nodes)
    count = len(slc)
    all_ts = [slc.triangulation(j) for j in range(count)]
    # the candidates U for vertex v: every node with an ear at v
    ear_at = [np.flatnonzero(column == 0).tolist() for column in interior_degrees(slc).T]

    def check(i, dist) -> list:
        t = all_ts[i]
        fails = []
        for v in range(n):
            k_v = n - 3 - t.interior_degree(v)
            bound = n - 3 + k_v
            close = 2 * k_v <= n - 4
            base = {"t": t.text(), "v": v, "k": k_v}
            far = []  # (node, what) that must lie at distance >= bound
            if close:
                try:
                    witness = omega_witness(t, v)
                except TriangulationError as exc:
                    fails.append(dict(base, problem=f"witness construction: {exc}"))
                    continue
                if omega_member(t, v, witness) is None:
                    fails.append(dict(base, u=witness.text(), problem="witness not a member"))
                else:
                    far.append((slc.index_of(witness), "witness"))
            members = [j for j in ear_at[v] if omega_member(t, v, all_ts[j]) is not None]
            if close:
                far += [(j, "member") for j in members]
            else:
                fails += [
                    dict(base, u=all_ts[j].text(), problem="member found in a provably empty set")
                    for j in members
                ]
            fails += [
                dict(base, u=all_ts[j].text(), distance=int(dist[j]), bound=bound,
                     problem=f"{what} too close")
                for j, what in far
                if dist[j] < bound
            ]
        return fails

    failures = [f for i, dist in distance_rows(slc, range(count)) for f in check(i, dist)]
    return _finish("omega", n, count * n, failures, started)


def verify_far(n: int, max_nodes=None) -> VerificationReport:
    """Both far-witness bounds and the global eccentricity lower bound
    4*ecc >= 4n+k-21, for every triangulation."""
    started = time.perf_counter()
    if n < 6:
        return _finish("far", n, 0, (), started, ("far witnesses need n >= 6",))
    slc = build_slice(n, max_nodes)
    gaps = _gap_values(slc)

    def check(i, dist) -> list:
        t = slc.triangulation(i)
        fails = []
        for kind, make in (("long", far_witness_long), ("short", far_witness_short)):
            try:
                u, bound = make(t)
            except TriangulationError as exc:
                fails.append({"t": t.text(), "witness": kind, "problem": str(exc)})
                continue
            base = {"t": t.text(), "witness": kind, "u": u.text()}
            shared = sorted(t.diagonals & u.diagonals)
            d = int(dist[slc.index_of(u)])
            if shared:
                fails.append(
                    dict(base, shared=[list(e) for e in shared],
                         problem="witness shares interior edges")
                )
            if d < bound:
                fails.append(dict(base, distance=d, bound=bound, problem="witness too close"))
        ecc = int(dist.max())
        if 4 * ecc < 4 * n + int(gaps[i]) - 21:
            fails.append({"t": t.text(), "eccentricity": ecc, "k": int(gaps[i]),
                          "problem": "eccentricity below 4n+k-21 over 4"})
        return fails

    failures = [f for i, dist in distance_rows(slc, range(len(slc))) for f in check(i, dist)]
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
        failures = _gap_formula_failures(slc, gaps, eligible)
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

    failures = [f for k in ks for f in check(k)]
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
    return _finish("remark_family", n, instances, failures, started, notes)


def _deletion_index(slc, small) -> np.ndarray:
    """[i, a]: the node of `small`, the (n-1)-gon slice, that deleting
    vertex a from node i gives.  Vertex a merges into a+1 and the labels
    above a move down by one; pairs that become boundary edges or repeat
    drop out.  The rest is looked up by its degree code and must equal the
    found node's diagonals; a miss means the contraction is no
    triangulation, and raises."""
    n, m = slc.n, small.n
    gone = m * m  # sorts after every diagonal p*m+q
    weights = code_weights(m)
    pair_weights = np.append(np.add.outer(weights, weights).ravel(), np.uint64(0))
    wanted = small.key_array[..., 0].astype(np.intp) * m + small.key_array[..., 1]
    keys = slc.key_array.astype(np.intp)
    out = np.empty((len(slc), n), dtype=np.intp)
    for a in range(n):
        label = np.arange(n) - (np.arange(n) > a)
        label[a] = label[(a + 1) % n]
        x, y = label[keys[..., 0]], label[keys[..., 1]]
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        pairs = np.where((hi - lo > 1) & (hi - lo < m - 1), lo * m + hi, gone)
        pairs.sort(axis=1)
        pairs[:, 1:][pairs[:, 1:] == pairs[:, :-1]] = gone
        pairs.sort(axis=1)
        kept, rest = pairs[:, : m - 3], pairs[:, m - 3 :]
        found = small.lookup(pair_weights[kept].sum(axis=1))
        ok = (found >= 0) & (rest == gone).all(axis=1)
        ok &= (wanted[found] == kept).all(axis=1)
        if not ok.all():
            i = int(np.argmin(ok))
            raise TriangulationError(
                f"deleting vertex {a} from {slc.triangulation(i).text()}"
                f" gives no triangulation of the {m}-gon"
            )
        out[:, a] = found
    return out


def _incidence_masks(slc) -> np.ndarray:
    """[i, c]: the n-bit mask of the boundary edges {a, a+1} (bit a) whose
    triangle the flip in adjacency column c of node i changes.  Those are
    the sides of the flip's quadrilateral, the boundary edges with both
    ends among its four vertices."""
    n = slc.n
    quads = np.empty(slc.adjacency.shape, dtype=np.int64)
    one = np.int64(1)
    for j, (p, q, a, b) in enumerate(flip_columns(n, slc.key_array)):
        quads[:, j] = (one << p) | (one << q) | (one << a) | (one << b)
    return quads & ((quads >> 1) | ((quads & 1) << (n - 1)))


def _geodesic_steps(slc, mat, sources, targets):
    """Walk from each sources[k] to targets[k] along one geodesic: at every
    step flip the first adjacency column whose node is one step closer to
    the target by the distance matrix `mat`.  Yields, per step, the indices
    k still walking, their current nodes and the column each one flips."""
    targets = np.asarray(targets, dtype=np.intp)
    cur = np.array(sources, dtype=np.intp)
    left = mat[cur, targets].astype(np.intp)
    live = np.flatnonzero(left)
    while live.size:
        nodes = cur[live]
        nbrs = slc.adjacency[nodes]
        closer = mat[nbrs, targets[live, None]] == (left[live] - 1)[:, None]
        cols = closer.argmax(axis=1)
        yield live, nodes, cols
        cur[live] = nbrs[np.arange(live.size), cols]
        left[live] -= 1
        live = live[left[live] > 0]


_PAIR_CHUNK = 1 << 11  # pairs checked at once; bounds the per-pair arrays


def verify_deletion_lemmas(n: int, max_nodes=None) -> VerificationReport:
    """Vertex-deletion distance inequalities over every pair: monotonicity,
    the incident-flip counting bound along one geodesic per pair, and the
    ear-with-two-edges step of +2 with the ear in either triangulation.

    The geodesic comes from the distance rows: from the current node, flip
    the first adjacency column whose node is one step closer to the target.
    The source paper's deletion lemma bounds every geodesic, so any one
    keeps the check exact.  A flip is incident to boundary edge {a, a+1}
    iff that edge is a side of the flip's quadrilateral.
    """
    started = time.perf_counter()
    if n < 4:
        return _finish("deletion", n, 0, (), started, ("vertex deletion needs n >= 4",))
    slc = build_slice(n, max_nodes)
    count = len(slc)
    mat = distance_matrix(n, max_nodes)
    mat_small = distance_matrix(n - 1, max_nodes)
    del_idx = _deletion_index(slc, build_slice(n - 1, max_nodes))
    masks = _incidence_masks(slc)
    degrees = interior_degrees(slc)
    # column a of these looks at vertex a+1, the far end of boundary edge a
    ear_next = np.roll(degrees == 0, -1, axis=1)
    busy_next = np.roll(degrees >= 2, -1, axis=1)
    shifts = np.arange(n)
    failures = []
    all_rows, all_cols = np.triu_indices(count)
    for start in range(0, len(all_rows), _PAIR_CHUNK):
        rows = all_rows[start : start + _PAIR_CHUNK]
        cols = all_cols[start : start + _PAIR_CHUNK]
        d = mat[rows, cols].astype(np.int32)[:, None]
        smaller = mat_small[del_idx[rows], del_idx[cols]].astype(np.int32)
        incident = np.zeros_like(smaller)
        for live, nodes, moves in _geodesic_steps(slc, mat, rows, cols):
            incident[live] += (masks[nodes, moves][:, None] >> shifts) & 1
        no_gain = (d < smaller + 2) & (d < np.roll(smaller, -1, axis=1) + 2)

        def failure(t, u, k, **fields) -> dict:
            return {
                "t": slc.triangulation(int(t[k])).text(),
                "u": slc.triangulation(int(u[k])).text(),
                "distance": int(d[k, 0]),
                **fields,
            }

        failures += [
            failure(rows, cols, k, a=int(a), deleted=int(smaller[k, a]),
                    problem="deletion increased the distance")
            for k, a in zip(*np.nonzero(d < smaller))
        ]
        failures += [
            failure(rows, cols, k, a=int(a), deleted=int(smaller[k, a]),
                    incident_flips=int(incident[k, a]),
                    problem="geodesic flip count breaks the bound")
            for k, a in zip(*np.nonzero(d < smaller + incident))
        ]
        # the ear step holds in T and U alike: `t` is the side with the ear
        failures += [
            failure(ear, busy, k, edge=[int(a), (int(a) + 1) % n],
                    problem="no deletion gains two flips at the ear")
            for ear, busy in ((rows, cols), (cols, rows))
            for k, a in zip(*np.nonzero(ear_next[ear] & busy_next[busy] & no_gain))
        ]
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
