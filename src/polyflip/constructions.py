"""Constructive witnesses: combs, shellings, split points, ear-at-apex
witness sets, central triangles, zigzag-based far witnesses, and the
low-degree family with small eccentricity.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .core import (
    CrossingError,
    EmptyWitnessSetError,
    NoShellingError,
    Polygon,
    PreconditionError,
    Triangulation,
    TriangulationError,
    crossing,
    edge,
    validate_triangulation,
)


def comb(n: int, v: int) -> Triangulation:
    """The triangulation of the standard n-gon whose diagonals all meet v."""
    poly = Polygon.standard(n)
    return fan(poly, v)


def fan(polygon: Polygon, apex: int) -> Triangulation:
    i = polygon.position(apex)
    ring = polygon.vertices[i:] + polygon.vertices[:i]
    diags = {edge(apex, ring[j]) for j in range(2, polygon.n - 1)}
    return validate_triangulation(polygon, diags)


def zigzag(polygon: Polygon, a: int, b: int) -> Triangulation:
    """The path-shaped triangulation with ears at a and b.

    The interior edges zigzag between the two arcs; the alternation is
    anchored so that, among the vertices on the left of (a,b), only the
    clockwise predecessor of b ends up with interior degree one.
    """
    left = polygon.left_of(a, b)
    right = polygon.right_of(a, b)
    if abs(len(left) - len(right)) > 1:
        raise PreconditionError(
            f"zigzag needs balanced arcs, got {len(left)} and {len(right)}"
        )
    left_desc = list(reversed(left))   # pred(b) first
    right_asc = list(right)            # succ(b) first
    if len(right_asc) > len(left_desc):
        seq = _interleave(right_asc, left_desc)
    else:
        seq = _interleave(left_desc, right_asc)
    diags = {edge(p, q) for p, q in zip(seq, seq[1:])}
    return validate_triangulation(polygon, diags)


def _interleave(first: Sequence, second: Sequence) -> list:
    out = []
    for i in range(max(len(first), len(second))):
        if i < len(first):
            out.append(first[i])
        if i < len(second):
            out.append(second[i])
    return out


# -- shellings ---------------------------------------------------------------

@dataclass(frozen=True)
class Shelling:
    """An ordering of the vertices not joined to v by an edge of T such that
    chopping off any suffix leaves a triangulation of a smaller polygon."""

    v: int
    order: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return {"v": self.v, "order": list(self.order)}


def non_neighbors(t: Triangulation, v: int) -> list[int]:
    all_edges = t.edges()
    return [w for w in t.polygon.vertices if w != v and edge(v, w) not in all_edges]


@lru_cache(maxsize=200_000)
def _restricted_diagonals(t: Triangulation, removed: frozenset) -> frozenset:
    """Diagonals of t surviving on the polygon with `removed` dropped."""
    keep = [v for v in t.polygon.vertices if v not in removed]
    keep_set = set(keep)
    m = len(keep)
    consecutive = {edge(keep[i], keep[(i + 1) % m]) for i in range(m)}
    return frozenset(
        e
        for e in t.diagonals
        if e[0] in keep_set and e[1] in keep_set and e not in consecutive
    )


def _restricted_ear(t: Triangulation, removed: frozenset, c: int) -> bool:
    return all(c not in e for e in _restricted_diagonals(t, removed))


def _shell(t: Triangulation, target: frozenset, support=None) -> Optional[list]:
    """Backtrack over reverse ear removals restricted to `target`, memoized
    on the removed-vertex set.

    Returns the removals in order as (c, evidence) pairs, or None.  With
    `support`, removing c also needs two vertices of `support[c]` outside
    the removed set, and those two are its evidence; without, it is None.
    """
    dead: set[frozenset] = set()

    def search(removed: frozenset) -> Optional[list]:
        if removed == target:
            return []
        if removed in dead:
            return None
        for c in sorted(target - removed):
            if not _restricted_ear(t, removed, c):
                continue
            pair = None
            if support is not None:
                outside = [w for w in support[c] if w not in removed]
                if len(outside) < 2:
                    continue
                pair = (outside[0], outside[1])
            rest = search(removed | {c})
            if rest is not None:
                return [(c, pair)] + rest
        dead.add(removed)
        return None

    return search(frozenset())


def find_shelling(t: Triangulation, v: int) -> Shelling:
    """Search for a shelling of t at v by backtracking over reverse ear
    removals restricted to the non-neighbors of v."""
    seq = _shell(t, frozenset(non_neighbors(t, v)))
    if seq is None:
        raise NoShellingError(f"no shelling of the triangulation at vertex {v}")
    return Shelling(v, tuple(c for c, _ in reversed(seq)))


def validate_shelling(t: Triangulation, shelling: Shelling) -> bool:
    """Replay the definition: every suffix removal must leave a valid
    triangulation of the remaining convex polygon."""
    if sorted(shelling.order) != sorted(non_neighbors(t, shelling.v)):
        return False
    for i in range(len(shelling.order), -1, -1):
        removed = frozenset(shelling.order[i:])
        keep = tuple(v for v in t.polygon.vertices if v not in removed)
        if len(keep) < 3:
            return False
        try:
            validate_triangulation(Polygon(keep), _restricted_diagonals(t, removed))
        except TriangulationError:
            return False
    return True


# -- the ear-at-v witness set ------------------------------------------------

@dataclass(frozen=True)
class OmegaCertificate:
    """Acceptance evidence: a shelling of T at v plus, for each vertex of the
    shelling, two interior edges of U leaving the shelling suffix."""

    shelling: Shelling
    evidence: dict

    def to_json_obj(self) -> dict:
        return {
            "shelling": self.shelling.to_json_obj(),
            "evidence": {
                str(a): [list(e) for e in pair] for a, pair in sorted(self.evidence.items())
            },
        }


def omega_member(
    t: Triangulation, v: int, u: Triangulation
) -> Optional[OmegaCertificate]:
    """Decide membership of u in the witness set of (t, v).

    Accepts iff u has an ear in v and, for some shelling a_1..a_k of t at v,
    every a_i touches two interior edges of u whose other endpoint is outside
    {a_i, ..., a_k}.  The existential over shellings is resolved by
    exhaustive backtracking with memoization on the removed-vertex set.
    """
    if t.polygon != u.polygon:
        raise TriangulationError("triangulations live on different polygons")
    if v not in u.ears():
        return None
    target = frozenset(non_neighbors(t, v))
    u_nbrs = {
        c: sorted((b if a == c else a) for a, b in u.diagonals if c in (a, b))
        for c in target
    }
    if any(len(ws) < 2 for ws in u_nbrs.values()):
        return None

    seq = _shell(t, target, u_nbrs)
    if seq is None:
        return None
    order = tuple(c for c, _ in reversed(seq))
    evidence = {c: (edge(c, w1), edge(c, w2)) for c, (w1, w2) in seq}
    return OmegaCertificate(Shelling(v, order), evidence)


def split_point(values: Sequence, chosen: Iterable) -> object:
    """The largest x in `values` preceded by exactly 2i+1 elements of
    `values` and exactly i elements of `chosen`; x never lies in `chosen`."""
    values = list(values)
    chosen_set = set(chosen) & set(values)
    if 2 * len(chosen_set) > len(values) - 3:
        raise PreconditionError(
            f"subset of size {len(chosen_set)} too large for {len(values)} values"
        )
    result = None
    before_chosen = 0
    for i, x in enumerate(values):
        if i == 2 * before_chosen + 1:
            result = x
        if x in chosen_set:
            before_chosen += 1
    assert result is not None and result not in chosen_set
    return result


def omega_witness(t: Triangulation, v: int) -> Triangulation:
    """Construct a member of the witness set of (t, v).

    Follows the recursive split construction: cut the polygon without v along
    two chords from the lowest-ranked shelling vertex, chosen via
    `split_point` so each piece keeps few enough shelling vertices, and
    triangulate pieces without shelling vertices as combs; finally glue the
    ear at v back on.
    """
    n = t.n
    k = n - 3 - t.interior_degree(v)
    if 2 * k > n - 4:
        raise EmptyWitnessSetError(
            f"the witness set at vertex {v} is empty for k={k} > n/2-2"
        )
    shelling = find_shelling(t, v)
    rank = {a: i for i, a in enumerate(shelling.order)}
    poly = t.polygon
    collected: set = set()

    def build(sub: tuple, marked: frozenset):
        if len(sub) < 3:
            return
        if not marked:
            apex = min(sub)
            i = sub.index(apex)
            ring = sub[i:] + sub[:i]
            for j in range(2, len(sub) - 1):
                collected.add(edge(apex, ring[j]))
            return
        aj = min(marked, key=lambda a: rank[a])
        i = sub.index(aj)
        around = sub[i + 1:] + sub[:i]   # clockwise from aj's successor
        rest = marked - {aj}
        x = split_point(around, rest)
        xi = around.index(x)
        head, tail = around[:xi], around[xi:]
        y = split_point(tail, rest)
        yi = tail.index(y)
        mid, last = tail[:yi], tail[yi:]
        if head:
            collected.add(edge(aj, x))
        if len(last) > 1:
            collected.add(edge(aj, y))
        build((aj,) + head + (x,), frozenset(w for w in head if w in rest))
        build((aj,) + mid + (y,), frozenset(w for w in mid if w in rest))
        build((aj,) + last, frozenset(w for w in last if w in rest))

    verts = tuple(w for w in poly.vertices if w != v)
    build(verts, frozenset(shelling.order))
    collected.add(edge(poly.pred(v), poly.succ(v)))
    return validate_triangulation(poly, collected)


# -- central triangles and far witnesses -------------------------------------

@dataclass(frozen=True)
class CentralTriangle:
    """A clockwise triangle of T whose three boundary arcs each span at most
    half the polygon."""

    triple: tuple[int, int, int]
    lengths: tuple[int, int, int]

    def to_json_obj(self) -> dict:
        return {"triple": list(self.triple), "lengths": list(self.lengths)}


def central_triangle(t: Triangulation) -> CentralTriangle:
    """Pick the central triangle minimizing the largest arc, ties broken by
    the lexicographically smallest clockwise triple."""
    poly = t.polygon
    n = t.n
    best = None
    for tri in t.triangles():
        a, b, c = tri
        lengths = (
            poly.oriented_length(a, b),
            poly.oriented_length(b, c),
            poly.oriented_length(c, a),
        )
        if 2 * max(lengths) > n:
            continue
        cand = (max(lengths), tri, lengths)
        if best is None or cand[:2] < best[:2]:
            best = cand
    if best is None:
        raise TriangulationError("internal error: no central triangle found")
    return CentralTriangle(best[1], best[2])


def omega_tilde_member(
    t: Triangulation, a: int, b: int, u: Triangulation
) -> bool:
    """Membership in the far witness set anchored at oriented edge (a,b):
    shared interior edges only at a or b, and two interior u-edges at every
    vertex left of (a,b)."""
    if t.polygon != u.polygon:
        raise TriangulationError("triangulations live on different polygons")
    if not t.has_edge((a, b)):
        raise PreconditionError(f"({a},{b}) is not an edge of the triangulation")
    n = t.n
    length = t.polygon.oriented_length(a, b)
    if length > -(n // -2) - 1:
        raise PreconditionError(f"oriented edge ({a},{b}) is too long (length {length})")
    for e in t.diagonals & u.diagonals:
        if a not in e and b not in e:
            return False
    return all(u.interior_degree(w) >= 2 for w in t.polygon.left_of(a, b))


def _interior_adjacent(t: Triangulation, w: int, x: int, y: int) -> bool:
    return edge(w, x) in t.diagonals or edge(w, y) in t.diagonals


def right_support_count(t: Triangulation, x: int, y: int) -> int:
    """Vertices right of (x,y) joined to x or y by an interior edge of t."""
    return sum(
        1 for w in t.polygon.right_of(x, y) if _interior_adjacent(t, w, x, y)
    )


def _zigzag_partial(t: Triangulation, x: int, y: int, rights: Sequence[int]) -> set:
    verts = (x,) + t.polygon.left_of(x, y) + (y,) + tuple(rights)
    if len(verts) < 4:
        return set()
    return set(zigzag(Polygon(verts), x, y).diagonals)


def far_witness_long(t: Triangulation) -> tuple[Triangulation, int]:
    """A witness at distance at least n+l-6, l the shortest central arc.

    Zigzags across the central-triangle side whose span is small relative to
    its interior support, then completes while sharing as little as possible.
    """
    n = t.n
    if n < 6:
        raise PreconditionError("far witnesses need n >= 6")
    ct = central_triangle(t)
    a, b, c = ct.triple
    sides = [
        (a, b, ct.lengths[0]),
        (b, c, ct.lengths[1]),
        (c, a, ct.lengths[2]),
    ]
    chosen = None
    for x, y, lx in sides:
        if 2 * lx <= n - right_support_count(t, x, y):
            chosen = (x, y, lx)
            break
    if chosen is None:
        chosen = max(sides, key=lambda s: n - right_support_count(t, s[0], s[1]) - 2 * s[2])
    x, y, lx = chosen
    free = [
        w
        for w in t.polygon.right_of(x, y)
        if not _interior_adjacent(t, w, x, y)
    ]
    partial = _zigzag_partial(t, x, y, free[: lx - 1])
    u = complete_min_shared(partial, t)
    return u, n + min(ct.lengths) - 6


def far_witness_short(t: Triangulation) -> tuple[Triangulation, int]:
    """A witness at distance at least n+(k-9)/2-l, stronger than the long
    bound when the central triangle has a very short side."""
    n = t.n
    if n < 6:
        raise PreconditionError("far witnesses need n >= 6")
    ct = central_triangle(t)
    # rotate so the closing arc (c,a) is a shortest one
    rotations = [
        (
            tuple(ct.triple[r:] + ct.triple[:r]),
            tuple(ct.lengths[r:] + ct.lengths[:r]),
        )
        for r in range(3)
    ]
    triple, lengths = min(rotations, key=lambda rl: rl[1][2])
    a, b, c = triple
    l_a, l_b, l_short = lengths
    k = t.comb_gap()
    sides = [(a, b, l_a), (b, c, l_b)]
    chosen = None
    for x, y, lx in sides:
        if 2 * (lx - right_support_count(t, x, y)) >= (k + 3) - 2 * l_short:
            chosen = (x, y, lx)
            break
    if chosen is None:
        chosen = max(sides, key=lambda s: s[2] - right_support_count(t, s[0], s[1]))
    x, y, lx = chosen
    poly = t.polygon
    rights = list(poly.right_of(x, y))
    preferred = [w for w in rights if not _interior_adjacent(t, w, x, y)]
    preferred += [w for w in rights if _interior_adjacent(t, w, x, y)]
    picked = sorted(preferred[: lx - 1], key=lambda w: poly.oriented_length(y, w))
    partial = _zigzag_partial(t, x, y, picked)
    u = complete_min_shared(partial, t)
    return u, n - l_short + (k - 8) // 2


def complete_min_shared(partial: Iterable, t: Triangulation) -> Triangulation:
    """Extend a non-crossing edge set to a full triangulation sharing as few
    interior edges with t as possible.

    The untriangulated pockets are independent, and within each one the
    minimum is found exactly by the classical interval dynamic program over
    triangle apexes (smallest apex wins ties, for determinism).
    """
    poly = t.polygon
    chords = set()
    for e in partial:
        e = edge(*e)
        for v in e:
            poly.position(v)
        if not poly.is_boundary(e):
            chords.add(e)
    ordered = sorted(chords)
    for i, e1 in enumerate(ordered):
        for e2 in ordered[i + 1:]:
            if crossing(poly, e1, e2):
                raise CrossingError(e1, e2)
    filled = set(chords)
    for pocket in _pockets(poly.vertices, ordered):
        filled |= _min_shared_pocket(pocket, t.diagonals)
    return validate_triangulation(poly, filled)


def _pockets(region: tuple, chords: list):
    if not chords:
        if len(region) >= 4:
            yield region
        return
    p, q = chords[0]
    i, j = region.index(p), region.index(q)
    if i > j:
        i, j = j, i
    one, two = region[i:j + 1], region[j:] + region[:i + 1]
    one_set = set(one)
    inside_one = [e for e in chords[1:] if e[0] in one_set and e[1] in one_set]
    inside_two = [e for e in chords[1:] if e not in inside_one]
    yield from _pockets(one, inside_one)
    yield from _pockets(two, inside_two)


def _min_shared_pocket(region: tuple, avoid: frozenset) -> set:
    m = len(region)
    table: dict[tuple[int, int], tuple[int, int]] = {}

    def chord_cost(i: int, j: int) -> int:
        return 1 if j - i > 1 and edge(region[i], region[j]) in avoid else 0

    def solve(i: int, j: int) -> int:
        if j - i < 2:
            return 0
        if (i, j) in table:
            return table[(i, j)][0]
        best_val = best_k = None
        for k in range(i + 1, j):
            val = solve(i, k) + solve(k, j) + chord_cost(i, k) + chord_cost(k, j)
            if best_val is None or val < best_val:
                best_val, best_k = val, k
        table[(i, j)] = (best_val, best_k)
        return best_val

    solve(0, m - 1)
    picked: set = set()

    def collect(i: int, j: int):
        if j - i < 2:
            return
        k = table[(i, j)][1]
        if k - i > 1:
            picked.add(edge(region[i], region[k]))
        if j - k > 1:
            picked.add(edge(region[k], region[j]))
        collect(i, k)
        collect(k, j)

    collect(0, m - 1)
    return picked


def eccentric_family(n: int, k: int) -> Triangulation:
    """The staircase triangulation with comb gap exactly k but eccentricity
    at most n-4+k, defined for n/2-2 < k <= n-5.

    All diagonals cross one chord of length l; two adjacent vertices left of
    the chord carry interior degree exactly n-3-k and nobody exceeds it.
    """
    if not (2 * k > n - 4 and k <= n - 5):
        raise PreconditionError(f"k={k} outside (n/2-2, n-5] for n={n}")
    deg = n - 3 - k
    l = -((n - 3) // -deg) + 1
    runs = [deg, deg]
    rest = (n - 3) - 2 * deg
    for slots_left in range(l - 3, 0, -1):
        r = min(deg, rest - (slots_left - 1))
        runs.append(r)
        rest -= r
    assert rest == 0
    diags = set()
    w = n - 1
    for u, run in zip(range(1, l), runs):
        for step in range(run):
            diags.add(edge(u, w))
            if step < run - 1:
                w -= 1
    return validate_triangulation(Polygon.standard(n), diags)
