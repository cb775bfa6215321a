import itertools

import pytest

from polyflip import (
    EmptyWitnessSetError,
    Polygon,
    PreconditionError,
    Triangulation,
    central_triangle,
    comb,
    complete_min_shared,
    eccentric_family,
    edge,
    enumerate_all,
    fan,
    far_witness_long,
    far_witness_short,
    find_shelling,
    flip_distance,
    omega_member,
    omega_tilde_member,
    omega_witness,
    split_point,
    validate_shelling,
    validate_triangulation,
    zigzag,
)
from polyflip.constructions import Shelling, _restricted_ear, non_neighbors


def gap_at(t, v):
    return t.n - 3 - t.interior_degree(v)


# -- combs, fans, zigzags ----------------------------------------------------

def test_comb_and_fan():
    t = comb(7, 3)
    assert t.interior_degree(3) == 4
    assert t.comb_gap() == 0
    p = Polygon((2, 5, 8, 9, 11))
    f = fan(p, 8)
    assert f.diagonals == frozenset({(8, 11), (2, 8)})


def test_zigzag_hexagon_worked_example():
    z = zigzag(Polygon.standard(6), 0, 3)
    assert z.diagonals == frozenset({(2, 4), (1, 4), (1, 5)})
    # only left vertex of degree one is pred(3) = 2
    assert z.interior_degree(2) == 1
    assert z.interior_degree(1) == 2


def test_zigzag_shapes_and_preconditions():
    # diagonals form a simple path: every interior degree is 1 or 2
    for n in (4, 5, 6, 7, 8, 9):
        p = Polygon.standard(n)
        for b in range(n // 2, n // 2 + 2):
            left, right = b - 1, n - b - 1
            if abs(left - right) > 1:
                continue
            z = zigzag(p, 0, b)
            degs = [z.interior_degree(v) for v in range(n)]
            assert max(degs) <= 2
            assert z.interior_degree(0) == 0 and z.interior_degree(b) == 0
            if left == right and left >= 1 and n >= 5:
                # balanced arcs: the only degree-1 left vertex is pred(b)
                ones = [v for v in p.left_of(0, b) if z.interior_degree(v) == 1]
                assert ones == [b - 1]
    with pytest.raises(PreconditionError):
        zigzag(Polygon.standard(8), 0, 2)  # arcs 1 and 5


# -- shellings ---------------------------------------------------------------

def test_shelling_exists_and_validates_exhaustively():
    for n in (5, 6, 7, 8):
        for t in enumerate_all(n):
            for v in range(n):
                sh = find_shelling(t, v)
                assert validate_shelling(t, sh)
                assert len(sh.order) == gap_at(t, v)


def test_shelling_of_comb_apex_is_empty():
    t = comb(8, 0)
    sh = find_shelling(t, 0)
    assert sh.order == ()


# -- split points ------------------------------------------------------------

def test_split_point_worked_examples():
    assert split_point(tuple(range(7)), {3, 5}) == 1
    assert split_point((0, 1, 2), set()) == 1
    assert split_point((0, 1, 2, 3, 4), {2}) == 3


def test_split_point_definition_oracle():
    # independent re-scan of the definition, checking the LARGEST match wins
    import itertools
    values = tuple(range(9))
    for size in (0, 1, 2, 3):
        for chosen in itertools.combinations(values, size):
            got = split_point(values, set(chosen))
            matches = [
                x
                for i, x in enumerate(values)
                if i == 2 * sum(1 for c in chosen if values.index(c) < i) + 1
            ]
            assert matches and got == matches[-1]
            assert got not in chosen


def test_split_point_precondition():
    with pytest.raises(PreconditionError):
        split_point((0, 1, 2, 3, 4), {1, 3})  # 2 > (5-3)/2


# -- the witness set at an ear -----------------------------------------------

def test_omega_witness_worked_example():
    t = Triangulation.from_pairs(6, [(0, 2), (2, 4), (0, 4)])
    w = omega_witness(t, 0)
    cert = omega_member(t, 0, w)
    assert cert is not None
    assert cert.shelling.v == 0
    assert flip_distance(t, w).distance >= 6 - 3 + gap_at(t, 0)


def test_omega_witness_member_and_bound_exhaustive():
    for n in (6, 7, 8):
        for t in enumerate_all(n):
            for v in range(n):
                k = gap_at(t, v)
                if 2 * k > n - 4:
                    with pytest.raises(EmptyWitnessSetError):
                        omega_witness(t, v)
                    continue
                w = omega_witness(t, v)
                cert = omega_member(t, v, w)
                assert cert is not None, (t.text(), v)
                # certificate evidence really sits in w and leaves the suffix
                order = cert.shelling.order
                for i, a in enumerate(order):
                    e1, e2 = cert.evidence[a]
                    suffix = set(order[i + 1:])
                    for e in (e1, e2):
                        assert e in w.diagonals
                        other = e[0] if e[1] == a else e[1]
                        assert other not in suffix and other != a


def test_omega_membership_requires_ear():
    t = comb(6, 0)
    u = comb(6, 0)
    assert omega_member(t, 2, u) is None  # vertex 2 has interior degree 1 in u
    # a triangulation without an ear at v is never a member
    z = Triangulation.from_pairs(6, [(1, 3), (1, 4), (0, 4)])
    assert 0 not in z.ears()
    assert omega_member(t, 0, z) is None


def test_omega_member_outside_the_polygon_is_none():
    t = comb(6, 0)
    for v in (6, 99):
        assert omega_member(t, v, t) is None


def _restricted_ear_by_definition(t, removed, c):
    """c meets no diagonal of t that joins two kept vertices not adjacent on
    the kept polygon."""
    keep = [w for w in t.polygon.vertices if w not in removed]
    sides = {edge(keep[i], keep[(i + 1) % len(keep)]) for i in range(len(keep))}
    return not any(
        c in e for e in t.diagonals if set(e) <= set(keep) and e not in sides
    )


def test_restricted_ear_matches_definition_on_reachable_sets():
    """Every removed set reverse ear removals reach from the empty set, for
    every (T, v) at n <= 8: the neighbour-count rule agrees with the
    restricted-diagonal definition on every remaining target vertex."""
    checked = 0
    for n in range(4, 9):
        for t in enumerate_all(n):
            for v in range(n):
                target = frozenset(non_neighbors(t, v))
                level = {frozenset()}
                while level:
                    grown = set()
                    for removed in level:
                        for c in target - removed:
                            ear = _restricted_ear_by_definition(t, removed, c)
                            assert _restricted_ear(t, removed, c) == ear
                            checked += 1
                            if ear:
                                grown.add(removed | {c})
                    level = grown
    assert checked > 10_000


def test_validate_shelling_matches_definition_on_every_order():
    """Every ordering of the non-neighbours at n=6,7 validates iff removing
    its vertices last to first leaves an ear each time."""
    rejected = 0
    for n in (6, 7):
        for t in enumerate_all(n):
            for v in range(n):
                for order in itertools.permutations(non_neighbors(t, v)):
                    removed, ok = frozenset(), True
                    for c in reversed(order):
                        ok = ok and _restricted_ear_by_definition(t, removed, c)
                        removed |= {c}
                    assert validate_shelling(t, Shelling(v, order)) == ok
                    rejected += not ok
    assert rejected > 0


def test_omega_deletion_stability():
    # accepted (T,v,U) stay accepted after deleting the last shelling vertex
    # or its clockwise predecessor
    for n in (6, 7):
        for t in enumerate_all(n):
            for v in range(n):
                k = gap_at(t, v)
                if not (0 < k and 2 * k <= n - 4):
                    continue
                u = omega_witness(t, v)
                cert = omega_member(t, v, u)
                a_last = cert.shelling.order[-1]
                for x in (a_last, t.polygon.pred(a_last)):
                    if x == v or v not in t.delete(x).polygon.vertices:
                        continue
                    td, ud = t.delete(x), u.delete(x)
                    assert omega_member(td, v, ud) is not None, (t.text(), v, x)


# -- central triangles and the far side --------------------------------------

def test_central_triangle_worked_example():
    assert central_triangle(comb(6, 0)).triple == (0, 2, 3)


def test_central_triangle_exists_with_short_arcs():
    for n in (4, 5, 6, 7, 8, 9, 10):
        for t in enumerate_all(n):
            ct = central_triangle(t)
            assert sum(ct.lengths) == n
            assert all(2 * l <= n for l in ct.lengths)
            assert ct.triple in [tuple(tr) for tr in t.triangles()]


def test_ear_left_of_every_long_edge():
    # every triangulation edge seen from either side with length >= 2 has an
    # ear of the triangulation strictly on its left
    for n in (5, 6, 7, 8, 9, 10):
        for t in enumerate_all(n):
            ears = t.ears()
            for a, b in t.edges():
                for x, y in ((a, b), (b, a)):
                    if t.polygon.oriented_length(x, y) >= 2:
                        left = t.polygon.left_of(x, y)
                        assert any(w in ears for w in left), (t.text(), x, y)


def test_omega_tilde_member_preconditions_and_bound():
    t = comb(8, 0)
    with pytest.raises(PreconditionError):
        omega_tilde_member(t, 1, 3, t)  # {1,3} not an edge of t
    with pytest.raises(PreconditionError):
        omega_tilde_member(t, 4, 0, t)  # length 4 > ceil(8/2)-1


def test_omega_tilde_distance_bound_by_search():
    # for every member found by scanning: d(T,U) >= n - m + l - 5, with m the
    # count of right vertices supported in T at {a,b} and tied leftward in U
    for n in (6, 7, 8):
        for t in list(enumerate_all(n))[::5]:
            for (a, b) in t.edges():
                for x, y in ((a, b), (b, a)):
                    l = t.polygon.oriented_length(x, y)
                    if not (2 <= l <= -(n // -2) - 1):
                        continue
                    rights = t.polygon.right_of(x, y)
                    not_right = set(t.polygon.vertices) - set(rights)
                    for u in enumerate_all(n):
                        if not omega_tilde_member(t, x, y, u):
                            continue
                        m = sum(
                            1
                            for w in rights
                            if (edge(w, x) in t.diagonals or edge(w, y) in t.diagonals)
                            and any(
                                edge(w, z) in u.diagonals
                                for z in not_right
                                if z != w
                            )
                        )
                        d = flip_distance(t, u).distance
                        assert d >= n - m + l - 5, (t.text(), u.text(), x, y)


def test_far_witnesses_bounds_exhaustive_n8():
    for t in enumerate_all(8):
        for make in (far_witness_long, far_witness_short):
            u, bound = make(t)
            assert not (t.diagonals & u.diagonals)
            assert flip_distance(t, u).distance >= bound


def test_far_witness_long_bound_value():
    t = comb(9, 0)
    u, bound = far_witness_long(t)
    l = min(central_triangle(t).lengths)
    assert bound == 9 + l - 6


def test_far_witness_short_bound_value():
    t = comb(9, 0)
    u, bound = far_witness_short(t)
    ct = central_triangle(t)
    ls = min(ct.lengths)
    k = t.comb_gap()
    assert bound == 9 - ls + (k - 8) // 2


# -- completion with minimal sharing -----------------------------------------

def test_complete_min_shared_identity_and_forced_square():
    t = comb(6, 0)
    assert complete_min_shared(t.diagonals, t) == t
    sq = Triangulation.from_pairs(4, [(0, 2)])
    done = complete_min_shared([], sq)
    assert done.diagonals == frozenset({(1, 3)})


def test_complete_min_shared_is_minimal_small():
    # brute-force oracle: true minimum sharing over all completions
    for n in (5, 6, 7):
        for t in enumerate_all(n):
            got = complete_min_shared([], t)
            shared = len(got.diagonals & t.diagonals)
            best = min(len(u.diagonals & t.diagonals) for u in enumerate_all(n))
            assert shared == best == 0


def test_complete_min_shared_respects_partial():
    t = comb(7, 0)
    partial = [(1, 5)]
    done = complete_min_shared(partial, t)
    assert (1, 5) in done.diagonals
    assert len(done.diagonals & t.diagonals) == 0


def test_complete_min_shared_with_forced_sharing():
    # pin diagonals so that sharing is unavoidable, then verify minimality
    t = comb(6, 0)
    done = complete_min_shared([(0, 2), (0, 4)], t)
    assert {(0, 2), (0, 4)} <= set(done.diagonals)
    # only the middle pocket (0,2,3,4) is free: 0-3 shares, 2-4 does not
    assert (2, 4) in done.diagonals


# -- the low-degree eccentric family ----------------------------------------

def test_eccentric_family_worked_examples():
    f = eccentric_family(8, 3)
    assert f.comb_gap() == 3
    assert f.diagonals == frozenset({(1, 7), (1, 6), (2, 6), (2, 5), (3, 5)})
    assert eccentric_family(10, 5).max_interior_degree() == 2


def test_eccentric_family_range_and_structure():
    for n in range(7, 13):
        lo = (n - 2) // 2
        for k in range(lo, n - 4):
            f = eccentric_family(n, k)
            assert f.comb_gap() == k
            # adjacent left vertices 1 and 2 carry the top degree
            top = n - 3 - k
            assert f.interior_degree(1) == top
            assert f.interior_degree(2) == top
        with pytest.raises(PreconditionError):
            eccentric_family(n, lo - 1)
        with pytest.raises(PreconditionError):
            eccentric_family(n, n - 4)


def test_eccentric_family_eccentricity_bound():
    from polyflip import eccentricity
    for n in (8, 9, 10):
        for k in range((n - 2) // 2, n - 4):
            f = eccentric_family(n, k)
            assert eccentricity(f).eccentricity <= n - 4 + k
