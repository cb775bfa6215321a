import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyflip import (
    CrossingError,
    InvalidEdgeError,
    MaximalityError,
    Polygon,
    PolygonTooSmallError,
    Triangulation,
    TriangulationError,
    comb,
    crossing,
    edge,
    enumerate_all,
    flip,
    validate_triangulation,
)


def geometric_crossing(n, e1, e2):
    """Independent oracle: proper segment intersection on the regular n-gon."""
    def point(v):
        ang = -2 * math.pi * v / n  # clockwise
        return (math.cos(ang), math.sin(ang))

    def orient(p, q, r):
        val = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return 0 if abs(val) < 1e-12 else (1 if val > 0 else -1)

    if set(e1) & set(e2):
        return False
    a, b = point(e1[0]), point(e1[1])
    c, d = point(e2[0]), point(e2[1])
    return (
        orient(a, b, c) != orient(a, b, d)
        and orient(c, d, a) != orient(c, d, b)
    )


def test_edge_normalizes_and_rejects_loops():
    assert edge(5, 2) == (2, 5)
    with pytest.raises(InvalidEdgeError):
        edge(3, 3)


def test_polygon_cyclic_accessors():
    p = Polygon.standard(6)
    assert p.succ(5) == 0 and p.pred(0) == 5
    assert p.oriented_length(1, 4) == 3
    assert p.oriented_length(4, 1) == 3
    assert p.left_of(0, 3) == (1, 2)
    assert p.right_of(0, 3) == (4, 5)
    assert p.is_boundary((5, 0)) and not p.is_boundary((0, 2))


def test_polygon_rejects_bad_labels():
    with pytest.raises(PolygonTooSmallError):
        Polygon((0, 1))
    with pytest.raises(TriangulationError):
        Polygon((0, 1, 1))
    with pytest.raises(TriangulationError):
        Polygon((0, 1, -2))


def test_oriented_lengths_sum_to_n():
    p = Polygon.standard(9)
    for a in range(9):
        for b in range(9):
            if a != b:
                assert p.oriented_length(a, b) + p.oriented_length(b, a) == 9


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_crossing_matches_geometric_oracle(n):
    p = Polygon.standard(n)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for e1 in pairs:
        for e2 in pairs:
            assert crossing(p, e1, e2) == geometric_crossing(n, e1, e2), (e1, e2)


def test_validate_catches_each_failure_mode():
    p = Polygon.standard(6)
    with pytest.raises(InvalidEdgeError):
        validate_triangulation(p, [(0, 1), (0, 3), (0, 4)])  # boundary edge
    with pytest.raises(CrossingError) as err:
        validate_triangulation(p, [(0, 2), (1, 3), (1, 4)])
    assert err.value.first == (0, 2) and err.value.second == (1, 3)
    with pytest.raises(MaximalityError):
        validate_triangulation(p, [(0, 2), (0, 3)])
    with pytest.raises(InvalidEdgeError):
        validate_triangulation(p, [(0, 2), (0, 3), (0, 9)])  # unknown vertex


def test_degrees_gap_and_ears():
    t = comb(6, 0)
    assert t.interior_degree(0) == 3
    assert t.interior_degree(1) == 0
    assert t.max_interior_degree() == 3
    assert t.comb_gap() == 0
    assert set(t.ears()) == {1, 5}
    z = Triangulation.from_pairs(6, [(1, 3), (1, 4), (0, 4)])
    assert set(z.ears()) == {2, 5}
    assert z.comb_gap() == 1


def test_triangles_clockwise_triples():
    t = comb(6, 0)
    assert t.triangles() == [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)]
    for u in enumerate_all(7):
        tris = u.triangles()
        assert len(tris) == 5
        for a, b, c in tris:
            assert a == min((a, b, c))
            # clockwise: walking a->b->c->a covers the whole cycle once
            p = u.polygon
            total = (
                p.oriented_length(a, b)
                + p.oriented_length(b, c)
                + p.oriented_length(c, a)
            )
            assert total == 7


def _scanned(t):
    """Edge-scan oracles for the neighbour-map predicates of t."""
    edges = t.diagonals | t.polygon.boundary_edges()
    vs = t.polygon.vertices
    nbrs = {v: {w for w in vs if w != v and edge(v, w) in edges} for v in vs}
    degree = {v: sum(v in e for e in t.diagonals) for v in vs}
    tris = sorted(
        (a, b, c)
        for a in vs for b in vs for c in vs
        if a < b < c and {edge(a, b), edge(b, c), edge(a, c)} <= edges
    )
    inserted = {
        d: edge(*[w for w in vs if w not in d and edge(d[0], w) in edges
                  and edge(d[1], w) in edges])
        for d in t.diagonals
    }
    return nbrs, degree, tris, inserted


def test_neighbour_map_matches_edge_scans():
    for n in range(3, 10):
        for t in enumerate_all(n):
            for u in (t, t.delete(0)) if n > 3 else (t,):
                nbrs, degree, tris, inserted = _scanned(u)
                assert {v: u.neighbours(v) for v in u.polygon.vertices} == nbrs
                assert {v: u.interior_degree(v) for v in u.polygon.vertices} == degree
                assert u.ears() == {v for v, k in degree.items() if k == 0}
                assert u.max_interior_degree() == max(degree.values())
                assert u.triangles() == tris
                assert {d: flip(u, d)[1].inserted for d in u.diagonals} == inserted
                vs = u.polygon.vertices
                joined = {(v, w) for v in vs for w in vs if v != w and u.has_edge((v, w))}
                assert joined == {(v, w) for v in nbrs for w in nbrs[v]}


def test_neighbours_outside_the_polygon_raise():
    t = comb(6, 0)
    for v in (6, -1, 99):
        with pytest.raises(InvalidEdgeError):
            t.neighbours(v)
        with pytest.raises(InvalidEdgeError):
            t.interior_degree(v)
        assert not t.has_edge((0, v))
    # the cached map stays outside equality and hashing
    twin = Triangulation(t.polygon, t.diagonals)
    t.neighbours(0)
    assert t == twin and hash(t) == hash(twin)


def test_delete_vertex_merges_into_successor():
    # deleting 0 from comb(6,0): edges {0,j} become {1,j}; {0,2} turns into
    # the boundary edge {1,2} and is dropped
    t = comb(6, 0)
    d = t.delete(0)
    assert d.polygon.vertices == (1, 2, 3, 4, 5)
    assert d.diagonals == frozenset({(1, 3), (1, 4)})
    # deleting an ear just removes it
    d2 = t.delete(3)
    assert d2.diagonals == frozenset({(0, 2), (0, 4)})
    with pytest.raises(InvalidEdgeError):
        t.delete(9)


def test_delete_always_valid_exhaustive():
    for n in (5, 6, 7):
        for t in enumerate_all(n):
            for a in range(n):
                d = t.delete(a)
                validate_triangulation(d.polygon, d.diagonals)


def test_canonical_key_relabels_positionally():
    t = Triangulation.from_pairs(6, [(0, 2), (0, 3), (0, 4)])
    deleted = t.delete(5)  # polygon 0..4
    n, pairs = deleted.canonical_key()
    assert n == 5
    assert pairs == tuple(sorted(deleted.diagonals))
    # a polygon with gaps in its labels still canonicalizes to 0..n-1
    odd = validate_triangulation(Polygon((2, 4, 7, 9, 11)), [(2, 7), (2, 9)])
    assert odd.canonical_key() == (5, ((0, 2), (0, 3)))


def test_text_and_json_round_trip():
    t = Triangulation.from_pairs(6, [(0, 2), (2, 4), (0, 4)])
    assert t.text() == "n=6;0-2,0-4,2-4"
    assert Triangulation.from_text(t.text()) == t
    assert Triangulation.from_json(t.to_json()) == t
    tri = Triangulation.from_text("n=3;")
    assert tri.diagonals == frozenset()
    with pytest.raises(TriangulationError):
        Triangulation.from_text("6;0-2")
    with pytest.raises(TriangulationError):
        Triangulation.from_text("n=6;0-2,zap")


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 9), st.data())
def test_round_trip_any_triangulation(n, data):
    keys = [t.key_pairs() for t in enumerate_all(n)]
    key = data.draw(st.sampled_from(keys))
    t = Triangulation.from_pairs(n, key)
    assert Triangulation.from_text(t.text()).canonical_key() == t.canonical_key()
    assert Triangulation.from_json(t.to_json()).canonical_key() == t.canonical_key()
