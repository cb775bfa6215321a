import dataclasses
import hashlib

import networkx as nx
import numpy as np
import pytest

import polyflip.flips as flips_module
import polyflip.verify as verify_module
from polyflip import (
    BudgetExceededError,
    InvalidEdgeError,
    InvalidFlipError,
    Polygon,
    PreconditionError,
    Triangulation,
    TriangulationError,
    build_slice,
    catalan,
    comb,
    diameter_radius,
    edge,
    enumerate_all,
    flip,
    flip_incident_to,
    max_degrees,
    neighbors,
    orbit_representatives,
    validate_triangulation,
    verify_close,
)
from polyflip.cli import main
from polyflip.flips import all_keys, encode, key_array, neighbor_moves, node_budget, orbit_codes

CATALAN_TABLE = {4: 2, 5: 5, 6: 14, 7: 42, 8: 132, 9: 429, 10: 1430, 11: 4862, 12: 16796}


def test_catalan_table():
    for n, c in CATALAN_TABLE.items():
        assert catalan(n - 2) == c


def test_flip_square():
    t = Triangulation.from_pairs(4, [(0, 2)])
    u, move = flip(t, (0, 2))
    assert u.diagonals == frozenset({(1, 3)})
    assert move.removed == (0, 2) and move.inserted == (1, 3)
    assert move.quad == (0, 1, 2, 3)
    with pytest.raises(InvalidFlipError):
        flip(t, (1, 3))


def test_flip_is_involutive_exhaustively():
    for n in (5, 6, 7, 8):
        for t in enumerate_all(n):
            for d in t.diagonals:
                u, move = flip(t, d)
                validate_triangulation(u.polygon, u.diagonals)
                back, rev = flip(u, move.inserted)
                assert back == t
                assert rev == move.reversed()


def test_neighbors_regular_degree():
    for n in (4, 5, 6, 7):
        for t in enumerate_all(n):
            nbrs = neighbors(t)
            assert len(nbrs) == n - 3
            assert len({u.key_pairs() for u in nbrs}) == n - 3


def test_flip_incident_to_square():
    t = Triangulation.from_pairs(4, [(0, 2)])
    # the only diagonal bounds both boundary triangles
    for a in range(4):
        assert flip_incident_to(t, (0, 2), (a, (a + 1) % 4))


def test_flip_incident_to_comb():
    t = comb(6, 0)
    # triangle on (2,3) is {0,2,3}: flips of 0-2 and 0-3 touch it, 0-4 not
    assert flip_incident_to(t, (0, 2), (2, 3))
    assert flip_incident_to(t, (0, 3), (2, 3))
    assert not flip_incident_to(t, (0, 4), (2, 3))


def test_flip_incident_to_matches_triangle_side_definition():
    # the quadrilateral-side rule against the definition it replaced: d is a
    # side of the triangle of t resting on boundary edge e = {a, b}
    for n in range(4, 9):
        for t in enumerate_all(n):
            all_edges = t.edges()
            for a in range(n):
                b = (a + 1) % n
                (w,) = [
                    w for w in range(n)
                    if w not in (a, b) and edge(a, w) in all_edges and edge(b, w) in all_edges
                ]
                for d in t.diagonals:
                    assert flip_incident_to(t, d, (a, b)) == (d in (edge(a, w), edge(b, w)))
    t = comb(6, 0)
    with pytest.raises(InvalidEdgeError):
        flip_incident_to(t, (0, 2), (0, 2))
    with pytest.raises(InvalidFlipError):
        flip_incident_to(t, (1, 3), (2, 3))


def test_enumeration_counts_and_uniqueness():
    for n, expected in CATALAN_TABLE.items():
        if n > 10:
            continue
        keys = [t.key_pairs() for t in enumerate_all(n)]
        assert len(keys) == expected
        assert len(set(keys)) == expected
        for key in keys[:50]:
            validate_triangulation(Polygon.standard(n), key)


def test_slice_matches_networkx_structure():
    for n in (5, 6, 7):
        slc = build_slice(n)
        g = nx.Graph()
        for i in range(len(slc)):
            for j in slc.adjacency[i]:
                g.add_edge(i, int(j))
        assert g.number_of_nodes() == catalan(n - 2)
        assert nx.is_connected(g)
        degrees = {d for _, d in g.degree()}
        assert degrees == {n - 3}


def test_budget_is_enforced(monkeypatch):
    with pytest.raises(BudgetExceededError):
        build_slice(9, max_nodes=100)
    monkeypatch.setenv("POLYFLIP_NODE_BUDGET", "100")
    with pytest.raises(BudgetExceededError):
        build_slice(9)
    monkeypatch.setenv("POLYFLIP_NODE_BUDGET", "1000")
    assert len(build_slice(9)) == 429


def test_negative_node_budget_is_bad_input(monkeypatch):
    with pytest.raises(PreconditionError, match="negative"):
        node_budget(-1)
    with pytest.raises(PreconditionError, match="negative"):
        build_slice(6, max_nodes=-1)
    monkeypatch.setenv("POLYFLIP_NODE_BUDGET", "-1")
    with pytest.raises(PreconditionError, match="negative"):
        node_budget()
    # a budget of 0 is valid and admits no slice
    assert node_budget(0) == 0
    with pytest.raises(BudgetExceededError):
        build_slice(6, max_nodes=0)


def test_slice_refuses_more_than_half_of_memory(monkeypatch):
    # half of this memory leaves 50 bytes for each of the 429 nodes at n=9
    monkeypatch.setattr(flips_module, "_physical_memory", lambda: 2 * 429 * 100)
    with pytest.raises(BudgetExceededError, match="memory"):
        build_slice(9)
    assert main(["enumerate", "--n", "9"]) == 3
    monkeypatch.setattr(flips_module, "_physical_memory", lambda: 1 << 30)
    assert len(build_slice(9)) == 429


def test_max_degrees_agrees_with_objects():
    slc = build_slice(8)
    degs = max_degrees(slc)
    for i in range(len(slc)):
        assert degs[i] == slc.triangulation(i).max_interior_degree()


def test_orbit_representatives_cover_everything():
    for n in (5, 6, 7, 8):
        slc = build_slice(n)
        reps = orbit_representatives(slc)
        seen = set()
        poly = Polygon.standard(n)
        for r in reps:
            key = slc.key_array[int(r)].tolist()
            for reflect in (False, True):
                for rot in range(n):
                    mapped = frozenset(
                        tuple(sorted(((rot - v) % n if reflect else (v + rot) % n)
                                     for v in e))
                        for e in key
                    )
                    seen.add(tuple(sorted(mapped)))
        assert len(seen) == len(slc)
        # representatives are orbit-minimal, hence pairwise non-equivalent
        assert len(set(int(r) for r in reps)) == len(reps)


def test_eccentricity_constant_on_orbits():
    from polyflip import eccentricity
    slc = build_slice(7)
    for i in range(len(slc)):
        t = slc.triangulation(i)
        rotated = Triangulation.from_pairs(
            7, [tuple(sorted(((a + 2) % 7, (b + 2) % 7))) for a, b in t.diagonals]
        )
        assert eccentricity(t).eccentricity == eccentricity(rotated).eccentricity


def test_codes_descend_in_key_order():
    for n in range(3, 12):
        codes = [encode(n, key) for key in key_array(n).tolist()]
        assert all(a > b for a, b in zip(codes, codes[1:]))


def test_neighbor_moves_agree_with_flip_and_invert():
    for n in (4, 5, 6, 7, 8):
        for t in enumerate_all(n):
            code = encode(n, t.key_pairs())
            moves = list(neighbor_moves(n, code))
            assert [removed for removed, _, _ in moves] == sorted(t.diagonals)
            for removed, new_code, inserted in moves:
                u, move = flip(t, removed)
                assert move.inserted == inserted
                assert new_code == encode(n, u.key_pairs())
                assert (inserted, code, removed) in neighbor_moves(n, new_code)


def test_slice_adjacency_matches_object_flips():
    for n in range(3, 10):
        slc = build_slice(n)
        keys = [tuple(map(tuple, row)) for row in slc.key_array.tolist()]
        index = {key: i for i, key in enumerate(keys)}
        expected = [
            [index[flip(slc.triangulation(i), d)[0].key_pairs()] for d in sorted(key)]
            for i, key in enumerate(keys)
        ]
        assert slc.adjacency.tolist() == expected
        for i in range(0, len(slc), 7):
            assert slc.index_of(slc.triangulation(i)) == i


# -- oracle: the tuple-key, dict-index slice build the array build replaced ----

def oracle_keys(n):
    """Every key of the n-gon by recursing on the apex over the base edge."""
    memo = {}

    def rec(i, j):
        if j - i < 2:
            return [()]
        if (i, j) not in memo:
            memo[i, j] = [
                left + right + ((i, k),) * (k - i > 1) + ((k, j),) * (j - k > 1)
                for k in range(i + 1, j)
                for left in rec(i, k)
                for right in rec(k, j)
            ]
        return memo[i, j]

    return sorted(tuple(sorted(ds)) for ds in rec(0, n - 1))


def oracle_slice(n):
    """(keys, code -> node dict, adjacency) built one node at a time from
    `neighbor_moves`."""
    keys = oracle_keys(n)
    index = {encode(n, key): i for i, key in enumerate(keys)}
    adjacency = [[index[new] for _, new, _ in neighbor_moves(n, code)] for code in index]
    return keys, index, np.array(adjacency, dtype=np.int32).reshape(len(keys), n - 3)


def oracle_orbit_labels(n, keys):
    """Per node, the least key over its 2n dihedral images."""
    return [
        min(
            tuple(sorted(tuple(sorted(((r - v) % n if mirror else (v + r) % n) for v in d))
                         for d in key))
            for mirror in (False, True)
            for r in range(n)
        )
        for key in keys
    ]


def test_array_slice_matches_dict_build():
    for n in range(3, 12):
        slc = build_slice(n)
        keys, _, adjacency = oracle_slice(n)
        assert slc.key_array.shape == (len(keys), n - 3, 2)
        assert slc.key_array.tolist() == [[list(d) for d in key] for key in keys]
        assert all_keys(n) == tuple(keys)
        assert [t.key_pairs() for t in enumerate_all(n)] == keys
        assert np.array_equal(slc.adjacency, adjacency)
        assert slc.adjacency.dtype == np.int32
        assert [slc.index_of(slc.triangulation(i)) for i in range(len(slc))] == list(
            range(len(slc))
        )
        # same orbit partition: orbit codes and oracle labels pair up one to one
        _, codes = np.unique(orbit_codes(slc), axis=0, return_inverse=True)
        pairs = set(zip(codes.tolist(), oracle_orbit_labels(n, keys)))
        assert len(pairs) == len({c for c, _ in pairs}) == len({lab for _, lab in pairs})


def test_slice_adjacency_pinned_at_12():
    digest = hashlib.sha256(build_slice(12).adjacency.tobytes()).hexdigest()
    assert digest == "e66ddcf4d1cadc6d19b61b001e77dd317c3d7ccdfefe0088abbbdab95b5a8dc3"


def test_index_of_rejects_another_polygon():
    for other in (comb(6, 0), comb(8, 0)):
        with pytest.raises(TriangulationError, match="no node of the n=7 slice"):
            build_slice(7).index_of(other)


def test_deletion_index_matches_per_key_loop():
    for n in range(4, 10):
        m = n - 1
        slc, small = build_slice(n), build_slice(m)
        _, small_index, _ = oracle_slice(m)
        expected = np.empty((len(slc), n), dtype=np.intp)
        for a in range(n):
            label = [v - (v > a) for v in range(n)]
            label[a] = label[(a + 1) % n]
            for i, key in enumerate(oracle_keys(n)):
                pairs = ((label[p], label[q]) for p, q in key)
                code = encode(m, [(x, y) for x, y in pairs if 1 < (y - x) % m < m - 1])
                expected[i, a] = small_index[code]
        assert np.array_equal(verify_module._deletion_index(slc, small), expected)
    # a contraction that finds no node, or a node with other diagonals, raises
    missing = dataclasses.replace(small, index=small.index[1:], order=small.order[1:])
    swapped = dataclasses.replace(small, key_array=small.key_array[::-1])
    for broken in (missing, swapped):
        with pytest.raises(TriangulationError, match="gives no triangulation"):
            verify_module._deletion_index(slc, broken)


def test_sweeps_never_decode_key_tuples(monkeypatch):
    def refuse(n):
        raise AssertionError(f"all_keys({n}) decoded")

    flips_module._build_slice_cached.cache_clear()
    monkeypatch.setattr(flips_module, "all_keys", refuse)
    assert diameter_radius(12) == (15, 9)
    assert verify_close(11).status == "pass"
    for n in (11, 12):
        assert "keys" not in vars(build_slice(n))
