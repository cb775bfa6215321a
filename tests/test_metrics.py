import random
from collections import deque

import networkx as nx
import numpy as np
import pytest

from polyflip import (
    PreconditionError,
    Triangulation,
    TriangulationError,
    bfs_distances,
    build_slice,
    comb,
    diameter_radius,
    distance_matrix,
    distance_upper_bound,
    eccentricities,
    eccentricity,
    enumerate_all,
    farthest,
    flip_distance,
    neighbors,
    orbit_representatives,
    validate_triangulation,
)


def networkx_distance_matrix(n):
    slc = build_slice(n)
    g = nx.Graph()
    g.add_nodes_from(range(len(slc)))
    for i in range(len(slc)):
        for j in slc.adjacency[i]:
            g.add_edge(i, int(j))
    return slc, dict(nx.all_pairs_shortest_path_length(g))


def test_distance_basics():
    t = Triangulation.from_pairs(5, [(0, 2), (0, 3)])
    u = Triangulation.from_pairs(5, [(1, 3), (1, 4)])
    assert flip_distance(t, t).distance == 0
    assert flip_distance(t, t).geodesic == ()
    assert flip_distance(t, u).distance == 2
    s = Triangulation.from_pairs(4, [(0, 2)])
    w = Triangulation.from_pairs(4, [(1, 3)])
    assert flip_distance(s, w).distance == 1
    with pytest.raises(TriangulationError):
        flip_distance(s, t)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_distance_agrees_with_networkx(n):
    slc, oracle = networkx_distance_matrix(n)
    for i in range(len(slc)):
        for j in range(len(slc)):
            t, u = slc.triangulation(i), slc.triangulation(j)
            assert flip_distance(t, u).distance == oracle[i][j]
    eccs = eccentricities(slc)
    for i in range(len(slc)):
        assert bfs_distances(slc, i).tolist() == [oracle[i][j] for j in range(len(slc))]
        assert eccs[i] == max(oracle[i].values())


def test_eccentricities_of_nodes_outside_the_representatives():
    slc = build_slice(9)
    reps = set(orbit_representatives(slc).tolist())
    nodes = [i for i in reversed(range(len(slc))) if i not in reps]
    assert nodes
    eccs = eccentricities(slc, nodes)
    assert len(eccs) == len(nodes)
    for i, ecc in zip(nodes, eccs):
        assert ecc == bfs_distances(slc, i).max()


@pytest.mark.parametrize("n", range(3, 11))
def test_eccentricities_match_per_node_bfs(n):
    slc = build_slice(n)
    expected = [int(bfs_distances(slc, i).max()) for i in range(len(slc))]
    assert eccentricities(slc).tolist() == expected


def test_diameter_radius_of_triangle_and_square():
    assert diameter_radius(3) == (0, 0)
    assert diameter_radius(4) == (1, 1)


@pytest.mark.parametrize("count", [63, 64, 65, 129])
def test_farthest_batches_across_word_boundary(count):
    slc = build_slice(11)
    sources = random.Random(count).sample(range(len(slc)), count)
    expected = [int(bfs_distances(slc, s).max()) for s in sources]
    assert farthest(slc, sources).tolist() == expected


def test_farthest_with_target_masks():
    slc = build_slice(9)
    rng = np.random.default_rng(9)
    sources = rng.choice(len(slc), 70, replace=False)
    single = np.zeros(len(slc), dtype=bool)
    single[17] = True
    masks = [rng.random(len(slc)) < p for p in (0.01, 0.2, 0.7)] + [single]
    for mask in masks:
        expected = [int(bfs_distances(slc, s)[mask].max()) for s in sources]
        assert farthest(slc, sources, mask).tolist() == expected
    none = np.zeros(len(slc), dtype=bool)
    assert farthest(slc, sources, none).tolist() == [0] * len(sources)


def test_farthest_repeated_sources():
    slc = build_slice(8)
    s, t = 5, 100
    assert farthest(slc, [s, s, t]).tolist() == [
        int(bfs_distances(slc, s).max()),
        int(bfs_distances(slc, s).max()),
        int(bfs_distances(slc, t).max()),
    ]
    sources = [3, 7] * 40
    assert farthest(slc, sources).tolist() == [
        int(bfs_distances(slc, i).max()) for i in sources
    ]


def test_out_of_range_nodes_raise():
    slc = build_slice(7)
    for bad in ([-1], [len(slc)], [0, len(slc) + 5]):
        with pytest.raises(PreconditionError):
            eccentricities(slc, bad)
        with pytest.raises(PreconditionError):
            farthest(slc, bad)
    with pytest.raises(PreconditionError):
        farthest(slc, [0], np.ones(len(slc) - 1, dtype=bool))


def test_bfs_rows_agree_with_queue_bfs_n12():
    slc = build_slice(12)
    for source in random.Random(12).sample(range(len(slc)), 5):
        dist = [-1] * len(slc)
        dist[source] = 0
        queue = deque([source])
        while queue:
            i = queue.popleft()
            for j in slc.adjacency[i].tolist():
                if dist[j] < 0:
                    dist[j] = dist[i] + 1
                    queue.append(j)
        assert bfs_distances(slc, source).tolist() == dist


def test_geodesic_replays_to_target():
    for n in (5, 6, 7):
        ts = list(enumerate_all(n))
        for t in ts[::3]:
            for u in ts[::4]:
                res = flip_distance(t, u)
                assert len(res.geodesic) == res.distance
                cur = t
                for move in res.geodesic:
                    assert move.removed in cur.diagonals
                    cur = validate_triangulation(
                        cur.polygon, (cur.diagonals - {move.removed}) | {move.inserted}
                    )
                assert cur == u


def test_geodesic_deterministic():
    t = Triangulation.from_pairs(8, [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6)])
    u = Triangulation.from_pairs(8, [(1, 3), (3, 5), (5, 7), (1, 5), (1, 7)])
    first = flip_distance(t, u)
    for _ in range(3):
        assert flip_distance(t, u) == first


def test_geodesic_relabels_to_polygon_labels():
    t = comb(7, 0).delete(0)  # polygon on labels 1..6
    assert t.polygon.vertices == (1, 2, 3, 4, 5, 6)
    other = validate_triangulation(t.polygon, [(2, 6), (3, 6), (3, 5)])
    res = flip_distance(t, other)
    for move in res.geodesic:
        for v in move.removed + move.inserted:
            assert v in t.polygon


def test_distance_matrix_symmetric_and_metric():
    for n in (5, 6, 7, 8):
        mat = distance_matrix(n)
        assert (mat == mat.T).all()
        assert (np.diag(mat) == 0).all()
        assert ((mat == 0) == np.eye(len(mat), dtype=bool)).all()
        # triangle inequality over all triples
        m = mat.astype(np.int32)
        assert (m[:, :, None] <= m[:, None, :] + m[None, :, :]).all()


def test_distance_one_iff_neighbors():
    slc = build_slice(6)
    mat = distance_matrix(6)
    for i in range(len(slc)):
        nbr_keys = {u.key_pairs() for u in neighbors(slc.triangulation(i))}
        for j in range(len(slc)):
            is_nbr = slc.keys[j] in nbr_keys
            assert (mat[i, j] == 1) == is_nbr


def test_eccentricity_examples():
    assert eccentricity(comb(6, 0)).eccentricity == 3
    t = Triangulation.from_pairs(6, [(0, 2), (2, 4), (0, 4)])
    res = eccentricity(t)
    assert res.eccentricity == 4
    assert flip_distance(t, res.witness).distance == 4
    assert sum(res.layer_sizes) == 14
    for u in enumerate_all(5):
        assert eccentricity(u).eccentricity == 2


def test_eccentricity_witness_is_extremal():
    slc = build_slice(7)
    for i in range(0, len(slc), 5):
        t = slc.triangulation(i)
        res = eccentricity(t)
        dist = bfs_distances(slc, i)
        assert res.eccentricity == int(dist.max())


def test_upper_bound_examples_and_soundness():
    t5 = comb(5, 0)
    for u in enumerate_all(5):
        assert distance_upper_bound(t5, u) == 2
    t6 = Triangulation.from_pairs(6, [(0, 2), (2, 4), (0, 4)])
    assert distance_upper_bound(t6, comb(6, 0)) == 3
    for n in (5, 6, 7):
        for t in enumerate_all(n):
            for u in enumerate_all(n):
                assert flip_distance(t, u).distance <= distance_upper_bound(t, u)


def test_diameter_radius_small():
    assert diameter_radius(5) == (2, 2)
    assert diameter_radius(6)[0] == 4
    # radius must come from a comb (eccentricity n-3)
    assert diameter_radius(6)[1] == 3
    assert diameter_radius(7) == (5, 4)
    assert diameter_radius(8) == (7, 5)


def test_diameter_matches_matrix():
    for n in (6, 7, 8):
        mat = distance_matrix(n)
        d, r = diameter_radius(n)
        assert d == int(mat.max())
        assert r == int(mat.max(axis=1).min())
