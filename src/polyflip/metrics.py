"""Exact flip distances, eccentricities, and flip-graph diameter/radius.

Pair queries run a bidirectional BFS on the implicit graph so they never
need Catalan-sized memory; sweeps use a materialized slice and array BFS.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import PreconditionError, Triangulation, TriangulationError, edge
from .flips import (
    FlipGraphSlice,
    FlipMove,
    build_slice,
    neighbor_moves,
    orbit_codes,
)


@dataclass(frozen=True)
class DistanceResult:
    distance: int
    geodesic: tuple[FlipMove, ...]

    def to_json_obj(self) -> dict:
        return {
            "distance": self.distance,
            "geodesic": [m.to_json_obj() for m in self.geodesic],
        }


@dataclass(frozen=True)
class EccentricityResult:
    eccentricity: int
    witness: Triangulation
    layer_sizes: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return {
            "eccentricity": self.eccentricity,
            "witness": self.witness.text(),
            "layer_sizes": list(self.layer_sizes),
        }


def _require_same_polygon(t: Triangulation, u: Triangulation):
    if t.polygon != u.polygon:
        raise TriangulationError("triangulations live on different polygons")


def flip_distance(t: Triangulation, u: Triangulation) -> DistanceResult:
    """Exact shortest flip path, with one realizing geodesic.

    Bidirectional BFS over canonical keys; ties are broken by sorted key
    order so repeated runs return the same geodesic.
    """
    _require_same_polygon(t, u)
    n = t.n
    start, goal = t.key_pairs(), u.key_pairs()
    if start == goal:
        return DistanceResult(0, ())

    # parents[side][key] = (previous key, move applied to previous)
    parents = ({start: None}, {goal: None})
    frontiers = ([start], [goal])
    meet = None
    while meet is None:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        grown = {}
        for key in frontiers[side]:
            for removed, new_key, inserted in neighbor_moves(n, key):
                if new_key in parents[side] or new_key in grown:
                    continue
                move = FlipMove(removed, inserted, tuple(sorted(removed + inserted)))
                grown[new_key] = (key, move)
        frontiers = (
            (sorted(grown), frontiers[1]) if side == 0 else (frontiers[0], sorted(grown))
        )
        parents[side].update(grown)
        touching = sorted(k for k in grown if k in parents[1 - side])
        if touching:
            meet = touching[0]

    forward = []
    key = meet
    while parents[0][key] is not None:
        prev, move = parents[0][key]
        forward.append(move)
        key = prev
    forward.reverse()
    backward = []
    key = meet
    while parents[1][key] is not None:
        prev, move = parents[1][key]
        backward.append(move.reversed())
        key = prev
    moves = forward + backward
    relabel = _relabel_to_original(t)
    if relabel is not None:
        moves = [_relabel_move(m, relabel) for m in moves]
    return DistanceResult(len(moves), tuple(moves))


def _relabel_to_original(t: Triangulation):
    """Map canonical labels 0..n-1 back to the polygon's own labels."""
    poly = t.polygon
    if poly.vertices == tuple(range(poly.n)):
        return None
    start = poly.position(min(poly.vertices))
    return {i: poly.vertex_at(start + i) for i in range(poly.n)}


def _relabel_move(m: FlipMove, relabel: dict) -> FlipMove:
    return FlipMove(
        edge(relabel[m.removed[0]], relabel[m.removed[1]]),
        edge(relabel[m.inserted[0]], relabel[m.inserted[1]]),
        tuple(sorted(relabel[v] for v in m.quad)),
    )


def bfs_distances(slc: FlipGraphSlice, source: int) -> np.ndarray:
    """Distances from one slice node to every node."""
    dist = np.full(len(slc), -1, dtype=np.int32)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while True:
        nxt = slc.adjacency[frontier].ravel()
        nxt = nxt[dist[nxt] < 0]
        if nxt.size == 0:
            return dist
        level += 1
        dist[nxt] = level
        frontier = np.flatnonzero(dist == level)


def _node_indices(slc: FlipGraphSlice, nodes) -> np.ndarray:
    idx = np.asarray(nodes, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= len(slc)):
        raise PreconditionError(
            f"node indices must lie in 0..{len(slc) - 1} for the n={slc.n} slice"
        )
    return idx


def farthest(slc: FlipGraphSlice, sources, targets=None) -> np.ndarray:
    """Per source, its greatest distance to any node of the boolean mask
    `targets`; with no mask that is every node, so the eccentricity.

    Bit-parallel BFS (Akiba, Iwata and Yoshida, SIGMOD 2013): 64 sources
    run per pass, each one bit of a uint64 frontier/visited mask per node.
    A source reaching no target reports 0.
    """
    nodes = len(slc)
    unique, back = np.unique(_node_indices(slc, sources), return_inverse=True)
    if targets is not None:
        targets = np.asarray(targets, dtype=bool)
        if targets.shape != (nodes,):
            raise PreconditionError(f"targets must be a boolean mask of {nodes} nodes")
    cols = [np.ascontiguousarray(c, dtype=np.intp) for c in slc.adjacency.T]
    out = np.zeros(len(unique), dtype=np.int32)
    for start in range(0, len(unique), 64):
        batch = unique[start : start + 64]
        shifts = np.arange(len(batch), dtype=np.uint64)
        frontier = np.zeros(nodes, dtype=np.uint64)
        frontier[batch] = np.uint64(1) << shifts
        visited = frontier.copy()
        level = 0
        while True:
            reach = np.zeros(nodes, dtype=np.uint64)
            for col in cols:
                reach |= frontier[col]
            reach &= ~visited
            if not reach.any():
                break
            level += 1
            visited |= reach
            hit = np.bitwise_or.reduce(reach if targets is None else reach[targets])
            reached = ((hit >> shifts) & np.uint64(1)).astype(bool)
            out[start : start + len(batch)][reached] = level
            frontier = reach
    return out[back]


def eccentricities(slc: FlipGraphSlice, nodes=None) -> np.ndarray:
    """Eccentricity of every slice node, or of `nodes` in the given order.

    Relabelings of the polygon are flip-graph automorphisms, so one BFS from
    the least member of each dihedral orbit that `nodes` touches settles the
    whole orbit; those BFS run 64 at a time through `farthest`.
    """
    idx = None if nodes is None else _node_indices(slc, nodes)
    _, first, inverse = np.unique(
        orbit_codes(slc), axis=0, return_index=True, return_inverse=True
    )
    wanted = inverse if idx is None else inverse[idx]
    touched = np.unique(wanted)
    orbit_ecc = np.zeros(len(first), dtype=np.int32)
    orbit_ecc[touched] = farthest(slc, first[touched])
    return orbit_ecc[wanted]


@lru_cache(maxsize=8)
def distance_matrix(n: int) -> np.ndarray:
    """All-pairs distances of the flip graph of the standard n-gon."""
    slc = build_slice(n)
    nodes = len(slc)
    mat = np.empty((nodes, nodes), dtype=np.int16)
    for i in range(nodes):
        mat[i] = bfs_distances(slc, i)
    mat.setflags(write=False)
    return mat


def eccentricity(t: Triangulation, max_nodes=None) -> EccentricityResult:
    """Max distance from t to any triangulation, via one full-slice BFS.

    The witness is the lexicographically smallest key in the last layer.
    """
    slc = build_slice(t.n, max_nodes)
    dist = bfs_distances(slc, slc.index_of(t))
    ecc = int(dist.max())
    witness_idx = int(np.nonzero(dist == ecc)[0][0])  # keys are sorted
    witness_key = slc.keys[witness_idx]
    relabel = _relabel_to_original(t)
    if relabel is None:
        witness = slc.triangulation(witness_idx)
    else:
        pairs = frozenset(edge(relabel[a], relabel[b]) for a, b in witness_key)
        witness = Triangulation(t.polygon, pairs)
    layers = tuple(int(c) for c in np.bincount(dist))
    return EccentricityResult(ecc, witness, layers)


def distance_upper_bound(t: Triangulation, u: Triangulation) -> int:
    """2n-6-e where e is the best interior degree on either side; always an
    upper bound for the exact flip distance."""
    _require_same_polygon(t, u)
    e = max(t.max_interior_degree(), u.max_interior_degree())
    return 2 * t.n - 6 - e


def diameter_radius(n: int, max_nodes=None) -> tuple[int, int]:
    """Exact diameter and radius of the flip graph of the n-gon."""
    eccs = eccentricities(build_slice(n, max_nodes))
    return int(eccs.max()), int(eccs.min())
