"""Exact flip distances, eccentricities, and flip-graph diameter/radius.

Pair queries run a bidirectional BFS on the implicit graph so they never
need Catalan-sized memory; sweeps use a materialized slice and array BFS.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BudgetExceededError,
    PreconditionError,
    Triangulation,
    TriangulationError,
    edge,
)
from .flips import (
    FlipGraphSlice,
    FlipMove,
    _physical_memory,
    build_slice,
    encode,
    neighbor_moves,
    node_budget,
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


def flip_distance(t: Triangulation, u: Triangulation, max_nodes=None) -> DistanceResult:
    """Exact shortest flip path, with one realizing geodesic.

    Bidirectional BFS over packed codes (`flips.encode`).  Each frontier is
    expanded in key order and the first parent found is kept, so repeated
    runs return the same geodesic.  Raises `BudgetExceededError` once both
    sides together hold more keys than `node_budget(max_nodes)`.
    """
    _require_same_polygon(t, u)
    n = t.n
    start, goal = encode(n, t.key_pairs()), encode(n, u.key_pairs())
    if start == goal:
        return DistanceResult(0, ())
    budget = node_budget(max_nodes)

    # parents[side][code] = (previous code, removed, inserted) or None at the
    # root; frontiers descend by code, which is ascending key order
    parents = ({start: None}, {goal: None})
    frontiers = [[start], [goal]]
    meet = None
    while meet is None:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        seen, other = parents[side], parents[1 - side]
        grown = []
        for code in frontiers[side]:
            for removed, new_code, inserted in neighbor_moves(n, code):
                if new_code not in seen:
                    seen[new_code] = (code, removed, inserted)
                    grown.append(new_code)
            if len(seen) + len(other) > budget:
                raise BudgetExceededError(
                    f"flip distance search for n={n} holds {len(seen) + len(other)}"
                    f" keys, above the budget of {budget}"
                )
        frontiers[side] = sorted(grown, reverse=True)
        touching = [code for code in grown if code in other]
        if touching:
            meet = max(touching)

    forward = []
    code = meet
    while parents[0][code] is not None:
        code, removed, inserted = parents[0][code]
        forward.append(_move(removed, inserted))
    forward.reverse()
    backward = []
    code = meet
    while parents[1][code] is not None:
        code, removed, inserted = parents[1][code]
        backward.append(_move(inserted, removed))
    moves = forward + backward
    relabel = _relabel_to_original(t)
    if relabel is not None:
        moves = [_relabel_move(m, relabel) for m in moves]
    return DistanceResult(len(moves), tuple(moves))


def _move(removed: tuple, inserted: tuple) -> FlipMove:
    return FlipMove(removed, inserted, tuple(sorted(removed + inserted)))


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


def _reach_levels(cols: list, nodes: int, batch: np.ndarray):
    """Bit-parallel BFS (Akiba, Iwata and Yoshida, SIGMOD 2013) from up to
    64 distinct nodes `batch` at once, over the adjacency columns `cols`.
    Yields, for levels 1, 2, ..., a uint64 mask per node whose bit s is set
    when batch[s] first reaches that node at that level."""
    frontier = np.zeros(nodes, dtype=np.uint64)
    frontier[batch] = np.uint64(1) << np.arange(len(batch), dtype=np.uint64)
    visited = frontier.copy()
    while True:
        reach = np.zeros(nodes, dtype=np.uint64)
        for col in cols:
            reach |= frontier[col]
        reach &= ~visited
        if not reach.any():
            return
        visited |= reach
        yield reach
        frontier = reach


def farthest(slc: FlipGraphSlice, sources, targets=None) -> np.ndarray:
    """Per source, its greatest distance to any node of the boolean mask
    `targets`; with no mask that is every node, so the eccentricity.

    Runs the bit-parallel BFS, 64 distinct sources per pass, and keeps per
    source the last level that reached a target.  A source reaching no
    target reports 0.
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
        for level, reach in enumerate(_reach_levels(cols, nodes, batch), 1):
            hit = np.bitwise_or.reduce(reach if targets is None else reach[targets])
            reached = ((hit >> shifts) & np.uint64(1)).astype(bool)
            out[start : start + len(batch)][reached] = level
    return out[back]


def distance_rows(slc: FlipGraphSlice, sources):
    """Yield (source, row) for each of the node indices `sources`, in order:
    `row` is the int16 distance from that node to every node.

    Runs the bit-parallel BFS, one pass per 64 sources, each distinct
    source once, and adds each level's unpacked masks, times the level, into
    the distances of the pass.
    """
    idx = _node_indices(slc, sources)
    nodes = len(slc)
    cols = [np.ascontiguousarray(c, dtype=np.intp) for c in slc.adjacency.T]
    for start in range(0, len(idx), 64):
        chunk = idx[start : start + 64]
        batch, back = np.unique(chunk, return_inverse=True)
        dist = np.zeros((nodes, len(batch)), dtype=np.int16)
        for level, reach in enumerate(_reach_levels(cols, nodes, batch), 1):
            # byte k of a little-endian uint64 holds bits 8k..8k+7
            bits = np.unpackbits(
                reach.astype("<u8").view(np.uint8).reshape(nodes, 8),
                axis=1, count=len(batch), bitorder="little",
            )
            dist += bits * np.int16(level)
        yield from zip(chunk.tolist(), np.ascontiguousarray(dist.T[back]))


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


def distance_matrix(n: int, max_nodes=None) -> np.ndarray:
    """All-pairs distances of the flip graph of the standard n-gon.

    Raises `BudgetExceededError` before allocating when the int16 matrix
    would take more than half of physical memory."""
    slc = build_slice(n, max_nodes)
    nodes = len(slc)
    need, limit = 2 * nodes * nodes, _physical_memory() // 2
    if need > limit:
        raise BudgetExceededError(
            f"distance matrix for n={n} needs {need} bytes, above half of"
            f" physical memory ({limit} bytes)"
        )
    mat = np.empty((nodes, nodes), dtype=np.int16)
    for source, row in distance_rows(slc, range(nodes)):
        mat[source] = row
    mat.setflags(write=False)
    return mat


def eccentricity(t: Triangulation, max_nodes=None) -> EccentricityResult:
    """Max distance from t to any triangulation, via one full-slice BFS.

    The witness is the lexicographically smallest key in the last layer.
    """
    slc = build_slice(t.n, max_nodes)
    dist = bfs_distances(slc, slc.index_of(t))
    ecc = int(dist.max())
    witness = slc.triangulation(int(np.nonzero(dist == ecc)[0][0]))  # keys are sorted
    relabel = _relabel_to_original(t)
    if relabel is not None:
        pairs = frozenset(edge(relabel[a], relabel[b]) for a, b in witness.diagonals)
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
