"""Flip moves, flip neighborhoods, and full flip-graph slices for one n.

A "key" below is the canonical form of a triangulation of the standard
polygon 0..n-1: the sorted tuple of its diagonals.  A "code" packs the same
triangulation into one int (`encode`), on which `neighbor_moves`, the one
move generator behind the pair search and the slice build, finds each
flip with a few bit operations.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    BudgetExceededError,
    InvalidEdgeError,
    InvalidFlipError,
    Polygon,
    PreconditionError,
    Triangulation,
    edge,
)

DEFAULT_NODE_BUDGET = 250_000


def node_budget(override=None) -> int:
    if override is not None:
        return override
    env = os.environ.get("POLYFLIP_NODE_BUDGET")
    if not env:
        return DEFAULT_NODE_BUDGET
    try:
        return int(env)
    except ValueError:
        raise PreconditionError(
            f"POLYFLIP_NODE_BUDGET={env!r} is not an integer node count"
        ) from None


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


@dataclass(frozen=True)
class FlipMove:
    """One flip: `removed` is replaced by `inserted` inside quadrilateral
    `quad` (its four vertices, sorted)."""

    removed: tuple[int, int]
    inserted: tuple[int, int]
    quad: tuple[int, int, int, int]

    def reversed(self) -> "FlipMove":
        return FlipMove(self.inserted, self.removed, self.quad)

    def to_json_obj(self) -> dict:
        return {"removed": list(self.removed), "inserted": list(self.inserted)}


def flip(t: Triangulation, d) -> tuple[Triangulation, FlipMove]:
    """Replace diagonal d by the opposite diagonal of its quadrilateral."""
    d = edge(*d)
    if d not in t.diagonals:
        raise InvalidFlipError(f"{d} is not a diagonal of the triangulation")
    p, q = d
    all_edges = t.edges()
    apexes = [
        w
        for w in t.polygon.vertices
        if w != p and w != q and edge(p, w) in all_edges and edge(q, w) in all_edges
    ]
    assert len(apexes) == 2, "a diagonal always bounds exactly two triangles"
    inserted = edge(*apexes)
    move = FlipMove(d, inserted, tuple(sorted((p, q) + tuple(apexes))))
    flipped = Triangulation(t.polygon, (t.diagonals - {d}) | {inserted})
    return flipped, move


def neighbors(t: Triangulation) -> list[Triangulation]:
    """The n-3 triangulations one flip away, in sorted-diagonal order."""
    return [flip(t, d)[0] for d in sorted(t.diagonals)]


def flip_incident_to(t: Triangulation, d, e) -> bool:
    """True iff flipping d affects the triangle of t incident to boundary
    edge e, i.e. e is a side of d's quadrilateral: a boundary edge with
    both ends among the quadrilateral's vertices is one of its sides."""
    d = edge(*d)
    e = edge(*e)
    if not t.polygon.is_boundary(e):
        raise InvalidEdgeError(f"{e} is not a boundary edge")
    if d not in t.diagonals:
        raise InvalidFlipError(f"{d} is not a diagonal of the triangulation")
    return set(e) <= set(flip(t, d)[1].quad)


# -- canonical enumeration ---------------------------------------------------

@lru_cache(maxsize=32)
def all_keys(n: int) -> tuple:
    """All triangulation keys of the standard n-gon, lexicographically sorted.

    Generated by recursively choosing the apex of the triangle resting on the
    (i,j) base edge, which produces every triangulation exactly once.
    """
    if n < 3:
        raise PreconditionError("enumeration needs n >= 3")

    memo: dict[tuple[int, int], list[tuple]] = {}

    def rec(i: int, j: int) -> list[tuple]:
        if j - i < 2:
            return [()]
        got = memo.get((i, j))
        if got is not None:
            return got
        out = []
        for k in range(i + 1, j):
            extra = ()
            if k - i > 1:
                extra += ((i, k),)
            if j - k > 1:
                extra += ((k, j),)
            for left in rec(i, k):
                for right in rec(k, j):
                    out.append(left + right + extra)
        memo[(i, j)] = out
        return out

    return tuple(sorted(tuple(sorted(ds)) for ds in rec(0, n - 1)))


def enumerate_all(n: int):
    """Yield every triangulation of the standard n-gon exactly once."""
    poly = Polygon.standard(n)
    for key in all_keys(n):
        yield Triangulation(poly, frozenset(key))


# -- packed codes ------------------------------------------------------------
#
# Every edge {v,w} of a triangulation, boundary edges included, sets bit
# (n-1-v)*n + (n-1-w) and its mirror, so the n bits from (n-1-v)*n up are v's
# neighbour mask with neighbour w at bit n-1-w.  The least diagonal of a
# symmetric difference then owns the highest differing bit, which makes
# ascending key order exactly descending code order.

@lru_cache(maxsize=32)
def _code_tables(n: int) -> tuple:
    """(toggle, boundary, above): toggle[v][w] flips edge {v,w} in a code,
    boundary is the code of the bare polygon, and above[p] (p < n-2) masks
    the neighbours q of p that would make (p,q) a diagonal with p < q."""
    toggle = [
        [(1 << ((n - 1 - v) * n + n - 1 - w)) | (1 << ((n - 1 - w) * n + n - 1 - v))
         if v != w else 0 for w in range(n)]
        for v in range(n)
    ]
    boundary = 0
    for v in range(n):
        boundary |= toggle[v][(v + 1) % n]
    above = [(1 << (n - 2 - p)) - 1 for p in range(n - 2)]
    above[0] &= ~1  # (0, n-1) is a boundary edge
    return toggle, boundary, above


def encode(n: int, key) -> int:
    """The packed code of the triangulation of the standard n-gon whose
    diagonals are `key`."""
    toggle, code, _ = _code_tables(n)
    for p, q in key:
        code |= toggle[p][q]
    return code


def decode(n: int, code: int) -> tuple:
    """The key (sorted diagonal tuple) of a packed code."""
    return tuple(removed for removed, _, _ in neighbor_moves(n, code))


def neighbor_moves(n: int, code: int):
    """Yield (removed, new_code, inserted) for each diagonal of the coded
    triangulation, in sorted-diagonal order.  The inserted diagonal joins
    the removed one's two common neighbours."""
    toggle, _, above = _code_tables(n)
    full = (1 << n) - 1
    rows = [(code >> ((n - 1 - v) * n)) & full for v in range(n)]
    for p in range(n - 2):
        row = rows[p]
        rest = row & above[p]
        while rest:
            top = rest.bit_length() - 1
            rest ^= 1 << top
            q = n - 1 - top
            common = row & rows[q]
            a = n - common.bit_length()
            b = n - (common & -common).bit_length()
            yield (p, q), code ^ toggle[p][q] ^ toggle[a][b], (a, b)


@dataclass
class FlipGraphSlice:
    """The fully materialized flip-graph on all triangulations of one n.

    Immutable after construction; node i is `keys[i]` and its neighbors are
    `adjacency[i]`.  Node order is the lexicographic key order, and `index`
    maps each node's packed code (`encode`) to its position.
    """

    n: int
    keys: tuple
    index: dict
    adjacency: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)

    def triangulation(self, i: int) -> Triangulation:
        return Triangulation(Polygon.standard(self.n), frozenset(self.keys[i]))

    def index_of(self, t: Triangulation) -> int:
        return self.index[encode(self.n, t.key_pairs())]


@lru_cache(maxsize=8)
def _build_slice_cached(n: int) -> FlipGraphSlice:
    keys = all_keys(n)
    index = {encode(n, key): i for i, key in enumerate(keys)}
    deg = max(n - 3, 0)
    moves = (index[new] for code in index for _, new, _ in neighbor_moves(n, code))
    adjacency = np.fromiter(moves, dtype=np.int32, count=len(keys) * deg)
    adjacency = adjacency.reshape(len(keys), deg)
    adjacency.setflags(write=False)
    return FlipGraphSlice(n, keys, index, adjacency)


def build_slice(n: int, max_nodes=None) -> FlipGraphSlice:
    if n < 3:
        raise PreconditionError("flip-graph slices need n >= 3")
    count = catalan(n - 2)
    budget = node_budget(max_nodes)
    if count > budget:
        raise BudgetExceededError(
            f"slice for n={n} has {count} nodes, above the budget of {budget}"
        )
    return _build_slice_cached(n)


def interior_degrees(slc: FlipGraphSlice) -> np.ndarray:
    """Interior degree of every vertex of every node, shape (nodes, n)."""
    nodes = len(slc)
    counts = np.zeros((nodes, slc.n), dtype=np.int32)
    if slc.n == 3:
        return counts
    flat = np.array(slc.keys, dtype=np.int64).reshape(nodes, -1)
    rows = np.repeat(np.arange(nodes), flat.shape[1])
    np.add.at(counts, (rows, flat.ravel()), 1)
    return counts


def max_degrees(slc: FlipGraphSlice) -> np.ndarray:
    """Maximum interior degree of each node of the slice."""
    return interior_degrees(slc).max(axis=1)


def orbit_codes(slc: FlipGraphSlice) -> np.ndarray:
    """Per node, the lexicographically least encoded key over the 2n dihedral
    relabelings; equal rows mean same orbit.

    Relabeling by a rotation or reflection of the polygon is a flip-graph
    automorphism, so eccentricity sweeps only need one node per orbit.
    """
    nodes = len(slc)
    if slc.n == 3 or nodes == 1:
        return np.zeros((nodes, 1), dtype=np.int64)
    n = slc.n
    key_arr = np.array(slc.keys, dtype=np.int64)  # (N, D, 2)
    own = np.sort(key_arr[:, :, 0] * n + key_arr[:, :, 1], axis=1)
    best = own.copy()
    for reflected in (False, True):
        for r in range(n):
            if not reflected and r == 0:
                continue
            mapped = (r - key_arr) % n if reflected else (key_arr + r) % n
            lo = mapped.min(axis=2)
            hi = mapped.max(axis=2)
            code = np.sort(lo * n + hi, axis=1)
            differs = code != best
            any_diff = differs.any(axis=1)
            first = np.argmax(differs, axis=1)
            rows = np.arange(nodes)
            smaller = any_diff & (code[rows, first] < best[rows, first])
            best[smaller] = code[smaller]
    return best


def orbit_representatives(slc: FlipGraphSlice) -> np.ndarray:
    """Indices of the lexicographically-least node of each dihedral orbit.

    An orbit's code is the key of its least member and node order is key
    order, so each code's first occurrence is that member.
    """
    _, first = np.unique(orbit_codes(slc), axis=0, return_index=True)
    return np.sort(first)
