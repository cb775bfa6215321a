"""Flip moves, flip neighborhoods, and full flip-graph slices for one n.

A "key" below is the canonical form of a triangulation of the standard
polygon 0..n-1: the sorted tuple of its diagonals.  A "code" packs the same
triangulation into one int (`encode`), on which `neighbor_moves`, the move
generator behind the pair search, finds each flip with a few bit operations.
Slices hold every key of one n as rows of one int8 array (`key_array`),
index them by a uint64 degree code, and build their adjacency one column at
a time (`flip_columns`).
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
    """`override`, else POLYFLIP_NODE_BUDGET, else DEFAULT_NODE_BUDGET;
    `PreconditionError` when that is negative or no integer."""
    if override is None:
        env = os.environ.get("POLYFLIP_NODE_BUDGET")
        if not env:
            return DEFAULT_NODE_BUDGET
        try:
            override = int(env)
        except ValueError:
            raise PreconditionError(
                f"POLYFLIP_NODE_BUDGET={env!r} is not an integer node count"
            ) from None
    if override < 0:
        raise PreconditionError(f"the node budget {override} is negative")
    return override


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


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
def key_array(n: int) -> np.ndarray:
    """All triangulations of the standard n-gon as one read-only (N, n-3, 2)
    int8 array: row i holds the sorted diagonals of node i, and the rows are
    in lexicographic order.

    A triangulation of the polygon 0..m-1 puts an apex k on the base edge
    (0, m-1) and triangulates 0..k and k..m-1 independently, so the block of
    size m pairs every row of the size-(k+1) block with every row of the
    size-(m-k) block shifted by k.  While the blocks grow a diagonal (p, q)
    is held as p*n+q, so a shift by k adds k*(n+1).
    """
    if n < 3:
        raise PreconditionError("enumeration needs n >= 3")
    empty = np.zeros((1, 0), dtype=np.int16)
    blocks = {2: empty, 3: empty}
    for m in range(4, n + 1):
        parts = []
        for k in range(1, m - 1):
            left, right = blocks[k + 1], blocks[m - k] + k * (n + 1)
            count = len(left) * len(right)
            cols = [np.repeat(left, len(right), axis=0), np.tile(right, (len(left), 1))]
            if k > 1:
                cols.append(np.full((count, 1), k, dtype=np.int16))
            if m - 1 - k > 1:
                cols.append(np.full((count, 1), k * n + m - 1, dtype=np.int16))
            parts.append(np.hstack(cols))
        blocks[m] = np.concatenate(parts)
    rows = np.sort(blocks[n], axis=1)
    if rows.shape[1]:
        rows = rows[np.lexsort(rows.T[::-1])]
    keys = np.stack((rows // n, rows % n), axis=2).astype(np.int8)
    keys.setflags(write=False)
    return keys


@lru_cache(maxsize=32)
def all_keys(n: int) -> tuple:
    """All triangulation keys of the standard n-gon, lexicographically
    sorted: `key_array(n)` decoded to tuples, one shared tuple per
    diagonal.  No sweep reads it; slices hold `key_array` only."""
    keys = key_array(n)
    pairs = [(p, q) for p in range(n) for q in range(n)]
    rows = (keys[..., 0].astype(np.intp) * n + keys[..., 1]).tolist()
    return tuple(tuple(map(pairs.__getitem__, row)) for row in rows)


def enumerate_all(n: int):
    """Yield every triangulation of the standard n-gon exactly once, in
    lexicographic key order."""
    poly = Polygon.standard(n)
    for row in key_array(n).tolist():
        yield Triangulation(poly, frozenset(map(tuple, row)))


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


# -- slices --------------------------------------------------------------------
#
# A slice indexes its nodes by the interior-degree code: vertex v's interior
# degree, a digit below n-2, read in radix n-2 over v < n-1 (the last degree
# follows from the sum 2(n-3)).  The degrees determine the triangulation: a
# vertex of degree 0 is an ear, and cutting it off leaves the degrees of an
# (n-1)-gon triangulation.  A flip of (p, q) into (a, b) moves the code by
# w[a] + w[b] - w[p] - w[q].

@lru_cache(maxsize=32)
def code_weights(n: int) -> np.ndarray:
    """Per vertex, the uint64 weight of its interior degree in the code."""
    if (n - 2) ** (n - 1) > 1 << 64:
        raise PreconditionError(f"degree codes of the {n}-gon do not fit 64 bits (n <= 17)")
    weights = np.array([(n - 2) ** v for v in range(n - 1)] + [0], dtype=np.uint64)
    weights.setflags(write=False)
    return weights


def _neighbour_masks(n: int, keys: np.ndarray) -> np.ndarray:
    """[i, v]: the neighbours of vertex v in row i, bit w for neighbour w."""
    bits = np.array([1 << v for v in range(n)], dtype=np.min_scalar_type((1 << n) - 1))
    masks = np.tile(np.roll(bits, 1) | np.roll(bits, -1), (len(keys), 1))
    rows = np.arange(len(keys))
    for j in range(keys.shape[1]):
        p, q = keys[:, j, 0], keys[:, j, 1]
        masks[rows, p] |= bits[q]
        masks[rows, q] |= bits[p]
    return masks


def flip_columns(n: int, keys: np.ndarray):
    """The array move step.  For each column j of a (rows, n-3, 2) key
    array, yield (p, q, a, b): every row's diagonal (p, q) in column j and
    the diagonal (a, b), a < b, that flipping it inserts.  The apexes a and
    b are the low and high bit of the common-neighbour mask of p and q, the
    rule `neighbor_moves` applies to one code."""
    masks = _neighbour_masks(n, keys)
    rows = np.arange(len(keys))
    for j in range(keys.shape[1]):
        p, q = keys[:, j, 0], keys[:, j, 1]
        common = masks[rows, p] & masks[rows, q]
        a = np.bitwise_count(common ^ (common - 1)) - 1
        b = np.bitwise_count((common & (common - 1)) - 1)
        yield p, q, a, b


@dataclass(eq=False)
class FlipGraphSlice:
    """The fully materialized flip-graph on all triangulations of one n.

    Immutable after construction.  Node i has the diagonals `key_array[i]`
    and the neighbours `adjacency[i]`, column j flipping its j-th diagonal;
    node order is the lexicographic key order.  `index` holds the sorted
    degree codes and `order[k]` the node whose code is `index[k]`.
    """

    n: int
    key_array: np.ndarray
    index: np.ndarray
    order: np.ndarray
    adjacency: np.ndarray

    def __len__(self) -> int:
        return len(self.key_array)

    def triangulation(self, i: int) -> Triangulation:
        pairs = frozenset(map(tuple, self.key_array[i].tolist()))
        return Triangulation(Polygon.standard(self.n), pairs)

    def lookup(self, codes) -> np.ndarray:
        """The node of each degree code, or -1 where no node has it."""
        codes = np.asarray(codes, dtype=np.uint64)
        at = np.minimum(np.searchsorted(self.index, codes), len(self.index) - 1)
        return np.where(self.index[at] == codes, self.order[at], -1)

    def index_of(self, t: Triangulation) -> int:
        key = [list(d) for d in t.key_pairs()]
        if t.n == self.n:
            weights = code_weights(self.n)
            node = int(self.lookup([sum(int(weights[v]) for d in key for v in d)])[0])
            if node >= 0 and self.key_array[node].tolist() == key:
                return node
        raise PreconditionError(f"{t.text()} is no node of the n={self.n} slice")


@lru_cache(maxsize=8)
def _build_slice_cached(n: int) -> FlipGraphSlice:
    weights = code_weights(n)
    keys = key_array(n)
    codes = np.zeros(len(keys), dtype=np.uint64)
    for j in range(n - 3):
        codes += weights[keys[:, j, 0]] + weights[keys[:, j, 1]]
    order = np.argsort(codes).astype(np.int32)
    index = codes[order]
    adjacency = np.empty((len(keys), n - 3), dtype=np.int32)
    for j, (p, q, a, b) in enumerate(flip_columns(n, keys)):
        moved = codes + weights[a] + weights[b] - weights[p] - weights[q]
        adjacency[:, j] = order[np.searchsorted(index, moved)]
    for array in (index, order, adjacency):
        array.setflags(write=False)
    return FlipGraphSlice(n, keys, index, order, adjacency)


# Peak bytes per node of a slice build: 571 MB for the 2 674 440 nodes of
# n=16, the largest build measured; smaller n take fewer bytes per node.
_SLICE_BYTES_PER_NODE = 214


def build_slice(n: int, max_nodes=None) -> FlipGraphSlice:
    """The slice of the n-gon, cached.  Raises `BudgetExceededError` before
    building when it has more nodes than `node_budget(max_nodes)`, or when
    its estimated build peak exceeds half of physical memory."""
    if n < 3:
        raise PreconditionError("flip-graph slices need n >= 3")
    count = catalan(n - 2)
    budget = node_budget(max_nodes)
    if count > budget:
        raise BudgetExceededError(
            f"slice for n={n} has {count} nodes, above the budget of {budget}"
        )
    need, limit = _SLICE_BYTES_PER_NODE * count, _physical_memory() // 2
    if need > limit:
        raise BudgetExceededError(
            f"slice for n={n} needs about {need} bytes, above half of"
            f" physical memory ({limit} bytes)"
        )
    return _build_slice_cached(n)


def interior_degrees(slc: FlipGraphSlice) -> np.ndarray:
    """Interior degree of every vertex of every node, shape (nodes, n)."""
    nodes, n = len(slc), slc.n
    cells = slc.key_array.reshape(nodes, -1) + (np.arange(nodes) * n)[:, None]
    counts = np.bincount(cells.ravel(), minlength=nodes * n)
    return counts.reshape(nodes, n).astype(np.int32)


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
    key_arr = slc.key_array.astype(np.int64)  # (N, D, 2)
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
