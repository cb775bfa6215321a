"""Flip-graph oracle that shares no code with polyflip.

A triangulation of the standard n-gon is an int with one bit per diagonal
slot p*n+q (p<q).  The whole flip graph of one n is built by breadth-first
discovery from the fan at vertex 0, and distances come from a level-by-level
array BFS.  The benchmark uses it to draw pair queries at prescribed
distances, to check every distance polyflip reports, and to replay every
geodesic move by move.
"""
from __future__ import annotations

import numpy as np


def slot(n: int, p: int, q: int) -> int:
    return p * n + q if p < q else q * n + p


def encode(n: int, diagonals) -> int:
    key = 0
    for p, q in diagonals:
        key |= 1 << slot(n, p, q)
    return key


def decode(n: int, key: int) -> list:
    out = []
    while key:
        low = key & -key
        s = low.bit_length() - 1
        out.append((s // n, s % n))
        key ^= low
    return out


def neighbor_masks(n: int, key: int) -> list:
    """Per vertex, the bitmask of its neighbours (boundary and diagonals)."""
    nb = [(1 << ((v + 1) % n)) | (1 << ((v - 1) % n)) for v in range(n)]
    for p, q in decode(n, key):
        nb[p] |= 1 << q
        nb[q] |= 1 << p
    return nb


def flip(n: int, key: int, p: int, q: int, nb=None) -> tuple[int, tuple[int, int]]:
    """Flip diagonal (p,q) of key; returns the new key and the inserted
    diagonal.  Raises ValueError when (p,q) is not a diagonal of key."""
    bit = 1 << slot(n, p, q)
    if not key & bit:
        raise ValueError(f"({p},{q}) is not a diagonal")
    if nb is None:
        nb = neighbor_masks(n, key)
    common = nb[p] & nb[q]
    a = (common & -common).bit_length() - 1
    b = common.bit_length() - 1
    if a == b or common & ~((1 << a) | (1 << b)):
        raise ValueError(f"({p},{q}) does not bound exactly two triangles")
    return key ^ bit ^ (1 << slot(n, a, b)), (a, b)


def fan_key(n: int) -> int:
    return encode(n, [(0, j) for j in range(2, n - 1)])


class FlipGraph:
    """Every triangulation of the standard n-gon with its n-3 flip
    neighbours, as an int32 adjacency array."""

    def __init__(self, n: int):
        self.n = n
        start = fan_key(n)
        self.index = {start: 0}
        self.keys = [start]
        rows = []
        i = 0
        while i < len(self.keys):
            key = self.keys[i]
            nb = neighbor_masks(n, key)
            row = []
            for p, q in decode(n, key):
                new, _ = flip(n, key, p, q, nb)
                j = self.index.get(new)
                if j is None:
                    j = self.index[new] = len(self.keys)
                    self.keys.append(new)
                row.append(j)
            rows.append(row)
            i += 1
        self.adjacency = np.array(rows, dtype=np.int32).reshape(len(self.keys), max(n - 3, 0))

    def __len__(self) -> int:
        return len(self.keys)

    def distances(self, source: int) -> np.ndarray:
        dist = np.full(len(self.keys), -1, dtype=np.int32)
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        while frontier.size and self.adjacency.shape[1]:
            level += 1
            reached = self.adjacency[frontier].ravel()
            reached = np.unique(reached[dist[reached] < 0])
            dist[reached] = level
            frontier = reached
        return dist


def replay(n: int, t_diagonals, u_diagonals, moves) -> str | None:
    """Apply each (removed, inserted) move to t; None when every move is a
    legal flip and the walk ends at u, otherwise what went wrong."""
    key = encode(n, t_diagonals)
    for step, (removed, inserted) in enumerate(moves):
        try:
            key, got = flip(n, key, *removed)
        except ValueError as exc:
            return f"move {step}: {exc}"
        if got != tuple(sorted(inserted)):
            return f"move {step}: flipping {removed} inserts {got}, not {inserted}"
    if key != encode(n, u_diagonals):
        return "the geodesic does not end at u"
    return None
