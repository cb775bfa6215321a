"""Convex polygons, their triangulations, and exact combinatorial predicates.

Everything here is purely combinatorial: a polygon is a clockwise cyclic
sequence of distinct labels and "crossing" is decided by cyclic separation,
never by coordinates.  All values are immutable and hashable.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable


class TriangulationError(Exception):
    """Base class for every error raised by this package."""


class InvalidEdgeError(TriangulationError):
    pass


class CrossingError(TriangulationError):
    def __init__(self, first: tuple, second: tuple):
        super().__init__(f"edges {first} and {second} cross")
        self.first = first
        self.second = second


class MaximalityError(TriangulationError):
    pass


class PolygonTooSmallError(TriangulationError):
    pass


class InvalidFlipError(TriangulationError):
    pass


class PreconditionError(TriangulationError):
    pass


class NoShellingError(TriangulationError):
    pass


class EmptyWitnessSetError(TriangulationError):
    """Raised when a witness family is provably empty for the given inputs."""


class BudgetExceededError(TriangulationError):
    """An exhaustive computation would exceed the configured resource budget."""


def edge(a: int, b: int) -> tuple[int, int]:
    """Normalize an unordered vertex pair to a sorted tuple."""
    if a == b:
        raise InvalidEdgeError(f"degenerate edge ({a},{b})")
    return (a, b) if a < b else (b, a)


@lru_cache(maxsize=None)
def _position_map(vertices: tuple) -> dict:
    return {v: i for i, v in enumerate(vertices)}


@dataclass(frozen=True)
class Polygon:
    """A convex polygon given by its vertex labels in clockwise order."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise PolygonTooSmallError("a polygon needs at least 3 vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise TriangulationError("vertex labels must be pairwise distinct")
        if any((not isinstance(v, int)) or v < 0 for v in self.vertices):
            raise TriangulationError("vertex labels must be non-negative integers")

    @staticmethod
    def standard(n: int) -> "Polygon":
        return Polygon(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def __contains__(self, v) -> bool:
        return v in _position_map(self.vertices)

    def position(self, v: int) -> int:
        try:
            return _position_map(self.vertices)[v]
        except KeyError:
            raise InvalidEdgeError(f"vertex {v} is not in the polygon") from None

    def vertex_at(self, i: int) -> int:
        return self.vertices[i % self.n]

    def succ(self, v: int) -> int:
        return self.vertex_at(self.position(v) + 1)

    def pred(self, v: int) -> int:
        return self.vertex_at(self.position(v) - 1)

    def oriented_length(self, a: int, b: int) -> int:
        """Clockwise step count from a to b; l(a,b) + l(b,a) = n."""
        if a == b:
            raise InvalidEdgeError("oriented length requires distinct endpoints")
        return (self.position(b) - self.position(a)) % self.n

    def left_of(self, a: int, b: int) -> tuple[int, ...]:
        """Vertices strictly between a and b, walking clockwise from a."""
        i = self.position(a)
        steps = self.oriented_length(a, b)
        return tuple(self.vertex_at(i + s) for s in range(1, steps))

    def right_of(self, a: int, b: int) -> tuple[int, ...]:
        return self.left_of(b, a)

    def is_boundary(self, e: Iterable[int]) -> bool:
        a, b = e
        return self.succ(a) == b or self.succ(b) == a

    def boundary_edges(self) -> frozenset:
        vs = self.vertices
        return frozenset(edge(vs[i], vs[(i + 1) % self.n]) for i in range(self.n))

    def delete(self, a: int) -> "Polygon":
        if self.n == 3:
            raise PolygonTooSmallError("cannot delete a vertex from a triangle")
        self.position(a)
        return Polygon(tuple(v for v in self.vertices if v != a))


def canonical_order(polygon: Polygon) -> tuple:
    """The polygon's labels clockwise from its smallest one: canonical label
    i, the label in every key, stands for vertex canonical_order(polygon)[i]."""
    vs = polygon.vertices
    start = polygon.position(min(vs))
    return vs[start:] + vs[:start]


def crossing(polygon: Polygon, e1: Iterable[int], e2: Iterable[int]) -> bool:
    """True iff the two edges cross, i.e. their endpoints separate each other
    on the polygon's cyclic order.  Edges sharing an endpoint never cross."""
    a, b = edge(*e1)
    c, d = edge(*e2)
    for v in (a, b, c, d):
        polygon.position(v)
    if {a, b} & {c, d}:
        return False
    arc = polygon.oriented_length(a, b)

    def inside(w: int) -> bool:
        return 0 < polygon.oriented_length(a, w) < arc

    return inside(c) != inside(d)


@dataclass(frozen=True)
class Triangulation:
    """A maximal set of pairwise non-crossing diagonals of a polygon.

    Construct through :func:`validate_triangulation` unless the diagonal set
    is already known to be valid.
    """

    polygon: Polygon
    diagonals: frozenset

    @property
    def n(self) -> int:
        return self.polygon.n

    @cached_property
    def _neighbour_map(self) -> dict:
        """Each vertex's neighbours along all edges, boundary edges included;
        computed once per object, outside equality and hashing."""
        vs = self.polygon.vertices
        nbrs = {v: {vs[i - 1], vs[(i + 1) % len(vs)]} for i, v in enumerate(vs)}
        for a, b in self.diagonals:
            nbrs[a].add(b)
            nbrs[b].add(a)
        return {v: frozenset(ws) for v, ws in nbrs.items()}

    def neighbours(self, v: int) -> frozenset:
        """The vertices joined to v by an edge, boundary edges included."""
        try:
            return self._neighbour_map[v]
        except KeyError:
            raise InvalidEdgeError(f"vertex {v} is not in the polygon") from None

    def edges(self) -> frozenset:
        return self.diagonals | self.polygon.boundary_edges()

    def has_edge(self, e: Iterable[int]) -> bool:
        a, b = edge(*e)
        return b in self._neighbour_map.get(a, ())

    def interior_degree(self, v: int) -> int:
        return len(self.neighbours(v)) - 2

    def max_interior_degree(self) -> int:
        return max(map(len, self._neighbour_map.values())) - 2

    def comb_gap(self) -> int:
        """n-3 minus the largest interior degree; zero exactly for combs."""
        return (self.n - 3) - self.max_interior_degree()

    def ears(self) -> frozenset:
        return frozenset(v for v, ws in self._neighbour_map.items() if len(ws) == 2)

    def triangles(self) -> list[tuple[int, int, int]]:
        """The n-2 triangles, each as a clockwise triple starting at its
        smallest label."""
        poly = self.polygon
        found = set()
        for v, ws in self._neighbour_map.items():
            pv = poly.position(v)
            ordered = sorted(ws, key=lambda w: (poly.position(w) - pv) % poly.n)
            for q, r in zip(ordered, ordered[1:]):
                # the star of v is a fan, so consecutive neighbors are joined
                tri = (v, q, r)
                i = tri.index(min(tri))
                found.add((tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]))
        return sorted(found)

    def delete(self, a: int) -> "Triangulation":
        """Vertex deletion: drop the boundary edge to a's clockwise successor
        and substitute the successor for a in every remaining edge."""
        if self.n < 4:
            raise PolygonTooSmallError("vertex deletion needs n >= 4")
        poly = self.polygon
        b = poly.succ(a)
        smaller = poly.delete(a)
        relabeled = set()
        for u, w in self.diagonals:
            if u == a:
                u = b
            elif w == a:
                w = b
            if u != w and not smaller.is_boundary((u, w)):
                relabeled.add(edge(u, w))
        return validate_triangulation(smaller, relabeled)

    def canonical_key(self) -> tuple:
        """(n, sorted diagonals) after relabeling clockwise positions to
        0..n-1 starting from the smallest label."""
        label = {v: i for i, v in enumerate(canonical_order(self.polygon))}
        pairs = tuple(sorted(edge(label[a], label[b]) for a, b in self.diagonals))
        return (self.n, pairs)

    def key_pairs(self) -> tuple:
        """The canonical diagonal list alone (labels 0..n-1 by position)."""
        return self.canonical_key()[1]

    def text(self) -> str:
        pairs = self.key_pairs()
        body = ",".join(f"{a}-{b}" for a, b in pairs)
        return f"n={self.n};{body}"

    def to_json_obj(self) -> dict:
        return {"n": self.n, "diagonals": [list(p) for p in self.key_pairs()]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @staticmethod
    def from_text(s: str) -> "Triangulation":
        m = re.fullmatch(r"n=(\d+);(.*)", s.strip())
        if not m:
            raise TriangulationError(f"bad triangulation literal: {s!r}")
        n = int(m.group(1))
        return Triangulation.from_pairs(n, parse_diagonals(m.group(2)))

    @staticmethod
    def from_json(s: str) -> "Triangulation":
        obj = json.loads(s)
        return Triangulation.from_pairs(obj["n"], [tuple(p) for p in obj["diagonals"]])

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> "Triangulation":
        return validate_triangulation(Polygon.standard(n), set(edge(*p) for p in pairs))


def parse_diagonals(body: str) -> list[tuple[int, int]]:
    """Parse a bare ``i-j,i-j`` diagonal list (the CLI literal form)."""
    body = body.strip()
    if not body:
        return []
    pairs = []
    for chunk in body.split(","):
        m = re.fullmatch(r"\s*(\d+)-(\d+)\s*", chunk)
        if not m:
            raise TriangulationError(f"bad diagonal literal: {chunk!r}")
        pairs.append((int(m.group(1)), int(m.group(2))))
    return pairs


def validate_triangulation(polygon: Polygon, diagonals: Iterable) -> Triangulation:
    """Check the diagonal set and return the triangulation, or raise.

    Raises CrossingError on the first crossing pair (in sorted order) and
    MaximalityError when the cardinality is not n-3.
    """
    diags = set()
    for e in diagonals:
        e = edge(*e)
        for v in e:
            polygon.position(v)
        if polygon.is_boundary(e):
            raise InvalidEdgeError(f"{e} is a boundary edge, not a diagonal")
        diags.add(e)
    ordered = sorted(diags)
    for i, e1 in enumerate(ordered):
        for e2 in ordered[i + 1:]:
            if crossing(polygon, e1, e2):
                raise CrossingError(e1, e2)
    if len(diags) != polygon.n - 3:
        raise MaximalityError(
            f"expected {polygon.n - 3} diagonals for n={polygon.n}, got {len(diags)}"
        )
    return Triangulation(polygon, frozenset(diags))

