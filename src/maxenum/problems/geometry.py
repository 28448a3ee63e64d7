"""Maximal obstacle-free convex hull plugins over integer point sets.

Solutions are subsets of the interest points whose closed convex hull
contains no obstacle (boundary counts as containment); the connected
variant additionally carries a graph on the interest points and demands
connectivity.  All predicates are exact integer arithmetic, never
floating point: each candidate set's hull is built once by Andrew's
monotone chain, and every obstacle is tested against its edges.
"""

from __future__ import annotations

from typing import Optional

from ..graphs import (Graph, bits, int_pair, mask_components, mask_of, parse_edge_lines,
                      read_counted)
from .base import Problem

COORD_LIMIT = 10 ** 6

Point = tuple[int, int]


class PointFormatError(ValueError):
    """Raised for malformed point-set input; message names the line."""


def orient(a: Point, b: Point, c: Point) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def on_segment(p: Point, a: Point, b: Point) -> bool:
    if orient(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def convex_hull(pts) -> list[Point]:
    """The closed convex hull of pts by Andrew's monotone chain: its
    corners counter-clockwise from the least point, collinear and repeated
    points dropped.  Fewer than three points or an all-collinear set give
    the distinct points, or a segment's two ends, in ascending order."""
    pts = sorted(set(pts))
    if len(pts) < 3:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) > 1 and orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) > 1 and orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def in_hull(p: Point, hull: list[Point]) -> bool:
    """Closed containment of p in a hull from ``convex_hull``: the boundary
    counts as inside, and an empty hull holds nothing."""
    if len(hull) < 3:
        # a point is the segment from itself to itself
        return bool(hull) and on_segment(p, hull[0], hull[-1])
    a = hull[-1]
    for b in hull:
        if orient(a, b, p) < 0:
            return False
        a = b
    return True


class PointSetInstance:
    """Interest points, obstacles, and an optional graph for connectivity."""

    def __init__(self, interest: list[Point], obstacles: list[Point],
                 graph: Optional[Graph] = None):
        for x, y in list(interest) + list(obstacles):
            if type(x) is not int or type(y) is not int:
                raise ValueError(f"coordinates must be integers: ({x!r},{y!r})")
            if abs(x) > COORD_LIMIT or abs(y) > COORD_LIMIT:
                raise ValueError(f"coordinate out of range: ({x},{y})")
        seen = set()
        for p in list(interest) + list(obstacles):
            if p in seen:
                raise ValueError(f"duplicate point {p}")
            seen.add(p)
        if graph is not None and graph.n != len(interest):
            raise ValueError("graph order must match the interest point count")
        self.interest = list(interest)
        self.obstacles = list(obstacles)
        self.graph = graph


def load_points(text: str) -> PointSetInstance:
    """Parse "j h [connected]", then j interest and h obstacle lines "x y",
    then edge lines "u v" when the connected marker is present.  As in
    ``load_graph``, blank and '#' comment lines are skipped, numbers are
    ASCII decimal integers with an optional sign, and duplicate edge lines
    are dropped; errors raise PointFormatError naming the line."""
    hline, j, h, connected, body = read_counted(text, "j h", "connected", PointFormatError)
    if len(body) < j + h:
        raise PointFormatError(f"line {hline}: expected {j + h} point lines")
    points = [int_pair(line.split(),
                       PointFormatError(f"line {lineno}: expected 'x y', got {line!r}"))
              for lineno, line in body[:j + h]]
    graph = None
    if connected:
        graph = Graph(j, parse_edge_lines(body[j + h:], j, False, PointFormatError))
    elif len(body) > j + h:
        raise PointFormatError(f"line {body[j + h][0]}: unexpected trailing line")
    try:
        return PointSetInstance(points[:j], points[j:], graph)
    except ValueError as exc:
        raise PointFormatError(str(exc)) from None


class Hulls(Problem):
    variant = "hulls"
    ground_kind = "v"
    RUN_MEMOS = (*Problem.RUN_MEMOS, "_inside_cache")  # obstacles inside a hull

    def __init__(self, inst: PointSetInstance):
        super().__init__(len(inst.interest))
        self.inst = inst

    def obstacles_inside(self, mask: int) -> tuple[int, ...]:
        """Indices of obstacles inside the closed hull of the masked points."""
        hit = self._inside_cache.get(mask)
        if hit is None:
            hull = convex_hull([self.inst.interest[i] for i in bits(mask)])
            hit = tuple(i for i, p in enumerate(self.inst.obstacles)
                        if in_hull(p, hull))
            self._inside_cache[mask] = hit
        return hit

    def _solution_mask(self, mask: int) -> bool:
        return not self.obstacles_inside(mask)

    def _shadow_masks(self, smask: int, v: int) -> list[int]:
        """Obstacle-free split pieces of the masked solution as seen when
        adding v.

        The smallest-index obstacle inside the current hull splits the piece
        by the line through v and the obstacle; points on the line are
        discarded; both sides recurse until obstacle-free.
        """
        vb = 1 << v
        pv = self.inst.interest[v]
        out: list[int] = []

        def rec(part: int):
            inside = self.obstacles_inside(part | vb)
            if not inside:
                out.append(part)
                return
            ob = self.inst.obstacles[inside[0]]
            above = below = 0
            for w in bits(part):
                o = orient(pv, ob, self.inst.interest[w])
                if o > 0:
                    above |= 1 << w
                elif o < 0:
                    below |= 1 << w
            rec(above)
            rec(below)

        rec(smask)
        return list(dict.fromkeys(out))

    def _candidates(self, smask: int, incoming):
        for v in incoming:
            for piece in self._shadow_masks(smask, v):
                yield piece | (1 << v)

    def comp_budget(self) -> int:
        return self.ground_size * (len(self.inst.obstacles) + 1)

    # these plugins rank closeness by raw intersection, not order prefixes
    def prefix_overlap(self, elems, target) -> int:
        return len(set(elems) & set(target))

    def canonical_order(self, solution):
        raise NotImplementedError("hull solutions carry no canonical order")


class HullsConnected(Hulls):
    variant = "hulls-connected"
    connected = True

    def __init__(self, inst: PointSetInstance):
        if inst.graph is None:
            raise ValueError(f"{self.variant} needs a graph on the points")
        if inst.graph.directed:
            raise ValueError(f"{self.variant} expects an undirected graph")
        super().__init__(inst)
        self.g = inst.graph
        self.adj_masks = inst.graph.und_mask

    def prefix_overlap(self, elems, target) -> int:
        # closeness is the largest connected piece of the intersection
        inter = mask_of(set(elems) & set(target))
        if not inter:
            return 0
        return max(c.bit_count()
                   for c in mask_components(self.g.und_mask, inter))
