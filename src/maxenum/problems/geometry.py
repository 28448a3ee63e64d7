"""Maximal obstacle-free convex hull plugins over integer point sets.

Solutions are subsets of the interest points whose closed convex hull
contains no obstacle (boundary counts as containment); the connected
variant additionally carries a graph on the interest points and demands
connectivity.  All predicates are exact integer arithmetic, never
floating point, and no hull is ever built: an instance computes, on first
use, a table (``Hulls.walls``) of a few interest-point masks per obstacle,
from the half-planes through it, and an obstacle lies inside a set's
closed hull exactly when the set's mask meets each of its masks.  Nothing
is memoized per set: completion asks the predicate on each grown set
through the default ``_extension_test``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from ..graphs import Graph, int_pair, parse_edge_lines, read_counted
from .base import Problem

COORD_LIMIT = 10 ** 6

Point = tuple[int, int]


class PointFormatError(ValueError):
    """Raised for malformed point-set input; message names the line."""


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

    def __init__(self, inst: PointSetInstance):
        if inst.graph is not None and not self.connected:
            raise ValueError(f"{self.variant} takes no graph on the points; "
                             "use hulls-connected")
        super().__init__(len(inst.interest))
        self.inst = inst

    @cached_property
    def walls(self) -> tuple[tuple[int, ...], ...]:
        """For each obstacle o, the minimal complements (as interest-point
        masks) of the sets L(o, p), p an interest point, where L(o, p) holds
        each q with cross(p - o, q - o) > 0, or = 0 with q on the open ray
        from o through p.  Built on first use, not with the instance.

        Each L(o, p) is convex and misses o, so o lies outside the hull of
        any set inside one.  Conversely, if o lies outside the hull of a
        non-empty Z, a line through o has Z strictly on one side; turned
        about o until it meets a point p of Z, it leaves Z inside L(o, p).
        So o lies inside the closed hull of a mask exactly when the mask
        meets every complement.  The empty set's hull holds nothing, and
        the empty mask alone misses ``full``, which every other complement
        lies inside: it is the table's one mask only when there are no
        interest points.
        """
        pts = self.inst.interest
        full = (1 << len(pts)) - 1
        table = []
        for ox, oy in self.inst.obstacles:
            vecs = [(x - ox, y - oy) for x, y in pts]
            comps = {full}
            for px, py in vecs:
                side = 0
                for i, (qx, qy) in enumerate(vecs):
                    cross = px * qy - py * qx
                    if cross > 0 or cross == 0 and px * qx + py * qy > 0:
                        side |= 1 << i
                comps.add(full ^ side)
            table.append(tuple(sorted(c for c in comps
                                      if not any(d != c and d & c == d for d in comps))))
        return tuple(table)

    def _first_inside(self, mask: int) -> Optional[int]:
        """The smallest index of an obstacle inside the closed hull of the
        masked points, or None."""
        for i, comps in enumerate(self.walls):
            for c in comps:
                if not mask & c:
                    break
            else:
                return i
        return None

    def _solution_mask(self, mask: int) -> bool:
        return self._first_inside(mask) is None

    def _shadow_masks(self, smask: int, v: int) -> list[int]:
        """Obstacle-free split pieces of the masked solution as seen when
        adding v.

        The smallest-index obstacle inside the current hull splits the piece
        by the line through v and the obstacle; points on the line are
        discarded; both sides recurse until obstacle-free.
        """
        vb = 1 << v
        pts = self.inst.interest
        vx, vy = pts[v]
        out: list[int] = []

        def rec(part: int):
            i = self._first_inside(part | vb)
            if i is None:
                out.append(part)
                return
            ox, oy = self.inst.obstacles[i]
            dx, dy = ox - vx, oy - vy
            above = below = 0
            while part:
                low = part & -part
                x, y = pts[low.bit_length() - 1]
                side = dx * (y - vy) - dy * (x - vx)
                if side > 0:
                    above |= low
                elif side < 0:
                    below |= low
                part ^= low
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
