"""Workload definitions and seeded instance generation.

A workload is an engine plus a list of cells; a cell is one problem variant
at one size, repeated over a few independently drawn instances.  A run
measures several parts of a workload, each in a pass of its own; part ``k``
holds instances ``k * count`` to ``(k + 1) * count - 1`` of every cell.
Every instance is drawn from ``random.Random`` seeded with a string built
from the run seed, the workload, the cell and the instance index, so the
same seed always gives the same inputs and resizing one cell leaves the
others alone.

Graphs are uniform random graphs with a fixed number of edges, G(n, M): at
the sizes used here a fixed M keeps the solution count and the completion
gap far steadier from seed to seed than G(n, p) does.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

# the seed whose solution sets are pinned in reference.json, for parts
# 0 to PINNED_PARTS - 1
PINNED_SEED = 1
PINNED_PARTS = 3


@dataclass(frozen=True)
class Cell:
    variant: str
    n: int                  # vertices, or interest points for hull variants
    m: int                  # edges (for hulls-connected: edges between interest points)
    count: int              # instances per part
    k: Optional[int] = None  # degeneracy bound of the kdeg variants
    obstacles: int = 0      # hull variants only
    side: int = 0           # hull variants only: coordinates drawn from [0, side]

    @property
    def label(self) -> str:
        return f"{self.variant}/n{self.n}m{self.m}"


@dataclass(frozen=True)
class Workload:
    engine: str   # "exp" or "pspace"
    cells: tuple[Cell, ...]


WORKLOADS = {
    "hereditary-exp": Workload(
        "exp",
        (
            Cell("trees", 18, 33, 12),
            Cell("forests", 18, 33, 12),
            Cell("bipartite-induced", 18, 33, 12),
            Cell("bipartite-induced-connected", 18, 33, 12),
            Cell("kdeg-induced", 18, 33, 12, k=1),
        ),
    ),
    "pspace-forest": Workload(
        "pspace",
        (
            Cell("trees", 12, 15, 20),
            Cell("forests", 12, 15, 20),
            Cell("bipartite-induced", 12, 15, 20),
            Cell("bipartite-induced-connected", 12, 15, 20),
        ),
    ),
    # pinterval costs 15-20 ms per solution, 20-100 times the other
    # families: few instances keep its gaps under 5% of the pooled sample,
    # so that delay_p95_ms falls where the gaps are dense
    "plugin-mix-exp": Workload(
        "exp",
        (
            Cell("chordal-induced", 14, 20, 32),
            Cell("chordal-induced-connected", 14, 20, 32),
            Cell("pinterval-induced", 8, 8, 12),
            Cell("pinterval-induced-connected", 8, 8, 12),
            Cell("chordal-edge", 8, 11, 32),
            Cell("bipartite-edge", 8, 12, 32),
            Cell("kdeg-edge", 8, 10, 32, k=1),
            Cell("dag-induced-connected", 11, 20, 32),
            Cell("dag-edge-connected", 9, 14, 32),
            Cell("hulls", 10, 0, 32, obstacles=8, side=16),
            Cell("hulls-connected", 10, 18, 32, obstacles=8, side=16),
        ),
    ),
}


def _random_edges(rng: random.Random, n: int, m: int, directed: bool):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = []
    for u, v in sorted(rng.sample(pairs, m)):
        edges.append((v, u) if directed and rng.random() < 0.5 else (u, v))
    return edges


def _has_cycle(n: int, arcs) -> bool:
    indeg = [0] * n
    out = [[] for _ in range(n)]
    for u, v in arcs:
        out[u].append(v)
        indeg[v] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return seen < n


def _random_points(rng: random.Random, count: int, side: int):
    seen, pts = set(), []
    while len(pts) < count:
        p = (rng.randint(0, side), rng.randint(0, side))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


def make_instances(maxenum, workload: str, seed: int, part: int):
    """(label, problem) pairs of one part of the workload for ``seed``, in a
    fixed order.

    ``maxenum`` is the imported package, passed in so that importing this
    module costs nothing and the caller decides where the package comes from.
    """
    out = []
    for cell in WORKLOADS[workload].cells:
        for i in range(part * cell.count, (part + 1) * cell.count):
            rng = random.Random(f"{seed}:{workload}:{cell.label}:{i}")
            out.append((f"{cell.label}#{i}", make_problem(maxenum, cell, rng)))
    return out


def make_problem(maxenum, cell: Cell, rng: random.Random):
    if cell.variant.startswith("hulls"):
        pts = _random_points(rng, cell.n + cell.obstacles, cell.side)
        graph = None
        if cell.variant == "hulls-connected":
            graph = maxenum.Graph(cell.n, _random_edges(rng, cell.n, cell.m, False))
        points = maxenum.PointSetInstance(pts[:cell.n], pts[cell.n:], graph)
        return maxenum.make_instance(cell.variant, points=points)
    directed = cell.variant.startswith("dag")
    edges = _random_edges(rng, cell.n, cell.m, directed)
    # an acyclic connected digraph is its own single maximal solution: redraw
    while directed and not _has_cycle(cell.n, edges):
        edges = _random_edges(rng, cell.n, cell.m, directed)
    graph = maxenum.Graph(cell.n, edges, directed=directed)
    return maxenum.make_instance(cell.variant, graph=graph, k=cell.k)


def set_digest(solutions) -> str:
    """Order-independent digest of a solution set."""
    return _digest(sorted(solutions))


def order_digest(solutions) -> str:
    """Digest of the solutions in emission order."""
    return _digest(solutions)


def _digest(seq) -> str:
    h = hashlib.sha256()
    for s in seq:
        h.update(repr(tuple(s)).encode())
        h.update(b";")
    return h.hexdigest()[:16]
