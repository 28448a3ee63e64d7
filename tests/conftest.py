"""Shared fixtures: named small graphs, seeded random instances, the
acceptance corpus (100 runs per problem variant, reused across criteria)
and the dictionary-free engine's runs on the same instances."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest

from maxenum import (Graph, PointSetInstance, brute_force_maximal,
                     enumerate_exp, enumerate_pspace)
from maxenum.problems import ALL_VARIANTS, PSPACE_VARIANTS, make_instance

from past_oracle import chained_triangles, disjoint_triangles  # noqa: F401  (shared builders)


# -- named instances ---------------------------------------------------------

def triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def directed_triangle():
    return Graph(3, [(0, 1), (1, 2), (2, 0)], directed=True)


def exp_solutions(inst) -> list:
    """The solutions the exp engine emits for inst, in emission order."""
    sols = []
    enumerate_exp(inst, emit=sols.append)
    return sols


def components(g, s):
    """Connected components of G[s] (arcs taken as undirected), each a set,
    ordered by smallest vertex: a plain BFS over neighbor sets read from
    ``g.edges``, independent of the bitmask tables and helpers the package
    uses."""
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    left = set(s)
    out = []
    while left:
        comp = {min(left)}
        todo = list(comp)
        while todo:
            for w in nbrs[todo.pop()]:
                if w in left and w not in comp:
                    comp.add(w)
                    todo.append(w)
        out.append(comp)
        left -= comp
    return out


# -- random instance corpus --------------------------------------------------

EDGE_VARIANTS = ("bipartite-edge", "kdeg-edge", "chordal-edge",
                 "dag-edge-connected")
POINT_VARIANTS = ("hulls", "hulls-connected")


def random_graph(rng, n, p, directed=False, max_m=None):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                if directed and rng.random() < 0.5:
                    edges.append((v, u))
                else:
                    edges.append((u, v))
    if max_m is not None and len(edges) > max_m:
        edges = sorted(rng.sample(edges, max_m))
    return Graph(n, edges, directed=directed)


def sparse_gnm(rng, n, m):
    """A graph with n vertices and m distinct edges, drawn one edge at a time."""
    edges = set()
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def random_points(rng, j, h):
    seen = set()
    pts = []
    while len(pts) < j + h:
        p = (rng.randint(0, 8), rng.randint(0, 8))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts[:j], pts[j:]


def build_instance(variant: str, i: int):
    """Deterministic random instance #i of a variant, at desk scale:
    vertex problems n in [4,8], edge problems m <= 14, points j<=7 h<=3."""
    rng = random.Random(f"corpus:{variant}:{i}")
    if variant in POINT_VARIANTS:
        j, h = rng.randint(3, 7), rng.randint(0, 3)
        interest, obstacles = random_points(rng, j, h)
        graph = random_graph(rng, j, 0.55) if variant == "hulls-connected" else None
        return make_instance(variant,
                             points=PointSetInstance(interest, obstacles, graph))
    directed = variant.startswith("dag")
    p = rng.choice([0.2, 0.35, 0.5, 0.7, 0.85])
    if variant in EDGE_VARIANTS:
        g = random_graph(rng, rng.randint(4, 6), p, directed=directed, max_m=13)
    else:
        g = random_graph(rng, rng.randint(4, 8), p, directed=directed)
    k = None
    if variant == "kdeg-induced":
        k = i % 3
    elif variant == "kdeg-edge":
        k = 1 + i % 2
    return make_instance(variant, graph=g, k=k)


@dataclass
class Run:
    variant: str
    index: int
    instance: object
    solutions: list = field(default_factory=list)
    counters: object = None
    oracle: list = field(default_factory=list)


CORPUS_SIZE = 100


@pytest.fixture(scope="session")
def corpus():
    """Criterion-1 corpus: exp-engine run plus brute-force sweep for every
    variant and seed.  Built once and shared by the acceptance criteria."""
    out: dict[str, list[Run]] = {}
    for variant in ALL_VARIANTS:
        runs = []
        for i in range(CORPUS_SIZE):
            inst = build_instance(variant, i)
            run = Run(variant, i, inst)
            run.counters = enumerate_exp(inst, emit=run.solutions.append)
            run.oracle = brute_force_maximal(inst)
            runs.append(run)
        out[variant] = runs
    return out


@pytest.fixture(scope="session")
def pspace_runs(corpus):
    import maxenum.engine as engine_mod

    constructed = []
    original = engine_mod.SolutionDict.__init__

    def spy(self):
        constructed.append(1)
        original(self)

    out = {}
    engine_mod.SolutionDict.__init__ = spy
    try:
        for variant in PSPACE_VARIANTS:
            runs = []
            for ref in corpus[variant]:
                inst = build_instance(variant, ref.index)
                sols = []
                counters = enumerate_pspace(inst, emit=sols.append)
                runs.append((inst, sols, counters))
            out[variant] = runs
    finally:
        engine_mod.SolutionDict.__init__ = original
    return out, constructed
