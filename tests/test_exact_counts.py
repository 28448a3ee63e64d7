"""Exact solution counts past the brute-force oracle's reach (ground sets of
more than 16 elements): closed forms on cycles and on disjoint and chained
triangles, with the pspace stack depth on the chained ones, a cross-engine
identity on sparse random graphs, and independent references for the
k-degenerate families (a Bron–Kerbosch count of maximal independent sets,
and Kirchhoff's matrix-tree theorem for maximal spanning forests)."""

import random
from fractions import Fraction

import pytest

import maxenum.pspace as pspace_mod
from maxenum import Graph, enumerate_exp, enumerate_pspace, make_instance
from maxenum.problems import PSPACE_VARIANTS

from conftest import components, cycle, disjoint_triangles, sparse_gnm


def pspace_count(variant, g):
    return enumerate_pspace(make_instance(variant, graph=g)).solutions_emitted


@pytest.mark.parametrize("variant", PSPACE_VARIANTS)
def test_odd_cycle_gives_n(variant):
    # each maximal solution is C_17 less one vertex, a path: the whole
    # cycle is neither a forest nor, being odd, bipartite
    assert pspace_count(variant, cycle(17)) == 17


# exp-only families with C_n less one vertex, a path, as their solutions,
# with the k of the k-degenerate one
PATH_FAMILIES = {"kdeg-induced": 1, "chordal-induced": None,
                 "chordal-induced-connected": None, "pinterval-induced": None,
                 "pinterval-induced-connected": None}


@pytest.mark.parametrize("variant", PATH_FAMILIES)
def test_odd_cycle_gives_n_exp(variant):
    # a path is 1-degenerate, chordal and a proper interval graph; the whole
    # cycle is none of them
    inst = make_instance(variant, graph=cycle(17), k=PATH_FAMILIES[variant])
    assert enumerate_exp(inst).solutions_emitted == 17


@pytest.mark.parametrize("variant,expected", [
    ("forests", 18), ("trees", 18),
    ("bipartite-induced", 1), ("bipartite-induced-connected", 1),
])
def test_even_cycle(variant, expected):
    # C_18 is itself bipartite, but a forest or tree still drops one vertex
    assert pspace_count(variant, cycle(18)) == expected


@pytest.mark.parametrize("variant", ["forests", "bipartite-induced"])
def test_disjoint_triangles_give_three_to_the_t(variant):
    # a maximal solution drops one vertex of each triangle, independently
    assert pspace_count(variant, disjoint_triangles(6)) == 3 ** 6


def chained_triangles(t):
    """t triangles, each joined to the next by one edge."""
    return Graph(3 * t, [(3 * i + a, 3 * i + b)
                         for i in range(t) for a, b in ((0, 1), (1, 2), (0, 2))]
                 + [(3 * i + 2, 3 * i + 3) for i in range(t - 1)])


@pytest.mark.parametrize("engine", ["exp", "pspace"])
@pytest.mark.parametrize("variant", ["forests", "bipartite-induced"])
def test_chained_triangles_give_three_to_the_t(variant, engine):
    # the joining edges are bridges, so the triangles are the only cycles:
    # a maximal solution drops one vertex of each triangle, independently
    enumerate_fn = enumerate_pspace if engine == "pspace" else enumerate_exp
    inst = make_instance(variant, graph=chained_triangles(6))
    assert enumerate_fn(inst).solutions_emitted == 3 ** 6


@pytest.mark.parametrize("t", [3, 4, 5])
@pytest.mark.parametrize("variant", ["forests", "bipartite-induced"])
def test_chained_triangles_pspace_stack_is_t_plus_one_deep(variant, t, monkeypatch):
    # each open level of the pspace DFS holds one children generator, so the
    # most generators open at once is the depth of its stack: it grows by one
    # per triangle while the solution count triples
    open_now = deepest = 0
    children = pspace_mod.children

    def counted(*args):
        nonlocal open_now, deepest
        open_now += 1
        deepest = max(deepest, open_now)
        try:
            yield from children(*args)
        finally:
            open_now -= 1

    monkeypatch.setattr(pspace_mod, "children", counted)
    assert pspace_count(variant, chained_triangles(t)) == 3 ** t
    assert deepest == t + 1


def test_forests_equal_one_degenerate_induced():
    # an induced forest is exactly an induced 1-degenerate subgraph, so the
    # pspace forests and the exp kdeg-induced (k = 1) solution sets agree
    rng = random.Random(21)
    for (n, m), expected in (((18, 24), 176), ((20, 26), 99)):
        g = sparse_gnm(rng, n, m)
        forests, kdeg = [], []
        enumerate_pspace(make_instance("forests", graph=g), emit=forests.append)
        enumerate_exp(make_instance("kdeg-induced", graph=g, k=1), emit=kdeg.append)
        assert sorted(forests) == sorted(kdeg), (n, m, g.edges)
        assert len(forests) == expected, (n, m)


def count_maximal_independent_sets(g):
    """Bron–Kerbosch with Tomita pivoting on the complement of g, whose
    maximal cliques are the maximal independent sets of g; plain sets."""
    other = [set(range(g.n)) - set(g.und_adj[u]) - {u} for u in range(g.n)]

    def expand(p, x):
        if not p:
            return int(not x)
        pivot = max(p | x, key=lambda u: len(p & other[u]))
        total = 0
        for v in sorted(p - other[pivot]):
            total += expand(p & other[v], x & other[v])
            p = p - {v}
            x = x | {v}
        return total

    return expand(set(range(g.n)), set())


def test_zero_degenerate_induced_matches_bron_kerbosch():
    # an induced 0-degenerate subgraph has no edge: the maximal ones are
    # the maximal independent sets
    rng = random.Random(22)
    for (n, m), expected in (((18, 30), 77), ((20, 40), 69), ((24, 40), 168)):
        g = sparse_gnm(rng, n, m)
        got = enumerate_exp(make_instance("kdeg-induced", graph=g, k=0))
        assert got.solutions_emitted == count_maximal_independent_sets(g) == expected, (
            n, m, g.edges)


def count_maximal_spanning_forests(g):
    """The product over components of the number of spanning trees, each a
    reduced Laplacian determinant (Kirchhoff), by exact elimination."""
    total = Fraction(1)
    for comp in components(g, range(g.n)):
        index = {u: i for i, u in enumerate(sorted(comp)[1:])}
        size = len(index)
        lap = [[Fraction(0)] * size for _ in range(size)]
        for u, v in g.edges:
            for a, b in ((u, v), (v, u)):
                if a in index:
                    lap[index[a]][index[a]] += 1
                    if b in index:
                        lap[index[a]][index[b]] -= 1
        for col in range(size):
            pivot = next(r for r in range(col, size) if lap[r][col])
            lap[col], lap[pivot] = lap[pivot], lap[col]
            total *= lap[col][col]
            for r in range(col + 1, size):
                f = lap[r][col] / lap[col][col]
                for c in range(col, size):
                    lap[r][c] -= f * lap[col][c]
    return total


def test_one_degenerate_edge_matches_matrix_tree():
    # an edge set spanning a 1-degenerate subgraph is a forest, and a
    # maximal one is a spanning tree of every component
    rng = random.Random(23)
    for (n, m), expected in (((10, 17), 3714), ((14, 19), 1657)):
        g = sparse_gnm(rng, n, m)
        got = enumerate_exp(make_instance("kdeg-edge", graph=g, k=1))
        assert got.solutions_emitted == count_maximal_spanning_forests(g) == expected, (
            n, m, g.edges)
