"""Exact solution counts past the brute-force oracle's reach (ground sets of
more than 16 elements), for the parent-forest traversal: closed forms on
cycles and disjoint triangles, and a cross-engine identity on sparse random
graphs."""

import random

import pytest

from maxenum import Graph, enumerate_exp, enumerate_pspace, make_instance
from maxenum.problems import PSPACE_VARIANTS

from conftest import cycle


def pspace_count(variant, g):
    return enumerate_pspace(make_instance(variant, graph=g)).solutions_emitted


@pytest.mark.parametrize("variant", PSPACE_VARIANTS)
def test_odd_cycle_gives_n(variant):
    # each maximal solution is C_17 less one vertex, a path: the whole
    # cycle is neither a forest nor, being odd, bipartite
    assert pspace_count(variant, cycle(17)) == 17


@pytest.mark.parametrize("variant,expected", [
    ("forests", 18), ("trees", 18),
    ("bipartite-induced", 1), ("bipartite-induced-connected", 1),
])
def test_even_cycle(variant, expected):
    # C_18 is itself bipartite, but a forest or tree still drops one vertex
    assert pspace_count(variant, cycle(18)) == expected


def disjoint_triangles(t):
    return Graph(3 * t, [(3 * i + a, 3 * i + b)
                         for i in range(t) for a, b in ((0, 1), (1, 2), (0, 2))])


@pytest.mark.parametrize("variant", ["forests", "bipartite-induced"])
def test_disjoint_triangles_give_three_to_the_t(variant):
    # a maximal solution drops one vertex of each triangle, independently
    assert pspace_count(variant, disjoint_triangles(6)) == 3 ** 6


def sparse_gnm(rng, n, m):
    """A graph with n vertices and m distinct edges, drawn one edge at a time."""
    edges = set()
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


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
