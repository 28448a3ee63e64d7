import random

import pytest

from maxenum import (Graph, OracleCapError, brute_force_maximal,
                     make_instance)
from maxenum.problems import ALL_VARIANTS

from conftest import build_instance, directed_triangle, random_graph, triangle

# the families that keep a predicate memo: those with no extension test
MEMOIZED = [v for v in ALL_VARIANTS if hasattr(build_instance(v, 0), "_sol_cache")]


def test_triangle_bipartite():
    inst = make_instance("bipartite-induced", graph=triangle())
    assert brute_force_maximal(inst) == [(0, 1), (0, 2), (1, 2)]


def test_single_vertex_tree():
    inst = make_instance("trees", graph=Graph(1, []))
    assert brute_force_maximal(inst) == [(0,)]


def test_directed_triangle():
    inst = make_instance("dag-induced-connected", graph=directed_triangle())
    assert brute_force_maximal(inst) == [(0, 1), (0, 2), (1, 2)]


def test_antichain_and_membership():
    rng = random.Random(131)
    for variant in ("chordal-induced", "forests", "bipartite-edge"):
        g = random_graph(rng, 5, 0.6, max_m=9)
        inst = make_instance(variant, graph=g)
        out = brute_force_maximal(inst)
        for s in out:
            assert inst.is_solution(s)
            assert inst.is_maximal_solution(s)
        for a in out:
            for b in out:
                assert a == b or not set(a) <= set(b)


def test_strict_supersets_fail():
    rng = random.Random(137)
    g = random_graph(rng, 6, 0.5)
    inst = make_instance("bipartite-induced", graph=g)
    for s in brute_force_maximal(inst):
        for e in range(g.n):
            if e not in s:
                assert not inst.is_solution(set(s) | {e})


def test_cap_refusal():
    g = Graph(17, [])
    inst = make_instance("forests", graph=g)
    with pytest.raises(OracleCapError, match="17"):
        brute_force_maximal(inst)
    assert brute_force_maximal(inst, cap=17) == [tuple(range(17))]


@pytest.mark.parametrize("variant", MEMOIZED)
def test_sweep_leaves_the_predicate_memo_as_found(variant):
    # a sweep asks each subset at most once, so it asks the plain predicate
    # and leaves no verdict in the instance's memo
    inst = build_instance(variant, 1)
    inst.sol(0)
    memo = inst._sol_cache
    entries = dict(memo)
    assert brute_force_maximal(inst)
    assert inst._sol_cache is memo and memo == entries
