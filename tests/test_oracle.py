import random

import pytest

from maxenum import (Graph, OracleCapError, brute_force_maximal,
                     make_instance)
from maxenum.graphs import mask_of
from maxenum.problems import ALL_VARIANTS

from conftest import build_instance, directed_triangle, random_graph, triangle


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


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_sweep_leaves_the_predicate_memo_as_found(variant, monkeypatch):
    # no family keeps a predicate memo, so a sweep leaves no verdict behind:
    # it evaluates the predicate at most once per subset, and two asks for
    # a maximal solution after it evaluate it twice more
    inst = build_instance(variant, 1)
    evals = []
    predicate = inst._solution_mask
    monkeypatch.setattr(inst, "_solution_mask", lambda m: evals.append(m) or predicate(m))
    maximal = brute_force_maximal(inst)
    assert maximal and len(evals) == len(set(evals))
    for s in maximal:
        before = len(evals)
        assert inst.sol(mask_of(s)) and inst.sol(mask_of(s))
        assert len(evals) == before + 2, s
    assert not hasattr(inst, "_sol_cache")
