import pytest

from maxenum import (PartialOutputError, SolutionDict, enumerate_exp,
                     make_instance)

from conftest import build_instance, cycle, triangle
from maxenum.graphs import Graph


# -- trie dictionary ------------------------------------------------------------

def test_dict_insert_new():
    d = SolutionDict()
    assert d.insert((1, 2)) is True
    assert d.insert((1, 2)) is False  # now a member


def test_dict_insert_idempotent():
    d = SolutionDict()
    d.insert((1, 2))
    assert d.insert((1, 2)) is False


def test_dict_prefix_not_member():
    d = SolutionDict()
    d.insert((1, 2))
    assert d.insert((1,)) is True  # the prefix was not a member


def test_dict_rejects_unsorted():
    d = SolutionDict()
    with pytest.raises(ValueError):
        d.insert((2, 1))
    with pytest.raises(ValueError):
        d.insert((1, 1))


def test_dict_node_count_bound():
    d = SolutionDict()
    sols = [(0, 2, 4), (0, 2, 5), (1,), (0, 2, 4, 6)]
    for s in sols:
        d.insert(s)
    assert d.node_count <= 1 + sum(len(s) for s in sols)
    assert d.operations == len(sols)


# -- traversal --------------------------------------------------------------------

def test_triangle_bipartite_solutions():
    inst = make_instance("bipartite-induced", graph=triangle())
    got = []
    enumerate_exp(inst, emit=got.append)
    assert sorted(got) == [(0, 1), (0, 2), (1, 2)]


def test_single_vertex_forest():
    inst = make_instance("forests", graph=Graph(1, []))
    got = []
    enumerate_exp(inst, emit=got.append)
    assert got == [(0,)]


def test_c5_connected_bipartite():
    inst = make_instance("bipartite-induced-connected", graph=cycle(5))
    got = []
    counters = enumerate_exp(inst, emit=got.append)
    assert len(got) == 5
    assert all(len(s) == 4 for s in got)
    assert counters.neighbors_calls == 5


def test_no_duplicates_and_visit_discipline():
    for variant, i in (("chordal-induced", 3), ("trees", 5), ("kdeg-induced", 7)):
        inst = build_instance(variant, i)
        got = []
        counters = enumerate_exp(inst, emit=got.append)
        assert len(set(got)) == len(got)
        assert counters.neighbors_calls == counters.solutions_emitted == len(got)


def test_sink_failure_aborts():
    inst = make_instance("bipartite-induced", graph=triangle())

    def bad_sink(sol):
        raise IOError("pipe closed")

    with pytest.raises(PartialOutputError):
        enumerate_exp(inst, emit=bad_sink)


def test_limit_is_prefix_of_full_run():
    inst = build_instance("bipartite-induced", 1)
    full = []
    enumerate_exp(inst, emit=full.append)
    for limit in (0, 1, 2, len(full)):
        part = []
        counters = enumerate_exp(build_instance("bipartite-induced", 1),
                                 emit=part.append, limit=limit)
        assert part == full[:limit]
        assert counters.solutions_emitted == limit


def test_counters_track_dictionary():
    inst = make_instance("bipartite-induced", graph=triangle())
    counters = enumerate_exp(inst)
    assert counters.dict_operations >= counters.solutions_emitted
    assert counters.solutions_emitted == 3
