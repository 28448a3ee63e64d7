import pytest

from maxenum import (PartialOutputError, SolutionDict, enumerate_exp,
                     make_instance)

from conftest import build_instance, cycle, triangle
from maxenum.graphs import Graph


# -- visited-solution dictionary ------------------------------------------------

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


def test_dict_rejects_negative():
    d = SolutionDict()
    for key in ((-1,), (-2, 3), (0, -1)):
        with pytest.raises(ValueError):
            d.insert(key)
    assert len(d) == 0


def test_dict_empty_key_distinct_from_zero():
    d = SolutionDict()
    assert d.insert(()) is True
    assert d.insert((0,)) is True
    assert d.insert(()) is False
    assert len(d) == 2


def test_dict_insert_true_iff_new_and_len_counts_distinct():
    d = SolutionDict()
    keys = [(0, 2, 4), (0, 2, 5), (1,), (0, 2, 4), (0, 2, 4, 6), (1,), (0, 2)]
    stored = set()
    for key in keys:
        assert d.insert(key) is (key not in stored)
        stored.add(key)
        assert len(d) == d.node_count == len(stored)


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
    # one insert for the first solution and one per neighbor of each solution
    makers = [lambda: make_instance("bipartite-induced", graph=triangle())]
    makers += [lambda v=v, i=i: build_instance(v, i)
               for v, i in (("bipartite-induced", 4), ("trees", 5), ("kdeg-induced", 2))]
    for make in makers:
        got = []
        counters = enumerate_exp(make(), emit=got.append)
        probe = make()
        assert counters.dict_operations == 1 + sum(len(probe.neighbors(s)) for s in got)
        assert counters.solutions_emitted == len(got)
    assert enumerate_exp(makers[0]()).solutions_emitted == 3
