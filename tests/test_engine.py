import dataclasses

import pytest

from maxenum import (PartialOutputError, SolutionDict, enumerate_exp,
                     enumerate_pspace, make_instance)

from conftest import build_instance, cycle, disjoint_triangles, triangle
from maxenum.graphs import Graph


# -- visited-solution dictionary ------------------------------------------------

def test_dict_insert_new():
    d = SolutionDict()
    assert d.insert(0b110) is True
    assert d.insert(0b110) is False  # now a member


def test_dict_insert_idempotent():
    d = SolutionDict()
    d.insert(0b110)
    assert d.insert(0b110) is False


def test_dict_prefix_not_member():
    d = SolutionDict()
    d.insert(0b110)
    assert d.insert(0b10) is True  # the subset was not a member


@pytest.mark.parametrize("key", [(1, 2), (2, 1), (1, 1), [1], 1.0, "3"],
                         ids=["tuple", "unsorted-tuple", "repeated-tuple", "list",
                              "float", "str"])
def test_dict_rejects_non_masks(key):
    # a key that is no int mask fails loudly rather than being stored next
    # to the masks, a tuple of ids included
    d = SolutionDict()
    with pytest.raises(ValueError):
        d.insert(key)
    assert len(d) == 0


def test_dict_rejects_negative():
    d = SolutionDict()
    for key in (-1, -6):
        with pytest.raises(ValueError):
            d.insert(key)
    assert len(d) == 0


def test_dict_empty_key_distinct_from_zero():
    d = SolutionDict()
    assert d.insert(0) is True  # the empty solution
    assert d.insert(0b1) is True  # the solution {0}
    assert d.insert(0) is False
    assert len(d) == 2


def test_dict_insert_true_iff_new_and_len_counts_distinct():
    d = SolutionDict()
    keys = [0b10101, 0b100101, 0b10, 0b10101, 0b1010101, 0b10, 0b101]
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


@pytest.mark.parametrize("engine", [enumerate_exp, enumerate_pspace])
@pytest.mark.parametrize("limit", [True, 1.5, "1"])
def test_limit_must_be_an_int_or_none(engine, limit, monkeypatch):
    # True once stopped a run after one solution, and 1.5 was taken as a
    # bound; the check comes before the run opens its memos
    inst = build_instance("bipartite-induced", 1)
    monkeypatch.setattr(type(inst), "run_memos",
                        lambda *_, **__: pytest.fail("the run opened its memos"))
    got = []
    with pytest.raises(ValueError, match="limit must be an integer or None"):
        engine(inst, emit=got.append, limit=limit)
    assert got == [] and inst.comp_calls == 0


@pytest.mark.parametrize("engine", [enumerate_exp, enumerate_pspace])
@pytest.mark.parametrize("limit", [0, -1])
def test_limit_below_one_starts_no_run(engine, limit, monkeypatch):
    # a run that may emit nothing opens no memo and completes nothing
    inst = build_instance("bipartite-induced", 1)
    monkeypatch.setattr(type(inst), "run_memos",
                        lambda *_, **__: pytest.fail("the run opened its memos"))
    got = []
    counters = engine(inst, emit=got.append, limit=limit)
    assert got == [] and inst.comp_calls == 0
    assert all(value == 0 for value in dataclasses.asdict(counters).values())


@pytest.mark.parametrize("engine", [enumerate_exp, enumerate_pspace])
def test_run_stops_at_its_last_output(engine):
    # no completion runs after the output that reaches the limit, nor after
    # the output whose sink call fails
    inst = make_instance("forests", graph=disjoint_triangles(4))
    marks = []
    counters = engine(inst, emit=lambda sol: marks.append(inst.comp_calls), limit=5)
    assert len(marks) == 5
    assert counters.comp_calls == inst.comp_calls == marks[4]

    inst = make_instance("forests", graph=disjoint_triangles(4))
    marks = []
    broken = OSError("pipe closed")

    def sink(sol):
        marks.append(inst.comp_calls)
        if len(marks) == 3:
            raise broken

    with pytest.raises(PartialOutputError) as info:
        engine(inst, emit=sink)
    assert info.value.emitted == 2 and info.value.__cause__ is broken
    assert len(marks) == 3 and inst.comp_calls == marks[2]


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
