import random

from maxenum import Graph, brute_force_maximal, enumerate_pspace, make_instance
from maxenum.graphs import bits

from conftest import complete, cycle, exp_solutions, path, random_graph, star, triangle
from proximity import canonical_order


def test_is_solution_examples():
    assert make_instance("trees", graph=path(3)).is_solution(range(3))
    assert not make_instance("trees", graph=triangle()).is_solution(range(3))
    c4 = make_instance("trees", graph=cycle(4))
    assert c4.is_solution((0, 1, 2))


def test_neighbors_k4():
    inst = make_instance("trees", graph=complete(4))
    nb = inst.neighbors((0, 1))
    assert (0, 2) in nb and (1, 2) in nb


def test_neighbors_c4():
    inst = make_instance("trees", graph=cycle(4))
    nb = inst.neighbors((0, 1, 2))
    assert (1, 2, 3) in nb and (0, 1, 3) in nb


def test_star_single_tree():
    inst = make_instance("trees", graph=star(3))
    sols = exp_solutions(inst)
    assert sols == [(0, 1, 2, 3)]
    assert set(inst.neighbors((0, 1, 2, 3))) <= {(0, 1, 2, 3)}


def test_counts_k4_and_c4():
    for variant in ("trees", "forests"):
        inst = make_instance(variant, graph=complete(4))
        sols = exp_solutions(inst)
        assert len(sols) == 6
    inst = make_instance("forests", graph=cycle(4))
    sols = exp_solutions(inst)
    assert len(sols) == 4


def test_single_preceding_neighbor_in_canonical_order():
    rng = random.Random(113)
    for _ in range(15):
        g = random_graph(rng, rng.randint(4, 8), 0.5)
        inst = make_instance("trees", graph=g)
        sols = exp_solutions(inst)
        for s in sols:
            order = canonical_order(inst, s)
            for i, v in enumerate(order[1:], start=1):
                assert sum(1 for u in order[:i] if u in bits(g.und_mask[v])) == 1


def test_canonical_order_examples():
    p3 = make_instance("trees", graph=path(3))
    assert canonical_order(p3, (0, 1, 2)) == [0, 1, 2]
    c4 = make_instance("trees", graph=cycle(4))
    assert canonical_order(c4, (0, 1, 3)) == [0, 1, 3]
    two_comp = make_instance("forests", graph=Graph(4, [(0, 1), (2, 3)]))
    assert canonical_order(two_comp, (0, 1, 2, 3)) == [0, 1, 2, 3]


def test_forest_absorbs_isolated_vertices():
    g = Graph(5, [(0, 1), (1, 2), (0, 2)])  # 3,4 isolated
    inst = make_instance("forests", graph=g)
    sols = exp_solutions(inst)
    assert all({3, 4} <= set(s) for s in sols)
    assert sorted(sols) == brute_force_maximal(inst)


def test_isolated_vertices_are_own_trees():
    g = Graph(5, [(0, 1), (1, 2), (0, 2)])
    inst = make_instance("trees", graph=g)
    sols = exp_solutions(inst)
    assert (3,) in sols and (4,) in sols
    assert sorted(sols) == brute_force_maximal(inst)


def test_disconnected_graph_reaches_all_components():
    g = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (5, 6)])
    inst = make_instance("trees", graph=g)
    sols = exp_solutions(inst)
    assert sorted(sols) == brute_force_maximal(inst)


def test_both_engines_agree():
    rng = random.Random(127)
    for variant in ("trees", "forests"):
        for _ in range(8):
            g = random_graph(rng, rng.randint(4, 7), 0.45)
            s1, s2 = exp_solutions(make_instance(variant, graph=g)), []
            enumerate_pspace(make_instance(variant, graph=g), emit=s2.append)
            assert sorted(s1) == sorted(s2) == brute_force_maximal(
                make_instance(variant, graph=g))
