import random

from maxenum import Graph, brute_force_maximal, make_instance
from maxenum.graphs import bits, mask_of
from maxenum.problems.bipartite import _two_color_masks

from conftest import complete, components, cycle, exp_solutions, random_graph, triangle
from proximity import canonical_order, prefix_overlap


def walkthrough_graph():
    """9-vertex reference instance exercising the two-sided removal step.

    Built so that the connected solution S = {0,1,2,3,4,6,7} has bipartition
    ({0,4,7}, {1,2,3,6}), vertex 8 is adjacent to both sides, and the two
    candidates of the removal step are {0,1,4,7,8} (already maximal) and
    {0,1,2,3,6,8}, which completes by gaining vertex 5.
    """
    return Graph(9, [(0, 1), (0, 2), (1, 4), (2, 7), (3, 4), (3, 7), (6, 4),
                     (6, 7), (8, 2), (8, 3), (8, 4), (8, 6), (8, 7), (5, 1),
                     (5, 4)])


S_WALK = (0, 1, 2, 3, 4, 6, 7)
T_WALK = (0, 1, 4, 7, 8)


# -- membership -----------------------------------------------------------------

def _two_colorable(g, cand):
    # independent check: DFS two-coloring
    color = {}
    for s in cand:
        if s in color:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in bits(g.und_mask[u]):
                if w not in cand:
                    continue
                if w not in color:
                    color[w] = color[u] ^ 1
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def test_is_solution_examples():
    tri = make_instance("bipartite-induced", graph=triangle())
    assert not tri.is_solution({0, 1, 2})
    c4 = make_instance("bipartite-induced", graph=cycle(4))
    assert c4.is_solution({0, 1, 2, 3})
    c5 = make_instance("bipartite-induced", graph=cycle(5))
    assert c5.is_solution({0, 1, 2, 3})


def test_is_solution_matches_two_coloring():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 7), 0.5)
        inst = make_instance("bipartite-induced", graph=g)
        cand = {v for v in range(g.n) if rng.random() < 0.6}
        assert inst.is_solution(cand) == _two_colorable(g, cand)


def test_edge_predicate_matches_two_coloring():
    # every edge subset of K4, C5 and seeded random graphs, against the DFS
    # two-colouring of the subgraph the subset spans
    rng = random.Random(37)
    graphs = [complete(4), cycle(5)]
    graphs += [random_graph(rng, rng.randint(2, 7), 0.6, max_m=10) for _ in range(12)]
    checked = 0
    for g in graphs:
        inst = make_instance("bipartite-edge", graph=g)
        for emask in range(1 << g.m):
            sub = Graph(g.n, [g.edges[e] for e in range(g.m) if (emask >> e) & 1])
            assert inst.sol(emask) == _two_colorable(sub, set(range(g.n))), (g.edges, emask)
            checked += 1
    assert checked >= 2000, checked


def test_connected_variant_needs_connectivity():
    inst = make_instance("bipartite-induced-connected", graph=cycle(4))
    assert not inst.is_solution({0, 2})
    assert inst.is_solution({0, 1, 2})


# -- completion ------------------------------------------------------------------

def test_comp_identity_on_maximal():
    inst = make_instance("bipartite-induced-connected", graph=cycle(5))
    assert inst.comp((0, 1, 2, 3)) == (0, 1, 2, 3)


def test_comp_c5_ascending():
    inst = make_instance("bipartite-induced-connected", graph=cycle(5))
    assert inst.comp({0}) == (0, 1, 2, 3)


def test_comp_k4_from_empty():
    inst = make_instance("bipartite-induced", graph=complete(4))
    assert inst.comp(()) == (0, 1)


# -- neighbors ----------------------------------------------------------------------

def test_walkthrough_canonical_orders_and_overlap():
    inst = make_instance("bipartite-induced-connected", graph=walkthrough_graph())
    assert canonical_order(inst, S_WALK) == [0, 1, 2, 4, 7, 3, 6]
    assert canonical_order(inst, T_WALK) == [0, 1, 4, 8, 7]
    assert prefix_overlap(inst, S_WALK, T_WALK) == 3  # prefix {0,1,4}
    assert prefix_overlap(inst, T_WALK, S_WALK) == 2  # asymmetric


def test_walkthrough_two_sided_removal():
    inst = make_instance("bipartite-induced-connected", graph=walkthrough_graph())
    assert _two_color_masks(inst.g.und_mask, mask_of(S_WALK)) == (
        mask_of((0, 4, 7)), mask_of((1, 2, 3, 6)))
    smask = sum(1 << v for v in S_WALK)
    cands = []
    for got in inst._candidates(smask, (8,)):
        cands.append(tuple(b for b in range(9) if (got >> b) & 1))
    assert cands == [(0, 1, 2, 3, 6, 8), (0, 1, 4, 7, 8)]
    # completion gains exactly vertex 5 on the side-0 candidate; the side-1
    # candidate is already maximal
    assert inst.comp((0, 1, 2, 3, 6, 8)) == (0, 1, 2, 3, 5, 6, 8)
    assert inst.comp((0, 1, 4, 7, 8)) == T_WALK
    nb = inst.neighbors(S_WALK)
    assert T_WALK in nb and (0, 1, 2, 3, 5, 6, 8) in nb


def test_c5_neighbors_at_extender():
    inst = make_instance("bipartite-induced-connected", graph=cycle(5))
    nb = inst.neighbors((0, 1, 2, 3))
    assert (1, 2, 3, 4) in nb and (0, 1, 2, 4) in nb


def test_k4_edge_variant_counts():
    inst = make_instance("bipartite-edge", graph=complete(4))
    sols = exp_solutions(inst)
    # one maximal cut per bipartition of the four vertices
    assert len(sols) == 7
    assert sorted(sols) == brute_force_maximal(inst)


def test_edge_solutions_span_and_connect():
    rng = random.Random(23)
    for _ in range(10):
        g = random_graph(rng, rng.randint(4, 6), 0.7)
        if g.m == 0 or len(components(g, range(g.n))) != 1:
            continue
        inst = make_instance("bipartite-edge", graph=g)
        sols = exp_solutions(inst)
        for s in sols:
            touched = {x for e in s for x in g.edges[e]}
            assert touched == set(range(g.n))
            assert len(components(g, touched)) == 1


def test_neighbors_are_maximal_solutions():
    rng = random.Random(29)
    for variant in ("bipartite-induced", "bipartite-induced-connected",
                    "bipartite-edge"):
        g = random_graph(rng, 6, 0.5)
        inst = make_instance(variant, graph=g)
        sols = exp_solutions(inst)
        for s in sols[:4]:
            for cand in inst.neighbors(s):
                assert inst.is_maximal_solution(cand)


# -- bipartition type -----------------------------------------------------------------

def test_bipartition_component_normalization():
    # two components: {0,1} and {2,3}; smallest vertex of each goes left
    g = Graph(4, [(0, 1), (2, 3)])
    assert _two_color_masks(g.und_mask, mask_of((0, 1, 2, 3))) == (
        mask_of((0, 2)), mask_of((1, 3)))


def test_bipartition_rejects_odd_cycle():
    assert _two_color_masks(triangle().und_mask, mask_of((0, 1, 2))) is None


def test_two_component_canonical_order_leader_first():
    g = Graph(4, [(0, 1), (2, 3)])
    inst = make_instance("bipartite-induced", graph=g)
    assert canonical_order(inst, (0, 1, 2, 3)) == [0, 1, 2, 3]


def test_isolated_vertices_absorbed_induced():
    g = Graph(4, [(0, 1), (0, 2)])  # vertex 3 isolated
    inst = make_instance("bipartite-induced", graph=g)
    sols = exp_solutions(inst)
    assert all(3 in s for s in sols)
    assert sorted(sols) == brute_force_maximal(inst)


def test_edge_variant_edgeless_graph_empty_solution():
    inst = make_instance("bipartite-edge", graph=Graph(3, []))
    sols = exp_solutions(inst)
    assert sols == [()]
    assert brute_force_maximal(inst) == [()]


def test_isolated_vertex_own_solution_connected():
    g = Graph(4, [(0, 1), (0, 2)])
    inst = make_instance("bipartite-induced-connected", graph=g)
    sols = exp_solutions(inst)
    assert (3,) in sols
    assert sorted(sols) == brute_force_maximal(inst)
