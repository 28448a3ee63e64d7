import itertools
import random

import pytest

from maxenum import brute_force_maximal, make_instance
from maxenum.graphs import Graph, bits, mask_components, mask_of

from conftest import complete, cycle, exp_solutions, random_graph, triangle
from proximity import canonical_order


def test_is_solution_examples():
    assert make_instance("chordal-induced", graph=triangle()).is_solution(range(3))
    c4 = make_instance("chordal-induced", graph=cycle(4))
    assert not c4.is_solution(range(4))
    assert c4.is_solution((0, 1, 2))


def kept_cliques(inst, solution, v):
    """The clique around v that each candidate of the induced rule keeps:
    the candidate's part of v's closed neighborhood."""
    closed = inst.g.und_mask[v] | 1 << v
    return [bits(c & closed) for c in inst._candidates(mask_of(solution), (v,))]


def test_cliques_at_examples():
    c4 = make_instance("chordal-induced", graph=cycle(4))
    assert kept_cliques(c4, (0, 1, 2), 3) == [(0, 3), (2, 3)]

    k4 = make_instance("chordal-induced", graph=complete(4))
    assert kept_cliques(k4, (0, 1, 2), 3) == [(0, 1, 2, 3)]

    g = Graph(4, [(0, 1), (1, 2)])
    inst = make_instance("chordal-induced", graph=g)
    assert kept_cliques(inst, (0, 1, 2), 3) == [(3,)]


def _brute_max_cliques(g, cand):
    out = []
    cand = sorted(cand)
    for size in range(len(cand), 0, -1):
        for sub in itertools.combinations(cand, size):
            if all(v in bits(g.und_mask[u]) for u, v in itertools.combinations(sub, 2)):
                if not any(set(sub) < set(c) for c in out):
                    out.append(sub)
    return sorted(out)


def test_cliques_at_are_maximal_cliques():
    rng = random.Random(53)
    for _ in range(20):
        g = random_graph(rng, 6, 0.6)
        inst = make_instance("chordal-induced", graph=g)
        s = inst.comp(())
        for v in range(g.n):
            if v in s:
                continue
            got = kept_cliques(inst, s, v)
            expect = _brute_max_cliques(g, set(s) | {v})
            expect = sorted(c for c in expect if v in c)
            assert sorted(got) == expect
            assert len(got) <= len([u for u in bits(g.und_mask[v]) if u in s]) + 1


def test_neighbors_c4_replay():
    inst = make_instance("chordal-induced", graph=cycle(4))
    nb = inst.neighbors((0, 1, 2))
    assert (0, 1, 3) in nb and (1, 2, 3) in nb


def test_k4_single_solution():
    inst = make_instance("chordal-induced", graph=complete(4))
    sols = exp_solutions(inst)
    assert sols == [(0, 1, 2, 3)]
    assert set(inst.neighbors((0, 1, 2, 3))) <= {(0, 1, 2, 3)}


def test_c5_paths_and_counts():
    inst = make_instance("chordal-induced", graph=cycle(5))
    sols = exp_solutions(inst)
    assert sorted(sols) == brute_force_maximal(inst)
    assert all(len(s) == 4 for s in sols)


def test_edge_comp_examples():
    c4 = make_instance("chordal-edge", graph=cycle(4))
    assert c4.comp((0, 1, 2)) == (0, 1, 2)  # fourth edge closes a hole

    tri = make_instance("chordal-edge", graph=triangle())
    assert tri.comp(()) == (0, 1, 2)


def test_edge_comp_rescans():
    # edges: 0:0-1, 1:1-2, 2:2-3, 3:0-3, 4:0-2 — edge 3 alone closes a
    # chordless square, but becomes addible once the chord 4 is present
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    inst = make_instance("chordal-edge", graph=g)
    assert not inst.is_solution((0, 1, 2, 3))
    assert inst.comp((0, 1, 2)) == (0, 1, 2, 3, 4)


def test_reverse_elimination_clique_property():
    rng = random.Random(59)
    for _ in range(10):
        g = random_graph(rng, 6, 0.5)
        for variant in ("chordal-induced", "chordal-induced-connected"):
            inst = make_instance(variant, graph=g)
            sols = exp_solutions(inst)
            for s in sols:
                order = canonical_order(inst, s)
                for i, v in enumerate(order):
                    before = [u for u in order[:i] if u in bits(g.und_mask[v])]
                    assert all(b in bits(g.und_mask[a])
                               for a, b in itertools.combinations(before, 2))


def test_connected_variant_oracle():
    rng = random.Random(61)
    for _ in range(8):
        g = random_graph(rng, 6, 0.4)
        inst = make_instance("chordal-induced-connected", graph=g)
        sols = exp_solutions(inst)
        assert sorted(sols) == brute_force_maximal(inst)


def test_edge_variant_oracle():
    rng = random.Random(67)
    for _ in range(8):
        g = random_graph(rng, 5, 0.7, max_m=9)
        inst = make_instance("chordal-edge", graph=g)
        sols = exp_solutions(inst)
        assert sorted(sols) == brute_force_maximal(inst)


# -- the extension test ---------------------------------------------------------

def gem():
    # the path 0-1-2-3 and a vertex 4 seeing all of it
    return Graph(5, [(0, 1), (1, 2), (2, 3)] + [(i, 4) for i in range(4)])


def three_sun():
    # the triangle 0-1-2, each side capped by a vertex of degree two
    return Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (1, 4), (2, 4),
                     (0, 5), (2, 5)])


def triangles_on_a_path():
    # the triangles 0-1-2 and 4-5-6 joined by the path 2-3-4
    return Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                     (4, 6)])


def two_squares():
    # the 4-cycles 0-1-2-3 and 0-4-5-6, sharing vertex 0
    return Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6),
                     (0, 6)])


@pytest.mark.parametrize("variant", ["chordal-induced", "chordal-induced-connected"])
def test_extension_test_exhaustive(variant):
    # every solution x and every e of its reach.  Where the vertices of x
    # outside N(e) fall into two or more components, the test must judge
    # each; such splits occur here with both answers, the two squares
    # giving ones where only one component closes a hole
    split = set()
    for g in (cycle(4), cycle(5), gem(), three_sun(), triangles_on_a_path(),
              two_squares()):
        inst = make_instance(variant, graph=g)
        for x in range(1 << g.n):
            if not inst.sol(x):
                continue
            for e in bits(inst._reach(x)):
                ok = inst.sol(x | 1 << e)
                assert inst._extension_test(x, e) == ok, (g.edges, x, e)
                if len(mask_components(g.und_mask, x & ~g.und_mask[e])) > 1:
                    split.add(ok)
    assert split == {True, False}
