import random

import pytest

from maxenum import Graph, brute_force_maximal, make_instance
from maxenum.graphs import bits, mask_cc, mask_of, spanned_masks

from conftest import (build_instance, components, directed_triangle, exp_solutions,
                      random_graph, triangle)
from proximity import canonical_order


def directed_path():
    return Graph(3, [(0, 1), (1, 2)], directed=True)


def test_is_solution_examples():
    p = make_instance("dag-induced-connected", graph=directed_path())
    assert p.is_solution(range(3))
    t = make_instance("dag-induced-connected", graph=directed_triangle())
    assert not t.is_solution(range(3))
    assert t.is_solution((0, 1))


def test_requires_directed_input():
    with pytest.raises(ValueError):
        make_instance("dag-induced-connected", graph=triangle())
    with pytest.raises(ValueError):
        make_instance("dag-edge-connected", graph=triangle())


def test_neighbors_directed_triangle():
    inst = make_instance("dag-induced-connected", graph=directed_triangle())
    nb = inst.neighbors((0, 1))
    assert (1, 2) in nb and (0, 2) in nb


def test_already_acyclic_single_solution():
    inst = make_instance("dag-induced-connected", graph=directed_path())
    sols = exp_solutions(inst)
    assert sols == [(0, 1, 2)]
    assert set(inst.neighbors((0, 1, 2))) <= {(0, 1, 2)}


def test_directed_triangle_counts():
    inst = make_instance("dag-induced-connected", graph=directed_triangle())
    sols = exp_solutions(inst)
    assert sorted(sols) == [(0, 1), (0, 2), (1, 2)]


def test_edge_variant_directed_triangle():
    inst = make_instance("dag-edge-connected", graph=directed_triangle())
    sols = exp_solutions(inst)
    # arcs: 0:0->1, 1:1->2, 2:2->0; the three 2-arc sets are the solutions
    assert sorted(sols) == [(0, 1), (0, 2), (1, 2)]
    nb = inst.neighbors((0, 1))
    assert (0, 2) in nb and (1, 2) in nb


def block_order(out_nbrs, in_nbrs, vertices) -> list[int]:
    """Constructive order: alternately append the vertices reached by the
    part built so far (in topological order) and the vertices reaching it
    (in reverse topological order): an existence witness for the layered
    order."""
    remaining = set(vertices)
    if not remaining:
        return []
    sources = [v for v in sorted(remaining)
               if not any(u in remaining for u in in_nbrs[v])]
    if not sources:
        raise ValueError("not acyclic")
    start = sources[0]

    def reach(seeds, nbrs, pool):
        out = set()
        stack = [s for s in seeds]
        while stack:
            u = stack.pop()
            for w in nbrs[u]:
                if w in pool and w not in out:
                    out.add(w)
                    stack.append(w)
        return out

    def topo(block, forward: bool) -> list[int]:
        # forward: predecessors first; backward: successors first
        left = set(block)
        order = []
        key_nbrs = in_nbrs if forward else out_nbrs
        while left:
            ready = sorted(v for v in left
                           if not any(u in left for u in key_nbrs[v]))
            if not ready:
                raise ValueError("not acyclic")
            order.append(ready[0])
            left.discard(ready[0])
        return order

    covered = reach([start], out_nbrs, remaining) | {start}
    order = topo(covered, forward=True)
    remaining -= covered
    forward = False
    stall = 0
    while remaining:
        if forward:
            block = reach(order, out_nbrs, remaining)
        else:
            block = {v for v in remaining
                     if reach([v], out_nbrs, remaining | set(order)) & set(order)}
        if block:
            order.extend(topo(block, forward=forward))
            remaining -= block
            stall = 0
        else:
            stall += 1
            if stall > 1:
                raise ValueError("underlying graph is disconnected")
        forward = not forward
    return order


def order_is_layered(out_nbrs, in_nbrs, und_nbrs, order) -> bool:
    """Check the two order conditions: connected prefixes, one-sided backs."""
    placed: set[int] = set()
    for i, v in enumerate(order):
        if i > 0 and not any(u in placed for u in und_nbrs[v]):
            return False
        outb = any(u in placed for u in out_nbrs[v])
        inb = any(u in placed for u in in_nbrs[v])
        if outb and inb:
            return False
        placed.add(v)
    return True


def _restricted(g, sset):
    out = {v: [u for u in bits(g.out_mask[v]) if u in sset] for v in sset}
    inc = {v: [u for u in bits(g.in_mask[v]) if u in sset] for v in sset}
    und = {v: [u for u in bits(g.und_mask[v]) if u in sset] for v in sset}
    return out, inc, und


def test_canonical_order_is_layered():
    rng = random.Random(101)
    for _ in range(20):
        g = random_graph(rng, rng.randint(4, 7), 0.5, directed=True)
        inst = make_instance("dag-induced-connected", graph=g)
        sols = exp_solutions(inst)
        for s in sols:
            out, inc, und = _restricted(g, set(s))
            order = canonical_order(inst, s)
            assert sorted(order) == list(s)
            assert order_is_layered(out, inc, und, order)


def test_block_order_witness():
    rng = random.Random(103)
    for _ in range(20):
        g = random_graph(rng, rng.randint(4, 7), 0.5, directed=True)
        inst = make_instance("dag-induced-connected", graph=g)
        sols = exp_solutions(inst)
        for s in sols:
            out, inc, und = _restricted(g, set(s))
            witness = block_order(out, inc, sorted(s))
            assert sorted(witness) == list(s)
            assert order_is_layered(out, inc, und, witness)


def test_solutions_connected_underlying():
    rng = random.Random(107)
    for variant in ("dag-induced-connected", "dag-edge-connected"):
        g = random_graph(rng, 6, 0.5, directed=True, max_m=12)
        inst = make_instance(variant, graph=g)
        sols = exp_solutions(inst)
        for s in sols:
            if variant.endswith("edge-connected"):
                verts = {x for e in s for x in g.edges[e]}
            else:
                verts = set(s)
            if verts:
                assert len(components(g, verts)) == 1


def test_edge_order_key_by_later_endpoint():
    inst = make_instance("dag-edge-connected", graph=directed_path())
    # arcs 0:0->1 and 1:1->2; vertex order 0,1,2 puts arc 0 first
    assert canonical_order(inst, (0, 1)) == [0, 1]
    t = make_instance("dag-edge-connected", graph=directed_triangle())
    assert canonical_order(t, (0, 1)) == [0, 1]


def test_oracle_equality_random():
    rng = random.Random(109)
    for variant in ("dag-induced-connected", "dag-edge-connected"):
        for _ in range(10):
            g = random_graph(rng, rng.randint(4, 6), 0.6, directed=True,
                             max_m=12)
            inst = make_instance(variant, graph=g)
            sols = exp_solutions(inst)
            assert sorted(sols) == brute_force_maximal(inst)


# -- dag-edge-connected predicate and candidates on named instances ----------------

def two_cycle_digraph():
    # the directed triangle 0->1->2->0 and the directed triangle 1->2->3->1
    return Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 1)], directed=True)


def test_edge_variant_empty_arc_set_is_solution():
    inst = make_instance("dag-edge-connected", graph=directed_path())
    assert inst.is_solution(())


def test_edge_variant_disjoint_arcs_not_solution():
    g = Graph(4, [(0, 1), (2, 3)], directed=True)
    inst = make_instance("dag-edge-connected", graph=g)
    assert inst.is_solution((0,)) and inst.is_solution((1,))
    assert not inst.is_solution((0, 1))


def test_edge_variant_cycles_not_solution():
    t = make_instance("dag-edge-connected", graph=directed_triangle())
    assert not t.is_solution((0, 1, 2))
    pair = make_instance("dag-edge-connected",
                         graph=Graph(2, [(0, 1), (1, 0)], directed=True))
    assert pair.is_solution((0,)) and pair.is_solution((1,))
    assert not pair.is_solution((0, 1))


def test_edge_variant_directed_two_path_is_solution():
    inst = make_instance("dag-edge-connected", graph=directed_path())
    assert inst.is_solution((0, 1))


def test_edge_variant_neighbors_two_cycle_digraph():
    inst = make_instance("dag-edge-connected", graph=two_cycle_digraph())
    assert inst.neighbors((0, 1, 3)) == [(0, 2, 3, 4), (1, 2, 3), (0, 1, 4)]
    assert inst.neighbors((0, 2, 3, 4)) == [(1, 2, 3), (0, 1, 4)]


# -- the arc cut -------------------------------------------------------------------

def arc_cut(g, emask: int, v: int) -> int:
    """Reference cut of an arc candidate: the arcs of vertex v's component in
    the subgraph the candidate spans."""
    und, _, span = spanned_masks(g, emask)
    keep = 0
    for u in bits(mask_cc(und, span, v)):
        keep |= g.edge_mask_at[u]
    return keep & emask


def test_arc_cut_at_incoming_arc_matches_endpoint_cut(corpus):
    # the base cuts an arc candidate at its incoming arc e, the one arc it
    # adds to the solution, through arcs that share an endpoint; the
    # reference cuts it at either endpoint of e
    cuts = 0
    for run in corpus["dag-edge-connected"]:
        inst = build_instance("dag-edge-connected", run.index)
        g = inst.g
        full = (1 << g.m) - 1
        for s in run.solutions:
            smask = mask_of(s)
            for cand in inst._candidates(smask, bits(full & ~smask)):
                e = (cand & ~smask).bit_length() - 1
                got = mask_cc(inst.adj_masks, cand, e)
                for anchor in g.edges[e]:
                    assert got == arc_cut(g, cand, anchor), (run.index, cand, e)
                cuts += 1
    assert cuts > 1000
