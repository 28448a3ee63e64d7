"""Checks shared by the graph problems: each variant accepts only the graph
direction its family is defined on, and says which variant refused the
input; each edge variant keeps its canonical orders."""

import re

import pytest

from maxenum import Graph, enumerate_exp, make_instance
from maxenum.problems import GRAPH_VARIANTS, K_VARIANTS


@pytest.mark.parametrize("variant", sorted(GRAPH_VARIANTS | K_VARIANTS))
def test_graph_variant_rejects_wrong_direction(variant):
    wants_directed = variant.startswith("dag-")
    g = Graph(3, [(0, 1), (1, 2)], directed=not wants_directed)
    kind = "a directed" if wants_directed else "an undirected"
    k = 1 if variant in K_VARIANTS else None
    with pytest.raises(ValueError, match=re.escape(f"{variant} expects {kind} graph")):
        make_instance(variant, graph=g, k=k)


# -- edge canonical orders ------------------------------------------------------
# Every solution of one named instance per edge variant, with the canonical
# order each had before the edge orders were rebuilt on spanned-subgraph
# masks; the orders are the vertex twin's order of the spanned subgraph.

def house():
    # the 5-cycle 0-1-2-3-4 with the chord 1-4
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)])


def two_cycle_digraph():
    # the directed triangle 0->1->2->0 and the directed triangle 1->2->3->1
    return Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 1)], directed=True)


EDGE_CANONICAL_ORDERS = [
    ("bipartite-edge", house, None, {
        (0, 1, 2, 3, 5): [0, 1, 5, 2, 3],
        (0, 2, 3, 4): [0, 4, 3, 2],
        (0, 1, 2, 4): [0, 4, 1, 2],
        (0, 1, 3, 4): [0, 4, 1, 3],
        (1, 2, 3, 4, 5): [4, 5, 3, 1, 2],
    }),
    ("kdeg-edge", house, 1, {
        (0, 1, 2, 3): [3, 2, 1, 0],
        (0, 2, 3, 4): [3, 2, 4, 0],
        (0, 1, 2, 4): [4, 0, 1, 2],
        (0, 1, 2, 5): [5, 1, 2, 0],
        (0, 2, 3, 5): [3, 2, 5, 0],
        (1, 3, 4, 5): [3, 5, 1, 4],
        (2, 3, 4, 5): [3, 2, 5, 4],
        (0, 1, 3, 5): [3, 5, 1, 0],
        (1, 2, 4, 5): [5, 1, 2, 4],
        (0, 1, 3, 4): [3, 4, 0, 1],
        (1, 2, 3, 4): [3, 2, 1, 4],
    }),
    ("chordal-edge", house, None, {
        (0, 1, 2, 3): [3, 2, 1, 0],
        (0, 1, 3, 4, 5): [3, 5, 1, 4, 0],
        (1, 2, 3, 4): [3, 2, 1, 4],
        (0, 2, 3, 4, 5): [3, 2, 5, 4, 0],
        (0, 1, 2, 4, 5): [5, 1, 2, 4, 0],
    }),
    ("dag-edge-connected", two_cycle_digraph, None, {
        (0, 1, 3): [0, 1, 3],
        (1, 2, 3): [2, 1, 3],
        (0, 1, 4): [0, 1, 4],
        (1, 2, 4): [2, 1, 4],
        (0, 2, 3, 4): [0, 4, 2, 3],
    }),
]


@pytest.mark.parametrize("variant,graph,k,orders", EDGE_CANONICAL_ORDERS,
                         ids=[case[0] for case in EDGE_CANONICAL_ORDERS])
def test_edge_canonical_orders(variant, graph, k, orders):
    inst = make_instance(variant, graph=graph(), k=k)
    sols = []
    enumerate_exp(inst, emit=sols.append)
    assert {s: inst.canonical_order(s) for s in sols} == orders
