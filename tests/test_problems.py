"""Input checks shared by every graph problem: each variant accepts only
the graph direction its family is defined on, and says which variant
refused the input."""

import re

import pytest

from maxenum import Graph, make_instance
from maxenum.problems import GRAPH_VARIANTS, K_VARIANTS


@pytest.mark.parametrize("variant", sorted(GRAPH_VARIANTS | K_VARIANTS))
def test_graph_variant_rejects_wrong_direction(variant):
    wants_directed = variant.startswith("dag-")
    g = Graph(3, [(0, 1), (1, 2)], directed=not wants_directed)
    kind = "a directed" if wants_directed else "an undirected"
    k = 1 if variant in K_VARIANTS else None
    with pytest.raises(ValueError, match=re.escape(f"{variant} expects {kind} graph")):
        make_instance(variant, graph=g, k=k)
