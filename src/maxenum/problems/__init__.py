"""Problem registry: variant names to plugin constructors, each name read
off its class's ``variant``."""

from __future__ import annotations

from ..graphs import Graph
from .base import GraphProblem, Problem, PspaceProblem
from .bipartite import BipartiteEdge, BipartiteInduced, BipartiteInducedConnected
from .chordal import ChordalEdge, ChordalInduced, ChordalInducedConnected
from .dag import DagEdgeConnected, DagInducedConnected
from .degenerate import KDegenerateEdge, KDegenerateInduced, _KDegenerate
from .geometry import Hulls, HullsConnected, PointSetInstance
from .interval import ProperIntervalConnected, ProperIntervalInduced
from .trees import Forests, Trees

VARIANTS = {cls.variant: cls for cls in (
    BipartiteInduced, BipartiteInducedConnected, BipartiteEdge,
    ChordalInduced, ChordalInducedConnected, ChordalEdge,
    ProperIntervalInduced, ProperIntervalConnected,
    DagInducedConnected, DagEdgeConnected, Trees, Forests,
    KDegenerateInduced, KDegenerateEdge,
    Hulls, HullsConnected)}

# what a family is built from: a graph and the parameter k, a point-set
# instance, or a graph alone
K_VARIANTS = {v: cls for v, cls in VARIANTS.items() if issubclass(cls, _KDegenerate)}
POINT_VARIANTS = {v: cls for v, cls in VARIANTS.items() if not issubclass(cls, GraphProblem)}
GRAPH_VARIANTS = {v: cls for v, cls in VARIANTS.items()
                  if v not in K_VARIANTS and v not in POINT_VARIANTS}

ALL_VARIANTS = sorted(VARIANTS)

# variants whose canonical orders are prefix-closed BFS orders, hence
# eligible for the dictionary-free parent-forest engine
PSPACE_VARIANTS = tuple(v for v, cls in VARIANTS.items() if issubclass(cls, PspaceProblem))


def make_instance(variant: str, *, graph: Graph = None,
                  points: PointSetInstance = None, k: int = None) -> Problem:
    cls = VARIANTS.get(variant)
    if cls is None:
        raise ValueError(f"unknown problem variant {variant!r}")
    if k is not None and variant not in K_VARIANTS:
        raise ValueError(f"{variant} takes no parameter k")
    if variant in POINT_VARIANTS:
        if points is None:
            raise ValueError(f"{variant} needs a point-set instance")
        return cls(points)
    if graph is None:
        raise ValueError(f"{variant} needs a graph")
    if variant not in K_VARIANTS:
        return cls(graph)
    if k is None:
        raise ValueError(f"{variant} needs the parameter k")
    return cls(graph, k)
