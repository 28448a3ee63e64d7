"""Problem registry: variant names to plugin constructors."""

from __future__ import annotations

from ..graphs import Graph
from .base import Problem, PspaceProblem
from .bipartite import BipartiteEdge, BipartiteInduced, BipartiteInducedConnected
from .chordal import ChordalEdge, ChordalInduced, ChordalInducedConnected
from .dag import DagEdgeConnected, DagInducedConnected
from .degenerate import KDegenerateEdge, KDegenerateInduced
from .geometry import Hulls, HullsConnected, PointSetInstance
from .interval import ProperIntervalConnected, ProperIntervalInduced
from .trees import Forests, Trees

GRAPH_VARIANTS = {
    "bipartite-induced": BipartiteInduced,
    "bipartite-induced-connected": BipartiteInducedConnected,
    "bipartite-edge": BipartiteEdge,
    "chordal-induced": ChordalInduced,
    "chordal-induced-connected": ChordalInducedConnected,
    "chordal-edge": ChordalEdge,
    "pinterval-induced": ProperIntervalInduced,
    "pinterval-induced-connected": ProperIntervalConnected,
    "dag-induced-connected": DagInducedConnected,
    "dag-edge-connected": DagEdgeConnected,
    "trees": Trees,
    "forests": Forests,
}

K_VARIANTS = {
    "kdeg-induced": KDegenerateInduced,
    "kdeg-edge": KDegenerateEdge,
}

POINT_VARIANTS = {
    "hulls": Hulls,
    "hulls-connected": HullsConnected,
}

ALL_VARIANTS = sorted(GRAPH_VARIANTS | K_VARIANTS | POINT_VARIANTS)

# variants whose canonical orders are prefix-closed BFS orders, hence
# eligible for the dictionary-free parent-forest engine
PSPACE_VARIANTS = tuple(name for name, cls in GRAPH_VARIANTS.items()
                        if issubclass(cls, PspaceProblem))


def make_instance(variant: str, *, graph: Graph = None,
                  points: PointSetInstance = None, k: int = None) -> Problem:
    if k is not None and (variant in GRAPH_VARIANTS or variant in POINT_VARIANTS):
        raise ValueError(f"{variant} takes no parameter k")
    if variant in GRAPH_VARIANTS:
        if graph is None:
            raise ValueError(f"{variant} needs a graph")
        return GRAPH_VARIANTS[variant](graph)
    if variant in K_VARIANTS:
        if graph is None:
            raise ValueError(f"{variant} needs a graph")
        if k is None:
            raise ValueError(f"{variant} needs the parameter k")
        return K_VARIANTS[variant](graph, k)
    if variant in POINT_VARIANTS:
        if points is None:
            raise ValueError(f"{variant} needs a point-set instance")
        return POINT_VARIANTS[variant](points)
    raise ValueError(f"unknown problem variant {variant!r}")
