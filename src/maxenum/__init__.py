"""maxenum: maximal-subgraph enumeration by solution-graph traversal.

Two engines over a common problem contract: an exponential-space traversal
guarded by a set of visited solution masks, and a polynomial-space
parent-forest traversal for the families whose canonical orders are
prefix-closed.
"""

from .engine import Counters, PartialOutputError, SolutionDict, enumerate_exp
from .graphs import (ContractViolation, Graph, GraphFormatError, degeneracy_order,
                     load_graph, perfect_elimination_order)
from .oracle import OracleCapError, brute_force_maximal
from .problems import (ALL_VARIANTS, PSPACE_VARIANTS, make_instance)
from .problems.geometry import PointSetInstance, load_points
from .pspace import enumerate_pspace

__all__ = [
    "ALL_VARIANTS", "ContractViolation", "Counters", "Graph",
    "GraphFormatError", "OracleCapError", "PSPACE_VARIANTS",
    "PartialOutputError", "PointSetInstance", "SolutionDict",
    "brute_force_maximal", "degeneracy_order", "enumerate_exp",
    "enumerate_pspace", "load_graph", "load_points", "make_instance",
    "perfect_elimination_order",
]

__version__ = "0.1.0"
