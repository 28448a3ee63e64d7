"""Maximal k-degenerate subgraph plugins: induced and edge (exp engine only).

Both predicates run one worklist k-core peel.  Candidates keep, for each
incoming element, every set of at most k (induced) or k-1 (edge, per
endpoint) of its neighbors, in lexicographic order of their sorted ids.
The families' canonical order, the reversed degeneracy order of each
component, is a test witness (``tests/proximity.py``).
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from ..graphs import Graph, mask_of, spanned_masks
from .base import GraphProblem, tuple_of


def _peel_ok_vertices(adj, mask: int, k: int) -> bool:
    """True iff deleting vertices of degree <= k, each as soon as a worklist
    sees it, empties the set; the k-core is unique, so any order will do."""
    left = scan = mask
    while scan:
        low = scan & -scan
        scan ^= low
        a = adj[low.bit_length() - 1] & left
        if a.bit_count() <= k:
            left ^= low
            scan |= a
    return not left


class _KDegenerate(GraphProblem):
    min_k = 0

    def __init__(self, g: Graph, k: int):
        super().__init__(g)
        if type(k) is not int:
            raise ValueError(f"k must be an integer: k={k!r}")
        if k < self.min_k:
            raise ValueError(f"{self.variant} needs k >= {self.min_k}: k={k}")
        self.k = k


class KDegenerateInduced(_KDegenerate):
    variant = "kdeg-induced"

    def _solution_mask(self, mask: int) -> bool:
        return _peel_ok_vertices(self.g.und_mask, mask, self.k)

    def _candidates(self, smask: int, incoming):
        for v in incoming:
            nb = tuple_of(self.g.und_mask[v] & smask)
            base = (smask & ~mask_of(nb)) | (1 << v)
            for size in range(min(self.k, len(nb)) + 1):
                for kept in combinations(nb, size):
                    yield base | mask_of(kept)

    def comp_budget(self) -> int:
        n = self.ground_size
        return n * sum(comb(n, i) for i in range(self.k + 1))


class KDegenerateEdge(_KDegenerate):
    variant = "kdeg-edge"
    ground_kind = "e"
    min_k = 1

    def _solution_mask(self, emask: int) -> bool:
        # the induced peel, run on the spanned subgraph
        und, _, span = spanned_masks(self.g, emask)
        return _peel_ok_vertices(und, span, self.k)

    def _candidates(self, emask: int, incoming):
        for e in incoming:
            for w in self.g.edges[e]:
                inc = tuple_of(self.g.edge_mask_at[w] & emask)
                base = (emask & ~self.g.edge_mask_at[w]) | (1 << e)
                for size in range(min(self.k - 1, len(inc)) + 1):
                    for kept in combinations(inc, size):
                        yield base | mask_of(kept)

    def comp_budget(self) -> int:
        m = self.ground_size
        return 2 * m * sum(comb(m, i) for i in range(self.k))
