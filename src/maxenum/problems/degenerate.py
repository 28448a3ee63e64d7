"""Maximal k-degenerate subgraph plugins: induced and edge (exp engine only).

Both predicates run one worklist k-core peel (Batagelj & Zaversnik
2003).  Completion asks a test that peels only until the added element
goes (``_extension_test``): a solution x has no (k+1)-core, so any
(k+1)-core of x + e holds e, as a new core holds the inserted element in
core maintenance (Li, Yu & Mao 2014).  Candidates keep, for each
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


def _peel_ok_vertices(adj, mask: int, k: int, until: int = -1) -> bool:
    """True iff deleting vertices of degree <= k, each as soon as a worklist
    sees it, deletes every vertex of ``until`` in the set, all of them by
    default; the peel stops when the last of them goes.  What is left at
    the end is the (k+1)-core, which is unique, so any order will do."""
    left = scan = mask
    while scan:
        low = scan & -scan
        scan ^= low
        a = adj[low.bit_length() - 1] & left
        if a.bit_count() <= k:
            left ^= low
            if not left & until:
                return True
            scan |= a
    return not left & until


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

    def _extension_test(self, x: int, e: int) -> bool:
        # x has no (k+1)-core, so x + e has one exactly when e survives the
        # peel: e with at most k neighbors in x goes first
        und = self.g.und_mask
        if (und[e] & x).bit_count() <= self.k:
            return True
        return _peel_ok_vertices(und, x | 1 << e, self.k, 1 << e)

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

    def _extension_test(self, x: int, e: int) -> bool:
        # the induced test's argument on the spanned subgraph: x + e has a
        # (k+1)-core exactly when e survives the peel, each peeled vertex
        # dropping its edges; an endpoint with fewer than k edges in x goes
        # first, and e with it
        at, k = self.g.edge_mask_at, self.k
        u, v = self.g.edges[e]
        if (at[u] & x).bit_count() < k or (at[v] & x).bit_count() < k:
            return True
        und = self.g.und_mask
        left = x | 1 << e
        scan = (1 << self.g.n) - 1
        while scan:
            low = scan & -scan
            scan ^= low
            w = low.bit_length() - 1
            a = at[w] & left
            if a and a.bit_count() <= k:
                if (a >> e) & 1:
                    return True
                left ^= a
                scan |= und[w]
        return False

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
