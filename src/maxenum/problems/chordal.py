"""Maximal chordal subgraph plugins: induced, connected induced, edge.

Candidates keep one maximal clique around the incoming element and drop
the rest of its neighborhood, which preserves chordality: the incoming
element becomes simplicial and the remainder is a subgraph of the old
solution with a vertex's edges deleted.  The induced variants' cliques
depend on the neighborhood N(v) & S alone, so a run keeps each clique list
by that mask (``_cliques``): one entry per distinct neighborhood the run
meets, of at most as many cliques as the neighborhood has vertices, as in
any chordal graph.  Completion asks a test local to the added element
(``_extension_test``) instead of re-running the elimination of the whole
set: for the induced variants one flood per component the added vertex
does not see, for the edge variant one walk between the added edge's
endpoints around their common neighbors
(``graphs.span_depth``; Ibarra, "Fully dynamic algorithms for chordal
graphs and split graphs", ACM Trans. Algorithms, 2008).
"""

from __future__ import annotations

from ..graphs import (bits, chordal_cliques, mask_is_clique, peo_mask, span_depth,
                      spanned_masks)
from .base import GraphProblem, run_kept


class _ChordalInducedBase(GraphProblem):
    family_memos = ("_cliques",)
    _cliques = None  # the candidates' clique lists in a run, by neighborhood mask

    def _solution_mask(self, mask: int) -> bool:
        return peo_mask(self.g.und_mask, mask) is not None

    def _extension_test(self, x: int, e: int) -> bool:
        # a chordless cycle through e leaves it by two non-adjacent
        # neighbors and returns through vertices it does not see, all in one
        # component C of G[x - N(e)]; so x + e is chordal exactly when the
        # neighbors of each such C in N(e) form a clique (Berry, Heggernes
        # & Villanger 2006).  An element of the connected variant's reach
        # keeps x connected.
        und = self.g.und_mask
        nb = und[e] & x
        if mask_is_clique(und, nb):
            return True  # e is simplicial
        far = x & ~nb
        while far:
            # flood one component C of far, collecting the neighbors of C
            todo, comp, seen = far & -far, 0, 0
            while todo:
                ub = todo & -todo
                comp |= ub
                adj = und[ub.bit_length() - 1]
                seen |= adj
                todo = (todo | adj & far) & ~comp
            if not mask_is_clique(und, seen & nb):
                return False
            far &= ~comp
        return True

    def _candidates(self, smask: int, incoming):
        und, memo = self.g.und_mask, self._cliques
        for v in incoming:
            nb = und[v] & smask
            for q in run_kept(memo, nb, chordal_cliques, und, nb) or [0]:
                yield (smask & ~(nb & ~q)) | (1 << v)

    def comp_budget(self) -> int:
        n = self.ground_size
        return n * (n + 1)


class ChordalInduced(_ChordalInducedBase):
    variant = "chordal-induced"
    connected = False


class ChordalInducedConnected(_ChordalInducedBase):
    variant = "chordal-induced-connected"
    connected = True


class ChordalEdge(GraphProblem):
    """Maximal edge sets inducing a chordal subgraph (exp engine only)."""

    variant = "chordal-edge"
    ground_kind = "e"
    hereditary = False  # a later edge can supply a rejected edge's chord

    def _extension_test(self, x: int, e: int) -> bool:
        # H, the graph x spans, is chordal, so a chordless cycle of H + uv
        # runs through uv and an induced u-v path of H with 3 or more
        # edges, which holds no vertex of C, the common neighbors of u and
        # v: one inside it would be adjacent to both ends.  Conversely a
        # shortest u-v path of H - C is induced, and has 3 or more edges,
        # as uv is no edge of H and C is gone.  A vertex H does not span
        # closes no cycle
        at, ends = self.g.edge_mask_at, self.g.end_masks
        u, v = self.g.edges[e]
        common = -1
        for w in (u, v):
            es, nw = at[w] & x, 0
            if not es:
                return True
            while es:
                eb = es & -es
                nw |= ends[eb.bit_length() - 1]
                es ^= eb
            common &= nw  # nw holds w, which the other's lacks: uv is no edge of H
        return span_depth(at, ends, x, u, v, avoid=common) < 0

    def _solution_mask(self, emask: int) -> bool:
        und, _, span = spanned_masks(self.g, emask)
        return peo_mask(und, span) is not None

    def _candidates(self, emask: int, incoming):
        und, _, span = spanned_masks(self.g, emask)
        cliques = chordal_cliques(und, span)
        for e in incoming:
            a, b = self.g.edges[e]
            for w, other in ((a, b), (b, a)):
                # keep the other endpoint's edges into a clique around w,
                # making the other endpoint simplicial after adding e; a
                # vertex the solution does not span is its own clique
                for q in [c for c in cliques if (c >> w) & 1] or [1 << w]:
                    keep = 0
                    for e2 in bits(self.g.edge_mask_at[other] & emask):
                        if self.g.end_masks[e2] & q & ~(1 << other):
                            keep |= 1 << e2
                    yield (emask & ~self.g.edge_mask_at[other]) | keep | (1 << e)

    def comp_budget(self) -> int:
        return 2 * self.ground_size * (self.g.n + 1)
