"""Maximal chordal subgraph plugins: induced, connected induced, edge.

Candidates keep one maximal clique around the incoming element and drop
the rest of its neighborhood, which preserves chordality: the incoming
element becomes simplicial and the remainder is a subgraph of the old
solution with a vertex's edges deleted.
"""

from __future__ import annotations

from ..graphs import (Graph, bits, chordal_cliques, edge_canonical_order,
                      mask_components, mask_of, peo_mask,
                      perfect_elimination_order, spanned_masks)
from .base import GraphProblem, tuple_of


def _reversed_peo(g: Graph, s) -> list[int]:
    """Reversed perfect elimination order of G[s], the chordal canonical
    order; raises ValueError when G[s] is not chordal."""
    peo = perfect_elimination_order(g, s)
    if peo is None:
        raise ValueError("not a chordal vertex set")
    return peo[::-1]


class _ChordalInducedBase(GraphProblem):
    def _solution_mask(self, mask: int) -> bool:
        if self.connected and len(mask_components(self.g.und_mask, mask)) > 1:
            return False
        return peo_mask(self.g.und_mask, mask) is not None

    def cliques_at(self, solution, v: int) -> list[tuple[int, ...]]:
        """Maximal cliques of G[solution + {v}] containing v.

        These are the maximal cliques of the chordal graph induced by the
        solution vertices adjacent to v, each extended by v itself.
        """
        smask = mask_of(solution)
        if (smask >> v) & 1:
            raise ValueError(f"vertex {v} already in the solution")
        core = self.g.und_mask[v] & smask
        return [tuple_of(q | (1 << v))
                for q in chordal_cliques(self.g.und_mask, core) or [0]]

    def _candidates(self, smask: int, incoming):
        und = self.g.und_mask
        for v in incoming:
            nb = und[v] & smask
            for q in chordal_cliques(und, nb) or [0]:
                yield self._restrict((smask & ~(nb & ~q)) | (1 << v), v)

    def comp_budget(self) -> int:
        n = self.ground_size
        return n * (n + 1)

    def canonical_order(self, solution) -> list[int]:
        return _reversed_peo(self.g, solution)


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

    def _solution_mask(self, emask: int) -> bool:
        und, _, span = spanned_masks(self.g, emask)
        return peo_mask(und, span) is not None

    def _comp_mask(self, emask: int) -> int:
        # the one family where a rejection is not final: an edge rejected
        # now can become addable after another edge supplies its chord, so
        # rescan from the smallest id after each addition, until a full pass
        # adds nothing
        while True:
            for e in bits(self._reach(emask)):
                b = 1 << e
                if self.sol(emask | b):
                    emask |= b
                    break
            else:
                return emask

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
                        x, y = self.g.edges[e2]
                        mate = y if x == other else x
                        if (q >> mate) & 1:
                            keep |= 1 << e2
                    yield (emask & ~self.g.edge_mask_at[other]) | keep | (1 << e)

    def comp_budget(self) -> int:
        return 2 * self.ground_size * (self.g.n + 1)

    def canonical_order(self, solution) -> list[int]:
        return edge_canonical_order(self.g, solution, _reversed_peo)
