"""Maximal bipartite subgraph plugins: induced, connected induced, edge.

A bipartite subgraph is represented by the pair of sides (B0, B1), with
the convention that within each connected component the side holding the
smallest vertex is B0; this makes the representation unique.  Completion
of every variant asks a test local to the added element
(``_extension_test``): the induced variants compare the layers of the
added vertex's neighbors, the edge variant the parity of the shortest
path between the added edge's endpoints (``graphs.span_depth``), instead
of two-colouring the whole set.
"""

from __future__ import annotations

from typing import Optional

from ..graphs import mask_apart, span_depth, spanned_masks
from .base import GraphProblem, PspaceProblem


def _two_color_masks(adj_masks, mask: int) -> Optional[tuple[int, int]]:
    """(B0, B1) side masks of the induced subgraph: the even and the odd BFS
    layers of each component, walked inline from its smallest vertex in the
    order ``base.bfs_order`` defines, or None when an edge joins two
    vertices of one layer, which closes an odd cycle."""
    sides, odd = [0, 0], 0
    left, layer = mask, mask & -mask
    while layer:
        left ^= layer
        nbrs = 0
        scan = layer
        while scan:
            low = scan & -scan
            nbrs |= adj_masks[low.bit_length() - 1]
            scan ^= low
        if nbrs & layer:
            return None
        sides[odd] |= layer
        layer, odd = nbrs & left, odd ^ 1
        if not layer:  # the next component's depth starts at 0 at its leader
            layer, odd = left & -left, 0
    return sides[0], sides[1]


class _BipartiteInducedBase(PspaceProblem):
    def _solution_mask(self, mask: int) -> bool:
        return _two_color_masks(self.g.und_mask, mask) is not None

    def _extension_test(self, x: int, e: int) -> bool:
        # a vertex keeps the set bipartite exactly when its neighbors in each
        # component lie on one side, an even number of layers apart; an odd
        # number would close an odd cycle through it
        und = self.g.und_mask
        nb = und[e] & x
        return not nb & (nb - 1) or mask_apart(und, x, nb, even_ok=True)

    def _candidates(self, smask: int, incoming):
        und = self.g.und_mask
        sides = _two_color_masks(und, smask)
        for v in incoming:
            nb = und[v] & smask
            for side in sides:
                # v joins the other side: drop its neighbors on this one
                yield (smask & ~(nb & side)) | (1 << v)

    def comp_budget(self) -> int:
        return 2 * self.ground_size


class BipartiteInduced(_BipartiteInducedBase):
    variant = "bipartite-induced"
    connected = False


class BipartiteInducedConnected(_BipartiteInducedBase):
    variant = "bipartite-induced-connected"
    connected = True


class BipartiteEdge(GraphProblem):
    """Maximal edge sets inducing a bipartite subgraph (exp engine only)."""

    variant = "bipartite-edge"
    ground_kind = "e"

    def _extension_test(self, x: int, e: int) -> bool:
        # in the bipartite graph H that x spans every u-v path has the
        # parity of the shortest; uv closes an odd cycle exactly when that
        # path is even, and none when u does not reach v
        u, v = self.g.edges[e]
        depth = span_depth(self.g.edge_mask_at, self.g.end_masks, x, u, v)
        return depth < 0 or depth & 1 == 1

    def _solution_mask(self, emask: int) -> bool:
        und, _, span = spanned_masks(self.g, emask)
        return _two_color_masks(und, span) is not None

    def _candidates(self, emask: int, incoming):
        for e in incoming:
            for w in self.g.edges[e]:
                yield (emask & ~self.g.edge_mask_at[w]) | (1 << e)

    def comp_budget(self) -> int:
        return 2 * self.ground_size
