"""Maximal induced tree and induced forest plugins (both engines), whose
predicates share one single-pass kernel, ``_is_forest``."""

from __future__ import annotations

from .base import PspaceProblem


def _is_forest(adj, mask: int) -> bool:
    """True iff G[mask] has no cycle: a layered BFS of each component meets
    no edge inside a layer and reaches no vertex twice."""
    left = mask
    while left:
        layer = left & -left
        while layer:
            left ^= layer
            nxt, scan = 0, layer
            while scan:
                low = scan & -scan
                nb = adj[low.bit_length() - 1]
                a = nb & left
                if nb & layer or a & nxt:
                    return False
                nxt |= a
                scan ^= low
            layer = nxt
    return True


class _AcyclicBase(PspaceProblem):
    def _solution_mask(self, mask: int) -> bool:
        # the base has already made a tree's set one component, or empty
        return _is_forest(self.g.und_mask, mask)

    def _candidates(self, smask: int, incoming):
        und = self.g.und_mask
        for v in incoming:
            attach = und[v] & smask
            if not attach:
                # v joins no vertex of the solution; the base cuts a tree's
                # candidate to v alone, and a maximal forest never gets here
                yield smask | (1 << v)
            rest = (smask & ~attach) | (1 << v)
            while attach:
                low = attach & -attach
                yield rest | low  # keep exactly one neighbor of v
                attach ^= low

    def comp_budget(self) -> int:
        return 2 * self.g.m + self.g.n


class Trees(_AcyclicBase):
    variant = "trees"
    connected = True

    def _extension_test(self, x: int, e: int) -> bool:
        # a vertex adjacent to a tree keeps it one exactly when it sees a
        # single vertex of it; two would close a cycle
        return not x or (self.g.und_mask[e] & x).bit_count() == 1


class Forests(_AcyclicBase):
    variant = "forests"
    connected = False
