"""Maximal induced tree and induced forest plugins (both engines)."""

from __future__ import annotations

from ..graphs import mask_components
from .base import PspaceProblem


def _edge_count(adj_masks, mask: int) -> int:
    total = 0
    rest = mask
    while rest:
        low = rest & -rest
        total += (adj_masks[low.bit_length() - 1] & mask).bit_count()
        rest ^= low
    return total // 2


class _AcyclicBase(PspaceProblem):
    def _solution_mask(self, mask: int) -> bool:
        # a forest has one edge fewer than vertices in each component; the
        # base has already made a tree's set one component, or empty
        comps = (mask != 0 if self.connected
                 else len(mask_components(self.g.und_mask, mask)))
        return _edge_count(self.g.und_mask, mask) == mask.bit_count() - comps

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
