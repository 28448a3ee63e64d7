"""Maximal induced tree and induced forest plugins (both engines)."""

from __future__ import annotations

from ..graphs import bits, mask_components
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

    def _candidate(self, smask: int, v: int, w: int) -> int:
        # keep exactly one neighbor w of the incoming vertex v
        nb = self.g.und_mask[v] & smask
        cand = (smask & ~nb) | (1 << w) | (1 << v)
        return self._restrict(cand, v)

    def _candidates(self, smask: int, incoming):
        for v in incoming:
            attach = self.g.und_mask[v] & smask
            if not attach and self.connected:
                # restart in the component of v; nothing of the current
                # solution can coexist with it in a connected candidate
                yield 1 << v
            for w in bits(attach):
                yield self._candidate(smask, v, w)

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
