"""The proximity witnesses: each family's canonical order, which in the
paper defines proximity and proves the solution graph strongly connected,
and the closeness measure ``prefix_overlap`` built on it.  The package
realises the orders only through each family's candidate rule, and the
pspace engine alone reads one, ``base.bfs_order``, the order of its four
families; the other twelve live here, each a function ``(und, out, mask)``
of the undirected and out-neighbor masks of a graph and a vertex mask in
it.
The pspace families' order keys live here too, ``order_keys`` over the
layer generator ``mask_layers``: the reference that the lexicographic
completion's one walk (``PspaceProblem._lex_pick``) is checked against."""

from __future__ import annotations

from functools import cache
from itertools import takewhile
from typing import Iterable, Optional

from maxenum.graphs import (Graph, bits, checked_mask, mask_components, mask_of, peo_mask,
                            spanned_masks)
from maxenum.problems.base import PspaceProblem, bfs_order


def layer_order(und, out, mask: int) -> list[int]:
    """The dag families' order: the lexicographically smallest order of the
    masked vertex set with connected prefixes in which every vertex has an
    empty backward out- or in-neighborhood.  Its memo is keyed by placed
    subsets, so time and space are bounded only by 2^|mask|."""
    verts = list(bits(mask))
    inc = [0] * len(out)  # in-neighbor masks, inside the set
    for u in verts:
        for v in bits(out[u] & mask):
            inc[v] |= 1 << u

    @cache
    def completable(placed: int) -> bool:
        return placed == mask or any(fits(placed, v) for v in verts)

    def fits(placed: int, v: int) -> bool:
        # v extends the placed prefix, and some order extends the result
        return (not (placed >> v) & 1 and (not placed or und[v] & placed)
                and not (out[v] & placed and inc[v] & placed)
                and completable(placed | 1 << v))

    if not completable(0):
        raise ValueError("no valid vertex order exists")
    order: list[int] = []
    while len(order) < len(verts):
        placed = mask_of(order)
        order.append(next(v for v in verts if fits(placed, v)))
    return order


def degeneracy_mask(adj_masks, mask: int) -> tuple[list[int], int]:
    """Smallest-degree removal order of the masked vertex set (ties to
    smallest id), and the maximum degree seen at removal time, which is its
    degeneracy."""
    order = []
    degeneracy = 0
    left = mask
    while left:
        # min keeps the first of equal degrees, and bits ascend
        u = min(bits(left), key=lambda x: (adj_masks[x] & left).bit_count())
        degeneracy = max(degeneracy, (adj_masks[u] & left).bit_count())
        order.append(u)
        left ^= 1 << u
    return order, degeneracy


def reversed_peo(und, out, mask: int) -> list[int]:
    """The chordal families' order: the reversed perfect elimination order
    of the masked vertex set; raises ValueError when it is not chordal."""
    peo = peo_mask(und, mask)
    if peo is None:
        raise ValueError("not a chordal vertex set")
    return peo[::-1]


def by_components(layout):
    """The order listing the components of a masked vertex set by smallest
    vertex, each as ``layout(und, component)`` orders it."""
    return lambda und, out, mask: [u for c in mask_components(und, mask)
                                   for u in layout(und, c)]


def vertex_order(problem):
    """The canonical vertex order of a graph family, which an edge family
    shares with its vertex twin: the BFS layers of ``bfs_order`` for the
    pspace families and bipartite-edge, else the reversed perfect
    elimination order, the least layered order, or per component the
    unit-interval or reversed degeneracy one."""
    family = problem.variant.split("-")[0]
    if isinstance(problem, PspaceProblem) or family == "bipartite":
        return lambda und, out, mask: bfs_order(und, mask)
    if family == "pinterval":
        return by_components(lambda und, c: problem.component_layout(c))
    return {"chordal": reversed_peo, "dag": layer_order,
            "kdeg": by_components(lambda und, c: degeneracy_mask(und, c)[0][::-1])}[family]


def canonical_order(problem, solution: Iterable[int]) -> list[int]:
    """The family's vertex order of a vertex solution, with its ids checked
    as the problem's API checks them.  An edge solution is sorted by the
    later, then the earlier, position of each edge's endpoints in that
    order of the subgraph the edges span."""
    mask = problem._mask(solution)
    g, order = problem.g, vertex_order(problem)
    if problem.ground_kind == "v":
        return order(g.und_mask, g.out_mask, mask)
    und, out, span = spanned_masks(g, mask)
    pos = {u: i for i, u in enumerate(order(und, out, span))}
    return sorted(bits(mask), key=lambda e: sorted((pos[u] for u in g.edges[e]),
                                                   reverse=True))


def prefix_overlap(problem, elems: Iterable[int], target: Iterable[int]) -> int:
    """Length of the longest prefix of target's canonical order inside
    elems.  The hull families have no canonical order and rank closeness by
    the intersection: its size, or for hulls-connected the size of its
    largest connected piece."""
    have = set(elems)
    if problem.variant.startswith("hulls"):
        inter = mask_of(have & set(target))
        if not problem.connected:
            return inter.bit_count()
        return max((c.bit_count() for c in mask_components(problem.adj_masks, inter)),
                   default=0)
    return len(list(takewhile(have.__contains__, canonical_order(problem, target))))


def degeneracy_order(g: Graph, s: Iterable[int]) -> tuple[list[int], int]:
    """Smallest-degree removal order of G[s] (ties to smallest id) and its
    degeneracy; see ``degeneracy_mask``."""
    return degeneracy_mask(g.und_mask,
                           checked_mask(s, g.n, "vertex {e} out of range for n={n}"))


def perfect_elimination_order(g: Graph, s: Iterable[int]) -> Optional[list[int]]:
    """PEO of G[s] if chordal (doubles as the chordality test), else None."""
    return peo_mask(g.und_mask, checked_mask(s, g.n, "vertex {e} out of range for n={n}"))


def mask_layers(adj_masks, mask: int, v: int):
    """(slot, depth, layer, nbrs) for each BFS layer of the masked set: v's
    component first, walked from v, at slot 0, then every other one from its
    leader, its smallest vertex, by ascending leader, at slot leader + 1.
    ``nbrs`` is the union of the layer's adjacency rows, not cut to the
    mask.  v must lie in a non-empty mask."""
    left, slot, leader = mask, 0, v
    while left:
        layer, depth = 1 << leader, 0
        while layer:
            left ^= layer
            nbrs = 0
            for u in bits(layer):
                nbrs |= adj_masks[u]
            yield slot, depth, layer, nbrs
            layer = nbrs & left
            depth += 1
        leader = (left & -left).bit_length() - 1
        slot = leader + 1


def order_keys(problem: PspaceProblem, xmask: int, v: int,
               elems: Iterable[int]) -> dict[int, tuple]:
    """Sort keys for elements of X and X+ under the order rooted at v.

    One pass over ``mask_layers`` reads them off.  The components of G[X]
    take slot 0 for v's own and leader + 1 for any other, whose leader is
    its smallest vertex, so the root component sorts first.  An element of
    X is keyed (slot, BFS depth from the leader, id).  An extension e is
    keyed at the first layer whose neighbors hold it: (slot, depth + 1, e)
    when that slot is at most e; otherwise, as when it touches no layer, it
    leads a component of its own, (e + 1, 0, e).
    """
    if not (xmask >> v) & 1:
        raise ValueError(f"order root {v} is not in the set")
    keys = {}
    todo = mask_of(elems)
    for slot, depth, layer, nbrs in mask_layers(problem.g.und_mask, xmask, v):
        own, touched = layer & todo, nbrs & todo & ~xmask
        todo ^= own | touched
        for e in bits(own):
            keys[e] = (slot, depth, e)
        for e in bits(touched):
            keys[e] = (slot, depth + 1, e) if slot <= e else (e + 1, 0, e)
        if not todo:
            break
    for e in bits(todo):
        keys[e] = (e + 1, 0, e)
    return keys
