"""Immutable bitmask graphs and the shared combinatorial primitives.

Everything downstream (problem plugins, engines, oracle) works on dense
0-based vertex ids and stable 0-based edge ids, so all tie-breaking rules
reduce to "smallest id first".
"""

from __future__ import annotations

import re
from typing import Iterable, Optional


class GraphFormatError(ValueError):
    """Raised for malformed edge-list input; message names the line."""


class ContractViolation(ValueError):
    """An operation was called outside its stated precondition."""


def mask_of(elems: Iterable[int]) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def checked_mask(elems: Iterable[int], n: int, out_of_range: str) -> int:
    """The mask of ids given from outside: an id whose type is not int (a
    bool too) raises ValueError, and an int e outside 0..n-1 raises
    ValueError(out_of_range.format(e=e, n=n))."""
    m = 0
    for e in elems:
        if type(e) is not int:
            raise ValueError(f"ids must be integers: {e!r}")
        if not 0 <= e < n:
            raise ValueError(out_of_range.format(e=e, n=n))
        m |= 1 << e
    return m


def bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of mask, ascending, as a tuple built at its
    exact length: the one way to list a mask's ids, for cold paths, the
    API and tests, while hot kernels scan inline (see below)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Graph:
    """Simple graph with stable edge ids, represented by bitmasks.

    ``und_mask[u]`` holds u's neighbors in the underlying undirected graph,
    used for reachability, and ``out_mask[u]`` and ``in_mask[u]`` its out-
    and in-neighbors along each edge (u, v) as stored, on an undirected
    graph too.  ``edge_mask_at[u]`` holds the edges at u, ``out_arcs[u]``
    and ``in_arcs[u]`` those stored leaving and entering u, and
    ``end_masks[e]`` the two endpoint bits of edge e.  A vertex's
    neighbors are listed, where needed, as ``bits(und_mask[u])``.
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], directed: bool = False):
        if type(n) is not int:
            raise ValueError(f"vertex count must be an integer: n={n!r}")
        if n < 0:
            raise ValueError(f"negative vertex count n={n}")
        self.n = n
        self.directed = directed
        und, out, inc = [0] * n, [0] * n, [0] * n
        edge_at, out_arcs, in_arcs = [0] * n, [0] * n, [0] * n
        elist: list[tuple[int, int]] = []
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"vertex ids must be integers: ({u!r},{v!r})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            ub, vb = 1 << u, 1 << v
            if (out[u] if directed else und[u]) & vb:
                raise ValueError(f"duplicate edge ({u},{v})")
            eb = 1 << len(elist)
            elist.append((u, v))
            und[u] |= vb
            und[v] |= ub
            out[u] |= vb
            inc[v] |= ub
            edge_at[u] |= eb
            edge_at[v] |= eb
            out_arcs[u] |= eb
            in_arcs[v] |= eb
        self.edges: tuple[tuple[int, int], ...] = tuple(elist)
        self.m = len(elist)
        self.und_mask = tuple(und)
        self.out_mask = tuple(out)
        self.in_mask = tuple(inc)
        self.edge_mask_at = tuple(edge_at)
        self.end_masks = tuple((1 << u) | (1 << v) for u, v in elist)
        self.out_arcs = tuple(out_arcs)
        self.in_arcs = tuple(in_arcs)

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.n}, m={self.m}, {kind})"


_INT = re.compile(r"[+-]?[0-9]+")


def int_pair(fields, bad: Exception) -> tuple[int, int]:
    """The two integers of a split line, each an optional sign and ASCII
    digits; more or fewer fields, or any other field, raise ``bad``."""
    if len(fields) == 2 and _INT.fullmatch(fields[0]) and _INT.fullmatch(fields[1]):
        try:
            return int(fields[0]), int(fields[1])
        except ValueError:  # more digits than the interpreter converts
            pass
    raise bad


def read_counted(text: str, shape: str, marker: str, error: type):
    """Read the header "a b [marker]" of a file given as ``shape`` "a b":
    (its line number, a, b, whether the marker is present, the other rows
    as (line number, stripped line)).  Blank lines and '#' comment lines
    are dropped; a missing or malformed header, or a negative count,
    raises ``error`` naming the line."""
    rows = [(lineno, line) for lineno, line in
            enumerate((raw.strip() for raw in text.splitlines()), start=1)
            if line and not line.startswith("#")]
    if not rows:
        raise error(f"line 0: missing header line '{shape} [{marker}]'")
    (hline, header), rows = rows[0], rows[1:]
    fields = header.split()
    marked = len(fields) == 3 and fields[2] == marker
    a, b = int_pair(fields[:2] if marked else fields,
                    error(f"line {hline}: bad header {header!r}"))
    if a < 0 or b < 0:
        raise error(f"line {hline}: negative count in header")
    return hline, a, b, marked, rows


def load_graph(text: str) -> Graph:
    """Parse the edge-list format: header "n m [directed]", then m lines "u v".

    Blank lines and comment lines, which start with '#', are skipped, and
    ids are ASCII decimal integers with an optional sign.  Duplicate edges
    are dropped (ids follow first occurrence); malformed lines, out-of-range
    ids and self-loops raise GraphFormatError naming the offending line.
    """
    hline, n, m, directed, rows = read_counted(text, "n m", "directed", GraphFormatError)
    if len(rows) != m:
        raise GraphFormatError(
            f"line {hline}: header declares {m} edges, found {len(rows)}")
    return Graph(n, parse_edge_lines(rows, n, directed), directed=directed)


def parse_edge_lines(rows, n: int, directed: bool,
                     error: type = GraphFormatError) -> list[tuple[int, int]]:
    """Edges of the (line number, "u v") rows on vertices 0..n-1, checked
    and deduplicated as ``load_graph`` describes; errors raise ``error``."""
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, line in rows:
        u, v = int_pair(line.split(), error(f"line {lineno}: expected 'u v', got {line!r}"))
        if not (0 <= u < n and 0 <= v < n):
            raise error(f"line {lineno}: vertex id out of range in {line!r}")
        if u == v:
            raise error(f"line {lineno}: self-loop at vertex {u}")
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        edges.append((u, v))
    return edges


def spanned_masks(g: Graph, emask: int) -> tuple[list[int], list[int], int]:
    """Undirected and out-neighbor masks of the subgraph an edge set spans,
    on g's vertex ids, and the mask of the vertices it spans."""
    und = [0] * g.n
    out = [0] * g.n
    span = 0
    while emask:
        low = emask & -emask
        u, v = g.edges[low.bit_length() - 1]
        und[u] |= 1 << v
        und[v] |= 1 << u
        out[u] |= 1 << v
        span |= (1 << u) | (1 << v)
        emask ^= low
    return und, out, span


# ---------------------------------------------------------------------------
# Bitmask helpers used by the hot paths of the problem plugins.
# Code that runs on every predicate evaluation, completion step or BFS layer
# scans set bits inline (``while m: low = m & -m``), not through ``bits``:
# a call that lists the ids of each small frontier, layer or set cost the
# chordal predicates 10-15%, and the exp engine about a sixth of its time
# on the hereditary families.  ``bits`` serves cold paths, the API, the
# engines' emission and tests.
# The BFS-layer walks of the pspace hot path (``base.bfs_order``, which
# defines their order, ``PspaceProblem._lex_pick``, ``pspace._prefix`` and
# ``bipartite._two_color_masks``) likewise walk
# layers inline: resuming a layer generator once per layer took 17% of a
# ``pspace-forest`` benchmark run under cProfile.
# ``span_depth``, the kernel of three edge families' extension tests, walks
# the graph an edge set spans straight from the graph's edge tables, inline
# too, and only in one endpoint's component: rebuilding the whole spanned
# graph with ``spanned_masks`` at each completion step was what the
# predicate cost them.
# ``chordal_cliques`` answers a set of at most one vertex without an
# elimination order and tests each elimination-order clique only against
# the cliques it has kept, in a plain loop: a generator inside ``all()``
# over every earlier clique cost the induced chordal cells of
# ``plugin-mix-exp`` (parts 0-2, seed 1) about a tenth of their CPU.  The
# induced chordal candidate rule and the pinterval host rule call it once
# per neighborhood mask in a run (each family's ``_cliques``), and the
# chordal-edge rule once per call, on the graph the solution's edges span,
# which differs with each solution.
# Orders that only the tests read, such as the degeneracy order, live with
# the proximity witnesses in ``tests/proximity.py``, not here.

def mask_cc(adj_masks, mask: int, v: int) -> int:
    """The component of element v inside the element set ``mask``, where
    ``adj_masks[e]`` is the mask of the elements adjacent to e, of any kind:
    a vertex's graph neighbors, or the edges sharing an endpoint with an
    edge.  v is an element of ``mask``."""
    comp = 1 << v
    frontier = comp
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= adj_masks[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & mask & ~comp
        comp |= frontier
    return comp


def mask_apart(adj_masks, mask: int, nb: int, even_ok: bool = False) -> bool:
    """Whether no two elements of ``nb``, a subset of ``mask``, lie in one
    component of the masked set; with ``even_ok``, whether each two that do
    lie an even number of BFS layers apart.  Each walk starts at the lowest
    element of ``nb`` still open, ends at the first layer that fails, and
    drops its component from ``nb``; one element left ends the test."""
    while nb & (nb - 1):
        comp = layer = nb & -nb
        odd = True
        while layer:
            grow = 0
            while layer:
                low = layer & -layer
                grow |= adj_masks[low.bit_length() - 1]
                layer ^= low
            layer = grow & mask & ~comp
            if layer & nb and (odd or not even_ok):
                return False
            comp |= layer
            odd = not odd
        nb &= ~comp
    return True


def span_depth(at, ends, x: int, src: int, dst: int, avoid: int = 0) -> int:
    """The BFS depth at which vertex ``dst`` is first reached from vertex
    ``src`` in the graph that the edge set ``x`` spans, or -1 when it is
    never reached.  From a vertex w the walk follows the edges
    ``at[w] & x`` to the vertices of ``ends[edge]``, both endpoints of the
    edge (``Graph.end_masks``); when ``at`` holds out-arcs
    (``Graph.out_arcs``) the tail is w, already walked, so only the head is
    new.  It never enters a vertex of ``avoid``, and ``src`` differs from
    ``dst``."""
    seen = (1 << src) | avoid
    target = 1 << dst
    layer = 1 << src
    depth = 0
    while layer:
        depth += 1
        es = 0
        while layer:
            low = layer & -layer
            es |= at[low.bit_length() - 1]
            layer ^= low
        es &= x
        x ^= es  # each edge is walked once
        grow = 0
        while es:
            eb = es & -es
            grow |= ends[eb.bit_length() - 1]
            es ^= eb
        layer = grow & ~seen
        if layer & target:
            return depth
        seen |= layer
    return -1


def mask_components(adj_masks, mask: int) -> list[int]:
    out = []
    left = mask
    while left:
        v = (left & -left).bit_length() - 1
        comp = mask_cc(adj_masks, left, v)
        out.append(comp)
        left &= ~comp
    return out


def mask_dists(adj_masks, mask: int, src: int) -> dict[int, int]:
    """BFS distances from src within the masked vertex set."""
    dist = {src: 0}
    frontier = 1 << src
    seen = frontier
    d = 0
    while frontier:
        grow = 0
        for u in bits(frontier):
            grow |= adj_masks[u]
        frontier = grow & mask & ~seen
        seen |= frontier
        d += 1
        for u in bits(frontier):
            dist[u] = d
    return dist


def mask_is_clique(adj_masks, mask: int) -> bool:
    """Whether the masked vertices are pairwise adjacent."""
    rest = mask
    while rest:
        ub = rest & -rest
        if (mask & ~adj_masks[ub.bit_length() - 1]) != ub:
            return False
        rest ^= ub
    return True


def peo_mask(adj_masks, mask: int) -> Optional[list[int]]:
    """Perfect elimination order of the masked vertex set by repeated
    smallest-id simplicial removal, or None when it is not chordal."""
    order = []
    left = mask
    while left:
        scan = left
        while scan:
            ub = scan & -scan
            u = ub.bit_length() - 1
            if mask_is_clique(adj_masks, adj_masks[u] & left):
                break  # u is simplicial
            scan ^= ub
        else:
            return None
        left ^= ub
        order.append(u)
    return order


def chordal_cliques(adj_masks, mask: int) -> list[int]:
    """Maximal cliques of a chordal masked vertex set, as masks, in the
    elimination-order position of their first vertex."""
    if not mask & (mask - 1):
        return [mask] if mask else []  # at most one vertex: its own clique
    peo = peo_mask(adj_masks, mask)
    if peo is None:
        raise ValueError("adjacency is not chordal")
    kept = []
    later = mask
    for u in peo:
        later ^= 1 << u
        c = (1 << u) | (adj_masks[u] & later)
        # each clique holds its first vertex and only later ones, so it can
        # sit inside an earlier clique only, and no two are equal; one inside
        # an earlier clique that was dropped lies inside a kept one too
        for d in kept:
            if not c & ~d:
                break
        else:
            kept.append(c)
    return kept
