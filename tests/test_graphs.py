import random
import sys
from collections import Counter

import pytest

from maxenum import make_instance
from maxenum.graphs import (ContractViolation, Graph, GraphFormatError, bits, chordal_cliques,
                            load_graph, mask_cc, mask_dists, mask_of, span_depth,
                            spanned_masks)
from maxenum.problems.base import bfs_order, tuple_of
from maxenum.problems.bipartite import _two_color_masks
from maxenum.problems.dag import _acyclic
from maxenum.problems.degenerate import _peel_core
from maxenum.problems.geometry import PointFormatError, load_points
from maxenum.problems.trees import _is_forest

from conftest import complete, components, cycle, path, random_graph, star, triangle
from proximity import degeneracy_order, mask_layers, order_keys, perfect_elimination_order


def connected_component(g, s, v):
    """Vertices of s reachable from v inside the induced subgraph G[s].

    Directed graphs are treated as undirected for reachability.
    """
    sset = set(s)
    if v not in sset:
        raise ContractViolation(f"vertex {v} not in the candidate set")
    return set(bits(mask_cc(g.und_mask, mask_of(sset), v)))


def bfs_canonical_order(g, s, root):
    """Order G[s] by (distance from root, vertex id); G[s] must be connected."""
    sset = set(s)
    if root not in sset:
        raise ContractViolation(f"root {root} not in the candidate set")
    dist = mask_dists(g.und_mask, mask_of(sset), root)
    if len(dist) != len(sset):
        raise ContractViolation("candidate set does not induce a connected subgraph")
    return sorted(sset, key=lambda u: (dist[u], u))


# -- loader -------------------------------------------------------------------

def test_load_triangle():
    g = load_graph("3 3\n0 1\n1 2\n0 2")
    assert g.n == 3 and g.m == 3 and not g.directed
    assert g.edges == ((0, 1), (1, 2), (0, 2))
    assert g.und_adj[0] == (1, 2)


def test_load_edgeless():
    g = load_graph("2 0")
    assert g.n == 2 and g.m == 0
    assert g.und_mask == (0, 0)


def test_load_directed_path():
    g = load_graph("3 2 directed\n0 1\n1 2")
    assert g.directed
    assert g.out_adj[0] == (1,) and g.in_adj[1] == (0,)
    assert g.out_adj[2] == () and g.und_adj[1] == (0, 2)


def test_load_comments_and_duplicates():
    g = load_graph("# a triangle with a repeat\n3 4\n0 1\n1 2\n1 0\n0 2\n")
    assert g.m == 3
    assert g.edges == ((0, 1), (1, 2), (0, 2))


@pytest.mark.parametrize("text,fragment", [
    ("3 1\n0 nope", "line 2"),
    ("3 1\n0 7", "out of range"),
    ("3 1\n1 1", "self-loop"),
    ("3 2\n0 1", "declares 2 edges"),
    ("", "missing header"),
    ("x y\n", "bad header"),
    ("-1 0\n", "negative count"),
])
def test_load_errors(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        load_graph(text)


@pytest.mark.parametrize("n,edges,fragment", [
    (3, [(0, 3)], r"edge \(0,3\) out of range for n=3"),
    (2, [(1, 1)], "self-loop at vertex 1"),
    (2, [(0, 1), (1, 0)], r"duplicate edge \(1,0\)"),
])
def test_graph_rejects_bad_edges(n, edges, fragment):
    # the loader names a bad line and drops repeats; a Graph built directly
    # checks the edges it is given
    with pytest.raises(ValueError, match=fragment):
        Graph(n, edges)


# fields that Python's int() reads but the formats do not: a digit
# separator, a full-width zero and an Arabic-Indic three
@pytest.mark.parametrize("field", ["1_2", "\uff10", "\u0663"])
@pytest.mark.parametrize("load,error,text,fragment", [
    (load_graph, GraphFormatError, "{} 1\n0 1", "line 1: bad header"),
    (load_graph, GraphFormatError, "13 {}\n", "line 1: bad header"),
    (load_graph, GraphFormatError, "13 1\n0 {}", "line 2: expected 'u v'"),
    (load_points, PointFormatError, "{} 0\n0 0", "line 1: bad header"),
    (load_points, PointFormatError, "1 0\n# a point\n{} 3", "line 3: expected 'x y'"),
    (load_points, PointFormatError, "2 0 connected\n0 0\n1 1\n0 {}",
     "line 4: expected 'u v'"),
], ids=["graph-header-n", "graph-header-m", "graph-edge", "points-header",
        "points-point", "points-edge"])
def test_loaders_read_only_ascii_decimal_integers(load, error, text, fragment, field):
    with pytest.raises(error, match=fragment):
        load(text.format(field))


def test_a_field_past_the_digit_limit_names_its_line():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integers of any length")
    with pytest.raises(GraphFormatError, match="line 2: expected 'u v'"):
        load_graph("3 1\n0 " + "1" * (limit + 1))


def test_loaders_keep_signed_integers():
    g = load_graph("+3 1\n0 +2")
    assert (g.n, g.edges) == (3, ((0, 2),))
    assert load_points("1 0\n+3 -4").interest == [(3, -4)]


def test_graph_rejects_negative_vertex_count():
    with pytest.raises(ValueError, match="n=-2"):
        Graph(-2, [])


@pytest.mark.parametrize("n, edges", [
    (3, [(True, 2)]), (3, [(0, False)]), (3, [(0.0, 2)]), (3, [(0, "2")]),
    (3.0, []), ("3", []), (True, []),
])
def test_graph_rejects_ids_that_are_not_ints(n, edges):
    # a bool passed the range checks and was stored as a vertex id; a float
    # or a string died later with a bare TypeError
    with pytest.raises(ValueError, match="must be (an integer|integers)"):
        Graph(n, edges)


@pytest.mark.parametrize("helper", [degeneracy_order, perfect_elimination_order])
@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_exported_helpers_reject_vertex_ids_that_are_not_ints(helper, bad):
    with pytest.raises(ValueError, match=f"ids must be integers: {bad!r}"):
        helper(path(3), [0, bad])


# -- connected components -----------------------------------------------------

def test_cc_c4_opposite_corners():
    assert connected_component(cycle(4), {0, 2}, 0) == {0}


def test_cc_path():
    assert connected_component(path(3), {0, 1, 2}, 2) == {0, 1, 2}


def test_cc_k4_subset():
    assert connected_component(complete(4), {0, 1, 3}, 3) == {0, 1, 3}


def test_cc_requires_membership():
    with pytest.raises(ContractViolation):
        connected_component(path(3), {0, 1}, 2)


def test_cc_fixed_point():
    rng = random.Random(7)
    for _ in range(25):
        g = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                      if rng.random() < 0.4])
        s = {v for v in range(6) if rng.random() < 0.7}
        if not s:
            continue
        v = rng.choice(sorted(s))
        comp = connected_component(g, s, v)
        assert connected_component(g, comp, v) == comp


# -- BFS canonical order ------------------------------------------------------

def test_bfs_order_path_from_end():
    assert bfs_canonical_order(path(3), {0, 1, 2}, 0) == [0, 1, 2]


def test_bfs_order_c4_tie_break():
    # distances 0,1,1,2 from vertex 0; the tie at distance 1 puts 1 before 3
    assert bfs_canonical_order(cycle(4), {0, 1, 2, 3}, 0) == [0, 1, 3, 2]


def test_bfs_order_star():
    assert bfs_canonical_order(star(3), {0, 1, 2, 3}, 0) == [0, 1, 2, 3]


def test_bfs_order_rejects_disconnected():
    with pytest.raises(ContractViolation):
        bfs_canonical_order(cycle(4), {0, 2}, 0)


def test_bfs_order_prefixes_connected():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 8)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        comps = components(g, range(n))
        comp = comps[rng.randrange(len(comps))]
        root = min(comp)
        order = bfs_canonical_order(g, comp, root)
        for i in range(1, len(order) + 1):
            assert len(components(g, order[:i])) == 1


# -- degeneracy ---------------------------------------------------------------

def test_degeneracy_k4():
    assert degeneracy_order(complete(4), range(4)) == ([0, 1, 2, 3], 3)


def test_degeneracy_path():
    assert degeneracy_order(path(4), range(4))[1] == 1


def test_degeneracy_triangle_with_pendant():
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    order, d = degeneracy_order(g, range(4))
    assert order[0] == 3 and d == 2


def test_degeneracy_forest_at_most_one():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 8)
        edges = [(rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.8]
        g = Graph(n, edges)
        assert degeneracy_order(g, range(n))[1] <= 1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_degeneracy_complete_graph(k):
    assert degeneracy_order(complete(k + 1), range(k + 1))[1] == k


# -- perfect elimination order --------------------------------------------------

def test_peo_triangle():
    assert perfect_elimination_order(triangle(), range(3)) == [0, 1, 2]


def test_peo_c4_absent():
    assert perfect_elimination_order(cycle(4), range(4)) is None


def test_chordal_cliques_refuse_c4():
    with pytest.raises(ValueError, match="adjacency is not chordal"):
        chordal_cliques(cycle(4).und_mask, 0b1111)


def test_peo_path_tie_break():
    assert perfect_elimination_order(path(3), range(3)) == [0, 1, 2]


@pytest.mark.parametrize("helper", [degeneracy_order, perfect_elimination_order])
@pytest.mark.parametrize("ids, bad", [([0, 5], 5), ([3], 3), ([-1], -1), ([1, -2], -2)])
def test_exported_helpers_reject_vertex_ids_outside_the_graph(helper, ids, bad):
    # ids come from the caller, so each one outside 0..n-1 is named with n
    with pytest.raises(ValueError, match=rf"vertex {bad} out of range for n=3"):
        helper(path(3), ids)


def _chordal_brute(g, s):
    # every induced cycle of length >= 4 must have a chord: check all subsets
    s = sorted(s)
    for size in range(4, len(s) + 1):
        import itertools
        for sub in itertools.combinations(s, size):
            deg = {u: [w for w in g.und_adj[u] if w in sub] for u in sub}
            if any(len(d) != 2 for d in deg.values()):
                continue
            if len(connected_component(g, sub, sub[0])) == len(sub):
                return False  # induced chordless cycle
    return True


def test_peo_matches_brute_chordality():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(3, 7)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        s = [v for v in range(n) if rng.random() < 0.8]
        got = perfect_elimination_order(g, s)
        assert (got is not None) == _chordal_brute(g, s)
        if got is not None:
            assert sorted(got) == sorted(s)


# -- spanned subgraph of an edge set -------------------------------------------

def test_spanned_masks_digraph():
    # arcs 0:0->1 1:1->2 2:2->0 3:3->1; arcs 0 and 3 span vertices 0, 1, 3
    g = Graph(4, [(0, 1), (1, 2), (2, 0), (3, 1)], directed=True)
    und, out, span = spanned_masks(g, 0b1001)
    assert und == [0b0010, 0b1001, 0, 0b0010]
    assert out == [0b0010, 0, 0, 0b0010]
    assert span == 0b1011
    assert spanned_masks(g, 0) == ([0] * 4, [0] * 4, 0)


def span_tables(g):
    """The tables ``span_depth`` walks: each vertex's edges and both ends of
    each edge, or, on a digraph, each vertex's out-arcs and each arc's head."""
    if g.directed:
        return ([mask_of(a for a, (t, _) in enumerate(g.edges) if t == w) for w in range(g.n)],
                [1 << h for _, h in g.edges])
    return g.edge_mask_at, [(1 << u) | (1 << v) for u, v in g.edges]


def span_depth_witness(g, emask, src, dst, avoid):
    """The depth of dst in a plain BFS from src over the neighbor masks of
    ``spanned_masks`` (the out-neighbor ones on a digraph) that enters no
    vertex of ``avoid``, or -1."""
    und, out, _ = spanned_masks(g, emask)
    adj = out if g.directed else und
    seen, layer, depth = {src}, {src}, 0
    while layer:
        depth += 1
        layer = {w for u in layer for w in bits(adj[u])
                 if w not in seen and not (avoid >> w) & 1}
        if dst in layer:
            return depth
        seen |= layer
    return -1


def test_span_depth_examples():
    # the 4-cycle 0-1-2-3-0 and the arcs 0->1->2
    c4 = cycle(4)
    at, ends = span_tables(c4)
    everything = (1 << c4.m) - 1
    assert span_depth(at, ends, everything, 0, 2) == 2
    assert span_depth(at, ends, everything, 0, 2, avoid=0b0010) == 2
    assert span_depth(at, ends, everything, 0, 2, avoid=0b1010) == -1
    assert span_depth(at, ends, 0, 0, 1) == -1
    arcs = Graph(3, [(0, 1), (1, 2)], directed=True)
    at, ends = span_tables(arcs)
    assert span_depth(at, ends, 0b11, 0, 2) == 2
    assert span_depth(at, ends, 0b11, 2, 0) == -1


def test_span_depth_matches_bfs_over_spanned_masks():
    rng = random.Random(45)
    cases = Counter()
    for _ in range(500):
        n = rng.randint(2, 10)
        directed = rng.random() < 0.5
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]), directed=directed)
        at, ends = span_tables(g)
        for _ in range(5):
            emask = rng.getrandbits(g.m) | rng.getrandbits(g.m)
            src, dst = rng.sample(range(n), 2)
            for avoid in (0, mask_of(w for w in range(n) if w != src and rng.random() < 0.25)):
                got = span_depth(at, ends, emask, src, dst, avoid)
                assert got == span_depth_witness(g, emask, src, dst, avoid), (
                    g.edges, emask, src, dst, avoid)
                cases[directed, avoid > 0, min(got, 2)] += 1
    # every (digraph, avoid, depth -1, 1 or 2+) case, 69 times or more
    assert len(cases) == 12 and min(cases.values()) >= 45, cases


# -- BFS layers ----------------------------------------------------------------

def layers_witness(g, x, v):
    """(slot, depth, sorted layer) of each BFS layer of G[x], from sets and a
    plain BFS over ``g.und_adj``: v's component first at slot 0, then every
    other one from its smallest vertex at slot leader + 1."""
    x, seen, out = set(x), set(), []
    for leader in [v] + sorted(x):
        if leader in seen:
            continue
        slot = 0 if leader == v else leader + 1
        layer, depth = {leader}, 0
        seen.add(leader)
        while layer:
            out.append((slot, depth, sorted(layer)))
            layer = {w for u in layer for w in g.und_adj[u] if w in x and w not in seen}
            seen |= layer
            depth += 1
    return out


def test_mask_layers_match_set_bfs():
    rng = random.Random(31)
    cases = {"v not smallest": 0, "isolated vertex": 0, "three components": 0}
    for _ in range(400):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.choice([0.05, 0.15, 0.3, 0.6]))
        x = [u for u in range(n) if rng.random() < rng.choice([0.4, 0.8])] or [0]
        v = rng.choice(x)
        got = list(mask_layers(g.und_mask, mask_of(x), v))
        want = layers_witness(g, x, v)
        assert [(slot, depth, list(bits(layer))) for slot, depth, layer, _ in got] == want
        for _, _, layer, nbrs in got:
            assert nbrs == mask_of(w for u in bits(layer) for w in g.und_adj[u])
        # the flattened layers are the solution order of the pspace families
        keys = order_keys(make_instance("forests", graph=g), mask_of(x), v, x)
        assert [u for _, _, layer, _ in got for u in bits(layer)] == sorted(
            x, key=keys.__getitem__)
        cases["v not smallest"] += v != min(x)
        cases["isolated vertex"] += any(not set(g.und_adj[u]) & set(x) for u in x)
        cases["three components"] += len({slot for slot, _, _ in want}) >= 3
    assert min(cases.values()) >= 30, cases


def test_two_color_masks_by_layers():
    # the path 0-1-2 and the edge 3-4: even layers of each walk from its
    # smallest vertex go to B0
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert _two_color_masks(g.und_mask, mask_of((0, 1, 2, 3, 4))) == (
        mask_of((0, 2, 3)), mask_of((1, 4)))
    # the first component is bipartite, the second, a triangle, is not
    assert _two_color_masks(g.und_mask, mask_of(range(6))) is None
    assert _two_color_masks(g.und_mask, 0) == (0, 0)


def two_color_witness(g, x):
    """(B0, B1) of G[x] from ``layers_witness``: the even and the odd layers
    of each component walked from its smallest vertex, or None when an edge
    joins two vertices of one layer."""
    sides = [0, 0]
    for _, depth, layer in layers_witness(g, x, min(x)) if x else []:
        if any(w in layer for u in layer for w in g.und_adj[u]):
            return None
        sides[depth % 2] |= mask_of(layer)
    return tuple(sides)


def test_two_color_masks_match_set_bfs():
    # each component's depth starts again at 0 at its leader, so a component
    # after one whose last layer is even must not continue its parity
    rng = random.Random(37)
    cases = {"empty mask": 0, "isolated vertex": 0, "three components": 0,
             "edge inside a layer": 0, "component after an even last layer": 0}
    for _ in range(600):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.choice([0.05, 0.15, 0.3, 0.6]))
        keep = rng.choice([0.05, 0.4, 0.8])
        x = [u for u in range(n) if rng.random() < keep]
        got = _two_color_masks(g.und_mask, mask_of(x))
        assert got == two_color_witness(g, x), (g.edges, x)
        layers = layers_witness(g, x, min(x)) if x else []
        slots = [slot for slot, _, _ in layers]
        cases["empty mask"] += not x
        cases["isolated vertex"] += any(not set(g.und_adj[u]) & set(x) for u in x)
        cases["three components"] += len(set(slots)) >= 3
        cases["edge inside a layer"] += got is None
        cases["component after an even last layer"] += got is not None and any(
            a != b and depth % 2 == 0
            for a, b, (_, depth, _) in zip(slots, slots[1:], layers))
    assert min(cases.values()) >= 30, cases


# -- the inline bit scans of the hot kernels ---------------------------------------

def set_bfs_order(g, s):
    """Each component of G[s] by ascending smallest vertex, walked from it
    in BFS layers, each ascending: a set-based reference for ``bfs_order``."""
    left, order = set(s), []
    while left:
        layer = {min(left)}
        while layer:
            order += sorted(layer)
            left -= layer
            layer = {w for u in layer for w in g.und_adj[u] if w in left}
    return order


def naive_core(g, s, k):
    """What is left of s after deleting vertices of degree <= k in G[s], one
    at a time: the (k+1)-core, empty iff G[s] is k-degenerate."""
    left = set(s)
    while left:
        low = [u for u in left if len(set(g.und_adj[u]) & left) <= k]
        if not low:
            break
        left.remove(low[0])
    return left


def naive_forest(g, s):
    """Whether G[s] is a forest: its edges number len(s) minus its
    components."""
    inside = sum(u in s and v in s for u, v in g.edges)
    return inside == len(s) - len(components(g, s))


def test_inline_bit_scans_match_set_references():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randint(1, 20)
        g = random_graph(rng, n, rng.choice([0.1, 0.25, 0.5, 0.8]))
        inst = make_instance("trees", graph=g)
        full = (1 << n) - 1
        masks = [0, 1, 1 << (n - 1), full] + [
            rng.getrandbits(n) & (rng.getrandbits(n) if i % 2 else full) for i in range(6)]
        for mask in masks:
            s = [u for u in range(n) if mask >> u & 1]
            assert tuple_of(mask) == tuple(bits(mask)) == tuple(s)
            assert inst._adjacent_mask(mask) == mask_of(
                w for u in s for w in g.und_adj[u])
            assert _is_forest(g.und_mask, mask) == naive_forest(g, s)
            for k in range(3):
                core = mask_of(naive_core(g, s, k))
                assert _peel_core(g.und_mask, mask, k) == core
                # a peel that stops when v goes gives the whole core or 0
                for v in s:
                    assert _peel_core(g.und_mask, mask, k, 1 << v) == (
                        core if (core >> v) & 1 else 0), (g.edges, s, k, v)
            assert bfs_order(g.und_mask, mask) == set_bfs_order(g, s)


def petersen():
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def test_forest_and_peel_kernels_match_set_references_on_every_mask():
    # every vertex subset: a layered BFS that misses an edge inside a layer
    # or a vertex reached twice, or a peel that stops scanning a vertex
    # whose neighbor it deleted, answers wrong on some small subgraph
    rng = random.Random(22)
    graphs = [cycle(n) for n in range(3, 9)] + [
        complete(4),
        Graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)]),
        petersen(),
        Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]),
    ] + [random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.35, 0.5]))
         for _ in range(10)]
    for g in graphs:
        for mask in range(1 << g.n):
            s = [u for u in range(g.n) if mask >> u & 1]
            assert _is_forest(g.und_mask, mask) == naive_forest(g, s), (g.edges, s)
            degeneracy = degeneracy_order(g, s)[1]
            for k in range(4):
                core = _peel_core(g.und_mask, mask, k)
                assert core == mask_of(naive_core(g, s, k)), (g.edges, s, k)
                assert (not core) == (degeneracy <= k), (g.edges, s, k)


def naive_acyclic(g, s):
    """Whether G[s] has no directed cycle: sinks can be deleted until s is empty."""
    left = set(s)
    while left:
        sinks = {u for u in left if not set(g.out_adj[u]) & left}
        if not sinks:
            return False
        left -= sinks
    return True


def test_inline_bit_scans_of_edge_and_twin_kernels_match_set_references():
    rng = random.Random(18)
    for _ in range(60):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.25, 0.5, 0.8]), directed=True)
        dag_edges = make_instance("dag-edge-connected", graph=g)
        twins = make_instance("pinterval-induced", graph=random_graph(rng, n, 0.6))
        for e, arc in enumerate(g.edges):
            # the arcs that share an endpoint with e, e itself among them
            assert dag_edges.adj_masks[e] == mask_of(
                f for f, other in enumerate(g.edges) if set(arc) & set(other))
        for _ in range(4):
            mask, emask = rng.getrandbits(n), rng.getrandbits(g.m)
            s, arcs = [u for u in range(n) if mask >> u & 1], [g.edges[e] for e in bits(emask)]
            assert _acyclic(g.out_mask, mask) == naive_acyclic(g, s)
            ends = {x for arc in arcs for x in arc}
            assert spanned_masks(g, emask) == (
                [mask_of(w for a, b in arcs for v, w in ((a, b), (b, a)) if v == u)
                 for u in range(n)],
                [mask_of(b for a, b in arcs if a == u) for u in range(n)],
                mask_of(ends))
            assert dag_edges._adjacent_mask(emask) == mask_of(
                e for e, arc in enumerate(g.edges) if ends & set(arc))
            closed = {u: {u, *twins.g.und_adj[u]} & set(s) for u in s}
            assert twins._twin_classes(mask) == {
                u: mask_of(w for w in s if closed[w] == closed[u]) for u in s}
