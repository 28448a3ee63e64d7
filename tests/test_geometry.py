import random
from collections import Counter
from contextlib import nullcontext
from itertools import combinations
from math import gcd

import pytest

from maxenum import (Graph, PointSetInstance, brute_force_maximal,
                     enumerate_exp, make_instance)
from maxenum.graphs import bits, mask_of
from maxenum.problems.geometry import PointFormatError, load_points

from conftest import CORPUS_SIZE, POINT_VARIANTS, build_instance, exp_solutions
from proximity import prefix_overlap


def tri_with_centroid():
    return PointSetInstance([(0, 0), (6, 0), (0, 6)], [(2, 2)])


# -- reference geometry ------------------------------------------------------------
# independent of the plugin, which builds no hull: the wall kernel of
# ``Hulls`` is checked against these below

def orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def on_segment(p, a, b):
    if orient(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def convex_hull(pts):
    """The closed convex hull of pts by Andrew's monotone chain: its
    corners counter-clockwise from the least point, collinear and repeated
    points dropped.  Fewer than three points or an all-collinear set give
    the distinct points, or a segment's two ends, in ascending order."""
    pts = sorted(set(pts))
    if len(pts) < 3:
        return pts
    lower = []
    for p in pts:
        while len(lower) > 1 and orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) > 1 and orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def in_hull(p, hull):
    """Closed containment of p in a hull from ``convex_hull``: the boundary
    counts as inside, and an empty hull holds nothing."""
    if len(hull) < 3:
        # a point is the segment from itself to itself
        return bool(hull) and on_segment(p, hull[0], hull[-1])
    a = hull[-1]
    for b in hull:
        if orient(a, b, p) < 0:
            return False
        a = b
    return True


def test_orient_signs():
    assert orient((0, 0), (1, 0), (0, 1)) > 0
    assert orient((0, 0), (0, 1), (1, 0)) < 0
    assert orient((0, 0), (1, 1), (2, 2)) == 0


def test_on_segment():
    assert on_segment((1, 0), (0, 0), (2, 0))
    assert not on_segment((3, 0), (0, 0), (2, 0))
    assert not on_segment((1, 1), (0, 0), (2, 0))


def point_in_hull(p, pts):
    """Closed-hull containment: p lies on a segment or inside a triangle
    spanned by pts (Caratheodory suffices in the plane)."""
    for a in pts:
        if a == p:
            return True
    for a, b in combinations(pts, 2):
        if on_segment(p, a, b):
            return True
    for a, b, c in combinations(pts, 3):
        if orient(a, b, c) == 0:
            continue
        o1, o2, o3 = orient(a, b, p), orient(b, c, p), orient(c, a, p)
        if (o1 >= 0 and o2 >= 0 and o3 >= 0) or (o1 <= 0 and o2 <= 0 and o3 <= 0):
            return True
    return False


def test_point_in_hull_boundary_counts():
    pts = [(0, 0), (4, 0), (0, 4)]
    assert point_in_hull((1, 1), pts)
    assert point_in_hull((2, 0), pts)  # on an edge
    assert point_in_hull((0, 0), pts)  # a corner
    assert not point_in_hull((3, 3), pts)
    # degenerate: collinear point set
    assert point_in_hull((1, 0), [(0, 0), (2, 0)])
    assert not point_in_hull((3, 0), [(0, 0), (2, 0)])


def test_convex_hull_shapes():
    # counter-clockwise from the least point, collinear and repeated points
    # dropped; a segment keeps its two ends
    square = [(2, 2), (0, 0), (1, 0), (2, 0), (0, 2), (1, 1), (0, 0)]
    assert convex_hull(square) == [(0, 0), (2, 0), (2, 2), (0, 2)]
    assert convex_hull([(3, 3), (1, 1), (2, 2), (1, 1)]) == [(1, 1), (3, 3)]
    assert convex_hull([(4, 5), (4, 5)]) == [(4, 5)]
    assert convex_hull([]) == []
    assert not in_hull((0, 0), [])
    assert in_hull((4, 5), [(4, 5)]) and not in_hull((4, 6), [(4, 5)])


def _lattice_segment(a, b):
    """Every integer point of the closed segment from a to b."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    g = gcd(dx, dy) or 1
    return [(a[0] + i * dx // g, a[1] + i * dy // g) for i in range(g + 1)]


def _query_sets(rng):
    """Point sets of every degenerate kind, then general ones."""
    yield []
    for _ in range(40):
        yield [(rng.randint(0, 6), rng.randint(0, 6))]
    for _ in range(200):
        # collinear, possibly with repeats, along a random lattice direction
        a = (rng.randint(0, 6), rng.randint(0, 6))
        d = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -2)])
        yield [(a[0] + t * d[0], a[1] + t * d[1])
               for t in (rng.randint(-3, 3) for _ in range(rng.randint(2, 5)))]
    for _ in range(1400):
        pts = [(rng.randint(0, 6), rng.randint(0, 6))
               for _ in range(rng.randint(2, 6))]
        if rng.random() < 0.3:
            pts += rng.sample(pts, rng.randint(1, 2))  # duplicates
        yield pts


def test_hull_containment_matches_triangle_witness():
    # the monotone-chain hull against the triangle test on small grids: the
    # queries hold every integer point on a segment between two points of
    # the set, hence every hull edge and corner, and a square around it
    rng = random.Random(131)
    queries = 0
    for pts in _query_sets(rng):
        hull = convex_hull(pts)
        probe = [(rng.randint(-2, 8), rng.randint(-2, 8)) for _ in range(40)]
        for a, b in combinations(pts, 2):
            probe += _lattice_segment(a, b)
        probe += pts
        for q in probe:
            assert in_hull(q, hull) == point_in_hull(q, pts), (pts, q)
        queries += len(probe)
    assert queries >= 100_000


# -- the wall kernel --------------------------------------------------------------
# ``Hulls`` decides containment from its table of half-plane masks alone; on
# every subset of every case here it must agree with the monotone-chain hull
# and with the triangle witness, obstacle by obstacle

KINDS = ("collinear set", "obstacle on a hull edge",
         "collinear, same side", "collinear, opposite sides")


def _lattice_sets(rng, count):
    """Point sets drawn from a 5 x 5 lattice, where collinear triples and
    obstacles on segments are common: 3-7 interest points, 1-4 obstacles."""
    lattice = [(x, y) for x in range(5) for y in range(5)]
    for _ in range(count):
        j, h = rng.randint(3, 7), rng.randint(1, 4)
        pts = rng.sample(lattice, j + h)
        yield PointSetInstance(pts[:j], pts[j:])


def _kernel_cases():
    """The corpus hull instances' point sets, without the connected
    variant's graph, which plain hulls refuses, then small-lattice sets."""
    for variant in POINT_VARIANTS:
        for i in range(CORPUS_SIZE):
            points = build_instance(variant, i).inst
            yield PointSetInstance(points.interest, points.obstacles)
    yield from _lattice_sets(random.Random(211), 150)


def _kinds(z, hull, o):
    """The degenerate kinds the obstacle o shows against the point set z."""
    edges = list(zip(hull, hull[1:] + hull[:1])) if len(hull) > 2 else [hull]
    pairs = list(combinations(z, 2))
    if len(hull) > 1 and any(on_segment(o, a, b) for a, b in edges):
        yield "obstacle on a hull edge"
    if any(orient(a, b, o) == 0 and not on_segment(o, a, b) for a, b in pairs):
        yield "collinear, same side"
    if any(on_segment(o, a, b) for a, b in pairs):
        yield "collinear, opposite sides"


def test_wall_kernel_matches_reference_hulls():
    seen = Counter()
    for points in _kernel_cases():
        interest, obstacles = points.interest, points.obstacles
        inst = make_instance("hulls", points=points)
        alone = [make_instance("hulls", points=PointSetInstance(interest, [o]))
                 for o in obstacles]
        for mask in range(1 << len(interest)):
            z = [interest[i] for i in bits(mask)]
            hull = convex_hull(z)
            seen["collinear set"] += len(z) > 2 and len(hull) == 2
            inside = []
            for i, o in enumerate(obstacles):
                chain = in_hull(o, hull)
                assert chain == point_in_hull(o, z), (z, o)
                assert alone[i]._first_inside(mask) == (0 if chain else None), (z, o)
                if chain:
                    inside.append(i)
                seen.update(_kinds(z, hull, o))
            assert inst._first_inside(mask) == (inside[0] if inside else None), (z, obstacles)
            assert inst._solution_mask(mask) == (not inside)
    assert all(seen[kind] >= 30 for kind in KINDS), seen


def orient_split_shadows(points, smask, v):
    """``Hulls._shadow_masks`` as it was when it built a hull per set: the
    smallest-index obstacle inside the monotone-chain hull of the piece and
    v splits the piece by the sign of ``orient(v, obstacle, w)``."""
    interest, pv = points.interest, points.interest[v]
    out = []

    def rec(part):
        hull = convex_hull([interest[i] for i in bits(part | 1 << v)])
        inside = [o for o in points.obstacles if in_hull(o, hull)]
        if not inside:
            out.append(part)
            return
        above = below = 0
        for w in bits(part):
            side = orient(pv, inside[0], interest[w])
            if side > 0:
                above |= 1 << w
            elif side < 0:
                below |= 1 << w
        rec(above)
        rec(below)

    rec(smask)
    return list(dict.fromkeys(out))


def test_shadow_masks_match_orient_split():
    # every piece, in order, for every set and every point outside it
    calls = 0
    for points in _kernel_cases():
        inst = make_instance("hulls", points=points)
        full = (1 << len(points.interest)) - 1
        for v in range(len(points.interest)):
            for smask in range(full + 1):
                if not smask >> v & 1:
                    assert (inst._shadow_masks(smask, v)
                            == orient_split_shadows(points, smask, v)), (points.interest, smask, v)
                    calls += 1
    assert calls > 50_000


def test_wall_table_is_built_on_first_use():
    # constructing either family builds no table; the first predicate call
    # builds it once, as tuples of masks, and runs leave it in place
    plain = make_instance("hulls", points=tri_with_centroid())
    connected = build_instance("hulls-connected", 7)  # three obstacles
    for inst in (plain, connected):
        assert "walls" not in vars(inst)
        inst.comp(())
        table = vars(inst)["walls"]
        assert type(table) is tuple and len(table) == len(inst.inst.obstacles)
        assert all(type(comps) is tuple and comps and all(type(c) is int for c in comps)
                   for comps in table)
        enumerate_exp(inst)
        assert vars(inst)["walls"] is table
    # the centroid's walls are the triangle's corners, one each: only a set
    # that holds all three has it inside
    assert plain.walls == ((1, 2, 4),)


def reference_walls(points):
    """``Hulls.walls`` as it was built before each cross product served a
    pair of points: every (p, q) cross product, and a complement kept unless
    any other complement lies inside it."""
    pts = points.interest
    full = (1 << len(pts)) - 1
    table = []
    for ox, oy in points.obstacles:
        vecs = [(x - ox, y - oy) for x, y in pts]
        comps = {full}
        for px, py in vecs:
            side = 0
            for i, (qx, qy) in enumerate(vecs):
                cross = px * qy - py * qx
                if cross > 0 or cross == 0 and px * qx + py * qy > 0:
                    side |= 1 << i
            comps.add(full ^ side)
        table.append(tuple(sorted(c for c in comps
                                  if not any(d != c and d & c == d for d in comps))))
    return tuple(table)


# one case of each degenerate kind the wall table must get right
DEGENERATE_WALLS = {
    # the interest points on one line through both obstacles, the first
    # between two of them, the second beyond every one
    "collinear with an obstacle": PointSetInstance([(0, 0), (2, 0), (4, 0), (1, 3)],
                                                   [(1, 0), (6, 0)]),
    "on one ray": PointSetInstance([(1, 1), (2, 2), (4, 4), (3, 0)], [(0, 0)]),
    "on opposite rays": PointSetInstance([(-1, -1), (2, 2), (3, 3), (1, -2)], [(0, 0)]),
    "outside every hull": PointSetInstance([(0, 0), (2, 0), (0, 2), (2, 2)], [(5, 1)]),
    "no interest points": PointSetInstance([], [(0, 0), (1, 1)]),
}


def test_wall_table_matches_reference_builder():
    # one cross product per pair and the filter against kept complements
    # give the reference's table, mask for mask, on the kernel cases and the
    # degenerate ones
    cases = list(_kernel_cases()) + list(DEGENERATE_WALLS.values())
    for points in cases:
        assert make_instance("hulls", points=points).walls == reference_walls(points), (
            points.interest, points.obstacles)
    # an obstacle outside every hull has the empty mask alone, which no set
    # meets, so no point's entry holds it
    outside = make_instance("hulls", points=DEGENERATE_WALLS["outside every hull"])
    assert outside.walls == ((0,),)
    assert all(outside._walls_lacking(e) == () for e in range(4))
    assert make_instance("hulls", points=DEGENERATE_WALLS["no interest points"]).walls == (
        (0,), (0,))
    assert sum(walls == (0,) for p in cases for walls in reference_walls(p)) >= 100
    # the obstacle between two collinear points lies in their hull; the one
    # beyond them, or behind points on one ray, in no hull of them
    on_line = make_instance("hulls", points=DEGENERATE_WALLS["collinear with an obstacle"])
    assert on_line._first_inside(mask_of((0, 2))) == 0
    assert on_line._first_inside(mask_of((1, 2))) is None
    ray = make_instance("hulls", points=DEGENERATE_WALLS["on one ray"])
    assert ray._first_inside(mask_of((0, 1, 2))) is None
    opposite = make_instance("hulls", points=DEGENERATE_WALLS["on opposite rays"])
    assert opposite._first_inside(mask_of((0, 2))) == 0
    assert opposite._first_inside(mask_of((1, 2, 3))) is None


# the least number of extension tests asked at a solution and a point of its
# reach, by verdict, over the corpus instances' every subset; the sweep made
# about 1.45 times each floor
ASKED = {"hulls": {True: 18000, False: 1700},
         "hulls-connected": {True: 10000, False: 1300}}


@pytest.mark.parametrize("variant", sorted(POINT_VARIANTS))
def test_point_walls_give_first_inside(variant):
    # a set x + e meets every wall that holds e, so the obstacles it holds
    # are those whose walls lacking e all meet x: e's entry gives
    # _first_inside(x | 1 << e) for every x without e, and the extension test
    # its verdict at every solution x and e in its reach, outside a run,
    # where the entry is built at each ask, and inside one, where it is kept
    asked = Counter()
    for i in range(CORPUS_SIZE):
        inst = build_instance(variant, i)
        full = (1 << inst.ground_size) - 1
        pairs = [(x, e) for x in range(full + 1) for e in bits(full & ~x)]
        for run in (nullcontext, inst.run_memos):
            with run():
                for x, e in pairs:
                    first = inst._first_inside(x | 1 << e)
                    assert inst._first_inside_with(x, e) == first, (i, bits(x), e)
                    if inst.sol(x) and (inst._reach(x) >> e) & 1:
                        assert inst._extension_test(x, e) == (first is None), (i, bits(x), e)
                        asked[first is None] += 1
                kept = inst._walls_at
                assert (kept is None) == (run is nullcontext)
                assert kept is None or sorted(kept) == sorted({e for _, e in pairs})
    assert all(asked[verdict] >= least for verdict, least in ASKED[variant].items()), asked


# -- membership -------------------------------------------------------------------

def test_is_solution_examples():
    inst = make_instance("hulls", points=tri_with_centroid())
    assert inst.is_solution({0})
    for pair in ((0, 1), (0, 2), (1, 2)):
        assert inst.is_solution(pair)
    assert not inst.is_solution({0, 1, 2})

    seg = PointSetInstance([(0, 0), (2, 0)], [(1, 0)])
    inst2 = make_instance("hulls", points=seg)
    assert not inst2.is_solution({0, 1})


def test_point_graph_of_the_wrong_order_rejected():
    with pytest.raises(ValueError, match="graph order must match the interest point count"):
        PointSetInstance([(0, 0), (6, 0), (0, 6)], [(2, 2)], Graph(2, [(0, 1)]))


def test_square_with_center():
    square = PointSetInstance([(0, 0), (2, 0), (2, 2), (0, 2)], [(1, 1)])
    inst = make_instance("hulls", points=square)
    sols = exp_solutions(inst)
    # the four side pairs; both diagonals pass through the obstacle
    assert sorted(sols) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert sorted(sols) == brute_force_maximal(inst)


# -- shadows ------------------------------------------------------------------------

def test_shadows_no_obstacle_inside():
    inst = make_instance("hulls", points=PointSetInstance(
        [(0, 0), (2, 0), (1, 3)], [(9, 9)]))
    assert inst._shadow_masks(mask_of((0, 1)), 2) == [mask_of((0, 1))]


def test_shadows_split_by_centroid():
    inst = make_instance("hulls", points=tri_with_centroid())
    assert sorted(inst._shadow_masks(mask_of((0, 1)), 2)) == [mask_of((0,)), mask_of((1,))]


def test_shadows_online_point_discarded():
    # obstacle collinear with v and point 1: point 1 lands in neither shadow
    inst = make_instance("hulls", points=PointSetInstance(
        [(0, 0), (2, 2), (4, 0)], [(1, 1)]))
    pieces = inst._shadow_masks(mask_of((1, 2)), 0)
    assert pieces and all(not (piece >> 1) & 1 for piece in pieces)


# -- neighbors and oracle ----------------------------------------------------------------

def test_no_obstacle_single_solution():
    inst = make_instance("hulls", points=PointSetInstance(
        [(0, 0), (3, 1), (1, 4), (5, 5)], []))
    sols = exp_solutions(inst)
    assert sols == [(0, 1, 2, 3)]


def _random_points(rng, j, h):
    seen, pts = set(), []
    while len(pts) < j + h:
        p = (rng.randint(0, 7), rng.randint(0, 7))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts[:j], pts[j:]


def test_oracle_equality_random_plain_and_connected():
    rng = random.Random(89)
    for _ in range(15):
        j, h = rng.randint(3, 7), rng.randint(0, 3)
        interest, obstacles = _random_points(rng, j, h)
        inst = make_instance("hulls",
                             points=PointSetInstance(interest, obstacles))
        sols = exp_solutions(inst)
        assert sorted(sols) == brute_force_maximal(inst)

        edges = [(u, v) for u in range(j) for v in range(u + 1, j)
                 if rng.random() < 0.6]
        g = Graph(j, edges)
        inst2 = make_instance("hulls-connected",
                              points=PointSetInstance(interest, obstacles, g))
        sols2 = exp_solutions(inst2)
        assert sorted(sols2) == brute_force_maximal(inst2)


def test_intersection_grows_along_some_neighbor():
    rng = random.Random(97)
    for _ in range(10):
        interest, obstacles = _random_points(rng, 6, 2)
        inst = make_instance("hulls",
                             points=PointSetInstance(interest, obstacles))
        sols = exp_solutions(inst)
        for s in sols:
            for t in sols:
                if s == t:
                    continue
                base = prefix_overlap(inst, s, t)
                assert any(prefix_overlap(inst, c, t) > base
                           for c in inst.neighbors(s))


# -- degenerate inputs against the oracle ---------------------------------------------

def _exp_matches_oracle(interest, obstacles):
    """The sorted exp solutions of hulls, and of hulls-connected on a path
    and on a complete graph over the points, each checked against the
    brute-force oracle."""
    j = len(interest)
    out = []
    for g in (None, Graph(j, [(i, i + 1) for i in range(j - 1)]),
              Graph(j, list(combinations(range(j), 2)))):
        variant = "hulls" if g is None else "hulls-connected"
        inst = make_instance(variant,
                             points=PointSetInstance(interest, obstacles, g))
        sols = exp_solutions(inst)
        assert sorted(sols) == brute_force_maximal(inst), (variant, g)
        out.append(sorted(sols))
    return out


def test_collinear_points_oracle():
    # all on y = x: (1, 1) lies between points 0 and 1, (8, 8) past the end
    interest = [(0, 0), (2, 2), (4, 4), (6, 6)]
    for sols in _exp_matches_oracle(interest, [(1, 1), (8, 8)]):
        assert sols == [(0,), (1, 2, 3)]


def test_obstacle_on_edges_oracle():
    # (2, 0) is on the edge 0-1; (2, 2) on the edges 1-2 and 0-3 and on a
    # side of both triangles that hold either diagonal
    interest = [(0, 0), (4, 0), (0, 4), (4, 4)]
    plain, on_path, on_clique = _exp_matches_oracle(interest, [(2, 0), (2, 2)])
    assert plain == on_clique == [(0, 2), (1, 3), (2, 3)]
    assert on_path == [(0,), (1,), (2, 3)]


def test_obstacle_at_a_corner_is_rejected():
    # an obstacle at an interest point would sit at the corner of every hull
    # holding that point; the input refuses it as a duplicate point
    with pytest.raises(ValueError, match="duplicate point"):
        PointSetInstance([(0, 0), (4, 0), (0, 4)], [(4, 0)])


@pytest.mark.parametrize("interest,obstacles,shown", [
    ([(0.1, 0.2), (1.5, 0), (0, 1)], [(0.3, 0.3)], "(0.1,0.2)"),
    ([(0, 0), (4, 0), (0, 4)], [(1, 1.0)], "(1,1.0)"),
    ([("a", 0), (4, 0), (0, 4)], [(1, 1)], "('a',0)"),
    ([(True, 0), (4, 0), (0, 4)], [(1, 1)], "(True,0)"),
])
def test_non_integer_coordinates_rejected(interest, obstacles, shown):
    # orientation tests are exact only on ints: a float, a str or a bool
    # coordinate is refused up front, naming its point
    with pytest.raises(ValueError, match="coordinates must be integers") as err:
        PointSetInstance(interest, obstacles)
    assert shown in str(err.value)


def test_zero_and_one_interest_points_oracle():
    assert _exp_matches_oracle([], [(1, 1)]) == [[()]] * 3
    assert _exp_matches_oracle([(0, 0)], [(1, 1)]) == [[(0,)]] * 3


# -- loader -----------------------------------------------------------------------------

def test_load_points_roundtrip():
    inst = load_points("3 1\n0 0\n6 0\n0 6\n2 2\n")
    assert inst.interest == [(0, 0), (6, 0), (0, 6)]
    assert inst.obstacles == [(2, 2)]
    assert inst.graph is None


def test_load_points_connected():
    inst = load_points("3 0 connected\n0 0\n6 0\n0 6\n0 1\n1 2\n")
    assert inst.graph is not None and inst.graph.m == 2


def test_load_points_drops_duplicate_edges():
    inst = load_points("3 0 connected\n0 0\n6 0\n0 6\n0 1\n1 0\n1 2\n")
    assert inst.graph.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize("text,fragment", [
    ("", "missing header"),
    ("2 9000\n0 0\n1 1\n", "expected 9002 point lines"),
    ("2 0\n0 0\nx y\n", "line 3"),
    ("2 0\n0 0\n0 0\n", "duplicate point"),
    ("1 1\n5 5\n5 5\n", "duplicate point"),
    ("1 0\n5000000 0\n", "out of range"),
    ("2 0\n0 0\n1 1\ntrailing junk\n", "line 4"),
    ("2 0 connected\n0 0\n6 0\n1 1\n", "line 4: self-loop at vertex 1"),
    ("3 -1\n0 0\n1 1\n", "line 1: negative count in header"),
    ("-1 2\n5 5\n", "line 1: negative count in header"),
])
def test_load_points_errors(text, fragment):
    with pytest.raises((PointFormatError, ValueError), match=fragment):
        load_points(text)


def test_connected_variant_needs_graph():
    with pytest.raises(ValueError):
        make_instance("hulls-connected", points=tri_with_centroid())


def test_plain_variant_refuses_a_graph():
    # a graph on the points is the connected variant's input, never ignored
    points = PointSetInstance([(0, 0), (2, 0)], [], Graph(2, [(0, 1)]))
    with pytest.raises(ValueError, match="use hulls-connected"):
        make_instance("hulls", points=points)
    assert make_instance("hulls-connected", points=points).g is points.graph


def test_connected_variant_refuses_directed_graph():
    # the connected family walks undirected adjacency, as the graph families do
    points = PointSetInstance([(0, 0), (2, 0)], [], Graph(2, [(0, 1)], directed=True))
    with pytest.raises(ValueError, match="hulls-connected expects an undirected graph"):
        make_instance("hulls-connected", points=points)
