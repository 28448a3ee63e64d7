import itertools
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest

from maxenum import Graph, PartialOutputError, brute_force_maximal, enumerate_exp, make_instance
from maxenum.graphs import bits, mask_cc, mask_components, mask_of
from maxenum.problems.interval import _ProperIntervalBase

from conftest import (build_instance, complete, components, cycle, exp_solutions, path,
                      random_graph, star)
from proximity import canonical_order


def _brute_unit_order(g, cand):
    """Independent recognition: search all orderings for a unit-interval
    arrangement (earlier neighbors form a clique suffix)."""
    cand = sorted(cand)
    if not cand:
        return True
    for comp in components(g, cand):
        comp = sorted(comp)
        ok = False
        for perm in itertools.permutations(comp):
            good = True
            for i, v in enumerate(perm):
                before = [u for u in perm[:i] if u in bits(g.und_mask[v])]
                if i and not before:
                    good = False
                    break
                if before != list(perm[i - len(before):i]):
                    good = False
                    break
                if any(b not in bits(g.und_mask[a])
                       for a, b in itertools.combinations(before, 2)):
                    good = False
                    break
            if good:
                ok = True
                break
        if not ok:
            return False
    return True


def test_is_solution_examples():
    assert make_instance("pinterval-induced", graph=path(4)).is_solution(range(4))
    claw = make_instance("pinterval-induced", graph=star(3))
    assert not claw.is_solution(range(4))
    c4 = make_instance("pinterval-induced", graph=cycle(4))
    assert not c4.is_solution(range(4))


def test_recognition_matches_brute_force():
    rng = random.Random(71)
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 7), 0.5)
        cand = {v for v in range(g.n) if rng.random() < 0.7}
        inst = make_instance("pinterval-induced", graph=g)
        assert inst.is_solution(cand) == _brute_unit_order(g, cand)


def test_layouts_examples():
    single = make_instance("pinterval-induced-connected", graph=Graph(1, []))
    assert canonical_order(single, (0,)) == [0]

    p3 = make_instance("pinterval-induced-connected", graph=path(3))
    assert canonical_order(p3, (0, 1, 2)) == [0, 1, 2]


def test_layout_prefixes_are_connected_solutions():
    rng = random.Random(73)
    for _ in range(15):
        g = random_graph(rng, 7, 0.5)
        inst = make_instance("pinterval-induced-connected", graph=g)
        sols = exp_solutions(inst)
        for s in sols:
            lay = canonical_order(inst, s)
            for i in range(1, len(lay) + 1):
                assert len(components(g, lay[:i])) == 1
                assert inst.is_solution(lay[:i])


# -- the backtracking search, kept as the witness of the greedy layout -----

def layout_witness(inst, cmask):
    """Lexicographically smallest unit-interval order of a connected vertex
    set by depth-first search over placements, or None: factorial time when
    no order exists, so only for small sets."""
    und = inst.g.und_mask
    verts = bits(cmask)
    order: list[int] = []
    placed = 0

    def fits(x):
        nb = und[x] & placed
        if order and not nb:
            return False
        suffix = order[len(order) - nb.bit_count():]
        return (all((nb >> w) & 1 for w in suffix)
                and all((und[u] >> w) & 1
                        for u, w in itertools.combinations(suffix, 2)))

    def search():
        nonlocal placed
        if len(order) == len(verts):
            return True
        for x in verts:
            if (placed >> x) & 1 or not fits(x):
                continue
            order.append(x)
            placed |= 1 << x
            if search():
                return True
            order.pop()
            placed &= ~(1 << x)
        return False

    return tuple(order) if search() else None


def _assert_layouts_match(g, masks):
    inst = make_instance("pinterval-induced", graph=g)
    for mask in masks:
        for c in mask_components(g.und_mask, mask):
            assert inst.component_layout(c) == layout_witness(inst, c), (g.edges, c)


def test_layout_of_empty_set():
    inst = make_instance("pinterval-induced", graph=path(3))
    assert inst.component_layout(0) == ()
    assert layout_witness(inst, 0) == ()


def test_layout_matches_witness_on_small_graphs():
    # every labelled graph on at most 5 vertices; the disconnected ones are
    # compared component by component
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for em in range(1 << len(pairs)):
            g = Graph(n, [p for i, p in enumerate(pairs) if (em >> i) & 1])
            _assert_layouts_match(g, [(1 << n) - 1])


def test_layout_matches_witness_on_random_subsets():
    rng = random.Random(89)
    pairs = {n: list(itertools.combinations(range(n), 2)) for n in range(2, 11)}
    for _ in range(1000):
        n = rng.randint(2, 10)
        m = rng.randint(n - 1, len(pairs[n]))
        g = Graph(n, rng.sample(pairs[n], m))
        _assert_layouts_match(g, [rng.randrange(1 << n) for _ in range(4)])


def test_layout_matches_witness_on_unit_interval_graphs_with_twins():
    # coarse starts put many intervals at one point, so true twins abound;
    # one extra edge may or may not leave the graph proper interval
    rng = random.Random(97)
    for _ in range(120):
        n = rng.randint(2, 12)
        pos = sorted(rng.choice((0, 5, 10, 15, 20, 25)) for _ in range(n))
        ids = list(range(n))
        rng.shuffle(ids)
        edges = {tuple(sorted((ids[i], ids[j])))
                 for i, j in itertools.combinations(range(n), 2)
                 if pos[j] - pos[i] < 10}
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
        g = Graph(n, sorted(edges))
        _assert_layouts_match(g, [(1 << n) - 1, *(rng.randrange(1 << n)
                                                 for _ in range(2))])


def test_clique_with_claw_has_no_layout():
    # K_9 on 0-8 with 8 also adjacent to 9, 10 and 11: a depth-first layout
    # search tries the clique's orders before failing on the claw (142 s)
    g = Graph(12, [*complete(9).edges, (8, 9), (8, 10), (8, 11)])
    inst = make_instance("pinterval-induced", graph=g)
    assert inst.component_layout((1 << 12) - 1) is None
    assert not inst.is_solution(range(12))


@pytest.mark.parametrize("variant", ["pinterval-induced", "pinterval-induced-connected"])
def test_layouts_live_for_one_run(variant, monkeypatch):
    # _layouts is None outside a run, however the run ends; inside it each
    # component's layout, or None, is kept by its mask, and the run reads
    # it instead of laying the component out again; a run without it lists
    # the same solutions in the same order with the same completions
    laid = []
    layout = _ProperIntervalBase.component_layout
    monkeypatch.setattr(_ProperIntervalBase, "component_layout",
                        lambda self, c: laid.append(c) or layout(self, c))
    inst = make_instance(variant, graph=random_graph(random.Random("layouts"), 8, 0.5))
    assert inst._layouts is None
    held, sols = [], []
    counters = enumerate_exp(inst, emit=lambda s: held.append(inst._layouts) or sols.append(s))
    assert inst._layouts is None
    assert all(memo is held[0] for memo in held) and len(sols) > 1
    assert held[-1] and all(lay == layout(inst, c) for c, lay in held[-1].items())
    assert len(laid) == len(set(laid)) == len(held[-1])

    assert enumerate_exp(inst, limit=2).solutions_emitted == 2
    assert inst._layouts is None

    def fail(sol):
        raise OSError("sink closed")

    with pytest.raises(PartialOutputError):
        enumerate_exp(inst, emit=fail)
    assert inst._layouts is None

    with inst.run_memos(_comp_memo={}):
        outer = inst._layouts
        enumerate_exp(inst, limit=1)
        assert inst._layouts is outer
    assert inst._layouts is None

    plain = make_instance(variant, graph=inst.g)
    monkeypatch.setattr(type(plain), "family_memos", ())
    laid.clear()
    assert exp_solutions(plain) == sols
    assert plain.comp_calls == counters.comp_calls
    assert len(laid) > len(set(laid))


def test_unique_maximal_path():
    inst = make_instance("pinterval-induced", graph=path(4))
    assert set(inst.neighbors((0, 1, 2, 3))) <= {(0, 1, 2, 3)}


def test_claw_oracle():
    inst = make_instance("pinterval-induced", graph=star(3))
    sols = exp_solutions(inst)
    assert sorted(sols) == brute_force_maximal(inst)


def shape_of(inst, order) -> tuple[int, ...]:
    """The shape of an arrangement: the number of earlier neighbors of each
    vertex of the order, which is all its realization reads."""
    und = inst.g.und_mask
    return tuple((und[x] & mask_of(order[:t])).bit_count() for t, x in enumerate(order))


def test_realization_is_exact():
    rng = random.Random(79)
    for _ in range(15):
        g = random_graph(rng, 7, 0.5)
        inst = make_instance("pinterval-induced-connected", graph=g)
        sols = exp_solutions(inst)
        for s in sols[:3]:
            lay = canonical_order(inst, s)
            starts = inst._realize(shape_of(inst, lay))
            unit = 1 << len(lay)
            for (u, su), (w, sw) in itertools.combinations(zip(lay, starts), 2):
                assert (abs(su - sw) < unit) == (w in bits(g.und_mask[u]))


# -- the positions the insertion table covers, listed one by one -----------

def insert_positions(starts):
    """Start positions of a new interval: for every existing interval, just
    before/after its start is reached by the new right end, exactly
    aligned, and just before/after its end is passed by the new left end."""
    unit = 1 << len(starts)
    return [p for s in starts
            for p in (s - unit - 1, s - unit + 1, s, s + unit - 1, s + unit + 1)]


def table_positions(inst, order):
    """The realization of an arrangement and each of its insertion
    positions with its signature (overlapped, later, earlier), read off
    the starts; the insertion table must list those signatures once each,
    in order of first occurrence, and hold each vertex's prefix mask."""
    starts = inst._realize(shape_of(inst, order))
    unit = 1 << len(order)
    at = [(sv, (mask_of(w for w, sw in zip(order, starts) if abs(sv - sw) < unit),
                mask_of(w for w, sw in zip(order, starts) if sw > sv),
                mask_of(w for w, sw in zip(order, starts) if sw < sv)))
          for sv in insert_positions(starts)]
    upto, sigs = inst._table(order)
    assert sigs == list(dict.fromkeys(sig for _, sig in at))
    assert upto == {u: mask_of(order[:i + 1]) for i, u in enumerate(order)}
    return starts, upto, at


@pytest.mark.parametrize("variant", ["pinterval-induced", "pinterval-induced-connected"])
def test_insertion_lemma_and_touching_components(variant, monkeypatch):
    # the first insertion position lies before every interval, so its
    # connected repair keeps no neighbor of v; a host component without a
    # neighbor of v keeps none at any position; so both cut to {v}, and the
    # rule arranges only the components that touch v, each once per v
    arranged = []
    reps = _ProperIntervalBase._reps
    monkeypatch.setattr(_ProperIntervalBase, "_reps",
                        lambda self, c, v: arranged.append(c) or reps(self, c, v))
    for i in range(12):
        inst = build_instance(variant, i)
        und = inst.g.und_mask
        sols = exp_solutions(inst)
        for s in sols[:4]:
            smask = mask_of(s)
            for v in bits((1 << inst.g.n) - 1 & ~smask):
                arranged.clear()
                first = next(iter(inst._candidates(smask, (v,))))
                assert first == ((1 << v) if inst.connected else (smask & ~und[v]) | 1 << v)
                list(inst._candidates(smask, (v,)))
                assert all(c & und[v] for c in arranged)
                assert len(arranged) == len(set(arranged))
                for c in {c for h in inst._hosts(smask, v) for c in mask_components(und, h)}:
                    for order in reps(inst, c, v):
                        starts, _, at = table_positions(inst, order)
                        assert at[0][0] + (1 << len(order)) < starts[0]
                        # a touching component: the first position alone
                        for sv, sig in at[:1] if c & und[v] else at:
                            cand = inst._repair(c, v, sig)
                            assert mask_cc(und, cand, v) == 1 << v


# -- the two repairs that one rule replaced, kept as its witnesses ----------

def repair_connected(inst, smask, order, starts, v, sv):
    """Drop the vertices contradicting v's inserted interval: everything
    after v, neighbors that miss it, and overlapping non-neighbors."""
    nmask = inst.g.und_mask[v]
    unit = 1 << len(order)
    removed = 0
    for w, sw in zip(order, starts):
        after = sw > sv
        overlap = abs(sv - sw) < unit
        is_nb = (nmask >> w) & 1
        if after or (is_nb and not overlap) or (overlap and not is_nb):
            removed |= 1 << w
    return (smask & ~removed) | (1 << v)


def repair_induced(inst, cimask, order, starts, v, sv, t_prev):
    """Component repair when a previous interval t_prev is pinned: drop
    the order positions between t_prev and v, later intervals touching
    v or t_prev, and v's overlap contradictions."""
    nmask = inst.g.und_mask[v]
    pmask = inst.g.und_mask[t_prev]
    stp = starts[order.index(t_prev)]
    unit = 1 << len(order)
    removed = 0
    for w, sw in zip(order, starts):
        b = 1 << w
        overlap = abs(sv - sw) < unit
        is_nb = (nmask >> w) & 1
        if stp < sw < sv:
            removed |= b
        elif sw > sv and ((nmask >> w) & 1 or (pmask >> w) & 1):
            removed |= b
        elif is_nb and not overlap:
            removed |= b
        elif overlap and not is_nb:
            removed |= b
    return (cimask & ~removed) | (1 << v)


def witness_candidates(inst, smask, v):
    """The candidate rule over every insertion position, repaired by the
    witnesses: the rule ``_candidates`` ran before the insertion table,
    with each of its candidates, repeats included."""
    und = inst.g.und_mask
    out = []
    if inst.connected:
        out.append(1 << v)
        for c in dict.fromkeys(c for h in inst._hosts(smask, v)
                               for c in mask_components(und, h) if c & und[v]):
            for order in inst._reps(c, v):
                starts = inst._realize(shape_of(inst, order))
                for sv in insert_positions(starts):
                    cand = repair_connected(inst, c, order, starts, v, sv)
                    if cand not in out:
                        out.append(cand)
        return out
    out.append((smask & ~und[v]) | (1 << v))
    tried = set()
    for host in inst._hosts(smask, v):
        comps = mask_components(und, host)
        for t in bits(und[v] & host):
            ci = next(c for c in comps if (c >> t) & 1)
            keep = host & ~ci & ~und[v]
            for order in inst._reps(ci, v):
                if (order, keep, t) in tried:
                    continue
                tried.add((order, keep, t))
                starts = inst._realize(shape_of(inst, order))
                stp, unit = starts[order.index(t)], 1 << len(order)
                for sv in insert_positions(starts):
                    if stp < sv < stp + unit:
                        out.append(keep | repair_induced(inst, ci, order, starts, v, sv, t))
    return out


@pytest.mark.parametrize("variant", ["pinterval-induced", "pinterval-induced-connected"])
def test_one_repair_matches_both_witnesses(variant):
    # every host component, arrangement and insertion position the rule
    # tries, through the insertion table, a position whose signature
    # repeats included: unpinned and pinned at each neighbor of v in the
    # component, as the rule passes them; a pin is checked at every
    # position, not only where the rule uses it.  The rule yields the
    # witnesses' candidates in their order, less repeats, so every
    # neighbor_masks call completes the same candidates in the same order
    pinned = 0
    for i in range(12):
        inst = build_instance(variant, i)
        und = inst.g.und_mask
        for s in exp_solutions(inst)[:4]:
            smask = mask_of(s)
            for v in bits((1 << inst.g.n) - 1 & ~smask):
                for c in {c for h in inst._hosts(smask, v) for c in mask_components(und, h)}:
                    for order in inst._reps(c, v):
                        starts, upto, at = table_positions(inst, order)
                        for sv, sig in at:
                            assert (inst._repair(c, v, sig)
                                    == repair_connected(inst, c, order, starts, v, sv))
                            for t in bits(und[v] & c):
                                pinned += 1
                                assert (inst._repair(c, v, sig, upto[t], und[v] | und[t])
                                        == repair_induced(inst, c, order, starts, v, sv, t))
                cands = list(inst._candidates(smask, (v,)))
                assert (list(dict.fromkeys(cands))
                        == list(dict.fromkeys(witness_candidates(inst, smask, v))))
    assert pinned > 10_000


# -- the rational realization, kept as the witness of the integer one ------

def _fraction_realize(self, order) -> list[Fraction]:
    """Exact unit-interval start positions for a component arrangement.

    Starts strictly increase and overlap holds exactly for graph edges
    (|difference| < 1); midpoint choices leave slack around every
    non-forced boundary.
    """
    und = self.g.und_mask
    starts: list[Fraction] = []
    placed = 0
    for t, x in enumerate(order):
        if t == 0:
            starts.append(Fraction(0))
            placed |= 1 << x
            continue
        cnt = (und[x] & placed).bit_count()
        a = t - cnt
        base = starts[t - 1]
        if a > 0:
            base = max(base, starts[a - 1] + 1)
        hi = starts[a] + 1
        starts.append((base + hi) / 2)
        placed |= 1 << x
    return starts


def _fraction_epsilon(starts) -> Fraction:
    crit = set()
    for s in starts:
        crit.update((s - 1, s, s + 1))
    gaps = [b - a for a, b in zip(sorted(crit), sorted(crit)[1:]) if b > a]
    return min(gaps, default=Fraction(1)) / 2


def _random_arrangement(rng, n):
    """A connected unit-interval graph on shuffled ids and its order by
    start: starts 1..9 tenths apart, overlapping when under 10 apart."""
    pos = [0]
    for _ in range(n - 1):
        pos.append(pos[-1] + rng.randint(1, 9))
    ids = list(range(n))
    rng.shuffle(ids)
    edges = [(ids[i], ids[j]) for i, j in itertools.combinations(range(n), 2)
             if pos[j] - pos[i] < 10]
    return Graph(n, edges), ids


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def test_integer_realization_matches_fractions():
    rng = random.Random(2024)
    for trial in range(300):
        g, order = _random_arrangement(rng, 1 + trial % 9)
        inst = make_instance("pinterval-induced-connected", graph=g)
        unit = 1 << len(order)
        starts = inst._realize(shape_of(inst, order))
        exact = _fraction_realize(inst, order)
        assert starts == [s * unit for s in exact]
        eps = _fraction_epsilon(exact)
        fracs = [q for f in exact
                 for q in (f - 1 - eps, f - 1 + eps, f, f + 1 - eps, f + 1 + eps)]
        ints = insert_positions(starts)
        assert len(ints) == len(fracs)
        for p, q in zip(ints, fracs):
            for s, f in zip(starts, exact):
                for c, d in ((s - unit, f - 1), (s, f), (s + unit, f + 1)):
                    assert _sign(p - c) == _sign(q - d)


# -- the insertion table keyed by arrangement, kept as the witness of the --
# -- one kept by shape -------------------------------------------------------

def order_table(inst, order):
    """The insertion table as the candidate rule built it for each
    arrangement before it kept signatures by shape: the arrangement realized
    (here by the rational witness, scaled), and each distinct signature read
    as masks off its prefix masks by bisection."""
    unit = 1 << len(order)
    starts = [int(f * unit) for f in _fraction_realize(inst, order)]
    pre = [0]
    for u in order:
        pre.append(pre[-1] | 1 << u)
    full = pre[-1]
    sigs = {}
    for s in starts:
        for sv in (s - unit - 1, s - unit + 1, s, s + unit - 1, s + unit + 1):
            sigs[(pre[bisect_left(starts, sv + unit)] ^ pre[bisect_right(starts, sv - unit)],
                  full ^ pre[bisect_right(starts, sv)],
                  pre[bisect_left(starts, sv)])] = None
    return dict(zip(order, pre[1:])), list(sigs)


def test_table_by_shape_matches_table_by_arrangement():
    # arrangements of random unit-interval graphs with true twins (equal
    # starts) and their reps for every extender; inside a run the index
    # signatures are kept by shape, so arrangements of one shape share them
    rng = random.Random(53)
    tables = shapes = twinned = 0
    for trial in range(120):
        n = 1 + trial % 10
        pos = [0]
        for _ in range(n - 1):
            pos.append(pos[-1] + rng.choice([0, 0, *range(1, 10)]))
        ids = list(range(n))
        rng.shuffle(ids)
        g = Graph(n, [(ids[i], ids[j]) for i, j in itertools.combinations(range(n), 2)
                      if pos[j] - pos[i] < 10])
        inst = make_instance("pinterval-induced", graph=g)
        closed = [inst.g.und_mask[u] | 1 << u for u in range(n)]
        twinned += len(set(closed)) < n
        with inst.run_memos(_comp_memo={}):
            full = (1 << n) - 1
            orders = {tuple(ids): None}
            for v in range(n):
                orders.update(dict.fromkeys(inst._reps(full, v)))
            for order in orders:
                assert inst._table(order) == order_table(inst, order)
                tables += 1
            assert len(inst._shapes) <= len(orders)
            shapes += len(inst._shapes)
    assert shapes < tables and twinned > 50


# regression: these instances once lost a solution because the host
# arrangement pinned vertices that the target solution orders differently
REGRESSIONS = [
    ("pinterval-induced",
     Graph(8, [(0, 1), (0, 2), (0, 4), (0, 5), (0, 7), (1, 2), (1, 3), (1, 5),
               (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 6), (3, 7),
               (4, 5), (4, 7), (5, 6), (5, 7), (6, 7)])),
    ("pinterval-induced-connected",
     Graph(7, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (1, 6), (2, 3), (3, 4),
               (3, 5), (4, 5), (4, 6)])),
    ("pinterval-induced",
     Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 7), (1, 2), (1, 6), (1, 7),
               (2, 3), (2, 4), (2, 6), (3, 4), (3, 5), (3, 6), (4, 6), (5, 7),
               (6, 7)])),
    ("pinterval-induced-connected",
     Graph(7, [(0, 1), (0, 4), (0, 6), (1, 2), (1, 4), (1, 5), (1, 6), (2, 5),
               (3, 5), (3, 6), (4, 6), (5, 6)])),
    ("pinterval-induced",
     Graph(8, [(0, 2), (0, 7), (1, 3), (1, 5), (2, 7), (3, 4), (3, 7), (4, 5),
               (4, 6), (4, 7)])),
]


@pytest.mark.parametrize("variant,g", REGRESSIONS)
def test_reachability_regressions(variant, g):
    inst = make_instance(variant, graph=g)
    sols = exp_solutions(inst)
    assert sorted(sols) == brute_force_maximal(inst)


def test_oracle_equality_random():
    rng = random.Random(83)
    for variant in ("pinterval-induced", "pinterval-induced-connected"):
        for _ in range(8):
            g = random_graph(rng, rng.randint(4, 7), 0.5)
            inst = make_instance(variant, graph=g)
            sols = exp_solutions(inst)
            assert sorted(sols) == brute_force_maximal(inst)
