import dataclasses
import gc
import random
import tracemalloc

import pytest

import maxenum.engine as engine_mod
import maxenum.pspace as pspace_mod
from maxenum import (Graph, PartialOutputError, enumerate_exp, enumerate_pspace,
                     make_instance)
from maxenum.graphs import ContractViolation, bits, mask_cc, mask_of
from maxenum.problems import ALL_VARIANTS, PSPACE_VARIANTS, VARIANTS
from maxenum.problems.base import Problem, PspaceProblem, bfs_order
from maxenum.pspace import children, comp_lex, core_of, has_parent, restr

from conftest import (CORPUS_SIZE, build_instance, chained_triangles, complete, cycle,
                      disjoint_triangles, exp_solutions, path, random_graph, sparse_gnm)
from proximity import canonical_order, order_keys


def c5_bip():
    return make_instance("bipartite-induced-connected", graph=cycle(5))


def pi_of(problem, solution):
    """The pivot of a maximal solution, or None for roots."""
    cp = core_of(problem, solution)
    return None if cp is None else cp[1]


# -- seed -------------------------------------------------------------------------
# the seed of a solution is its smallest element, which roots its order

def test_seed_smallest_id():
    inst = make_instance("forests", graph=Graph(10, [(3, 5)]))
    assert canonical_order(inst, (9, 5, 3)) == [3, 5, 9]


def test_seed_singleton():
    inst = make_instance("trees", graph=Graph(1, []))
    assert canonical_order(inst, (0,)) == [0]
    assert comp_lex(inst, (0,)) == (0,)


# -- lexicographic completion --------------------------------------------------------

def test_comp_lex_identity_on_maximal():
    inst = c5_bip()
    assert comp_lex(inst, (1, 2, 3, 4)) == (1, 2, 3, 4)


def test_comp_lex_c5_from_zero():
    # the order-minimal addable element after {0,1} is vertex 4 at distance 1,
    # ahead of vertex 2 at distance 2, so the completion wraps the other way
    inst = c5_bip()
    assert comp_lex(inst, (0,)) == (0, 1, 2, 4)


def test_comp_lex_p3_forest():
    inst = make_instance("forests", graph=path(3))
    assert comp_lex(inst, (2,)) == (0, 1, 2)


def test_comp_lex_empty_set():
    # the seed of the empty set is undefined on a non-empty graph; an empty
    # graph has only the empty solution
    with pytest.raises(ContractViolation, match="an empty set has no seed"):
        comp_lex(c5_bip(), ())
    assert comp_lex(make_instance("forests", graph=Graph(0, [])), ()) == ()


def test_comp_lex_requires_solution():
    inst = c5_bip()
    with pytest.raises(ContractViolation):
        comp_lex(inst, (0, 1, 2, 3, 4))  # odd cycle


def test_element_ids_checked():
    inst = make_instance("trees", graph=path(3))
    with pytest.raises(ValueError, match="element id 9 out of range"):
        inst.neighbors_at((9,), 1)
    with pytest.raises(ValueError, match="element id 7 out of range"):
        inst.neighbors_at((0,), 7)
    with pytest.raises(ValueError, match="element id 5 out of range"):
        comp_lex(inst, (5,))


@pytest.mark.parametrize("variant", PSPACE_VARIANTS)
def test_extender_inside_the_solution_is_its_own_candidate(variant):
    # a w inside the solution adds nothing, so no candidate is completed;
    # neighbor_masks_at once completed the empty set, which the connected
    # families refused with "an empty set has no seed"
    for i in range(4):
        inst = build_instance(variant, i)
        sols = exp_solutions(inst)
        for s in sols:
            for w in s:
                before = inst.comp_calls
                assert inst.neighbor_masks_at(mask_of(s), w) == (mask_of(s),), (i, s, w)
                assert inst.neighbors_at(s, w) == [s], (i, s, w)
                assert inst.comp_calls == before, (i, s, w)


def comp_lex_witness(problem, elems):
    """The lexicographic completion that starts each round from nothing:
    one predicate scan of the reach and one ``order_keys`` per added
    element.  It scans the reach with ``sol`` itself, so it reads neither
    the family's extension test nor any other code the completion uses."""
    xmask = mask_of(elems)
    if not problem.sol(xmask):
        raise ContractViolation("lexicographic completion needs a solution")
    problem.comp_calls += 1
    while True:
        ext = [e for e in bits(problem._reach(xmask)) if problem.sol(xmask | 1 << e)]
        if not ext:
            return bits(xmask)
        if not xmask:
            raise ContractViolation("an empty set has no seed")
        v = (xmask & -xmask).bit_length() - 1  # the seed: smallest element
        keys = order_keys(problem, xmask, v, ext)
        best = min(ext, key=keys.__getitem__)
        xmask |= 1 << best


def test_comp_lex_relaxes_distances():
    # from {5, 7, 9} the completion reaches the path 1-4-5-9-7 rooted at 1;
    # adding 2, a neighbor of 1 and 7, shortens the distance of 7 from 4 to
    # 2, which puts 0 (a neighbor of 7) ahead of 10 (a neighbor of 5)
    g = Graph(12, [(0, 7), (0, 10), (0, 11), (1, 2), (1, 4), (1, 8), (1, 11),
                   (2, 3), (2, 7), (2, 8), (2, 11), (3, 6), (3, 7), (3, 10),
                   (4, 5), (5, 9), (5, 10), (7, 9), (7, 10), (8, 9), (8, 10),
                   (8, 11), (10, 11)])
    inst = make_instance("bipartite-induced-connected", graph=g)
    assert comp_lex(inst, (5, 7, 9)) == (0, 1, 2, 4, 5, 7, 9)
    assert comp_lex_witness(inst, (5, 7, 9)) == (0, 1, 2, 4, 5, 7, 9)


@pytest.mark.parametrize("variant", PSPACE_VARIANTS)
def test_comp_lex_matches_witness(variant):
    # random solutions, not only prefixes of solution orders, so that the
    # completion also meets new seeds, merges and new leaders
    rng = random.Random(f"lexwitness:{variant}")
    checked = 0
    for trial in range(200):
        n = rng.randint(1, 14)
        inst = make_instance(variant, graph=random_graph(
            rng, n, rng.choice([0.15, 0.3, 0.5, 0.7])))
        for _ in range(4):
            grown = []
            for v in rng.sample(range(n), n):
                if inst.is_solution(grown + [v]):
                    grown.append(v)
            x = grown[:rng.randint(1, len(grown))]
            assert comp_lex(inst, x) == comp_lex_witness(inst, x), (n, inst.g.edges, x)
            checked += 1
    assert checked == 800


# -- solution order -------------------------------------------------------------------

def test_solution_order_c4():
    inst = make_instance("bipartite-induced-connected", graph=cycle(4))
    assert canonical_order(inst, (0, 1, 2, 3)) == [0, 1, 3, 2]


def test_solution_order_singleton():
    inst = make_instance("forests", graph=Graph(6, [(0, 5)]))
    assert canonical_order(inst, (5,)) == [5]


def test_solution_order_two_isolated():
    inst = make_instance("forests", graph=Graph(2, []))
    assert canonical_order(inst, (0, 1)) == [0, 1]


def test_solution_order_reads_ids_as_a_set():
    # a repeated id names one element, as in ``comp``
    inst = make_instance("forests", graph=path(4))
    assert canonical_order(inst, (1, 1, 0)) == [0, 1]


def test_order_keys_component_leaders():
    # G[X] has three components: {4, 6} holds the root 4 (slot 0), {1, 2}
    # has leader 1 (slot 2) and {8, 9} leader 8 (slot 9)
    g = Graph(12, [(1, 2), (4, 6), (8, 9), (6, 7), (2, 3), (0, 2),
                   (10, 1), (10, 9), (11, 4), (11, 8)])
    inst = make_instance("forests", graph=g)
    xmask = sum(1 << u for u in (1, 2, 4, 6, 8, 9))
    assert order_keys(inst, xmask, 4, (1, 2, 4, 6, 8, 9)) == {
        1: (2, 0, 1), 2: (2, 1, 2), 4: (0, 0, 4), 6: (0, 1, 6),
        8: (9, 0, 8), 9: (9, 1, 9)}
    assert order_keys(inst, xmask, 4, (7, 11, 3, 0, 5, 10)) == {
        7: (0, 2, 7),    # touches the root component
        11: (0, 1, 11),  # touches the root component and {8, 9}
        3: (2, 2, 3),    # touches only {1, 2}, whose leader is smaller
        0: (1, 0, 0),    # smaller than the leader of {1, 2}: leads itself
        5: (6, 0, 5),    # touches nothing
        10: (2, 1, 10),  # merges {1, 2} and {8, 9}
    }


def test_lex_pick_outcomes():
    # G[X] has three components: the seed's {2, 3}, {5, 6} (leader 5) and
    # {9, 10} (leader 9); the layer {2} touches 12, the layer {3} touches 8,
    # {6} touches 11 and {10} touches 4, while 0, 1 and 7 touch nothing
    g = Graph(13, [(2, 3), (5, 6), (9, 10), (2, 12), (3, 8), (6, 11), (10, 4)])
    inst = make_instance("forests", graph=g)
    xmask = mask_of((2, 3, 5, 6, 9, 10))
    cases = {
        (8, 12): 12,  # the seed's component wins at its first touching layer
        (0, 8): 8,    # and still wins when m = 0 lies below the seed
        (7, 11): 11,  # {5, 6}, of leader 5 < m = 7, wins over m
        (1, 4): 1,    # only {9, 10} touches, and its leader lies above m
        (4, 11): 4,   # {5, 6} and {9, 10} touch, both leaders above m
    }
    for ext, want in cases.items():
        assert inst._lex_pick(xmask, mask_of(ext)) == 1 << want, ext
        keys = order_keys(inst, xmask, 2, ext)
        assert min(ext, key=keys.__getitem__) == want, (ext, keys)


def test_order_keys_connected():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (3, 5)])
    inst = make_instance("trees", graph=g)
    xmask = sum(1 << u for u in (0, 1, 2, 4))
    assert order_keys(inst, xmask, 0, (0, 1, 2, 4, 3, 5)) == {
        0: (0, 0, 0), 1: (0, 1, 1), 2: (0, 2, 2), 4: (0, 1, 4),
        3: (0, 3, 3), 5: (0, 2, 5)}
    assert order_keys(inst, xmask, 2, (0, 1, 2, 4, 3, 5)) == {
        0: (0, 2, 0), 1: (0, 1, 1), 2: (0, 0, 2), 4: (0, 3, 4),
        3: (0, 1, 3), 5: (0, 4, 5)}


def order_keys_witness(g, x, v):
    """The order keys of every vertex under the order rooted at v, by the
    rule in the ``order_keys`` docstring, from sets and a plain BFS over
    ``bits(g.und_mask[u])``: the components of G[X] take slot 0 for v's own and
    leader + 1 for any other, and an outside vertex joins the touched
    component of least slot when that slot is at most its id."""
    x = set(x)
    slot, dist = {}, {}
    for leader in [v] + sorted(x):
        if leader in dist:
            continue
        dist[leader] = 0
        queue = [leader]
        for u in queue:
            slot[u] = 0 if leader == v else leader + 1
            for w in bits(g.und_mask[u]):
                if w in x and w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
    keys = {}
    for e in range(g.n):
        touched = [u for u in bits(g.und_mask[e]) if u in x]
        least = min((slot[u] for u in touched), default=e + 1)
        if e in x:
            keys[e] = (slot[e], dist[e], e)
        elif least <= e:
            keys[e] = (least, 1 + min(dist[u] for u in touched if slot[u] == least), e)
        else:
            keys[e] = (e + 1, 0, e)
    return keys


@pytest.mark.parametrize("variant", PSPACE_VARIANTS)
def test_order_keys_match_witness(variant):
    # X is any vertex subset, often of several components, and every vertex
    # is keyed, member or not
    rng = random.Random(f"keywitness:{variant}")
    several = 0
    for trial in range(300):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.35, 0.6]))
        inst = make_instance(variant, graph=g)
        x = [u for u in range(n) if rng.random() < rng.choice([0.3, 0.6, 0.9])] or [0]
        v = rng.choice(x)
        want = order_keys_witness(g, x, v)
        assert order_keys(inst, mask_of(x), v, range(n)) == want, (n, g.edges, x, v)
        several += len({want[u][0] for u in x}) > 1  # slots of G[X]'s components
    assert several >= 100


@pytest.mark.parametrize("variant", PSPACE_VARIANTS)
def test_lex_pick_matches_order_keys(variant, monkeypatch):
    # every choosing round of the lexicographic completions of pspace runs,
    # on corpus instances and sparse random graphs, adds the element of
    # least ``order_keys`` key; ``beyond`` counts the rounds where the seed's
    # component touches no addable element, which the walk settles past it
    original = PspaceProblem._lex_pick
    picked = beyond = 0

    def checked(self, xmask, ext):
        nonlocal picked, beyond
        b = original(self, xmask, ext)
        seed = (xmask & -xmask).bit_length() - 1
        best = min(order_keys(self, xmask, seed, bits(ext)).values())[2]
        assert b == 1 << best, (variant, self.g.edges, bits(xmask), bits(ext))
        picked += 1
        own = mask_cc(self.g.und_mask, xmask, seed)
        beyond += not mask_of(x for u in bits(own) for x in bits(self.g.und_mask[u])) & ext
        return b

    monkeypatch.setattr(PspaceProblem, "_lex_pick", checked)
    for inst in regeneration_instances(variant):
        enumerate_pspace(inst)
        # root discovery completes only the seeds with no smaller neighbor,
        # so every seeded singleton completion is swept too, outside a run,
        # where no memo answers a round
        for u in range(inst.ground_size):
            inst.comp_lex_mask(1 << u, seeded=True)
    assert picked >= 1000, picked
    # a connected family's set is one component, which its reach touches
    assert beyond == 0 if inst.connected else beyond >= 100, beyond


# -- core / parent / pi ----------------------------------------------------------------

def test_core_pi_parent_on_c5():
    inst = c5_bip()
    core, pi = core_of(inst, (1, 2, 3, 4))
    assert core == [1, 2, 3] and pi == 4
    assert comp_lex(inst, core) == (0, 1, 2, 3)  # the parent
    assert comp_lex(inst, core + [pi]) == (1, 2, 3, 4)


def test_root_has_no_core():
    inst = c5_bip()
    # a root is the completion of its seed alone, and has no parent
    assert comp_lex(inst, (0,)) == (0, 1, 2, 4)
    assert core_of(inst, (0, 1, 2, 4)) is None


def test_core_needs_a_maximal_solution():
    # on the path 0-1-2 the only maximal tree is the path itself, a root;
    # (0, 2) is no tree, and (0, 1) and () are trees that can still grow
    inst = make_instance("trees", graph=path(3))
    assert core_of(inst, (0, 1, 2)) is None
    for bad in ((0, 2), (0, 1), ()):
        for primitive in (core_of, pi_of, restr):
            with pytest.raises(ContractViolation, match="not a maximal solution"):
                primitive(inst, bad)


def test_defining_identity_everywhere():
    for n, p, variant in ((6, 0.5, "trees"), (7, 0.4, "forests"),
                          (6, 0.6, "bipartite-induced")):
        g = random_graph(random.Random(f"core:{variant}"), n, p)
        inst = make_instance(variant, graph=g)
        sols = exp_solutions(inst)
        for s in sols:
            cp = core_of(inst, s)
            if cp is None:
                assert comp_lex(inst, s[:1]) == s  # a root
            else:
                core, pi = cp
                assert comp_lex(inst, core + [pi]) == s
                assert pi_of(inst, s) == pi


# -- children / restr --------------------------------------------------------------------

@pytest.mark.parametrize("variant", PSPACE_VARIANTS)
def test_bounded_parent_check_matches_core(variant, monkeypatch):
    # every (child, parent, pivot) that ``children`` tests during corpus runs
    # gets the verdict of the full core scan; a wrong verdict fails at once,
    # before it can send the traversal round a cycle
    verdicts = []
    original = pspace_mod.has_parent

    def checked(problem, cmask, pmask, w):
        verdict = original(problem, cmask, pmask, w)
        cp = core_of(problem, bits(cmask))
        expected = (cp is not None and cp[1] == w
                    and comp_lex(problem, cp[0]) == bits(pmask))
        assert verdict == expected, (variant, bits(cmask), bits(pmask), w)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(pspace_mod, "has_parent", checked)
    for i in range(40):
        enumerate_pspace(build_instance(variant, i))
    assert sum(verdicts) >= 40 and not all(verdicts)


def test_parent_check_pivot_first():
    # on C5 the child (1, 2, 3, 4) has the order [1, 2, 3, 4], the pivot 4
    # and the parent (0, 1, 2, 3); its core [1, 2, 3] is not inside
    # (0, 1, 2, 4), so that parent is rejected without a completion
    inst = c5_bip()
    child = mask_of((1, 2, 3, 4))
    assert canonical_order(inst, (1, 2, 3, 4)) == [1, 2, 3, 4]
    before = inst.comp_calls
    assert not has_parent(inst, child, mask_of((0, 1, 2, 4)), 4)
    assert inst.comp_calls == before
    assert has_parent(inst, child, mask_of((0, 1, 2, 3)), 4)
    # [1] completes to (0, 1, 2, 4), which holds it: only the longer
    # prefixes show that 2 is not the pivot
    assert not has_parent(inst, child, mask_of((0, 1, 2, 4)), 2)
    # the root (0, 1, 2, 4), order [0, 1, 4, 2], is the completion of [0]
    # and holds it, but a solution is not its own parent
    assert canonical_order(inst, (0, 1, 2, 4)) == [0, 1, 4, 2]
    assert not has_parent(inst, mask_of((0, 1, 2, 4)), mask_of((0, 1, 2, 4)), 1)


def test_parent_check_stops_before_the_pivot_layer(monkeypatch):
    # on C5 the child (1, 2, 3, 4) has the layers {1}, {2}, {3}, {4}; for
    # the parent (0, 1, 2, 4) and the pivot 4 the layer {3} already leaves
    # the parent, so the check builds no order and completes nothing
    inst = c5_bip()
    built = []
    monkeypatch.setattr(pspace_mod, "bfs_order",
                        lambda *args: built.append(args) or bfs_order(*args))
    child = mask_of((1, 2, 3, 4))
    before = inst.comp_calls
    assert not has_parent(inst, child, mask_of((0, 1, 2, 4)), 4)
    assert built == [] and inst.comp_calls == before
    # a prefix that completes to the parent builds the order once, for the
    # longer prefixes
    assert has_parent(inst, child, mask_of((0, 1, 2, 3)), 4)
    assert len(built) == 1


def test_parent_check_needs_the_pivot_in_the_child():
    inst = c5_bip()
    for w in (0, 5):  # outside the child, and outside the ground set
        with pytest.raises(ContractViolation, match=f"pivot {w} is not in the child"):
            has_parent(inst, mask_of((1, 2, 3, 4)), mask_of((0, 1, 2, 3)), w)


@pytest.mark.parametrize("w", [3, -1, True])
def test_pivot_must_be_an_element_id(w):
    # forests on the path 0-1-2, ground set 0..2: ``children`` refuses a
    # pivot that is not an int in 0..2 before it builds any candidate, and
    # ``has_parent`` one that is not an int id before it reads the child;
    # a pivot past the ground set lies outside every child
    inst = make_instance("forests", graph=path(3))

    def no_candidates(pmask, pivot):
        raise AssertionError("a candidate was asked for")

    inst.neighbor_masks_at = no_candidates
    with pytest.raises(ContractViolation, match=fr"pivot {w!r} is not an element id in 0\.\.2"):
        list(children(inst, 0b111, w))
    refusal = "is not in the child" if w == 3 else "is not an element id"
    with pytest.raises(ContractViolation, match=f"pivot {w!r} {refusal}"):
        has_parent(inst, 0b111, 0b011, w)
    assert inst.comp_calls == 0


def test_regenerate_needs_the_pivot_in_the_candidate():
    # a pivot outside r lies in no layer of r, so the walk would run out
    # of r: it raises before the walk instead of completing the whole of r,
    # both inside one component and after hopping to the next one's leader
    inst = make_instance("bipartite-induced", graph=cycle(5))
    for r, s, w in (((1, 2, 3), 1, 4), ((1, 2, 3), 1, 5), ((0, 2), 0, 3)):
        before = inst.comp_calls
        with pytest.raises(ContractViolation, match=f"pivot {w} is not in the candidate"):
            pspace_mod._regenerate(inst, mask_of(r), s, w)
        assert inst.comp_calls == before
    # with the pivot in r the walks complete their prefixes, in one
    # component and across two
    for r in ((0, 1, 2), (0, 2)):
        assert pspace_mod._regenerate(inst, mask_of(r), 0, 2) == mask_of((0, 1, 2, 4))


def test_children_of_unique_solution_empty():
    # complete bipartite graph: the whole vertex set is the only solution
    g = Graph(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
    inst = make_instance("bipartite-induced-connected", graph=g)
    only = (0, 1, 2, 3, 4)
    for w in range(5):
        # a pivot lies outside its parent, so one inside yields nothing
        assert list(children(inst, mask_of(only), w)) == []


def test_children_cover_non_roots_once():
    inst = c5_bip()
    sols = []
    enumerate_exp(make_instance("bipartite-induced-connected", graph=cycle(5)),
                  emit=sols.append)
    produced = []
    for parent in sols:
        for w in range(5):
            kids = list(map(bits, children(inst, mask_of(parent), w)))
            assert not (kids and w in parent), (parent, w)  # a pivot lies outside its parent
            produced.extend(kids)
    roots = [s for s in sols if comp_lex(inst, s[:1]) == s]
    assert sorted(produced) == sorted(set(sols) - set(roots))
    assert len(produced) == len(set(produced))  # each child exactly once


def children_witness(problem, parent, w):
    """The child rule that checks each regenerated child with ``restr``:
    the child is yielded from a (candidate, seed) pair only when the first
    candidate regenerating it, scanned again, is that candidate."""
    def prefix_upto(rtuple, s):
        keys = order_keys(problem, mask_of(rtuple), s, rtuple)
        kw = keys[w]
        return mask_of(x for x in rtuple if keys[x] <= kw)

    def restr_in(child, s, cands):
        smask = mask_of(child)
        for r in cands:
            if w not in r or s not in r:
                continue
            if problem.comp_lex_mask(prefix_upto(r, s)) == smask:
                return r
        raise ContractViolation("no candidate regenerates the solution")

    ptuple = tuple(sorted(parent))
    if w in ptuple:
        return
    cands = problem.neighbors_at(ptuple, w)
    pmask = mask_of(ptuple)
    for r in cands:
        if w not in r:
            continue
        for s in r:
            if s == w:
                continue
            prefix = prefix_upto(r, s)
            if prefix & ((1 << s) - 1):
                continue
            cmask = problem.comp_lex_mask(prefix)
            if cmask & -cmask != 1 << s:
                continue
            if not has_parent(problem, cmask, pmask, w):
                continue
            if restr_in(bits(cmask), s, cands) != r:
                continue
            yield cmask


@pytest.mark.parametrize("variant", PSPACE_VARIANTS)
def test_children_match_restr_witness(variant, corpus):
    # judging each regenerated child once yields the same children in the
    # same order as checking each of them with ``restr``
    pairs = produced = 0
    for run in corpus[variant][:40]:
        inst = build_instance(variant, run.index)
        for parent in run.solutions:
            for w in range(inst.ground_size):
                if w in parent:
                    continue
                got = list(children(inst, mask_of(parent), w))
                assert got == list(children_witness(inst, parent, w)), (
                    variant, run.index, parent, w)
                pairs += 1
                produced += len(got)
    assert pairs >= 700 and produced >= 150, (pairs, produced)


def witness_prefix(problem, r, s, w):
    """The elements of r keyed up to w by the order keys of every component
    of G[r], rooted at s."""
    keys = order_keys(problem, mask_of(r), s, r)
    kw = keys[w]
    return mask_of(x for x in r if keys[x] <= kw)


def regenerate_witness(problem, r, s, w):
    """``_regenerate`` from ``witness_prefix``: its full completion when
    neither the prefix nor the completion holds an element below s, else 0."""
    prefix = witness_prefix(problem, r, s, w)
    if prefix & ((1 << s) - 1):
        return 0
    cmask = problem.comp_lex_mask(prefix)
    return cmask if cmask & -cmask == 1 << s else 0


@pytest.mark.parametrize("variant", PSPACE_VARIANTS)
def test_regenerate_matches_witness(variant, monkeypatch):
    # every (candidate, seed, pivot) that ``children`` regenerates from, on
    # corpus instances and on sparse random graphs, where the candidates of
    # the families that need not be connected often have several components
    # and the pivot may lie outside the seed's component; at least 300 per
    # variant hold nothing below s but complete to a set that does, where
    # the seeded completion stops early
    original = pspace_mod._regenerate
    calls = outside = reseeded = 0

    def checked(problem, rmask, s, w):
        nonlocal calls, outside, reseeded
        got = original(problem, rmask, s, w)
        calls += 1
        outside += not (mask_cc(problem.g.und_mask, rmask, s) >> w) & 1
        r = bits(rmask)
        assert got == regenerate_witness(problem, r, s, w), (
            variant, problem.g.edges, r, s, w)
        reseeded += not got and not witness_prefix(problem, r, s, w) & ((1 << s) - 1)
        return got

    monkeypatch.setattr(pspace_mod, "_regenerate", checked)
    rng = random.Random(f"regenerate:{variant}")
    instances = [build_instance(variant, i) for i in range(40)]
    instances += [make_instance(variant, graph=random_graph(
        rng, rng.randint(4, 10), rng.choice([0.15, 0.25, 0.4]))) for _ in range(40)]
    for inst in instances:
        enumerate_pspace(inst)
    assert calls >= 1000 and reseeded >= 300, (calls, reseeded)
    assert outside or instances[0].connected, outside


def regeneration_instances(variant):
    """The instances ``test_regenerate_matches_witness`` draws: corpus
    instances 0-39 and 40 sparse random graphs."""
    rng = random.Random(f"regenerate:{variant}")
    instances = [build_instance(variant, i) for i in range(40)]
    instances += [make_instance(variant, graph=random_graph(
        rng, rng.randint(4, 10), rng.choice([0.15, 0.25, 0.4]))) for _ in range(40)]
    return instances


@pytest.mark.parametrize("variant", PSPACE_VARIANTS)
def test_seed_cuts_are_exact(variant, monkeypatch):
    # every (parent, pivot) pair that ``children`` drops before it builds a
    # candidate yields no child by the restr rule: the parent holds nothing
    # below the pivot, or the family is connected and the pivot has no
    # neighbor in the parent; every (candidate, seed) pair that it drops
    # before its layer walk would yield no child: a seed above the pivot,
    # one with a smaller neighbor in the candidate, or one with no neighbor
    # in it that is not its smallest element, puts an element below the
    # seed in its prefix and so regenerates nothing, and a seed outside the
    # parent regenerates only children that ``has_parent`` rejects; every
    # other pair is regenerated
    original_children, original_regenerate = pspace_mod.children, pspace_mod._regenerate
    kept, regenerated = [], []
    dropped = empty = rejected = alone = 0

    def regenerate(problem, rmask, s, w):
        regenerated.append((rmask, s, w))
        return original_regenerate(problem, rmask, s, w)

    def checked(problem, pmask, w):
        nonlocal dropped, empty, rejected, alone
        parent, und = bits(pmask), problem.g.und_mask
        cut = not pmask & ((1 << w) - 1) or problem.connected and not und[w] & pmask
        if cut and w not in parent:
            assert not any(children_witness(problem, parent, w)), (
                variant, problem.g.edges, parent, w)
            dropped += 1
        # a dropped pair's candidates are still swept for the seed cuts
        for r in problem.neighbors_at(parent, w) if w not in parent else ():
            rmask = mask_of(r)
            for s in r:
                if s == w:
                    continue  # the pivot is never the child's seed
                if s > w or und[s] & rmask & ((1 << s) - 1):
                    assert witness_prefix(problem, r, s, w) & ((1 << s) - 1), (
                        variant, problem.g.edges, r, s, w)
                    empty += 1
                elif not (pmask >> s) & 1:
                    cmask = regenerate_witness(problem, r, s, w)
                    if cmask & -cmask == 1 << s:
                        assert not has_parent(problem, cmask, pmask, w), (
                            variant, problem.g.edges, parent, r, s, w)
                        rejected += 1
                elif not und[s] & rmask and s != r[0]:
                    assert witness_prefix(problem, r, s, w) & ((1 << s) - 1), (
                        variant, problem.g.edges, r, s, w)
                    alone += 1
                elif not cut:
                    kept.append((rmask, s, w))
        yield from original_children(problem, pmask, w)

    monkeypatch.setattr(pspace_mod, "_regenerate", regenerate)
    monkeypatch.setattr(pspace_mod, "children", checked)
    for inst in regeneration_instances(variant):
        enumerate_pspace(inst)
    # the walk nests the children of a child inside its parent's stream
    assert sorted(regenerated) == sorted(kept)
    assert dropped >= 150 and empty >= 3000 and rejected >= 150, (dropped, empty, rejected)
    # a connected candidate holds w beside s, so s always has a neighbor there
    assert alone == 0 if inst.connected else alone >= 50, alone


def root_cut_instances(variant):
    """``regeneration_instances`` and 4 and 6 chained and disjoint triangles."""
    return regeneration_instances(variant) + [
        make_instance(variant, graph=triangles(t))
        for triangles in (chained_triangles, disjoint_triangles) for t in (4, 6)]


@pytest.mark.parametrize("variant", PSPACE_VARIANTS)
def test_root_seed_cut_is_exact(variant):
    # root discovery skips a seed u with a smaller neighbor uncompleted:
    # the seeded completion of {u} gives 0 and the full one a set with
    # another seed, so u seeds no root
    skipped = 0
    for inst in root_cut_instances(variant):
        und = inst.g.und_mask
        for u in range(inst.ground_size):
            if und[u] & ((1 << u) - 1):
                done = inst.comp_lex_mask(1 << u)
                assert done & -done != 1 << u, (variant, inst.g.edges, u)
                assert inst.comp_lex_mask(1 << u, seeded=True) == 0, (variant, inst.g.edges, u)
                skipped += 1
    assert skipped >= 300, skipped


@pytest.mark.parametrize("variant", PSPACE_VARIANTS)
def test_every_edge_is_a_solution(variant):
    # the root seed cut rests on this: in every pspace family the two ends
    # of an edge form a solution, so the extension test adds either end to
    # the other alone
    instances = root_cut_instances(variant)
    instances += [build_instance(variant, i) for i in range(40, CORPUS_SIZE)]
    edges = 0
    for inst in instances:
        for u, v in inst.g.edges:
            assert inst.sol(1 << u | 1 << v), (variant, inst.g.edges, u, v)
            assert inst._extension_test(1 << u, v) and inst._extension_test(1 << v, u), (
                variant, inst.g.edges, u, v)
            edges += 1
    assert edges >= 1000, edges


@pytest.mark.parametrize("variant,graph_factory", [
    ("bipartite-induced-connected", lambda: cycle(5)),
    ("trees", lambda: path(4)),
    ("bipartite-induced", lambda: complete(4)),
])
def test_restr_regenerates(variant, graph_factory):
    inst = make_instance(variant, graph=graph_factory())
    sols = []
    enumerate_exp(make_instance(variant, graph=graph_factory()),
                  emit=sols.append)
    for s in sols:
        cp = core_of(inst, s)
        if cp is None:
            with pytest.raises(ContractViolation, match="roots have no generating candidate"):
                restr(inst, s)
            continue
        core, pi = cp
        r = restr(inst, s)
        assert r in inst.neighbors_at(comp_lex(inst, core), pi)


# -- full traversal ------------------------------------------------------------------------

def test_pspace_matches_exp_on_samples():
    cases = [("bipartite-induced", cycle(5)), ("bipartite-induced-connected", cycle(5)),
             ("trees", complete(4)), ("forests", complete(4))]
    for variant, g in cases:
        a, b = make_instance(variant, graph=g), make_instance(variant, graph=g)
        s2 = []
        counters = enumerate_pspace(b, emit=s2.append)
        assert sorted(exp_solutions(a)) == sorted(s2)
        assert counters.dict_operations == 0


def test_pspace_triangle_no_dictionary(monkeypatch):
    import maxenum.engine as engine_mod

    constructed = []
    original = engine_mod.SolutionDict.__init__

    def spy(self):
        constructed.append(1)
        original(self)

    monkeypatch.setattr(engine_mod.SolutionDict, "__init__", spy)
    inst = make_instance("bipartite-induced", graph=complete(3))
    got = []
    enumerate_pspace(inst, emit=got.append)
    assert len(got) == 3
    assert constructed == []


def test_pspace_edgeless_forest():
    inst = make_instance("forests", graph=Graph(4, []))
    got = []
    counters = enumerate_pspace(inst, emit=got.append)
    assert got == [(0, 1, 2, 3)]
    assert counters.roots_found == 1


def test_pspace_limit_prefix():
    g = complete(4)
    full = []
    enumerate_pspace(make_instance("trees", graph=g), emit=full.append)
    for limit in (0, 3):
        part = []
        enumerate_pspace(make_instance("trees", graph=g), emit=part.append,
                         limit=limit)
        assert part == full[:limit]


@pytest.mark.parametrize("variant", PSPACE_VARIANTS)
def test_traversal_builds_tuples_only_at_emission(variant, monkeypatch):
    # the walk passes masks: ``children``, which the engine calls through the
    # module name, yields ints, the walk scans its pivots without listing
    # them, and a run with a sink builds one tuple per emitted solution, the
    # engine's emission
    original_children = pspace_mod.children

    def counting(module):
        original = module.bits

        def counted(mask):
            built[module.__name__] += 1
            return original(mask)
        return counted

    def checked(problem, pmask, w):
        nonlocal yielded
        assert type(pmask) is int, pmask
        for cmask in original_children(problem, pmask, w):
            assert type(cmask) is int, cmask
            yielded += 1
            yield cmask

    for module in (pspace_mod, engine_mod):
        monkeypatch.setattr(module, "bits", counting(module))
    monkeypatch.setattr(pspace_mod, "children", checked)
    children_yielded = 0
    for i in (1, 3, 8):
        inst, got = build_instance(variant, i), []
        built = {"maxenum.pspace": 0, "maxenum.engine": 0}
        yielded = 0
        counters = enumerate_pspace(inst, emit=got.append)
        assert got and all(type(sol) is tuple for sol in got)
        assert yielded == len(got) - counters.roots_found, (i, yielded)
        assert built == {"maxenum.pspace": 0,
                         "maxenum.engine": counters.solutions_emitted}, (i, built)
        children_yielded += yielded
    assert children_yielded > 0


@pytest.mark.parametrize("variant", PSPACE_VARIANTS)
def test_pspace_empty_graph(variant):
    # the empty set is the only solution of an empty ground set, and the
    # only root
    got = []
    inst = make_instance(variant, graph=Graph(0, []))
    counters = enumerate_pspace(inst, emit=got.append)
    assert got == [()]
    assert counters.roots_found == 1
    assert comp_lex(inst, ()) == ()


# -- completion memos ---------------------------------------------------------------------------
# each engine keeps the completions of a run on the problem instance: pspace in
# ``_lex_memo``, exp in ``_comp_memo``, its one memo; no family keeps a
# predicate memo, and calls outside a run keep no completion memo either

ENGINES = {"exp": enumerate_exp, "pspace": enumerate_pspace}


def run_engine(engine, inst, **kwargs):
    sols = []
    counters = ENGINES[engine](inst, emit=sols.append, **kwargs)
    return sols, counters


def open_memos(engine, inst):
    """The run-scoped memos of the engine on inst, each None when closed."""
    if engine == "pspace":
        return (inst._lex_memo,)
    return (inst._comp_memo,)


def closed(engine, inst):
    return all(memo is None for memo in open_memos(engine, inst))


def instance_memos(inst):
    """Each dict inst holds as an attribute, by name, with a copy of its
    entries: its predicate memo, if it keeps one, and any other."""
    return {name: (memo, dict(memo)) for name, memo in vars(inst).items()
            if isinstance(memo, dict)}


def kept(inst, memos):
    """Whether inst holds the dicts ``instance_memos`` gave, no other, with
    the same entries."""
    now = instance_memos(inst)
    return now.keys() == memos.keys() and all(
        now[name][0] is memo and memo == entries for name, (memo, entries) in memos.items())


def corpus_runs(variant):
    """(solutions, counters) of pspace runs on corpus instances 0-39."""
    return [run_engine("pspace", build_instance(variant, i)) for i in range(40)]


def without_comp_counts(runs):
    return [(sols, dataclasses.replace(c, comp_calls=0, max_comp_gap=0))
            for sols, c in runs]


def comp_calls(runs):
    return sum(c.comp_calls for _, c in runs)


class ForgetfulMemo(pspace_mod._LexMemo):
    """A run memo that misses on every lookup: as ``_LexMemo`` it serves a
    pspace run as its completion memo, the only memo the run opens."""

    def get(self, xmask, default=None):
        return default


@pytest.mark.parametrize("variant", PSPACE_VARIANTS)
def test_memo_is_transparent(variant, monkeypatch):
    # the memo changes which completions are computed, never their results:
    # a run whose completion memo misses on every lookup emits
    # the same solutions in the same order with the same counters, apart
    # from the completion counts
    remembered = corpus_runs(variant)
    monkeypatch.setattr(pspace_mod, "_LexMemo", ForgetfulMemo)
    forgotten = corpus_runs(variant)
    assert without_comp_counts(remembered) == without_comp_counts(forgotten)
    assert comp_calls(remembered) < comp_calls(forgotten)


class ForgetfulDict(dict):
    """An exp completion memo that misses on every lookup."""

    def get(self, mask, default=None):
        return default


def forgetful_comp_memo(monkeypatch):
    """Make every exp run open a ForgetfulDict as its completion memo."""
    def opened(inst, memo):
        inst.__dict__["forgetful"] = None if memo is None else ForgetfulDict()

    monkeypatch.setattr(Problem, "_comp_memo",
                        property(lambda inst: inst.__dict__.get("forgetful"), opened))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_exp_memo_is_transparent(variant, corpus, monkeypatch):
    # as for pspace above; the corpus fixture holds the runs with the memo
    remembered = [(r.solutions, r.counters) for r in corpus[variant][:20]]
    forgetful_comp_memo(monkeypatch)
    forgotten = [run_engine("exp", build_instance(variant, i)) for i in range(20)]
    assert without_comp_counts(remembered) == without_comp_counts(forgotten)
    assert comp_calls(remembered) < comp_calls(forgotten)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_exp_neighbors_same_inside_a_run(variant):
    # inside a run, neighbors is neighbor_masks as tuples, and its lists
    # equal those it returns outside a run
    for i in range(3):
        inst = build_instance(variant, i)
        inside = {}

        def probe(sol):
            inside[sol] = inst.neighbors(sol)
            assert inside[sol] == [bits(m) for m in inst.neighbor_masks(mask_of(sol))]

        enumerate_exp(inst, emit=probe)
        assert closed("exp", inst) and len(inside) > 0
        assert all(inst.neighbors(sol) == nbrs for sol, nbrs in inside.items())


@pytest.mark.parametrize("variant", PSPACE_VARIANTS)
def test_memo_overflow_clears(variant, monkeypatch):
    # a cap of 3 clears the run's completion memo, its only memo, over and
    # over, and the output is that of the real cap
    sizes = []
    setitem = pspace_mod._LexMemo.__setitem__

    def recorded(self, xmask, done):
        setitem(self, xmask, done)
        sizes.append(len(self))

    monkeypatch.setattr(pspace_mod._LexMemo, "__setitem__", recorded)
    full = corpus_runs(variant)
    assert max(sizes) > 3
    sizes.clear()
    monkeypatch.setattr(pspace_mod, "LEX_MEMO_CAP", 3)
    capped = corpus_runs(variant)
    assert max(sizes) == 3 and sizes.count(1) > 40  # cleared, not only fresh
    assert without_comp_counts(capped) == without_comp_counts(full)
    assert comp_calls(capped) > comp_calls(full)


def test_seeded_completion_stops_and_finishes(monkeypatch):
    # on the path 1-2-0 the completion of {1} adds 2, then 0, below its seed:
    # a seeded request stops there and gives 0, and the run's memo keeps the
    # stopped completion, counted once, under {1} and under {1,2}, which it
    # passed; a repeated seeded request, for either, tests nothing, and a
    # full request finishes it, uncounted, to the memo-free completion, in
    # place, without clearing a memo at its cap
    inst = make_instance("trees", graph=Graph(3, [(0, 2), (1, 2)]))
    full = inst.comp_lex_mask(0b010)
    assert full == 0b111
    monkeypatch.setattr(pspace_mod, "LEX_MEMO_CAP", 2)
    memo = pspace_mod._LexMemo()
    with inst.run_memos(_lex_memo=memo):
        ok, tested = inst._extension_test, []
        monkeypatch.setattr(inst, "_extension_test", lambda x, e: tested.append((x, e)) or ok(x, e))
        calls = inst.comp_calls
        assert inst.comp_lex_mask(0b010, seeded=True) == 0
        assert inst.comp_calls == calls + 1 and tested == [(0b010, 2), (0b110, 0)]
        assert memo == {0b010: ~0b111, 0b110: ~0b111}
        assert inst.comp_lex_mask(0b010, seeded=True) == 0
        assert inst.comp_lex_mask(0b110, seeded=True) == 0
        assert inst.comp_calls == calls + 1 and len(tested) == 2
        assert inst.comp_lex_mask(0b110) == inst.comp_lex_mask(0b010) == full
        assert inst.comp_calls == calls + 1 and memo == {0b010: full, 0b110: full}
        assert inst.comp_lex_mask(0b010, seeded=True) == 0  # its seed is 0
        assert inst.comp_lex_mask(0b001, seeded=True) == full  # a miss at the cap
        assert inst.comp_calls == calls + 2
        assert memo == {0b001: full}


class Writes(dict):
    """A completion memo that logs the key of every write."""

    def __init__(self):
        super().__init__()
        self.log = []

    def __setitem__(self, key, value):
        self.log.append(key)
        super().__setitem__(key, value)


def test_lex_completion_stops_at_a_completed_set(monkeypatch):
    # on the path 0-1-2-3 the completion of {0} passes {0,1}, {0,1,2} and
    # {0,1,2,3}; that of {1} adds 0 first, reaches {0,1} and stops there
    # with its stored result, testing nothing more.  A seeded request for
    # {1,2} stops at once, adding 0; the full completion of {2} adds 1,
    # reaches {1,2}, goes on from the set that stopped request reached and
    # stops again at {0,1,2,3}, stored by the first completion
    inst = make_instance("trees", graph=path(4))
    memo, tested = Writes(), []
    ok = inst._extension_test
    monkeypatch.setattr(inst, "_extension_test", lambda x, e: tested.append((x, e)) or ok(x, e))
    with inst.run_memos(_lex_memo=memo):
        before = inst.comp_calls
        assert inst.comp_lex_mask(0b0001) == 0b1111
        assert inst.comp_calls == before + 1
        assert memo == dict.fromkeys((0b0001, 0b0011, 0b0111, 0b1111), 0b1111)
        assert inst.comp_lex_mask(0b0011) == 0b1111
        assert inst.comp_calls == before + 1
        memo.log.clear()
        tested.clear()
        assert inst.comp_lex_mask(0b0010) == 0b1111
        assert inst.comp_calls == before + 2
        assert memo.log == [0b0010] and tested == [(0b0010, 0), (0b0010, 2)]
        memo.log.clear()
        assert inst.comp_lex_mask(0b0110, seeded=True) == 0
        assert memo.log == [0b0110] and memo[0b0110] == ~0b0111
        memo.log.clear()
        tested.clear()
        assert inst.comp_lex_mask(0b0100) == 0b1111
        assert inst.comp_calls == before + 4
        assert memo.log == [0b0110, 0b0100] and memo[0b0110] == 0b1111
        assert tested == [(0b0100, 1), (0b0100, 3), (0b0111, 3)]
    assert inst._lex_memo is None
    before = inst.comp_calls
    for _ in range(2):
        assert inst.comp_lex_mask(0b0001) == 0b1111
    assert inst.comp_calls == before + 2


@pytest.mark.parametrize("variant", PSPACE_VARIANTS)
def test_lex_memo_holds_only_completions(variant, corpus, monkeypatch):
    # the loop stores every set it reaches, not only its input: after the
    # requests of a walk (root discovery and every children call), each
    # completion the memo holds is that of its key, each stopped marker
    # holds its key, an element below the key's seed and the key's
    # completion, and some entries, markers among them, are sets no
    # comp_lex_mask call asked for
    unasked = markers = 0
    for run in corpus[variant][:20]:
        inst = build_instance(variant, run.index)
        n = inst.ground_size
        memo, requested = pspace_mod._LexMemo(), set()
        comp_lex_mask = inst.comp_lex_mask
        monkeypatch.setattr(inst, "comp_lex_mask",
                            lambda m, seeded=False: requested.add(m) or comp_lex_mask(m, seeded))
        with inst.run_memos(_lex_memo=memo):
            for u in range(n):
                inst.comp_lex_mask(1 << u, seeded=True)
            for s in run.solutions:
                smask = mask_of(s)
                for w in bits(~smask & ((1 << n) - 1)):
                    list(children(inst, smask, w))
        monkeypatch.undo()
        for key, done in memo.items():
            full = comp_lex_witness(inst, bits(key))
            if done < 0:
                markers += key not in requested
                reached = ~done
                assert reached & key == key and reached & -reached < key & -key
                done = mask_of(comp_lex_witness(inst, bits(reached)))
            assert done == mask_of(full), (run.index, bits(key))
        unasked += len(memo.keys() - requested)
    assert unasked > 0 and markers > 0


# (engine, variant, corpus index): both engines on forests, which keeps no
# predicate memo, and two exp families that keep only the shared predicate
# memo: pinterval, and hulls, whose table of half-plane masks is instance data
# built on first use, not a run memo
RUN_SCOPED = [pytest.param("exp", "forests", 9, id="exp"),
              pytest.param("pspace", "forests", 9, id="pspace"),
              pytest.param("exp", "pinterval-induced", 2, id="exp-pinterval-induced"),
              pytest.param("exp", "hulls", 14, id="exp-hulls")]


@pytest.mark.parametrize("engine,variant,i", RUN_SCOPED)
def test_memo_closed_after_every_run(engine, variant, i):
    inst = build_instance(variant, i)
    assert closed(engine, inst)
    inst.comp(())  # fills the instance's own memos, outside a run
    own = instance_memos(inst)
    assert all(entries for _, entries in own.values())
    sols, _ = run_engine(engine, inst)
    assert len(sols) > 3 and closed(engine, inst) and kept(inst, own)
    assert run_engine(engine, inst, limit=2)[0] == sols[:2]
    assert closed(engine, inst) and kept(inst, own)

    def failing(sol):
        raise OSError("sink closed")

    with pytest.raises(PartialOutputError):
        ENGINES[engine](inst, emit=failing)
    assert closed(engine, inst) and kept(inst, own)


@pytest.mark.parametrize("engine,variant,i", [
    pytest.param("exp", "trees", 1, id="exp"), pytest.param("pspace", "trees", 1, id="pspace"),
    *RUN_SCOPED[2:]])
def test_memo_nested_run_restores_outer(engine, variant, i):
    inst = build_instance(variant, i)
    seen = []
    own = instance_memos(inst)

    def nested(sol):
        outer, memos = open_memos(engine, inst), instance_memos(inst)
        assert not any(memos[name][0] is memo for name, (memo, _) in own.items())
        seen.append(run_engine(engine, inst)[0])
        restored = open_memos(engine, inst)
        assert all(a is b and b is not None for a, b in zip(restored, outer))
        assert kept(inst, memos)

    sols, _ = run_engine(engine, inst)
    ENGINES[engine](inst, emit=nested, limit=2)
    assert seen == [sols, sols] and closed(engine, inst) and kept(inst, own)


@pytest.mark.parametrize("engine", ENGINES)
def test_finished_runs_leave_no_memo_behind(engine):
    # instances kept alive after their runs hold nothing a run memoized: the
    # memory traced after eight runs is that after the first (a memo kept on
    # the instance held 104 kB more by the eighth run in exp, 512 kB in pspace)
    rng = random.Random(24)
    insts = [make_instance("forests", graph=sparse_gnm(rng, 12, 15)) for _ in range(8)]
    ENGINES[engine](insts[0])
    gc.collect()
    tracemalloc.start()  # traces what is allocated after the first run
    try:
        for inst in insts[1:]:
            ENGINES[engine](inst)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert grown < 8192, grown


@pytest.mark.parametrize("engine", ENGINES)
def test_memo_runs_repeat_counters(engine):
    # a run starts from an empty memo, so a second run on the instance
    # computes the same completions as the first
    inst = build_instance("bipartite-induced", 8)
    first, second = run_engine(engine, inst), run_engine(engine, inst)
    assert first == second and first[1].comp_calls > 0


# per engine: its completion and the completion of (0,) on c5_bip
C5_COMPLETIONS = {"exp": (Problem.comp, (0, 1, 2, 3)),
                  "pspace": (comp_lex, (0, 1, 2, 4))}


@pytest.mark.parametrize("engine", ENGINES)
def test_memo_never_holds_a_non_solution(engine):
    # both public completions check their input, as the mask entries they
    # call do not: a non-solution raises ContractViolation, inside a run
    # and outside, is never stored and is not counted in comp_calls
    inst = c5_bip()
    odd = (0, 1, 2, 3, 4)
    completion, of_zero = C5_COMPLETIONS[engine]

    def refused():
        before = inst.comp_calls
        with pytest.raises(ContractViolation):
            completion(inst, odd)
        assert inst.comp_calls == before

    def probe(sol):
        refused()
        assert mask_of(odd) not in open_memos(engine, inst)[0]

    ENGINES[engine](inst, emit=probe)
    refused()
    # outside a run, every completion is computed and counted
    before = inst.comp_calls
    assert completion(inst, (0,)) == completion(inst, (0,)) == of_zero
    assert inst.comp_calls == before + 2


@pytest.mark.parametrize("variant", ["chordal-induced", "hulls"])
def test_pspace_refuses_a_family_without_a_forest_order(variant):
    # a family with no parent-forest order is refused at entry, by name,
    # before a run opens a memo on the instance or computes a completion
    inst = build_instance(variant, 0)
    inst.comp(())  # fills the instance's own memos, outside a run
    own, calls = instance_memos(inst), inst.comp_calls
    with pytest.raises(ContractViolation, match=variant) as err:
        enumerate_pspace(inst, emit=pytest.fail)
    assert all(v in str(err.value) for v in PSPACE_VARIANTS)
    assert kept(inst, own) and inst.comp_calls == calls


def test_every_entry_point_refuses_a_family_without_a_forest_order():
    # every public pspace entry point refuses a family outside pspace by
    # name, as the engine does, before it reads an order or completes; the
    # parent check used to answer this child (0 leaves the parent) unasked
    inst = make_instance("chordal-induced", graph=cycle(4))
    entry_points = {
        "comp_lex": lambda: comp_lex(inst, (0,)),
        "core_of": lambda: core_of(inst, (0, 1, 2)),
        "restr": lambda: restr(inst, (0, 1, 2)),
        "has_parent": lambda: has_parent(inst, mask_of((0, 1, 2)), mask_of((1, 2, 3)), 2),
        "children": lambda: list(children(inst, mask_of((0, 1, 3)), 2)),
        "enumerate_pspace": lambda: enumerate_pspace(inst),
    }
    for name, call in entry_points.items():
        with pytest.raises(ContractViolation, match="chordal-induced") as err:
            call()
        assert all(v in str(err.value) for v in PSPACE_VARIANTS), name
    assert inst.comp_calls == 0


# -- prefix-closed order properties ------------------------------------------------------------

def _random_solutions(variant, g, rng, want):
    inst = make_instance(variant, graph=g)
    sols = exp_solutions(inst)
    out = []
    for s in sols:
        out.append(s)
        order = canonical_order(inst, s)
        if len(order) > 1:
            cut = rng.randint(1, len(order) - 1)
            out.append(tuple(sorted(order[:cut])))
    rng.shuffle(out)
    return inst, out[:want]


@pytest.mark.parametrize("variant", ["bipartite-induced",
                                     "bipartite-induced-connected",
                                     "trees", "forests"])
def test_prefix_closed_order_properties(variant):
    rng = random.Random(f"pco:{variant}")
    checked = 0
    for trial in range(20):
        g = random_graph(rng, rng.randint(4, 7), rng.choice([0.4, 0.6]))
        inst, xs = _random_solutions(variant, g, rng, 8)
        for x in xs:
            if not x:
                continue
            v = min(x)  # the seed
            xmask = sum(1 << e for e in x)
            keys = order_keys(inst, xmask, v, x)
            order = sorted(x, key=keys.__getitem__)
            assert order[0] == v  # (first)
            for i in range(1, len(order) + 1):
                assert inst.is_solution(order[:i])  # (prefix)
            for i in range(len(order) - 1):  # (greedy)
                pmask = sum(1 << e for e in order[:i + 1])
                ext = [e for e in inst.addable(pmask) if e in x]
                pkeys = order_keys(inst, pmask, v, ext)
                assert min(ext, key=pkeys.__getitem__) == order[i + 1]
            checked += 1
    assert checked >= 30


# -- eligibility witnesses ------------------------------------------------------------------
# pspace runs the four PSPACE_VARIANTS only.  Another vertex family mixed into
# PspaceProblem orders its solutions by the same BFS layers, but restr needs more
# than the order: some candidate of neighbor_masks_at(parent, pivot) must hold the
# child's prefix and its pivot.  The witnesses below are children whose parent
# check passes while no candidate holds them, so the walk never reaches them.

def pspace_mix(variant, g, k=None):
    """The family mixed into PspaceProblem, so that enumerate_pspace runs it."""
    cls = VARIANTS[variant]
    mixed = type(f"{cls.__name__}Pspace", (cls, PspaceProblem), {})
    return mixed(g) if k is None else mixed(g, k)


def pspace_misses(problem) -> list:
    """The solutions exp lists and the pspace walk does not; the walk lists
    nothing else, and nothing twice."""
    walked = []
    enumerate_pspace(problem, emit=walked.append)
    listed = exp_solutions(problem)
    assert len(set(walked)) == len(walked) and set(walked) <= set(listed)
    return sorted(set(listed) - set(walked))


def assert_unreachable(problem, child, core, pivot, candidates):
    """child has the core and pivot, and its parent check passes, but no
    candidate of the parent at the pivot holds it."""
    assert core_of(problem, child) == (core, pivot)
    parent = mask_of(comp_lex(problem, core))
    assert has_parent(problem, mask_of(child), parent, pivot)
    assert [bits(m) for m in problem.neighbor_masks_at(parent, pivot)] == candidates
    with pytest.raises(ContractViolation, match="no candidate regenerates"):
        restr(problem, child)


def wheel_w4():
    """Hub 0 and the rim 1-2-4-3."""
    return Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4), (3, 4)])


@pytest.mark.parametrize("variant, k", [
    ("chordal-induced", None), ("chordal-induced-connected", None),
    ("pinterval-induced", None), ("pinterval-induced-connected", None), ("kdeg-induced", 2)])
def test_pspace_misses_a_wheel_solution(variant, k):
    problem = pspace_mix(variant, wheel_w4(), k)
    assert pspace_misses(problem) == [(0, 2, 3, 4)]
    # the chordal rule keeps one maximal clique of N(4) in the parent, {0, 2} or {0, 3}
    candidates = [(0, 1, 2, 4), (0, 1, 3, 4)] + ([(1, 2, 3, 4)] if k else [])
    assert_unreachable(problem, (0, 2, 3, 4), [0, 2, 3], 4, candidates)


def test_pspace_misses_a_3_degenerate_solution():
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5),
                  (2, 3), (2, 4), (3, 5), (4, 5)])
    problem = pspace_mix("kdeg-induced", g, 3)
    assert pspace_misses(problem) == [(0, 1, 3, 4, 5)]
    assert_unreachable(problem, (0, 1, 3, 4, 5), [0, 1, 3, 4], 5,
                       [(0, 1, 2, 3, 5), (0, 1, 2, 4, 5), (0, 2, 3, 4, 5), (1, 2, 3, 4, 5)])


def test_pspace_lists_the_1_degenerate_solutions_exp_lists():
    for i in range(CORPUS_SIZE):
        problem = pspace_mix("kdeg-induced", build_instance("kdeg-induced", i).g, 1)
        assert pspace_misses(problem) == [], i
