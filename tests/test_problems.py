"""Checks shared by the problems: each graph variant accepts only the graph
direction its family is defined on, and says which variant refused the
input; every variant rejects element ids outside its ground set; each edge
variant keeps its canonical orders; a connected family's solutions are
exactly its plain twin's solutions that form one component; every
candidate adds exactly its incoming element to the solution, where a
connected family's candidates are cut as a plain BFS cuts them, and one
neighbors call completes each distinct cut candidate once, inside an exp
run only those the run's memo lacks, so every comp_mask call of a run is
a counted completion; an unconnected hereditary family completes in one
ascending pass; every
variant's extension rule finds exactly the addable elements and completes
as a loop over the predicate does, every set the shared loop stores in an
exp run's completion memo maps to its own completion, a family's
extension test agrees with the predicate, which maximality asks instead of
that test; a run asks ``sol`` nothing, a family with an extension test
of its own evaluates no predicate in it, and no family keeps a predicate
memo; every set an engine completes is a solution, since a completion
takes its input on trust."""

import random
import re
from collections import Counter

import pytest

import maxenum
from maxenum import (Graph, PointSetInstance, brute_force_maximal, enumerate_exp,
                     enumerate_pspace, make_instance)
from maxenum.graphs import ContractViolation, bits, mask_cc, mask_of, spanned_masks
from maxenum.problems import (ALL_VARIANTS, GRAPH_VARIANTS, K_VARIANTS, POINT_VARIANTS,
                              PSPACE_VARIANTS)
from maxenum.problems.base import Problem, PspaceProblem
from maxenum.problems.degenerate import CORE_CAP

from conftest import (CORPUS_SIZE, build_instance, components, exp_solutions, path,
                      random_graph)
from proximity import canonical_order
from test_graphs import naive_acyclic
from test_pspace import Writes, comp_lex_witness, run_engine


@pytest.mark.parametrize("variant", sorted(GRAPH_VARIANTS | K_VARIANTS))
def test_graph_variant_rejects_wrong_direction(variant):
    wants_directed = variant.startswith("dag-")
    g = Graph(3, [(0, 1), (1, 2)], directed=not wants_directed)
    kind = "a directed" if wants_directed else "an undirected"
    k = 1 if variant in K_VARIANTS else None
    with pytest.raises(ValueError, match=re.escape(f"{variant} expects {kind} graph")):
        make_instance(variant, graph=g, k=k)


@pytest.mark.parametrize("variant", sorted(GRAPH_VARIANTS | POINT_VARIANTS))
def test_stray_k_rejected(variant):
    # the CLI refuses --k outside the kdeg problems; a k given here was once
    # dropped without a word
    if variant in POINT_VARIANTS:
        given = {"points": PointSetInstance([(0, 0), (6, 0), (0, 6)], [(2, 2)])}
    else:
        given = {"graph": path(3)}
    with pytest.raises(ValueError, match=re.escape(f"{variant} takes no parameter k")):
        make_instance(variant, k=1, **given)


@pytest.mark.parametrize("variant,given,message", [
    ("trees", {}, "trees needs a graph"),
    ("kdeg-edge", {"k": 1}, "kdeg-edge needs a graph"),
    ("kdeg-induced", {"graph": path(3)}, "kdeg-induced needs the parameter k"),
    ("hulls-connected", {"graph": path(3)}, "hulls-connected needs a point-set instance"),
    ("cliques", {"graph": path(3)}, "unknown problem variant 'cliques'"),
])
def test_make_instance_refuses_what_a_family_is_not_built_from(variant, given, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make_instance(variant, **given)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_out_of_range_element_ids_rejected(variant):
    inst = build_instance(variant, 0)
    n = inst.ground_size
    calls = [inst.is_solution, inst.is_maximal_solution, inst.comp, inst.neighbors]
    if not variant.startswith("hulls"):
        calls.append(lambda s: canonical_order(inst, s))  # hull solutions carry no order
    for bad in (n, n + 5, -1):
        for call in calls:
            with pytest.raises(ValueError, match=rf"element id {bad} out of range "
                                                 rf"for ground size {n}$"):
                call((bad,))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_element_ids_that_are_not_ints_rejected(variant):
    # True once counted as element 1; a float or a string died with a bare
    # TypeError
    inst = build_instance(variant, 0)
    calls = [inst.is_solution, inst.is_maximal_solution, inst.comp, inst.neighbors]
    if not variant.startswith("hulls"):
        calls.append(lambda s: canonical_order(inst, s))
    for bad in (True, 1.0, "1"):
        for call in calls:
            with pytest.raises(ValueError, match=f"ids must be integers: {bad!r}$"):
                call((bad,))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_neighbors_refuse_a_set_that_is_not_a_maximal_solution(variant):
    # they once answered for any set: trees on the 4-cycle gave three sets
    # for (0, 2), and none for the cycle (0, 1, 2, 3) itself; a set one
    # element short of a maximal solution is none, nor the whole ground set
    refused = 0
    for i in range(3):
        inst = build_instance(variant, i)
        sols = exp_solutions(inst)
        for s in {m[:-1] for m in sols if m} | ({tuple(range(inst.ground_size))} - set(sols)):
            with pytest.raises(ContractViolation, match=re.escape(f"{s} is not a maximal")):
                inst.neighbors(s)
            if variant in PSPACE_VARIANTS:
                with pytest.raises(ContractViolation, match=re.escape(f"{s} is not a maximal")):
                    inst.neighbors_at(s, 0)
            refused += 1
    assert refused >= 3


def test_no_family_states_an_order():
    # pspace reads its families' one order, ``base.bfs_order``, directly; the
    # other families' canonical orders and the proximity measure are test
    # witnesses (tests/proximity.py), as are the two order helpers
    for cls in (GRAPH_VARIANTS | K_VARIANTS | POINT_VARIANTS).values():
        assert not hasattr(cls, "canonical_order") and not hasattr(cls, "prefix_overlap")
        assert not hasattr(cls, "vertex_order"), cls
    assert not {"degeneracy_order", "perfect_elimination_order"} & set(maxenum.__all__)


def test_neighbors_of_a_missing_vertex_rejected():
    # 7 is no vertex of a 3-vertex path, yet neighbors once answered [(0, 1, 2)]
    with pytest.raises(ValueError, match="element id 7 out of range"):
        make_instance("trees", graph=path(3)).neighbors((7,))


# -- edge canonical orders ------------------------------------------------------
# Every solution of one named instance per edge variant, with the canonical
# order each had before the edge orders were rebuilt on spanned-subgraph
# masks; the orders are the vertex twin's order of the spanned subgraph.

def house():
    # the 5-cycle 0-1-2-3-4 with the chord 1-4
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)])


def two_cycle_digraph():
    # the directed triangle 0->1->2->0 and the directed triangle 1->2->3->1
    return Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 1)], directed=True)


EDGE_CANONICAL_ORDERS = [
    ("bipartite-edge", house, None, {
        (0, 1, 2, 3, 5): [0, 1, 5, 2, 3],
        (0, 2, 3, 4): [0, 4, 3, 2],
        (0, 1, 2, 4): [0, 4, 1, 2],
        (0, 1, 3, 4): [0, 4, 1, 3],
        (1, 2, 3, 4, 5): [4, 5, 3, 1, 2],
    }),
    ("kdeg-edge", house, 1, {
        (0, 1, 2, 3): [3, 2, 1, 0],
        (0, 2, 3, 4): [3, 2, 4, 0],
        (0, 1, 2, 4): [4, 0, 1, 2],
        (0, 1, 2, 5): [5, 1, 2, 0],
        (0, 2, 3, 5): [3, 2, 5, 0],
        (1, 3, 4, 5): [3, 5, 1, 4],
        (2, 3, 4, 5): [3, 2, 5, 4],
        (0, 1, 3, 5): [3, 5, 1, 0],
        (1, 2, 4, 5): [5, 1, 2, 4],
        (0, 1, 3, 4): [3, 4, 0, 1],
        (1, 2, 3, 4): [3, 2, 1, 4],
    }),
    ("chordal-edge", house, None, {
        (0, 1, 2, 3): [3, 2, 1, 0],
        (0, 1, 3, 4, 5): [3, 5, 1, 4, 0],
        (1, 2, 3, 4): [3, 2, 1, 4],
        (0, 2, 3, 4, 5): [3, 2, 5, 4, 0],
        (0, 1, 2, 4, 5): [5, 1, 2, 4, 0],
    }),
    ("dag-edge-connected", two_cycle_digraph, None, {
        (0, 1, 3): [0, 1, 3],
        (1, 2, 3): [2, 1, 3],
        (0, 1, 4): [0, 1, 4],
        (1, 2, 4): [2, 1, 4],
        (0, 2, 3, 4): [0, 4, 2, 3],
    }),
]


@pytest.mark.parametrize("variant,graph,k,orders", EDGE_CANONICAL_ORDERS,
                         ids=[case[0] for case in EDGE_CANONICAL_ORDERS])
def test_edge_canonical_orders(variant, graph, k, orders):
    inst = make_instance(variant, graph=graph(), k=k)
    sols = exp_solutions(inst)
    assert {s: canonical_order(inst, s) for s in sols} == orders


# -- the connectivity rule -------------------------------------------------------
# The base rejects a set of a connected family unless it is one component;
# no predicate checks it again.  Each mask is checked against a plain BFS.

CONNECTED_TWINS = [("trees", "forests"),
                   ("bipartite-induced-connected", "bipartite-induced"),
                   ("chordal-induced-connected", "chordal-induced"),
                   ("pinterval-induced-connected", "pinterval-induced"),
                   ("hulls-connected", "hulls")]


def random_masks(rng, n, count):
    # dense and sparse sets alike
    return [rng.getrandbits(n) & (rng.getrandbits(n) if i % 2 else -1)
            for i in range(count)]


@pytest.mark.parametrize("variant,twin", CONNECTED_TWINS,
                         ids=[case[0] for case in CONNECTED_TWINS])
def test_connected_solutions_are_twin_solutions_in_one_component(variant, twin):
    rng = random.Random(f"connected:{variant}")
    split = 0
    for i in range(20):
        inst = build_instance(variant, i)
        if twin == "hulls":  # the same points without the graph, which hulls refuses
            plain = make_instance(twin, points=PointSetInstance(inst.inst.interest,
                                                                inst.inst.obstacles))
        else:
            plain = make_instance(twin, graph=inst.g)
        for mask in random_masks(rng, inst.ground_size, 40):
            one = len(components(inst.g, bits(mask))) <= 1
            assert inst.sol(mask) == (plain.sol(mask) and one), (i, bits(mask))
            split += plain.sol(mask) and not one
    assert split  # the rule decided some masks


@pytest.mark.parametrize("variant", ["dag-induced-connected", "dag-edge-connected"])
def test_dag_set_of_two_components_rejected(variant):
    rng = random.Random(f"connected:{variant}")
    split = 0
    for i in range(20):
        inst = build_instance(variant, i)
        for mask in random_masks(rng, inst.ground_size, 40):
            verts = ({u for e in bits(mask) for u in inst.g.edges[e]}
                     if inst.ground_kind == "e" else bits(mask))
            if len(components(inst.g, verts)) > 1:
                assert not inst.sol(mask), (i, bits(mask))
                split += 1
    assert split


CONNECTED_VARIANTS = ("trees", "bipartite-induced-connected",
                      "chordal-induced-connected", "pinterval-induced-connected",
                      "dag-induced-connected", "dag-edge-connected", "hulls-connected")


@pytest.mark.parametrize("variant", CONNECTED_VARIANTS)
def test_engines_ask_sol_only_about_one_component(variant):
    # the precondition for skipping the connectivity walk of ``sol`` on
    # engine paths, which the default ``_extension_test`` relies on: the
    # base's neighbor loops cut every candidate and completions grow within
    # ``_reach``, so every set an engine asks the predicate about, passes to
    # a completion or has an extension test judge as ``x | 1 << e`` is one
    # component, or empty at the start of the first completion
    engines = [enumerate_exp] + [enumerate_pspace] * (variant in PSPACE_VARIANTS)
    asked = []
    for engine in engines:
        for i in range(6):
            inst = build_instance(variant, i)
            sol, ok = inst.sol, inst._extension_test

            def one_component(mask):
                assert mask == 0 or len(set_components(inst, mask)) == 1, (
                    engine.__name__, i, bits(mask))
                asked.append(mask)

            inst.sol = lambda mask: one_component(mask) or sol(mask)
            inst._extension_test = lambda x, e: one_component(x | 1 << e) or ok(x, e)
            observe_completions(inst, one_component)
            engine(inst)
    assert len(asked) >= 20


class SeenMemo(dict):
    """An exp run's completion memo that calls ``see(key)`` on every key
    looked up by ``get``."""

    def __init__(self, see, *args):
        super().__init__(*args)
        self.see = see

    def get(self, key, default=None):
        self.see(key)
        return super().get(key, default)


def observe_completions(inst, see):
    """Call ``see(mask)`` before every completion request made through the
    instance: ``comp_mask``, every lookup in an exp run's completion memo,
    where the neighbor loop answers the candidates the memo holds, and, in
    a pspace family, ``comp_lex_mask``."""
    comp_mask = inst.comp_mask
    inst.comp_mask = lambda mask: see(mask) or comp_mask(mask)
    run_memos = inst.run_memos

    def seen_run_memos(**memos):
        if "_comp_memo" in memos:
            memos["_comp_memo"] = SeenMemo(see, memos["_comp_memo"])
        return run_memos(**memos)

    inst.run_memos = seen_run_memos
    if isinstance(inst, PspaceProblem):
        comp_lex_mask = inst.comp_lex_mask
        inst.comp_lex_mask = (lambda mask, seeded=False:
                              see(mask) or comp_lex_mask(mask, seeded))


def set_components(inst, mask):
    """The components of a set, each a set of element ids, by a plain BFS:
    over the graph for a vertex set, over arcs that share an endpoint for
    an arc set."""
    if inst.ground_kind == "v":
        return components(inst.g, bits(mask))
    edges = inst.g.edges
    left = set(bits(mask))
    out = []
    while left:
        comp = {min(left)}
        todo = list(comp)
        while todo:
            ends = set(edges[todo.pop()])
            for f in list(left - comp):
                if ends & set(edges[f]):
                    comp.add(f)
                    todo.append(f)
        out.append(comp)
        left -= comp
    return out


# candidates repeat within one neighbors call on the first corpus runs here
REPEATING_VARIANTS = ("bipartite-induced-connected", "dag-induced-connected",
                      "pinterval-induced", "pinterval-induced-connected")


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_candidate_contract(variant, corpus, monkeypatch):
    # the base cuts and deduplicates candidates by one rule: each candidate
    # adds exactly its incoming element v to the solution, so the cut of a
    # connected family starts at the one element outside the solution; a
    # neighbors call outside a run keeps its own map of completions, so it
    # makes one comp_mask call per distinct cut candidate, also where a
    # rule repeats one
    repeats = 0
    for run in corpus[variant][:8]:
        inst = run.instance
        full = (1 << inst.ground_size) - 1
        for s in run.solutions:
            smask = mask_of(s)
            cut = set()
            for v in bits(full & ~smask):
                for cand in inst._candidates(smask, (v,)):
                    assert cand & ~smask == 1 << v, (run.index, s, v, bits(cand))
                    if inst.connected:
                        [ref] = [c for c in set_components(inst, cand) if v in c]
                        cand = mask_cc(inst.adj_masks, cand, v)
                        assert cand == mask_of(ref), (run.index, s, v)
                    repeats += cand in cut
                    cut.add(cand)
            requested = []
            comp_mask = inst.comp_mask
            monkeypatch.setattr(inst, "comp_mask",
                                lambda m: requested.append(m) or comp_mask(m))
            inst.neighbors(s)
            monkeypatch.undo()
            assert sorted(requested) == sorted(cut), (run.index, s)
    assert repeats or variant not in REPEATING_VARIANTS


# -- the extension rule ----------------------------------------------------------

@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_addable_matches_single_element_scan(variant, corpus):
    # the empty set, every solution and one random sub-solution of each,
    # checked against a scan of every element outside the set; the shared
    # completion loop, whose reach grows with each addition, is checked
    # against one that recomputes it
    rng = random.Random(f"addable:{variant}")
    for run in corpus[variant][:20]:
        inst = run.instance
        masks = [0]
        for s in run.solutions:
            smask = mask_of(s)
            sub = mask_of(e for e in s if rng.random() < 0.5)
            masks += [smask, sub] if inst.sol(sub) else [smask]
        for mask in masks:
            scan = [e for e in range(inst.ground_size)
                    if not (mask >> e) & 1 and inst.sol(mask | 1 << e)]
            assert inst.addable(mask) == scan, (run.index, bits(mask))
            assert inst.is_maximal_solution(bits(mask)) == (not scan)
            if variant in SHARED_LOOP:
                assert inst.comp_mask(mask) == comp_witness(inst, mask), \
                    (run.index, bits(mask))


def test_connected_completion_rescans_after_each_addition():
    # from {3} the reach is {1, 2}; only after 2 joins does 0 become adjacent,
    # so a single pass over the first reach would stop at (1, 2, 3)
    inst = make_instance("trees", graph=Graph(4, [(3, 2), (2, 0), (3, 1)]))
    assert inst.comp((3,)) == (0, 1, 2, 3)


def comp_witness(inst, mask):
    """The completion that recomputes the reach after every addition and
    asks the predicate about each element of it; a family that is not
    ``hereditary`` forgets its rejections after each addition."""
    rejected = 0
    while True:
        for e in bits(inst._reach(mask) & ~rejected):
            b = 1 << e
            if inst.sol(mask | b):
                mask |= b
                if not inst.hereditary:
                    rejected = 0  # the larger set may take a rejected element
                if inst.connected or not inst.hereditary:
                    break  # rescan: smaller ids may be addable now
            else:
                rejected |= b
        else:
            return mask


SHARED_LOOP = [v for v in ALL_VARIANTS
               if type(build_instance(v, 0)).comp_mask is Problem.comp_mask]


def test_no_family_overrides_the_completion_loop():
    assert SHARED_LOOP == list(ALL_VARIANTS)


# the least number of (x, e, y) checks per family on the whole corpus; the
# sweep made 1,123 on chordal-edge, 501 of them violations
HEREDITARY_CHECKS = {
    "bipartite-edge": 5500, "bipartite-induced": 1100,
    "bipartite-induced-connected": 1300, "chordal-edge": 900,
    "chordal-induced": 220, "chordal-induced-connected": 290,
    "dag-edge-connected": 3400, "dag-induced-connected": 950, "forests": 1400,
    "hulls": 260, "hulls-connected": 200, "kdeg-edge": 5600,
    "kdeg-induced": 900, "pinterval-induced": 420,
    "pinterval-induced-connected": 500, "trees": 1350,
}


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_hereditary_declaration(variant, corpus):
    # the shared completion loop keeps a rejected element rejected only in a
    # family that declares ``hereditary``: for solutions x below y and an
    # element e of both reaches, outside y, with x + e no solution, y + e
    # must be none either.  The pairs come from a random chain of solutions
    # inside each corpus solution, grown one addable element at a time from
    # the empty set; chordal-edge, which declares False, must break the rule
    rng = random.Random(f"hereditary:{variant}")
    checks = violations = 0
    for run in corpus[variant]:
        inst = run.instance
        for s in run.solutions:
            smask, x, chain = mask_of(s), 0, [0]
            while True:
                ext = [e for e in bits(inst._reach(x) & smask) if inst.sol(x | 1 << e)]
                if not ext:
                    break
                x |= 1 << rng.choice(ext)
                chain.append(x)
            for i, x in enumerate(chain):
                for e in bits(inst._reach(x)):
                    if inst.sol(x | 1 << e):
                        continue
                    for y in chain[i + 1:]:
                        if (inst._reach(y) >> e) & 1:
                            checks += 1
                            grew = inst.sol(y | 1 << e)
                            assert not grew or not inst.hereditary, (run.index, s, e)
                            violations += grew
    assert checks >= HEREDITARY_CHECKS[variant]
    assert inst.hereditary or violations > 0


@pytest.mark.parametrize("variant", SHARED_LOOP)
def test_exp_memo_holds_only_completions(variant, corpus, monkeypatch):
    # the shared loop stores every set it reaches, not only its input: each
    # entry an exp run leaves must be the completion of its key, and some
    # must be sets that no comp_mask call asked for
    unasked = 0
    for run in corpus[variant][:20]:
        inst = run.instance
        memo, requested = {}, set()
        comp_mask = inst.comp_mask
        monkeypatch.setattr(inst, "comp_mask",
                            lambda m: requested.add(m) or comp_mask(m))
        with inst.run_memos(_comp_memo=memo):
            for s in run.solutions:
                inst.neighbor_masks(mask_of(s))
        monkeypatch.undo()
        for key, done in memo.items():
            assert done == comp_witness(inst, key), (run.index, bits(key))
        unasked += len(memo.keys() - requested)
    assert unasked > 0


def test_exp_completion_stops_at_a_completed_set():
    # on the path 0-1-2-3 the completion of {0} passes {0,1} and {0,1,2};
    # that of {1} adds 0 first, reaches {0,1} and takes its stored result
    inst = make_instance("trees", graph=path(4))
    memo = Writes()
    with inst.run_memos(_comp_memo=memo):
        before = inst.comp_calls
        assert inst.comp_mask(0b0001) == 0b1111
        assert inst.comp_calls == before + 1
        assert memo == dict.fromkeys((0b0001, 0b0011, 0b0111, 0b1111), 0b1111)
        assert inst.comp_mask(0b0011) == 0b1111
        assert inst.comp_calls == before + 1
        memo.log.clear()
        assert inst.comp_mask(0b0010) == 0b1111
        assert inst.comp_calls == before + 2
        assert memo.log == [0b0010]
    assert inst._comp_memo is None
    before = inst.comp_calls
    for _ in range(2):
        assert inst.comp_mask(0b0001) == 0b1111
    assert inst.comp_calls == before + 2


def cut_candidates(inst, smask):
    """The distinct candidates of the solution mask ``smask`` for every
    element outside it, each cut to the component of its incoming element
    in a connected family."""
    full = (1 << inst.ground_size) - 1
    cut = set()
    for v in bits(full & ~smask):
        for cand in inst._candidates(smask, (v,)):
            cut.add(mask_cc(inst.adj_masks, cand, v) if inst.connected else cand)
    return cut


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_neighbor_loop_completes_only_what_the_run_memo_lacks(variant, corpus, monkeypatch):
    # inside an exp run the neighbor loop answers a cut candidate the memo
    # holds without calling comp_mask, and returns what it returns outside
    # a run: first with the memo the calls for the earlier solutions
    # filled, then with the memo of the whole pass, which holds them all
    held = requested = 0
    for run in corpus[variant][:10]:
        inst = run.instance
        masks = [mask_of(s) for s in run.solutions]
        outside = [inst.neighbor_masks(m) for m in masks]
        comp_mask, asked = inst.comp_mask, []
        monkeypatch.setattr(inst, "comp_mask", lambda m: asked.append(m) or comp_mask(m))
        memo = {}
        with inst.run_memos(_comp_memo=memo):
            for smask, want in zip(masks, outside):
                cut = cut_candidates(inst, smask)
                hits = cut & memo.keys()
                asked.clear()
                assert inst.neighbor_masks(smask) == want, (run.index, bits(smask))
                assert len(set(asked)) == len(asked), (run.index, bits(smask))
                assert set(asked) <= cut - hits, (run.index, bits(smask))
                held += len(hits)
                requested += len(asked)
            asked.clear()
            assert [inst.neighbor_masks(m) for m in masks] == outside
            assert asked == [], run.index
        monkeypatch.undo()
    assert held > 0 and requested > 0


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_exp_run_calls_comp_mask_once_per_counted_completion(variant):
    # the neighbor loop reads the run's memo itself, so every comp_mask call
    # of an exp run computes a completion, and comp_calls counts each once
    for i in range(CORPUS_SIZE):
        inst = build_instance(variant, i)
        comp_mask, calls = inst.comp_mask, []
        inst.comp_mask = lambda m: calls.append(m) or comp_mask(m)
        counters = enumerate_exp(inst)
        assert len(calls) == counters.comp_calls > 0, i
        assert len(set(calls)) == len(calls), i


ONE_PASS = [v for v in ALL_VARIANTS
            if build_instance(v, 0).hereditary and not build_instance(v, 0).connected]


@pytest.mark.parametrize("variant", ONE_PASS)
def test_unconnected_hereditary_completion_is_one_ascending_pass(variant, corpus, monkeypatch):
    # the reach of such a family's set is every element outside it, and an
    # element it rejects stays rejected, so once b is added every element
    # below b has been tested: completion tests each element outside its
    # input once, in ascending order, from the empty set, every solution
    # and one random sub-solution of each, outside a run
    rng = random.Random(f"one pass:{variant}")
    for run in corpus[variant][:20]:
        inst = run.instance
        full = (1 << inst.ground_size) - 1
        ok, tested = inst._extension_test, []
        monkeypatch.setattr(inst, "_extension_test", lambda x, e: tested.append(e) or ok(x, e))
        masks = [0]
        for s in run.solutions:
            sub = mask_of(e for e in s if rng.random() < 0.5)
            masks += [mask_of(s), sub] if inst.sol(sub) else [mask_of(s)]
        for mask in masks:
            tested.clear()
            done = inst.comp_mask(mask)
            assert tuple(tested) == bits(full & ~mask), (run.index, bits(mask))
            assert done == comp_witness(inst, mask), (run.index, bits(mask))
        monkeypatch.undo()


# the families that give an extension test of their own; the others take the
# default, their predicate on the grown set
EXTENSION_TESTED = [v for v in ALL_VARIANTS
                    if type(build_instance(v, 0))._extension_test
                    is not Problem._extension_test]
GRAPH_FAMILIES = sorted(GRAPH_VARIANTS | K_VARIANTS)
VERTEX_FAMILIES = [v for v in GRAPH_FAMILIES if build_instance(v, 0).ground_kind == "v"]
EDGE_FAMILIES = [v for v in GRAPH_FAMILIES if v not in VERTEX_FAMILIES]


def random_growths(inst, rng, walks):
    """Solutions grown from the empty set one random addable element at a
    time, every step kept, each walk stopping at a random length."""
    out = []
    for _ in range(walks):
        x = 0
        out.append(x)
        for _ in range(rng.randint(1, inst.ground_size)):
            ext = [e for e in bits(inst._reach(x)) if inst.sol(x | 1 << e)]
            if not ext:
                break
            x |= 1 << rng.choice(ext)
            out.append(x)
    return out


def test_extension_tests_exist():
    assert EXTENSION_TESTED == ["bipartite-edge", "bipartite-induced",
                                "bipartite-induced-connected", "chordal-edge",
                                "chordal-induced", "chordal-induced-connected",
                                "dag-edge-connected", "forests", "kdeg-edge",
                                "kdeg-induced", "pinterval-induced",
                                "pinterval-induced-connected", "trees"]
    # the sweeps below cover every family, the three defaults included
    assert sorted(VERTEX_FAMILIES + EDGE_FAMILIES + sorted(POINT_VARIANTS)) == ALL_VARIANTS
    # the lexicographic completion asks the test alone
    assert set(PSPACE_VARIANTS) <= set(EXTENSION_TESTED)
    # one predicate, with no memo
    assert not hasattr(Problem, "_sol_eval")
    assert not any(hasattr(build_instance(v, 0), "_sol_cache") for v in ALL_VARIANTS)


def certified_test(inst, x, e):
    """The extension test of a kdeg instance at (x, e) inside a run, and
    whether a certificate the run kept gave its verdict.  A test that
    peels and rejects keeps one new certificate W for e, and only then: W
    lies inside x, misses e, and W + e is no solution, so neither is any
    superset of it with e; no element's list grows past the cap."""
    cores = inst._cores
    before = set(cores.get(e, ()))
    verdict = type(inst)._extension_test(inst, x, e)
    after = cores.get(e, [])
    new = set(after) - before
    assert len(after) <= CORE_CAP
    if new:
        (w,) = new
        assert not verdict and not w & ~x and not (w >> e) & 1, (bits(x), e, bits(w))
        assert not inst.sol(w | 1 << e), (bits(x), e, bits(w))
    return verdict, not verdict and not new


def certified_hits(inst, pairs):
    """Ask a kdeg instance's test at the sweep's pairs (x, e, verdict) again,
    inside a run, checked by ``certified_test``: the verdicts must be those
    given outside it.  The number a kept certificate gave."""
    hits = 0
    with inst.run_memos(_comp_memo={}):
        for x, e, verdict in pairs:
            got, hit = certified_test(inst, x, e)
            assert got == verdict, (inst.g.edges, inst.k, bits(x), e)
            hits += hit
    assert inst._cores is None
    return hits


# the least number of rejections a kept certificate gave in exp runs over
# the corpus graphs, by variant and k; the runs made about 1.45 times each
# floor
CERTIFIED = {("kdeg-induced", 1): 380, ("kdeg-induced", 2): 145, ("kdeg-induced", 3): 49,
             ("kdeg-edge", 1): 23700, ("kdeg-edge", 2): 5650}


@pytest.mark.parametrize("variant, k", sorted(CERTIFIED))
def test_kdeg_certificates_are_exact(variant, k, corpus, monkeypatch):
    # every test a run asks is checked by certified_test and gives the
    # predicate's verdict, so the run lists the oracle's solutions
    hits = 0
    for run in corpus[variant]:
        inst = make_instance(variant, graph=run.instance.g, k=k)
        verdicts = Counter()

        def spy(x, e):
            verdict, hit = certified_test(inst, x, e)
            assert verdict == inst.sol(x | 1 << e), (run.index, bits(x), e)
            verdicts[hit] += 1
            return verdict

        monkeypatch.setattr(inst, "_extension_test", spy)
        sols = exp_solutions(inst)
        monkeypatch.undo()
        assert inst._cores is None
        assert sorted(sols) == brute_force_maximal(inst), run.index
        hits += verdicts[True]
    assert hits >= CERTIFIED[variant, k], hits


# the least number of rejections a kept certificate gave when the kdeg sweeps
# below ask their pairs again inside a run, by k; the sweeps made about 1.45
# times each floor
SWEEP_CERTIFIED = {"kdeg-induced": {1: 650, 2: 178, 3: 16},
                   "kdeg-edge": {1: 133, 2: 65, 3: 11}}


# the least number of checked pairs (x, e), by verdict and by how far the
# test must look.  For kdeg-induced the key is the k of the instance, and a
# pair counts when e has more than k neighbors in x, so the test peels.  For
# every other family a pair counts when e has two or more neighbors in one
# component of G[x]: the component of e's lowest neighbor ("first") or only
# a later one ("later").  A connected family's x is one component, and a
# forest never takes a vertex with two neighbors in one of its trees, so
# those keys are absent.  The sweep made about 1.45 times each floor of the
# families added with the default test and the kdeg and pinterval tests
WALKED = {
    "bipartite-induced": {(True, "first"): 300, (False, "first"): 1400,
                          (True, "later"): 25, (False, "later"): 120},
    "bipartite-induced-connected": {(True, "first"): 300, (False, "first"): 2000},
    "chordal-induced": {(True, "first"): 1000, (False, "first"): 1200,
                        (True, "later"): 60, (False, "later"): 35},
    "chordal-induced-connected": {(True, "first"): 1000, (False, "first"): 1200},
    "dag-induced-connected": {(True, "first"): 2400, (False, "first"): 2000},
    "kdeg-induced": {(True, 1): 320, (False, 1): 870, (True, 2): 320, (False, 2): 270,
                     (True, 3): 245, (False, 3): 35},
    "pinterval-induced": {(True, "first"): 950, (False, "first"): 1300,
                          (True, "later"): 60, (False, "later"): 80},
    "pinterval-induced-connected": {(True, "first"): 1380, (False, "first"): 1900},
    "trees": {(False, "first"): 1800},
    "forests": {(False, "first"): 1600, (False, "later"): 130},
}


@pytest.mark.parametrize("variant", VERTEX_FAMILIES)
def test_extension_test_matches_predicate(variant):
    # the counts in WALKED make the random pairs reach past the test's
    # first exit, into its walks over the components of G[x] or its peel;
    # the kdeg-induced instances take k = 1, 2 and 3 in turn
    rng = random.Random(f"extension:{variant}")
    directed = variant.startswith("dag-")
    checked = 0
    walked, certified = Counter(), Counter()
    for i in range(150):
        n = rng.randint(1, 18)
        g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.35, 0.5]), directed)
        k = 1 + i % 3 if variant in K_VARIANTS else None
        inst = make_instance(variant, graph=g, k=k)
        ok = inst._extension_test
        pairs = []
        for x in random_growths(inst, rng, 4):
            comps = components(g, bits(x))
            for e in bits(inst._reach(x)):
                verdict = inst.sol(x | 1 << e)
                assert ok(x, e) == verdict, (g.edges, k, bits(x), e)
                checked += 1
                if k is not None:
                    pairs.append((x, e, verdict))
                    if (g.und_mask[e] & x).bit_count() > k:
                        walked[verdict, k] += 1
                    continue
                nb = set(bits(g.und_mask[e]))
                shared = [len(c & nb) > 1 for c in comps if c & nb]
                if any(shared):
                    walked[verdict, "first" if shared[0] else "later"] += 1
            assert inst.comp_mask(x) == comp_witness(inst, x), (g.edges, bits(x))
            if x and isinstance(inst, PspaceProblem):
                assert (bits(inst.comp_lex_mask(x))
                        == comp_lex_witness(inst, bits(x))), (g.edges, bits(x))
        if k is not None:
            certified[k] += certified_hits(inst, pairs)
    assert checked > 12000
    assert walked.keys() <= WALKED[variant].keys()
    assert all(walked[key] >= least for key, least in WALKED[variant].items()), walked
    least = SWEEP_CERTIFIED.get(variant, {})
    assert all(certified[k] >= n for k, n in least.items()), certified


# the least number of checked pairs (x, e), by verdict and by whether x spans
# both endpoints of e; a hook accepts an edge with an endpoint x does not
# span before it walks, so only the pairs keyed True reach its walk.  For
# kdeg-edge the key is the k of the instance instead, and a pair counts when
# both endpoints of e have k or more edges in x, so the test peels.  The
# sweep made about 1.45 times each floor
SPANNED = {
    "bipartite-edge": {(True, False): 8000, (True, True): 1600, (False, True): 2000},
    "chordal-edge": {(True, False): 7000, (True, True): 1800, (False, True): 900},
    "dag-edge-connected": {(True, False): 13000, (True, True): 4500, (False, True): 2200},
    "kdeg-edge": {(True, 1): 160, (False, 1): 250, (True, 2): 280, (False, 2): 130,
                  (True, 3): 145, (False, 3): 25},
}


@pytest.mark.parametrize("variant", EDGE_FAMILIES)
def test_edge_extension_test_matches_predicate(variant):
    # random undirected graphs, or random digraphs with a directed cycle for
    # the dag family, whose only solution would otherwise often be all arcs;
    # the kdeg-edge instances take k = 1, 2 and 3 in turn
    rng = random.Random(f"edge-extension:{variant}")
    directed = variant.startswith("dag-")
    checked, certified = Counter(), Counter()
    for i in range(120):
        g = Graph(0, [])
        while not g.m or directed and naive_acyclic(g, range(g.n)):
            g = random_graph(rng, rng.randint(3, 8), rng.choice([0.3, 0.5, 0.7]), directed)
        k = 1 + i % 3 if variant in K_VARIANTS else None
        inst = make_instance(variant, graph=g, k=k)
        at = g.edge_mask_at
        pairs = []
        for x in random_growths(inst, rng, 4):
            span = spanned_masks(g, x)[2]
            for e in bits(inst._reach(x)):
                verdict = inst.sol(x | 1 << e)
                assert inst._extension_test(x, e) == verdict, (g.edges, k, bits(x), e)
                u, v = g.edges[e]
                if k is None:
                    checked[verdict, (span >> u) & (span >> v) & 1 == 1] += 1
                else:
                    pairs.append((x, e, verdict))
                    if min((at[u] & x).bit_count(), (at[v] & x).bit_count()) >= k:
                        checked[verdict, k] += 1
            assert inst.comp_mask(x) == comp_witness(inst, x), (g.edges, bits(x))
        if k is not None:
            certified[k] += certified_hits(inst, pairs)
    assert checked.keys() <= SPANNED[variant].keys()
    assert all(checked[key] >= least for key, least in SPANNED[variant].items()), checked
    least = SWEEP_CERTIFIED.get(variant, {})
    assert all(certified[k] >= n for k, n in least.items()), certified


def on_segment(a, b, o):
    """Whether the point o lies on the closed segment from a to b."""
    cross = (b[0] - a[0]) * (o[1] - a[1]) - (b[1] - a[1]) * (o[0] - a[0])
    return cross == 0 and min(a[0], b[0]) <= o[0] <= max(a[0], b[0]) \
        and min(a[1], b[1]) <= o[1] <= max(a[1], b[1])


# the least number of checked pairs (x, e), by verdict and by whether an
# obstacle lies on the segment from e to a point of x, on the boundary of
# the closed hull of x + e, where it counts as inside.  The sweep made about
# 1.45 times each floor
HULLED = {
    "hulls": {(True, False): 6000, (False, False): 440, (False, True): 1100},
    "hulls-connected": {(True, False): 4800, (False, False): 290, (False, True): 790},
}


@pytest.mark.parametrize("variant", sorted(POINT_VARIANTS))
def test_hull_extension_test_matches_predicate(variant):
    # interest points at even coordinates of a small grid, so that many
    # triples are collinear and the midpoint of two is a lattice point; half
    # the obstacles sit on such a midpoint, on the segment between the two
    rng = random.Random(f"hull-extension:{variant}")
    grid = [(2 * a, 2 * b) for a in range(5) for b in range(5)]
    checked = Counter()
    for _ in range(150):
        interest = rng.sample(grid, rng.randint(3, 9))
        obstacles = set()
        for _ in range(rng.randint(1, 3)):
            (ax, ay), (bx, by) = rng.sample(interest, 2)
            obstacles.add(((ax + bx) // 2, (ay + by) // 2) if rng.random() < 0.5
                          else (rng.randint(0, 8), rng.randint(0, 8)))
        obstacles = sorted(obstacles - set(interest))
        graph = (random_graph(rng, len(interest), 0.55)
                 if variant == "hulls-connected" else None)
        inst = make_instance(variant, points=PointSetInstance(interest, obstacles, graph))
        for x in random_growths(inst, rng, 4):
            for e in bits(inst._reach(x)):
                verdict = inst.sol(x | 1 << e)
                assert inst._extension_test(x, e) == verdict, (interest, obstacles,
                                                               bits(x), e)
                edge = any(on_segment(interest[e], interest[p], o)
                           for p in bits(x) for o in obstacles)
                checked[verdict, edge] += 1
            assert inst.comp_mask(x) == comp_witness(inst, x), (interest, obstacles,
                                                                 bits(x))
    assert checked.keys() <= HULLED[variant].keys()
    assert all(checked[key] >= least for key, least in HULLED[variant].items()), checked


def engine_params(variants):
    """(variant, engine) pairs: exp for each variant, pspace where it runs."""
    return [(v, e) for v in variants for e in ("exp", "pspace")
            if e == "exp" or v in PSPACE_VARIANTS]


@pytest.mark.parametrize("variant,engine", engine_params(ALL_VARIANTS))
def test_completion_asks_no_predicate(engine, variant, monkeypatch):
    # a completion step asks the family's extension test, never ``sol``,
    # and a completion takes its input on trust, so a run never asks
    # ``sol``; a family with a test of its own evaluates no predicate at
    # all, and one with the default test evaluates it only through that
    for i in range(CORPUS_SIZE):
        inst = build_instance(variant, i)
        asked, evals = [], []
        predicate = inst._solution_mask
        monkeypatch.setattr(inst, "sol", asked.append)
        monkeypatch.setattr(inst, "_solution_mask", lambda m: evals.append(m) or predicate(m))
        _, counters = run_engine(engine, inst)
        assert asked == [] and counters.comp_calls > 0, (i, asked[:1])
        assert (evals == []) == (variant in EXTENSION_TESTED), i


@pytest.mark.parametrize("variant,engine", engine_params(ALL_VARIANTS))
def test_engines_complete_only_solutions(variant, engine):
    # a completion takes its mask on trust, so what an engine passes it
    # must be a solution by the predicate itself: an exp run's empty set
    # and cut candidates, those its memo answers included, a pspace run's
    # root seeds, cut candidates and the prefixes that _regenerate,
    # has_parent and _core_scan complete; the observer also sees every set
    # an exp completion reaches and looks up
    inputs = []
    for i in range(CORPUS_SIZE):
        inst = build_instance(variant, i)

        def checked(mask):
            assert inst.sol(mask), (i, bits(mask))
            inputs.append(mask)

        observe_completions(inst, checked)
        run_engine(engine, inst)
    # 1,547 on chordal-edge, the fewest, and 136,184 on kdeg-edge
    assert len(inputs) >= 3 * CORPUS_SIZE


@pytest.mark.parametrize("variant,engine", engine_params(ALL_VARIANTS))
def test_predicate_memo_only_without_extension_test(variant, engine, corpus, monkeypatch):
    # no family keeps a predicate memo: two asks for one mask evaluate the
    # predicate twice, inside a run (probed from the sink) and outside one.
    # The instance is the family's first in the corpus with two or more
    # solutions
    index = next(run.index for run in corpus[variant] if len(run.solutions) > 1)
    inst = build_instance(variant, index)
    evals = []
    predicate = inst._solution_mask
    monkeypatch.setattr(inst, "_solution_mask", lambda m: evals.append(m) or predicate(m))

    def evals_per_ask(sol):
        counts = []
        for _ in range(2):
            before = len(evals)
            assert inst.sol(mask_of(sol))
            counts.append(len(evals) - before)
        return counts

    sols, inside = [], []

    def probe(sol):
        sols.append(sol)
        inside.append(evals_per_ask(sol))

    (enumerate_pspace if engine == "pspace" else enumerate_exp)(inst, emit=probe)
    outside = [evals_per_ask(sol) for sol in sols]
    assert len(sols) > 1
    assert inside == outside == [[1, 1]] * len(sols)
    assert not hasattr(inst, "_sol_cache")


def test_maximality_ignores_extension_test():
    # a test that rejects every element stops the completion at its input;
    # maximality asks the predicate, so it still sees that input can grow
    inst = make_instance("trees", graph=path(3))
    inst._extension_test = lambda x, e: False
    assert inst.comp((1,)) == (1,)
    assert inst.addable(mask_of((1,))) == [0, 2]
    assert not inst.is_maximal_solution((1,))
