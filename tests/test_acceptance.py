"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1, 4 and 7 read the shared exp-engine corpus (100 seeded random
instances per variant); 5, 6 and 8 run the dictionary-free engine on the
same instances of its four supported variants.  Tolerances are exact: set
equality for solution sets, zero failures for the order/closeness
properties, and counter bounds as stated per variant (the delay proxy
allows two neighboring-function invocations between consecutive outputs,
which is what the alternating-output discipline guarantees).
"""

import random

from maxenum import make_instance
from maxenum.problems import ALL_VARIANTS, PSPACE_VARIANTS
from maxenum.pspace import comp_lex, core_of

from conftest import (CORPUS_SIZE, complete, cycle, directed_triangle, exp_solutions,
                      triangle)
from proximity import order_keys, prefix_overlap


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} "
          f"{detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


# -- 1: oracle equivalence ------------------------------------------------------

def test_criterion_1_oracle_equivalence(corpus):
    bad = []
    for variant in ALL_VARIANTS:
        for run in corpus[variant]:
            if sorted(run.solutions) != run.oracle:
                bad.append((variant, run.index))
    report(1, not bad,
           f"16 variants x {CORPUS_SIZE} instances, exact set equality"
           + (f"; mismatches: {bad[:5]}" if bad else ""))


# -- 2: exact counts on named instances --------------------------------------------

def test_criterion_2_named_counts():
    def count(variant, graph, k=None, sizes=None):
        inst = make_instance(variant, graph=graph, k=k)
        sols = exp_solutions(inst)
        if sizes is not None:
            assert all(len(s) == sizes for s in sols)
        return len(sols)

    checks = [
        count("bipartite-induced-connected", cycle(5), sizes=4) == 5,
        count("trees", complete(4)) == 6,
        count("forests", complete(4)) == 6,
        count("chordal-induced", cycle(4), sizes=3) == 4,
        count("dag-induced-connected", directed_triangle()) == 3,
        count("kdeg-induced", triangle(), k=0) == 3,
        count("bipartite-edge", complete(4)) == 7,
        count("bipartite-induced", complete(5)) == 10,
    ]
    report(2, all(checks), "C5/K4/C4/triangle/K5 counts")


# -- 3: closeness monotonicity ------------------------------------------------------

def test_criterion_3_closeness_monotonicity(corpus):
    failures = 0
    pairs_per_variant = {}
    for variant in ALL_VARIANTS:
        rng = random.Random(f"pairs:{variant}")
        pool = [run for run in corpus[variant] if len(run.solutions) >= 2]
        pairs = 0
        while pairs < 100 and pool:
            run = pool[pairs % len(pool)]
            s, t = rng.sample(run.solutions, 2)
            base = prefix_overlap(run.instance, s, t)
            better = any(prefix_overlap(run.instance, c, t) > base
                         for c in run.instance.neighbors(s))
            if not better:
                failures += 1
            pairs += 1
        pairs_per_variant[variant] = pairs
    enough = all(v == 100 for v in pairs_per_variant.values())
    report(3, failures == 0 and enough,
           f"100 ordered pairs per variant, zero tolerated; failures={failures}")


# -- 4: visit discipline --------------------------------------------------------------

def test_criterion_4_visit_discipline(corpus):
    bad = [(variant, run.index) for variant in ALL_VARIANTS
           for run in corpus[variant]
           if run.counters.neighbors_calls != run.counters.solutions_emitted]
    report(4, not bad, "neighbors_calls == solutions_emitted in every run")


# -- 5: cross-engine equality and space discipline ----------------------------------------

def test_criterion_5_cross_engine_equality(corpus, pspace_runs):
    runs, constructed = pspace_runs
    bad = []
    for variant in PSPACE_VARIANTS:
        for ref, (inst, sols, counters) in zip(corpus[variant], runs[variant]):
            if sorted(sols) != sorted(ref.solutions):
                bad.append((variant, ref.index))
            if counters.dict_operations != 0:
                bad.append((variant, ref.index, "dict"))
    report(5, not bad and not constructed,
           f"4 variants x {CORPUS_SIZE} instances; "
           f"solution dictionaries constructed: {len(constructed)}")


# -- 6: parent forest soundness --------------------------------------------------------------

def test_criterion_6_parent_forest(pspace_runs):
    runs, _ = pspace_runs
    bad = []
    for variant in PSPACE_VARIANTS:
        for inst, sols, counters in runs[variant]:
            if len(set(sols)) != len(sols):
                bad.append((variant, "duplicate emission"))
                continue
            roots = 0
            parent_cache = {}
            for s in sols:
                cp = core_of(inst, s)
                if cp is None:
                    roots += 1
                    parent_cache[s] = None
                    continue
                core, pi = cp
                if comp_lex(inst, core + [pi]) != s:
                    bad.append((variant, s, "identity"))
                parent_cache[s] = comp_lex(inst, core)
            # each non-root passed the four-way check exactly once
            if counters.child_checks_passed != len(sols) - roots:
                bad.append((variant, "check count"))
            if counters.roots_found != roots:
                bad.append((variant, "root count"))
            for s in sols:
                seen = set()
                cur = s
                while parent_cache[cur] is not None:
                    if cur in seen:
                        bad.append((variant, s, "parent cycle"))
                        break
                    seen.add(cur)
                    cur = parent_cache[cur]
    report(6, not bad, "completion identity, chain termination, unique checks"
           + (f"; first issues: {bad[:3]}" if bad else ""))


# -- 7: delay proxy -----------------------------------------------------------------------------

def test_criterion_7_delay_proxy(corpus):
    # the per-variant figures bound one neighboring-function invocation;
    # alternating output guarantees at most two invocations between
    # consecutive emissions
    bad = []
    for variant in ALL_VARIANTS:
        for run in corpus[variant]:
            if run.counters.max_comp_gap > 2 * run.instance.comp_budget():
                bad.append((variant, run.index, run.counters.max_comp_gap,
                            2 * run.instance.comp_budget()))
    report(7, not bad, "comp calls between emissions within twice the "
           "per-variant candidate budget" + (f"; {bad[:3]}" if bad else ""))


# -- 8: prefix-closed order suite ----------------------------------------------------------------

def test_criterion_8_prefix_closed_orders(corpus):
    bad = []
    for variant in PSPACE_VARIANTS:
        rng = random.Random(f"orders:{variant}")
        pool = [(run.instance, s) for run in corpus[variant]
                for s in run.solutions]
        rng.shuffle(pool)
        checked = 0
        i = 0
        while checked < 100 and i < len(pool):
            inst, sol = pool[i]
            i += 1
            # a maximal solution, or a random prefix of its solution order
            v = min(sol)  # the seed
            keys = order_keys(inst, sum(1 << e for e in sol), v, sol)
            full_order = sorted(sol, key=keys.__getitem__)
            cut = rng.randint(1, len(full_order))
            x = full_order[:cut]
            xmask = sum(1 << e for e in x)
            keys = order_keys(inst, xmask, v, x)
            order = sorted(x, key=keys.__getitem__)
            if order[0] != v:
                bad.append((variant, sol, "first"))
            for j in range(1, len(order) + 1):
                if not inst.is_solution(order[:j]):
                    bad.append((variant, sol, "prefix"))
                    break
            full_keys = order_keys(inst, xmask, v, x)
            for j in range(len(order) - 1):
                pmask = sum(1 << e for e in order[:j + 1])
                ext = inst.addable(pmask)
                inside = [e for e in ext if e in x]
                pkeys = order_keys(inst, pmask, v, ext)
                if min(inside, key=pkeys.__getitem__) != order[j + 1]:
                    bad.append((variant, sol, "greedy"))
                    break
                # leader/distance stability of the lemma: keys never move
                # earlier when recomputed on the prefix, and the key of the
                # next element is unchanged
                nxt = order[j + 1]
                if pkeys[nxt] != full_keys[nxt]:
                    bad.append((variant, sol, "next-key"))
                    break
                for z in inside:
                    if pkeys[z][0] < full_keys[z][0]:
                        bad.append((variant, sol, "leader-monotone"))
                        break
                    if (pkeys[z][0] == full_keys[z][0]
                            and pkeys[z][1] != full_keys[z][1]):
                        bad.append((variant, sol, "distance-stable"))
                        break
            checked += 1
        if checked < 100:
            bad.append((variant, "not enough samples"))
    report(8, not bad, "first/prefix/greedy and key stability on 100 "
           "solutions per variant" + (f"; {bad[:3]}" if bad else ""))
