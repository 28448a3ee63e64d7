import random

import pytest

from maxenum import PartialOutputError, brute_force_maximal, enumerate_exp, make_instance
from maxenum.graphs import Graph, bits
from maxenum.problems.degenerate import CORE_CAP

from conftest import complete, exp_solutions, path, random_graph, sparse_gnm, triangle
from proximity import degeneracy_order


def test_is_solution_examples():
    tree = make_instance("kdeg-induced", graph=path(4), k=1)
    assert tree.is_solution(range(4))
    tri = make_instance("kdeg-induced", graph=triangle(), k=1)
    assert not tri.is_solution(range(3))
    diamond = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    assert make_instance("kdeg-induced", graph=diamond, k=2).is_solution(range(4))


def test_is_solution_matches_degeneracy_order():
    rng = random.Random(31)
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 7), 0.5)
        cand = [v for v in range(g.n) if rng.random() < 0.7]
        for k in (0, 1, 2):
            inst = make_instance("kdeg-induced", graph=g, k=k)
            assert inst.is_solution(cand) == (degeneracy_order(g, cand)[1] <= k)


def test_comp_identity_and_greedy():
    inst = make_instance("kdeg-induced", graph=complete(4), k=1)
    assert inst.comp((0, 2)) == (0, 2)
    assert inst.comp((2,)) == (0, 2)  # ascending order tries 0 first


def _greedy_mis(g):
    taken = []
    for v in range(g.n):
        if all(w not in bits(g.und_mask[v]) for w in taken):
            taken.append(v)
    return tuple(taken)


def test_k0_comp_is_greedy_independent_set():
    rng = random.Random(37)
    for _ in range(15):
        g = random_graph(rng, 6, 0.5)
        inst = make_instance("kdeg-induced", graph=g, k=0)
        assert inst.comp(()) == _greedy_mis(g)


def test_neighbors_examples():
    tri0 = make_instance("kdeg-induced", graph=triangle(), k=0)
    assert (1,) in tri0.neighbors((0,))

    k4 = make_instance("kdeg-induced", graph=complete(4), k=1)
    nb = k4.neighbors((0, 1))
    assert (0, 2) in nb and (1, 2) in nb

    p4 = make_instance("kdeg-induced", graph=path(4), k=1)
    assert set(p4.neighbors((0, 1, 2, 3))) <= {(0, 1, 2, 3)}


def test_k0_equals_mis_oracle():
    rng = random.Random(41)
    for _ in range(10):
        g = random_graph(rng, rng.randint(4, 7), 0.5)
        inst = make_instance("kdeg-induced", graph=g, k=0)
        sols = exp_solutions(inst)
        # independent maximal-independent-set oracle: brute force subsets
        mis = []
        for mask in range(1 << g.n):
            cand = [v for v in range(g.n) if (mask >> v) & 1]
            indep = all(w not in bits(g.und_mask[u]) for u in cand for w in cand)
            if indep and all(any(w in bits(g.und_mask[u]) for w in cand)
                             for u in range(g.n) if u not in cand):
                mis.append(tuple(cand))
        assert sorted(sols) == sorted(mis)


def test_k1_matches_forests_plugin():
    rng = random.Random(43)
    for _ in range(10):
        g = random_graph(rng, rng.randint(4, 7), 0.5)
        a = make_instance("kdeg-induced", graph=g, k=1)
        b = make_instance("forests", graph=g)
        assert sorted(exp_solutions(a)) == sorted(exp_solutions(b))


def test_edge_variant_oracle():
    rng = random.Random(47)
    for k in (1, 2):
        g = random_graph(rng, 5, 0.7, max_m=9)
        inst = make_instance("kdeg-edge", graph=g, k=k)
        sols = exp_solutions(inst)
        assert sorted(sols) == brute_force_maximal(inst)


def test_edge_variant_needs_positive_k():
    with pytest.raises(ValueError):
        make_instance("kdeg-edge", graph=triangle(), k=0)


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        make_instance("kdeg-induced", graph=triangle(), k=-1)


@pytest.mark.parametrize("variant", ["kdeg-induced", "kdeg-edge"])
@pytest.mark.parametrize("k", [1.5, True, "1"])
def test_k_must_be_an_int(variant, k):
    # as with vertex ids, a bool or a float that compares like an int is
    # refused, and a string gives ValueError rather than a TypeError
    with pytest.raises(ValueError, match="k must be an integer"):
        make_instance(variant, graph=triangle(), k=k)


# instances on which some element's certificate list reaches the cap
CAPPED = [("kdeg-induced", 18, 33, 1), ("kdeg-induced", 18, 40, 2),
          ("kdeg-edge", 8, 14, 1), ("kdeg-edge", 7, 15, 2)]


@pytest.mark.parametrize("variant, n, m, k", CAPPED)
def test_certificates_live_for_one_capped_run(variant, n, m, k, monkeypatch):
    # _cores is None outside a run, however the run ends; inside it no
    # element keeps more than CORE_CAP certificates, so a run keeps at most
    # CORE_CAP masks per ground element; a run without them lists the same
    # solutions in the same order with the same completions
    inst = make_instance(variant, graph=sparse_gnm(random.Random("cores"), n, m), k=k)
    assert inst._cores is None
    held, sols = [], []
    counters = enumerate_exp(inst, emit=lambda s: held.append(inst._cores) or sols.append(s))
    assert inst._cores is None
    lengths = [len(certs) for certs in held[-1].values()]
    assert all(cores is held[0] for cores in held)
    assert max(lengths) == CORE_CAP and sum(lengths) <= CORE_CAP * inst.ground_size

    assert enumerate_exp(inst, limit=2).solutions_emitted == 2
    assert inst._cores is None

    def fail(sol):
        raise OSError("sink closed")

    with pytest.raises(PartialOutputError):
        enumerate_exp(inst, emit=fail)
    assert inst._cores is None

    with inst.run_memos(_comp_memo={}):
        outer = inst._cores
        enumerate_exp(inst, limit=1)
        assert inst._cores is outer
    assert inst._cores is None

    plain = make_instance(variant, graph=inst.g, k=k)
    monkeypatch.setattr(type(plain), "family_memos", ())
    assert exp_solutions(plain) == sols
    assert plain.comp_calls == counters.comp_calls
