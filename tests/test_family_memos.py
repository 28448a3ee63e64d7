"""The run memos a family declares in ``family_memos``: each lives for one
run, is built once per key inside it, and changes nothing a run lists or
counts."""

import random
from collections import defaultdict

import pytest

from maxenum import PartialOutputError, enumerate_exp, make_instance
from maxenum.problems import chordal, degenerate
from maxenum.problems.interval import _ProperIntervalBase

from conftest import random_graph, sparse_gnm

FAMILY_INSTANCES = {
    "kdeg-induced": lambda rng: make_instance("kdeg-induced", graph=sparse_gnm(rng, 12, 22), k=1),
    "kdeg-edge": lambda rng: make_instance("kdeg-edge", graph=sparse_gnm(rng, 7, 13), k=2),
    "chordal-induced": lambda rng: make_instance("chordal-induced",
                                                 graph=random_graph(rng, 9, 0.5)),
    "chordal-induced-connected": lambda rng: make_instance("chordal-induced-connected",
                                                           graph=random_graph(rng, 9, 0.5)),
    "pinterval-induced": lambda rng: make_instance("pinterval-induced",
                                                   graph=random_graph(rng, 8, 0.5)),
    "pinterval-induced-connected": lambda rng: make_instance("pinterval-induced-connected",
                                                             graph=random_graph(rng, 8, 0.5)),
}

# what each family builds from a key, as (owner, name, the key of its arguments)
SUBSETS = (degenerate, "_subsets", lambda mask, most: mask)
CLIQUES = (chordal, "chordal_cliques", lambda und, mask: mask)
INTERVAL = ((_ProperIntervalBase, "_signatures", lambda self, shape: shape),
            (_ProperIntervalBase, "_arrange", lambda self, cmask, nb: (cmask, nb)))
BUILDS = {"kdeg-induced": (SUBSETS,), "kdeg-edge": (SUBSETS,),
          "chordal-induced": (CLIQUES,), "chordal-induced-connected": (CLIQUES,),
          "pinterval-induced": INTERVAL, "pinterval-induced-connected": INTERVAL}


def instance(variant):
    return FAMILY_INSTANCES[variant](random.Random(f"family memos:{variant}"))


@pytest.mark.parametrize("variant", sorted(FAMILY_INSTANCES))
def test_family_memos_live_for_one_run(variant, monkeypatch):
    # each memo is None outside a run, however the run ends, and one dict
    # for the whole run inside it; a run with the family's memos switched
    # off lists the same solutions in the same order with the same counters
    inst = instance(variant)
    names = type(inst).family_memos
    assert names

    def memos():
        return [getattr(inst, name) for name in names]

    assert memos() == [None] * len(names)
    held, sols = [], []
    counters = enumerate_exp(inst, emit=lambda s: held.append(memos()) or sols.append(s))
    assert memos() == [None] * len(names)
    assert len(sols) > 1 and all(memo for memo in held[-1])
    assert all(all(m is first for m, first in zip(got, held[0])) for got in held)

    assert enumerate_exp(inst, limit=2).solutions_emitted == 2
    assert memos() == [None] * len(names)

    def fail(sol):
        raise OSError("sink closed")

    with pytest.raises(PartialOutputError):
        enumerate_exp(inst, emit=fail)
    assert memos() == [None] * len(names)

    with inst.run_memos(_comp_memo={}):
        outer = memos()
        assert all(memo == {} for memo in outer)
        enumerate_exp(inst, limit=1)
        assert all(m is o for m, o in zip(memos(), outer))
    assert memos() == [None] * len(names)

    plain = instance(variant)
    monkeypatch.setattr(type(plain), "family_memos", ())
    got = []
    assert enumerate_exp(plain, emit=got.append) == counters
    assert got == sols


@pytest.mark.parametrize("variant", sorted(FAMILY_INSTANCES))
def test_family_builds_once_per_key_in_a_run(variant, monkeypatch):
    # clique lists, kept subsets, shape signatures and arrangements are each
    # built once per distinct key in a run; a run without the memos builds
    # them again
    built = defaultdict(list)
    for owner, name, key in BUILDS[variant]:
        build = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, build=build, name=name, key=key:
                            built[name].append(key(*args)) or build(*args))
    sols = []
    enumerate_exp(instance(variant), emit=sols.append)
    assert sorted(built) == sorted(name for _, name, _ in BUILDS[variant])
    assert all(len(keys) == len(set(keys)) for keys in built.values())

    built.clear()
    plain = instance(variant)
    monkeypatch.setattr(type(plain), "family_memos", ())
    got = []
    enumerate_exp(plain, emit=got.append)
    assert got == sols
    assert all(len(keys) > len(set(keys)) for keys in built.values())
