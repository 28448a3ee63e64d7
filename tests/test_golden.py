"""The corpus runs reproduce the committed golden record exactly: the same
emission order and the same counters for every (engine, variant).

A change may regenerate ``golden.json`` (``python tests/golden.py``) only
when it is about the output order or the counter that moved, and says so.
"""

import json

from maxenum.problems import ALL_VARIANTS, PSPACE_VARIANTS

from golden import GOLDEN, build_record, diff


def test_golden_record(corpus, pspace_runs):
    runs, _ = pspace_runs
    exp = {v: [(r.solutions, r.counters) for r in corpus[v]]
           for v in ALL_VARIANTS}
    pspace = {v: [(sols, counters) for _, sols, counters in runs[v]]
              for v in PSPACE_VARIANTS}
    mismatches = diff(json.loads(GOLDEN.read_text()), build_record(exp, pspace))
    assert not mismatches, "golden record differs:\n" + "\n".join(mismatches)
