"""The corpus runs reproduce the committed golden record exactly: the same
emission order and the same counters for every (engine, variant).

A change may regenerate ``golden.json`` (``python tests/golden.py``) only
when it is about the output order or the counter that moved, and says so.
"""

import json

import pytest

from maxenum.problems import ALL_VARIANTS, PSPACE_VARIANTS

from golden import GOLDEN, build_record, diff, main


@pytest.fixture
def record(corpus, pspace_runs):
    """The record of the fixtures' corpus runs."""
    runs, _ = pspace_runs
    exp = {v: [(r.solutions, r.counters) for r in corpus[v]]
           for v in ALL_VARIANTS}
    pspace = {v: [(sols, counters) for _, sols, counters in runs[v]]
              for v in PSPACE_VARIANTS}
    return build_record(exp, pspace)


def test_golden_record(record):
    mismatches = diff(json.loads(GOLDEN.read_text()), record)
    assert not mismatches, "golden record differs:\n" + "\n".join(mismatches)


def test_check_reports_a_changed_entry_and_writes_nothing(record, tmp_path, capsys):
    # ``python tests/golden.py --check`` against a record with one counter
    # tampered: it prints that entry's diff, exits 1 and leaves the file
    tampered = json.loads(GOLDEN.read_text())
    tampered["exp/forests"]["comp_calls"] += 1
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(tampered))
    before = path.read_bytes()
    assert main(["--check"], path=path, record=record) == 1
    want = record["exp/forests"]["comp_calls"]
    assert capsys.readouterr().out.splitlines() == [
        f"exp/forests: comp_calls {want + 1} -> {want}"]
    assert path.read_bytes() == before

    path.write_text(GOLDEN.read_text())
    assert main(["--check"], path=path, record=record) == 0
    assert capsys.readouterr().out == "no entry changed\n"
