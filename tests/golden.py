"""Golden record of the corpus runs: emission order and counters per
(engine, variant).

For every variant, the exp engine runs on the 100 corpus instances; for
the four pspace variants, the dictionary-free engine runs on the same
instances.  Each (engine, variant) entry holds a digest of the emission
order of all its runs, the sum over its runs of every ``Counters`` field
and the largest ``max_comp_gap``.  ``tests/test_golden.py`` compares the
fixtures' runs against ``tests/golden.json``; a change that alters output
order or any counter fails there.

Regenerate the file with ``python tests/golden.py``; it prints ``diff`` of
the old record against the new one before it overwrites the file, so a moved
order digest or counter shows up at regeneration time.  With ``--check`` it
prints the same diff, leaves the file as it is, and exits 1 when any entry
changed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"


def summarize(runs) -> dict:
    """Record of one (engine, variant): ``runs`` is a list of
    (emitted solutions, counters) in corpus index order."""
    order = hashlib.sha256()
    for sols, _ in runs:
        order.update(json.dumps([list(s) for s in sols]).encode())
        order.update(b"\n")
    entry = {"runs": len(runs), "order_sha256": order.hexdigest()}
    for f in dataclasses.fields(runs[0][1]):
        entry[f.name] = sum(getattr(c, f.name) for _, c in runs)
    entry["max_comp_gap_max"] = max(c.max_comp_gap for _, c in runs)
    return entry


def build_record(exp_runs: dict, pspace_runs: dict) -> dict:
    """Both arguments map a variant to its list of (solutions, counters)."""
    record = {}
    for engine, by_variant in (("exp", exp_runs), ("pspace", pspace_runs)):
        for variant in sorted(by_variant):
            record[f"{engine}/{variant}"] = summarize(by_variant[variant])
    return record


def diff(expected: dict, actual: dict) -> list[str]:
    """One line per (engine, variant) whose record differs, naming the fields."""
    out = []
    for key in sorted(expected.keys() | actual.keys()):
        want, got = expected.get(key), actual.get(key)
        if want is None or got is None:
            out.append(f"{key}: {'missing' if got is None else 'unexpected'}")
            continue
        fields = [f"{f} {want.get(f)} -> {got.get(f)}"
                  for f in sorted(want.keys() | got.keys())
                  if want.get(f) != got.get(f)]
        if fields:
            out.append(f"{key}: " + "; ".join(fields))
    return out


def corpus_record() -> dict:
    """The record of the corpus runs as the package makes them now."""
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    from conftest import CORPUS_SIZE, build_instance
    from maxenum import enumerate_exp, enumerate_pspace
    from maxenum.problems import ALL_VARIANTS, PSPACE_VARIANTS

    def run(enumerate_fn, variant):
        out = []
        for i in range(CORPUS_SIZE):
            sols = []
            counters = enumerate_fn(build_instance(variant, i), emit=sols.append)
            out.append((sols, counters))
        return out

    return build_record({v: run(enumerate_exp, v) for v in ALL_VARIANTS},
                        {v: run(enumerate_pspace, v) for v in PSPACE_VARIANTS})


def main(argv=None, path: Path = GOLDEN, record: dict | None = None) -> int:
    """Print the diff of the record at ``path`` against ``record`` (the
    corpus runs, by default); then write the new record there, or, with
    ``--check``, write nothing and return 1 when any entry changed."""
    args = sys.argv[1:] if argv is None else argv
    if args not in ([], ["--check"]):
        print("usage: python tests/golden.py [--check]", file=sys.stderr)
        return 2
    if record is None:
        record = corpus_record()
    old = json.loads(path.read_text()) if path.exists() else {}
    changes = diff(old, record)
    print("\n".join(changes) if changes else "no entry changed")
    if args:
        return 1 if changes else 0
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} entries to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
