"""Pin the per-instance reference the benchmark checks on its default seed.

    python3 perfbench/pin.py

For every workload instance of the pinned seed (``workloads.PINNED_SEED``)
in parts 0 to ``workloads.PINNED_PARTS`` - 1 this records the solution
count, an order-independent digest of the solution set and a digest of the
emission order, and writes them to ``reference.json``.  Before writing,
each solution set is verified independently of the engine that produced it:

* against ``brute_force_maximal`` wherever the ground set has at most 16
  elements;
* against the other engine on a fresh instance wherever both engines
  support the variant: ``exp`` for the pspace workload, ``pspace`` for the
  pspace variants of the exp workloads, whose ground sets are too large for
  the oracle;
* everywhere, every solution must be distinct and maximal on a fresh
  instance.

Nothing is written if any check fails.  Run it again only when a change is
meant to alter the workloads' inputs or solution sets.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import maxenum  # noqa: E402
import workloads  # noqa: E402
from maxenum.problems.base import PspaceProblem  # noqa: E402
from worker import check_solutions, cross_check  # noqa: E402

ORACLE_CAP = 16


def pin_workload(workload: str) -> tuple[list[dict], list[str]]:
    engine = workloads.WORKLOADS[workload].engine
    enumerate_fn = maxenum.enumerate_pspace if engine == "pspace" else maxenum.enumerate_exp
    # the checks share one fresh instance per label: its memo caches only the
    # pure membership predicate, so sharing it couples nothing
    seed = workloads.PINNED_SEED
    parts = range(workloads.PINNED_PARTS)
    fresh = {label: problem for part in parts
             for label, problem in workloads.make_instances(maxenum, workload, seed, part)}
    records, errors = [], []
    for label, problem in (pair for part in parts
                           for pair in workloads.make_instances(maxenum, workload, seed, part)):
        sols: list = []
        enumerate_fn(problem, emit=sols.append)
        found = sorted(sols)
        verified = []
        reason = check_solutions(fresh[label], sols)
        if reason:
            errors.append(f"{workload} {label}: {reason}")
        verified.append("maximal")
        if problem.ground_size <= ORACLE_CAP:
            if maxenum.brute_force_maximal(fresh[label], cap=ORACLE_CAP) != found:
                errors.append(f"{workload} {label}: differs from brute_force_maximal")
            verified.append("oracle")
        if isinstance(problem, PspaceProblem):  # both engines run it
            other = "exp" if engine == "pspace" else "pspace"
            reason = cross_check(getattr(maxenum, f"enumerate_{other}"), fresh[label], sols)
            if reason:
                errors.append(f"{workload} {label}: {reason}")
            verified.append(other)
        records.append({"instance": label, "ground": problem.ground_size,
                        "sols": len(sols), "set": workloads.set_digest(sols),
                        "order": workloads.order_digest(sols), "verified": verified})
        print(f"{workload:16s} {label:40s} sols={len(sols):6d} "
              f"verified={'+'.join(verified)}", flush=True)
    return records, errors


def main() -> int:
    ref = {"seed": workloads.PINNED_SEED, "parts": workloads.PINNED_PARTS, "workloads": {}}
    errors: list[str] = []
    for workload in workloads.WORKLOADS:
        ref["workloads"][workload], errs = pin_workload(workload)
        errors += errs
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
