"""Command-line front end: load an instance, pick a problem and engine,
stream solutions, report counters.

Exit status: 0 on success, also when the reader quits early (``| head``),
having read a prefix as with ``--limit``; 1 on input or verification
errors, 2 when the requested engine does not support the problem.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import engine, pspace
from .oracle import brute_force_maximal, check_cap
from .problems import (ALL_VARIANTS, K_VARIANTS, POINT_VARIANTS,
                       PSPACE_VARIANTS, make_instance)
from .problems.geometry import load_points
from .graphs import load_graph


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="maxenum",
        description="List all maximal solutions of a subgraph family.")
    p.add_argument("--problem", required=True, choices=ALL_VARIANTS)
    p.add_argument("--mode", choices=("exp", "pspace"), default="exp",
                   help="exp: traversal guarded by a set of visited solution "
                        "masks; pspace: parent-forest traversal without a "
                        "visited-solution dictionary")
    p.add_argument("--input", required=True, help="instance file path")
    p.add_argument("--k", type=int, default=None,
                   help="degeneracy bound for the kdeg-* problems")
    p.add_argument("--allow-large-k", action="store_true",
                   help="lift the default k <= 3 guard (candidate counts "
                        "grow as n**k)")
    p.add_argument("--count-only", action="store_true",
                   help="print only the number of solutions")
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="stop after N solutions (a prefix of the full run)")
    p.add_argument("--stats", action="store_true",
                   help="print counters as key=value lines on stderr")
    p.add_argument("--oracle-check", action="store_true",
                   help="cross-check the output against the brute-force "
                        "subset sweep (small instances only)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    err = sys.stderr

    if args.mode == "pspace" and args.problem not in PSPACE_VARIANTS:
        print(f"maxenum: pspace mode is only available for: "
              f"{', '.join(PSPACE_VARIANTS)}", file=err)
        return 2

    if args.limit is not None and args.limit < 0:
        print("maxenum: --limit must be at least 0", file=err)
        return 1

    if args.problem not in K_VARIANTS and (args.k is not None
                                           or args.allow_large_k):
        print(f"maxenum: --k and --allow-large-k apply only to: "
              f"{', '.join(K_VARIANTS)}", file=err)
        return 1

    if args.oracle_check and args.limit is not None:
        print("maxenum: --oracle-check needs a full run (no --limit)", file=err)
        return 1

    try:
        text = Path(args.input).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"maxenum: cannot read {args.input}: {exc}", file=err)
        return 1

    try:
        if args.problem in POINT_VARIANTS:
            problem = make_instance(args.problem, points=load_points(text))
        else:
            g = load_graph(text)
            # a --k outside the kdeg problems was refused above; make_instance
            # refuses a kdeg problem without one
            if args.k is not None and args.k > 3 and not args.allow_large_k:
                print("maxenum: k > 3 makes candidate counts explode; "
                      "pass --allow-large-k to proceed", file=err)
                return 1
            problem = make_instance(args.problem, graph=g, k=args.k)
        if args.oracle_check:
            check_cap(problem)  # before the run, which may print much
    except ValueError as exc:  # GraphFormatError and PointFormatError too
        print(f"maxenum: {exc}", file=err)
        return 1

    prefix = problem.ground_kind
    collected = [] if args.oracle_check else None

    def emit(sol):
        if collected is not None:
            collected.append(sol)
        if not args.count_only:
            print(" ".join([prefix] + [str(e) for e in sol]))

    run = engine.enumerate_exp if args.mode == "exp" else pspace.enumerate_pspace
    try:
        counters = run(problem, emit=emit, limit=args.limit)
        if args.count_only:
            print(counters.solutions_emitted)
        sys.stdout.flush()
    except (engine.PartialOutputError, BrokenPipeError) as exc:
        if not isinstance(exc.__cause__ or exc, BrokenPipeError):
            raise
        # the reader has gone; on devnull the flush at exit cannot fail
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0

    if args.stats:
        print(f"solutions={counters.solutions_emitted}", file=err)
        print(f"neighbors_calls={counters.neighbors_calls}", file=err)
        print(f"comp_calls={counters.comp_calls}", file=err)
        print(f"dict_operations={counters.dict_operations}", file=err)
        print(f"max_comp_gap={counters.max_comp_gap}", file=err)
        if args.mode == "pspace":
            print(f"roots={counters.roots_found}", file=err)
            print(f"child_checks={counters.child_checks_passed}", file=err)

    if args.oracle_check:
        expected = brute_force_maximal(problem)
        if sorted(collected) != expected:
            print(f"maxenum: oracle mismatch: engine found {len(collected)} "
                  f"solutions, sweep found {len(expected)}", file=err)
            return 1
        print("oracle=ok", file=err)

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
