"""One benchmark pass in a fresh process; prints one JSON record.

    python3 perfbench/worker.py --workload NAME --seed N --part K [--trace] [--check]
    python3 perfbench/worker.py --workload NAME --seed N --part K --setup-only

A pass imports maxenum from ``src/`` of the checkout, builds the instances of
one part of the workload, enumerates each once (timed, solutions and
emission times kept), reads the process's peak RSS, and only then computes
digests and, with ``--check``, verifies every solution against a fresh
instance (and, for the pspace engine, the whole set against the exp
engine).  With ``--trace`` the layers are wrapped by ``tracing.Tracer``
before anything runs.  With ``--setup-only`` the pass ends after set-up and
reports only its time.

Between instances, and around set-up, the pass times a fixed pure-Python
kernel (``kernel_s``).  Each record carries the ratio of the kernel's
reference time to its time there, ``scale``: a timing multiplied by it is
the time the same work would take on a host that runs the kernel in
``KERNEL_REF_S``.  On a shared host whose speed drifts over seconds to
minutes, scaled timings of identical work spread far less than wall times.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# the kernel's best-of-three time on the reference host; scaled timings are
# in seconds of that host
KERNEL_REF_S = 1.0e-3
# a fixed 16-vertex graph as neighbor bit masks
_KERNEL_ADJ = [((i * 2654435761) >> 7) & 0xFFFF | (1 << ((i + 1) % 16)) for i in range(16)]


def kernel_s() -> float:
    """Best of three wall times, in seconds, of a fixed pure-Python kernel:
    breadth-first searches over bit masks, the kind of work the package does.
    It allocates no container, so the collector and the heap the package
    leaves behind do not enter its time."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        total = 0
        for r in range(300):
            seen = frontier = 1 << (r & 15)
            while frontier:
                reached = 0
                f = frontier
                while f:
                    low = f & -f
                    reached |= _KERNEL_ADJ[low.bit_length() - 1]
                    f ^= low
                frontier = reached & ~seen
                seen |= reached
            total += seen.bit_count()
        best = min(best, perf_counter() - start)
    return best


def check_solutions(problem, solutions) -> str | None:
    """None when every solution is distinct and maximal, else the reason."""
    if len(set(solutions)) != len(solutions):
        return "duplicate solution emitted"
    for s in solutions:
        if list(s) != sorted(s):
            return f"solution {s} is not a sorted tuple"
        if not problem.is_maximal_solution(s):
            return f"solution {s} is not a maximal solution"
    return None


def cross_check(other_enumerate, problem, solutions) -> str | None:
    """None when the other engine finds the same solution set, else the reason."""
    other: list = []
    other_enumerate(problem, emit=other.append)
    if sorted(other) == sorted(solutions):
        return None
    return f"{other_enumerate.__name__} finds another solution set"


def run_pass(workload: str, seed: int, part: int, trace: bool, check: bool,
             setup_only: bool = False) -> dict:
    before = kernel_s()
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import maxenum
    import workloads
    instances = workloads.make_instances(maxenum, workload, seed, part)
    setup_s = perf_counter() - t0
    kernel = [kernel_s()]
    setup_scale = 2 * KERNEL_REF_S / (before + kernel[0])
    if setup_only:
        return {"setup_s": setup_s, "setup_scale": setup_scale}

    engine = workloads.WORKLOADS[workload].engine
    enumerate_fn = maxenum.enumerate_pspace if engine == "pspace" else maxenum.enumerate_exp
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install_modules()
        enumerate_fn = tracer.span("engine.enumerate", enumerate_fn)

    records = []
    memo_entries = 0
    for label, problem in instances:
        if tracer is not None:
            tracer.install_problem(problem)
        solutions, stamps = [], []

        def emit(sol, solutions=solutions, stamps=stamps):
            stamps.append(perf_counter())
            solutions.append(sol)

        rec = {"instance": label, "error": None}
        start = perf_counter()
        try:
            counters = enumerate_fn(problem, emit=emit)
        except Exception:  # a failing instance is counted, not fatal
            rec["error"] = traceback.format_exc(limit=3)
            counters = None
        end = perf_counter()
        kernel.append(kernel_s())
        marks = [start] + stamps
        rec.update(enum_s=end - start, scale=2 * KERNEL_REF_S / (kernel[-2] + kernel[-1]),
                   sols=len(solutions),
                   gaps=[b - a for a, b in zip(marks, marks[1:])],
                   max_comp_gap=counters.max_comp_gap if counters else None)
        memo_entries += len(getattr(problem, "_sol_cache", ()))
        records.append((rec, solutions))
    out = {"setup_s": setup_s, "setup_scale": setup_scale,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "instances": [rec for rec, _ in records]}
    if tracer is not None:
        # taken before the checks below, which call into the traced modules
        out["trace"] = {
            "calls": dict(tracer.calls), "self_s": dict(tracer.self_s),
            "items": dict(tracer.items),
            "trie_nodes": sum(t.node_count for t in tracer.tries),
            "memo_entries": memo_entries,
        }

    del instances
    fresh = dict(workloads.make_instances(maxenum, workload, seed, part)) if check else {}
    for rec, solutions in records:
        rec["set"] = workloads.set_digest(solutions)
        rec["order"] = workloads.order_digest(solutions)
        if check and rec["error"] is None:
            problem = fresh.pop(rec["instance"])
            rec["check"] = check_solutions(problem, solutions)
            if rec["check"] is None and engine == "pspace":
                rec["check"] = cross_check(maxenum.enumerate_exp, problem, solutions)

    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    print(json.dumps(run_pass(args.workload, args.seed, args.part, args.trace, args.check,
                                args.setup_only)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
