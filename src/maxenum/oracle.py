"""Brute-force ground truth: all maximal solutions by subset sweep.

Deliberately uses only the plugin's membership predicate, never its
completion or neighboring functions, so it stays independent of the code
it checks; it asks each subset at most once.  Masks are
visited by descending popcount; a mask below an already-collected maximal
solution is skipped without a predicate call.
"""

from __future__ import annotations

from .graphs import bits


class OracleCapError(ValueError):
    pass


def check_cap(problem, cap: int = 16) -> None:
    """Raise OracleCapError when the sweep over the instance's 2^n subsets
    is beyond the cap on n."""
    if problem.ground_size > cap:
        raise OracleCapError(f"ground set of size {problem.ground_size} "
                             f"exceeds the brute-force cap of {cap}")


def brute_force_maximal(problem, cap: int = 16) -> list[tuple[int, ...]]:
    """All inclusion-maximal solutions of the instance, sorted."""
    check_cap(problem, cap)
    g = problem.ground_size
    order = sorted(range(1 << g), key=lambda m: (-m.bit_count(), m))
    maximal: list[int] = []
    for mask in order:
        if any(mask & ~m == 0 for m in maximal):
            continue
        if problem.sol(mask):
            maximal.append(mask)
    return sorted(bits(m) for m in maximal)
