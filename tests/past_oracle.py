"""Checks past the brute-force oracle's reach (ground set <= 16): builders,
one table and one runner.  ``python tests/past_oracle.py``, from the checkout
root, runs every row as ``python -m maxenum --stats`` with ``src`` on the path,
prints one line per row (solutions, ``comp_calls`` against its bound, seconds)
and exits 1 when any row failed.  pytest does not collect it by its name."""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

SRC = Path(__file__).resolve().parents[1] / "src"
if __name__ == "__main__":
    sys.path.insert(0, str(SRC))

from maxenum import Graph  # noqa: E402  (src is on the path from here on)


# -- builders: edge ids follow the order of the file's lines ------------------

def disjoint_triangles(t):
    return Graph(3 * t, [(3 * i + a, 3 * i + b)
                         for i in range(t) for a, b in ((0, 1), (1, 2), (0, 2))])


def chained_triangles(t):
    """t triangles, each joined to the next by one edge."""
    return Graph(3 * t, disjoint_triangles(t).edges
                 + tuple((3 * i + 2, 3 * i + 3) for i in range(t - 1)))


def grid(rows, cols):
    """The rows' edges, left to right, then the columns', top to bottom."""
    across = [(cols * r + c, cols * r + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(cols * r + c, cols * r + c + cols) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, across + down)


def triangulated_grid(rows, cols):
    """The grid with each square's diagonal from its top-left corner."""
    return Graph(rows * cols, grid(rows, cols).edges
                 + tuple((cols * r + c, cols * r + c + cols + 1)
                         for r in range(rows - 1) for c in range(cols - 1)))


def diagonal_grid():
    """The 3x4 grid with the three diagonals c-(c+5) of its top squares."""
    return Graph(12, grid(3, 4).edges + tuple((c, c + 5) for c in range(3)))


def oriented_grid():
    """The 3x4 grid's arcs: row r left to right if r is even, else right to
    left; column c upward (row r + 1 to row r) if c is even, else downward."""
    edges = grid(3, 4).edges
    return Graph(12, [(u, v) if u // 4 % 2 == 0 else (v, u) for u, v in edges[:9]]
                 + [(v, u) if u % 2 == 0 else (u, v) for u, v in edges[9:]], directed=True)


def clique_with_claw():
    """K_12 on 0-11, with 11 also adjacent to 12, 13 and 14."""
    return Graph(15, [(u, v) for u in range(12) for v in range(u + 1, 12)]
                 + [(11, x) for x in (12, 13, 14)])


INPUTS = {
    "k12-claw": clique_with_claw,
    "grid3x5-tri": lambda: triangulated_grid(3, 5),
    "disjoint8": lambda: disjoint_triangles(8),
    "chained8": lambda: chained_triangles(8),
    "grid3x4": lambda: grid(3, 4),
    "grid3x4-diag": diagonal_grid,
    "grid3x4-oriented": oriented_grid,
    "grid3x4-tri": lambda: triangulated_grid(3, 4),
    "grid4x5-tri": lambda: triangulated_grid(4, 5),
}


def write_graph(g: Graph, path: Path) -> None:
    """The graph file of g: its header, then one line per edge in id order."""
    head = f"{g.n} {g.m}" + (" directed" if g.directed else "")
    path.write_text("\n".join([head] + [f"{u} {v}" for u, v in g.edges]) + "\n")


# -- the table ----------------------------------------------------------------

class Row(NamedTuple):
    input: str
    variant: str
    engine: str
    solutions: int
    most_comp_calls: Optional[int] = None
    k: Optional[int] = None
    oracle: bool = False  # --oracle-check must print oracle=ok
    exact: tuple = ()  # (counter, value) pairs --stats must print
    as_above: bool = False  # sorted lines equal to those of the row above, on the same input
    timeout: Optional[float] = None  # seconds

    def label(self) -> str:
        k = "" if self.k is None else f" k={self.k}"
        return f"{self.variant}{k} {self.engine} on {self.input}"


ROOTLESS = (("child_checks", 6560),)  # all solutions but the one root pass the parent check
ROWS = [
    # the greedy layout recognises the claw at once; backtracking took 142 s at K_9
    Row("k12-claw", "pinterval-induced-connected", "exp", 6, timeout=60),
    Row("k12-claw", "pinterval-induced", "exp", 7, timeout=60),
    # twin classes and host components; bounds from when each variant stated its own repair
    Row("grid3x5-tri", "pinterval-induced", "exp", 109, 11534, oracle=True),
    Row("grid3x5-tri", "pinterval-induced-connected", "exp", 86, 1534, oracle=True),
    # bounds from when chordal_cliques tested every earlier clique
    Row("grid3x5-tri", "chordal-induced", "exp", 44, 207, oracle=True),
    Row("grid3x5-tri", "chordal-induced-connected", "exp", 44, 187, oracle=True),
    # pspace against exp, 3^8 solutions; exp bounds from when completions stopped at sets
    # the run had completed, pspace ones from when children dropped empty (parent, pivot)s
    Row("disjoint8", "forests", "exp", 6561, 6561),
    Row("disjoint8", "forests", "pspace", 6561, 61105, exact=ROOTLESS, as_above=True),
    Row("disjoint8", "bipartite-induced", "exp", 6561, 6561),
    Row("disjoint8", "bipartite-induced", "pspace", 6561, 60651, exact=ROOTLESS, as_above=True),
    Row("chained8", "forests", "exp", 6561, 48115),
    Row("chained8", "forests", "pspace", 6561, 104882, exact=ROOTLESS, as_above=True),
    Row("chained8", "bipartite-induced", "exp", 6561, 24422),
    Row("chained8", "bipartite-induced", "pspace", 6561, 75972, exact=ROOTLESS, as_above=True),
    # the one non-hereditary family; bound from when it joined the shared completion loop
    Row("grid3x4", "chordal-edge", "exp", 2415, 9596),
    # bounds from when both families still asked their predicate in completion
    Row("grid3x4-diag", "bipartite-edge", "exp", 317, 3522),
    Row("grid3x4-oriented", "dag-edge-connected", "exp", 64, 222),
    # bounds from when kdeg-induced kept its predicate memo and kdeg-edge asked its predicate
    Row("grid3x4-tri", "kdeg-edge", "exp", 121, 1011, k=2),
    Row("grid4x5-tri", "kdeg-induced", "exp", 124, 3396, k=2),
    # an induced subgraph is 1-degenerate exactly when it is a forest; bound from
    # when every kdeg rejection peeled, before the (k+1)-core certificates
    Row("grid4x5-tri", "forests", "pspace", 798),
    Row("grid4x5-tri", "kdeg-induced", "exp", 798, 14332, k=1, as_above=True),
]


# -- the runner -----------------------------------------------------------------

def run_row(row: Row, workdir: Path, above: Optional[list] = None):
    """Run one row in ``workdir``, where its input file is written once, given
    the sorted lines of the row above: (whether it passed, its report line,
    its sorted lines)."""
    path = workdir / f"{row.input}.txt"
    if not path.exists():
        write_graph(INPUTS[row.input](), path)
    cmd = [sys.executable, "-m", "maxenum", "--problem", row.variant, "--mode", row.engine,
           "--stats", "--input", str(path)]
    cmd += [] if row.k is None else ["--k", str(row.k)]
    cmd += ["--oracle-check"] if row.oracle else []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=SRC.parent, timeout=row.timeout)
    except subprocess.TimeoutExpired:
        return False, f"FAIL {row.label()}: no answer within {row.timeout} s", None
    seconds = time.perf_counter() - start
    lines = sorted(done.stdout.splitlines())
    stats = dict(line.split("=", 1) for line in done.stderr.splitlines()
                 if line.split("=", 1)[0].isidentifier())
    comp_calls = int(stats.get("comp_calls", -1))
    faults = [f"exit status {done.returncode}: {done.stderr.strip()}"] if done.returncode else []
    if len(lines) != row.solutions:
        faults.append(f"expected {row.solutions} solutions")
    if row.most_comp_calls is not None and not 0 <= comp_calls <= row.most_comp_calls:
        faults.append("comp_calls over its bound")
    faults += [f"{name}={stats.get(name)}, expected {value}"
               for name, value in row.exact if stats.get(name) != str(value)]
    if row.oracle and stats.get("oracle") != "ok":
        faults.append("no oracle=ok")
    if row.as_above and lines != above:
        faults.append("sorted lines differ from the row above's")
    bound = "" if row.most_comp_calls is None else f" (at most {row.most_comp_calls})"
    report = (f"{'FAIL' if faults else 'ok'} {row.label()}: {len(lines)} solutions, "
              f"comp_calls {comp_calls}{bound}, {seconds:.2f} s")
    return not faults, "; ".join([report, *faults]), lines


def main() -> int:
    above, failed = None, 0
    with tempfile.TemporaryDirectory() as tmp:
        for row in ROWS:
            ok, report, above = run_row(row, Path(tmp), above)
            print(report, flush=True)
            failed += not ok
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
