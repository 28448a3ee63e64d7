"""Run the maxenum benchmark and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs benchmark passes of one workload, each in a fresh process
(``worker.py``), one after another, and prints one JSON object per line:
first a report (delay histogram, sample counts, order changes, per-pass
figures), then, as the last line, the result with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the run measures ``round(S / PART_SECONDS)`` parts of the
workload (at least one), one pass each, and the metrics are the end-to-end
ones, pooled over the parts; ``setup_s`` also takes ``SETUP_RUNS`` passes
that end after set-up.  With ``--trace 1`` untraced and traced passes
of part 0 alternate until ``S`` seconds have gone by; the metrics are the
per-layer ones from the traced passes plus ``trace.overhead_ratio``.

Every untraced pass of a part not seen before checks every solution for
distinctness and maximality on a fresh instance, and pspace solution sets
against the exp engine; a repeated pass must reproduce the first pass's
solution sets, and on the pinned seed the sets must match
``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from workloads import PINNED_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
# a part's nominal length: its instances take about 7-9 s on the reference
# host, plus start-up, calibration and checks
PART_SECONDS = 10
# set-up-only passes a run adds: set-up takes some 30-60 ms, and a shared
# host's speed moves within a second, so one scaled sample spreads by about
# 12% (IQR / median, on a shared 2-vCPU VM)
SETUP_RUNS = 9
# no run may take longer than this, whatever its passes do
RUN_LIMIT_S = 170


class BenchError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, part: int, trace: bool, check: bool,
               deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--part", str(part)]
    if trace:
        cmd.append("--trace")
    if check:
        cmd.append("--check")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    # set-up imports from cached bytecode, as an installed package does; the
    # first pass writes the cache (``__pycache__``), so one sample of the
    # median includes compiling
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"the run exceeded {RUN_LIMIT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"pass failed with exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of a sorted, non-empty list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def log2_histogram(gaps_s) -> dict[str, int]:
    """Counts of delays by power-of-two bucket in microseconds: key k holds
    delays in [2^k, 2^(k+1)) us; sub-microsecond delays fall into bucket 0."""
    hist: dict[int, int] = {}
    for g in gaps_s:
        k = max(0, math.floor(math.log2(max(g * 1e6, 1.0))))
        hist[k] = hist.get(k, 0) + 1
    return {str(k): hist[k] for k in sorted(hist)}


def load_reference(workload: str, seed: int):
    if seed != PINNED_SEED:
        return None
    ref = json.loads(REFERENCE.read_text())
    return {r["instance"]: r for r in ref["workloads"][workload]}


def judge(passes, reference):
    """Count failed instance runs; return (attempted, failed, order_changed,
    reference_checked, notes).  The first run of an instance label is its
    baseline: a later run of the label inherits its check verdict and must
    reproduce its solution set."""
    first: dict = {}
    attempted = failed = 0
    notes = []
    for p in passes:
        for r in p["instances"]:
            attempted += 1
            base = first.setdefault(r["instance"], r)
            why = None
            if r["error"] is not None:
                why = r["error"].strip().splitlines()[-1]
            elif base.get("check"):
                why = base["check"]
            elif r["set"] != base["set"]:
                why = "solution set differs from the first pass"
            elif reference is not None and r["instance"] in reference:
                ref = reference[r["instance"]]
                if (ref["sols"], ref["set"]) != (r["sols"], r["set"]):
                    why = "solution set differs from the pinned reference"
            if why is not None:
                failed += 1
                notes.append(f"{r['instance']}: {why}")
    pinned = [r for r in first.values() if reference is not None and r["instance"] in reference]
    order_changed = (sum(1 for r in pinned if reference[r["instance"]]["order"] != r["order"])
                     if reference is not None else None)
    return attempted, failed, order_changed, len(pinned), notes


def comp_gaps(one_pass) -> list[int]:
    return [r["max_comp_gap"] for r in one_pass["instances"] if r["max_comp_gap"] is not None]


def scaled_enum_s(one_pass) -> float:
    return sum(r["enum_s"] * r["scale"] for r in one_pass["instances"])


def end_to_end(passes, setups, attempted: int, failed: int) -> dict:
    # the parts hold distinct instances, so the enumeration figures pool
    # every instance of the run; set-up and memory are per pass, so they
    # take the median pass
    records = [r for p in passes for r in p["instances"]]
    gaps = sorted(g * r["scale"] for r in records for g in r["gaps"])
    return {
        "setup_s": (statistics.median(p["setup_s"] * p["setup_scale"]
                                      for p in passes + setups), "s"),
        "sols_per_s": (sum(r["sols"] for r in records)
                       / sum(r["enum_s"] * r["scale"] for r in records), "1/s"),
        "delay_p50_ms": (percentile(gaps, 50) * 1e3, "ms"),
        "delay_p95_ms": (percentile(gaps, 95) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "max_comp_gap": (statistics.mean(
            [g for p in passes for g in comp_gaps(p)] or [0]), "count"),
        "correct_frac": (1.0 - failed / attempted, "frac"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(untraced, traced) -> dict:
    def med(get):
        return statistics.median(get(p["trace"]) for p in traced)

    def calls(name):
        return med(lambda t: t["calls"].get(name, 0))

    def self_s(name):
        return med(lambda t: t["self_s"].get(name, 0.0))

    def items(name):
        return med(lambda t: t["items"].get(name, 0))

    sols = statistics.median(sum(r["sols"] for r in p["instances"]) for p in traced)
    sol_calls = calls("problems.sol")
    sol_evals = calls("problems.sol.evals")
    out = {
        "problems.sol.calls": (sol_calls, "count"),
        "problems.sol.evals": (sol_evals, "count"),
        "problems.sol.hit_ratio": (_ratio(sol_calls - sol_evals, sol_calls), "ratio"),
        "problems.sol.self_s": (self_s("problems.sol"), "s"),
        "problems.memo_entries": (med(lambda t: t["memo_entries"]), "count"),
        "problems.comp.calls": (calls("problems.comp"), "count"),
        "problems.comp.per_sol": (_ratio(calls("problems.comp"), sols), "ratio"),
        "problems.comp.self_s": (self_s("problems.comp"), "s"),
        "problems.neighbors.calls": (calls("problems.neighbors"), "count"),
        "problems.neighbors.cands_per_call": (
            _ratio(items("problems.neighbors"), calls("problems.neighbors")), "ratio"),
        "problems.neighbors.self_s": (self_s("problems.neighbors"), "s"),
        "engine.enumerate.self_s": (self_s("engine.enumerate"), "s"),
        "engine.trie.inserts": (calls("engine.trie"), "count"),
        "engine.trie.new_ratio": (_ratio(items("engine.trie"), calls("engine.trie")), "ratio"),
        "engine.trie.nodes": (med(lambda t: t["trie_nodes"]), "count"),
        "engine.trie.self_s": (self_s("engine.trie"), "s"),
        "pspace.children.yield_ratio": (
            _ratio(items("pspace.children"), items("problems.neighbors_at")), "ratio"),
    }
    for name in ("pspace.comp_lex", "pspace.core_of", "pspace.children", "pspace.restr",
                 "problems.order_keys", "problems.addable", "problems.neighbors_at",
                 "graphs.mask_components", "graphs.mask_dists", "graphs.mask_cc"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")

    out["trace.overhead_ratio"] = (
        statistics.median(map(scaled_enum_s, traced))
        / statistics.median(map(scaled_enum_s, untraced)), "ratio")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool):
    start = monotonic()
    deadline = start + RUN_LIMIT_S
    untraced, traced, setups = [], [], []
    if trace:
        while True:
            round_start = monotonic()
            untraced.append(run_worker(workload, seed, 0, trace=False,
                                       check=not untraced, deadline=deadline))
            traced.append(run_worker(workload, seed, 0, trace=True, check=False,
                                     deadline=deadline))
            now = monotonic()
            # stop before a round that would overrun the time
            if now + (now - round_start) - start > seconds:
                break
    else:
        parts = max(1, round(seconds / PART_SECONDS))
        for part in range(parts):
            untraced.append(run_worker(workload, seed, part, trace=False, check=True,
                                       deadline=deadline))
            # spread over the run, so that no one slow spell holds them all
            for _ in range(part * SETUP_RUNS // parts, (part + 1) * SETUP_RUNS // parts):
                setups.append(run_worker(workload, seed, part, trace=False, check=False,
                                         deadline=deadline, setup_only=True))
    passes = untraced + traced
    reference = load_reference(workload, seed)
    attempted, failed, order_changed, reference_checked, notes = judge(passes, reference)
    gaps = [g * r["scale"] for p in untraced for r in p["instances"] for g in r["gaps"]]
    report = {
        "workload": workload, "seed": seed,
        "passes": len(untraced), "traced_passes": len(traced),
        "scaled_setup_ms_per_pass": [round(p["setup_s"] * p["setup_scale"] * 1e3, 2)
                                     for p in untraced + setups],
        "instances": sum(len(p["instances"]) for p in untraced),
        "sols_per_pass": [sum(r["sols"] for r in p["instances"]) for p in untraced],
        "delay_samples": len(gaps),
        "max_comp_gap_max": max((g for p in untraced for g in comp_gaps(p)), default=None),
        "delay_hist_log2_us": log2_histogram(gaps),
        "reference_checked": reference_checked,
        "order_changed": order_changed,
        "enum_s_per_pass": [round(sum(r["enum_s"] for r in p["instances"]), 4)
                            for p in untraced],
        "scaled_enum_s_per_pass": [round(scaled_enum_s(p), 4) for p in untraced],
        "failures": notes[:20],
    }
    metrics = per_layer(untraced, traced) if trace else end_to_end(untraced, setups, attempted, failed)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def main() -> int:
    ap = argparse.ArgumentParser(description="maxenum benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "maxenum" / "__init__.py").is_file():
        print(f"error: no maxenum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
