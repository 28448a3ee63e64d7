import subprocess
import sys
from pathlib import Path

import pytest

from maxenum.cli import main

TRIANGLE = "3 3\n0 1\n1 2\n0 2\n"
K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


@pytest.fixture
def triangle_file(tmp_path):
    p = tmp_path / "triangle.txt"
    p.write_text(TRIANGLE)
    return str(p)


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.txt"
    p.write_text(K4)
    return str(p)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triangle_bipartite_lines(triangle_file, capsys):
    code, out, _ = run_cli(["--problem", "bipartite-induced", "--mode", "exp",
                            "--input", triangle_file], capsys)
    assert code == 0
    assert sorted(out.splitlines()) == ["v 0 1", "v 0 2", "v 1 2"]


def test_count_only(triangle_file, capsys):
    code, out, _ = run_cli(["--problem", "bipartite-induced",
                            "--input", triangle_file, "--count-only"], capsys)
    assert code == 0 and out.strip() == "3"


def test_pspace_trees_k4_stats(k4_file, capsys):
    code, out, err = run_cli(["--problem", "trees", "--mode", "pspace",
                              "--input", k4_file, "--stats"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 6
    stats = dict(line.split("=") for line in err.splitlines())
    assert stats["dict_operations"] == "0"
    assert stats["solutions"] == "6"


def test_unsupported_pairing_exits_2(k4_file, capsys):
    code, _, err = run_cli(["--problem", "kdeg-induced", "--mode", "pspace",
                            "--input", k4_file, "--k", "1"], capsys)
    assert code == 2
    assert "pspace" in err


def test_bad_input_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("3 1\n0 9\n")
    code, _, err = run_cli(["--problem", "trees", "--input", str(p)], capsys)
    assert code == 1 and "out of range" in err


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(["--problem", "trees", "--input", "/nonexistent"],
                           capsys)
    assert code == 1


def test_non_utf8_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe 3 2\n0 1\n")
    code, out, err = run_cli(["--problem", "trees", "--input", str(bad)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"maxenum: cannot read {bad}: ") and "Traceback" not in err


@pytest.mark.parametrize("problem,text", [
    ("forests", "# K4 with a comment\n" + K4),
    ("hulls", "3 1\n0 0\n6 0\n0 6\n2 2\n"),
], ids=["graph", "points"])
def test_byte_order_mark_is_accepted(tmp_path, capsys, problem, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    expected = run_cli(["--problem", problem, "--input", str(plain)], capsys)
    code, out, err = run_cli(["--problem", problem, "--input", str(marked)], capsys)
    assert expected[0] == code == 0 and err == ""
    assert out.splitlines() == expected[1].splitlines() != []


def test_k_required_and_guarded(k4_file, capsys):
    code, _, err = run_cli(["--problem", "kdeg-induced", "--input", k4_file],
                           capsys)
    assert code == 1 and "--k" in err
    code, _, err = run_cli(["--problem", "kdeg-induced", "--input", k4_file,
                            "--k", "4"], capsys)
    assert code == 1 and "allow-large-k" in err
    code, _, _ = run_cli(["--problem", "kdeg-induced", "--input", k4_file,
                          "--k", "4", "--allow-large-k"], capsys)
    assert code == 0


@pytest.mark.parametrize("extra", [["--k", "7"], ["--allow-large-k"]])
def test_k_options_rejected_outside_kdeg(k4_file, capsys, extra):
    code, out, err = run_cli(["--problem", "trees", "--input", k4_file]
                             + extra, capsys)
    assert code == 1 and out == ""
    assert "apply only to: kdeg-induced, kdeg-edge" in err


def test_directed_mismatch_exits_1(tmp_path, capsys):
    p = tmp_path / "d.txt"
    p.write_text("3 2 directed\n0 1\n1 2\n")
    code, _, err = run_cli(["--problem", "trees", "--input", str(p)], capsys)
    assert code == 1 and "undirected" in err
    q = tmp_path / "u.txt"
    q.write_text(TRIANGLE)
    code, _, err = run_cli(["--problem", "dag-induced-connected",
                            "--input", str(q)], capsys)
    assert code == 1 and "directed" in err


def test_limit_is_prefix(k4_file, capsys):
    code, full, _ = run_cli(["--problem", "forests", "--input", k4_file],
                            capsys)
    code, part, _ = run_cli(["--problem", "forests", "--input", k4_file,
                             "--limit", "3"], capsys)
    assert part.splitlines() == full.splitlines()[:3]


def test_negative_limit_exits_1_before_reading_input(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    code, out, err = run_cli(["--problem", "trees", "--input", missing,
                              "--limit", "-1", "--count-only"], capsys)
    assert code == 1 and out == ""
    assert "--limit must be at least 0" in err


def test_oracle_check(triangle_file, capsys):
    code, _, err = run_cli(["--problem", "bipartite-induced",
                            "--input", triangle_file, "--oracle-check"],
                           capsys)
    assert code == 0 and "oracle=ok" in err


def test_pspace_oracle_check_empty_graph(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("0 0\n")
    code, out, err = run_cli(["--problem", "trees", "--mode", "pspace",
                              "--input", str(p), "--oracle-check"], capsys)
    assert code == 0 and "oracle=ok" in err
    assert out.splitlines() == ["v"]


def test_oracle_check_with_limit_exits_before_run(k4_file, capsys):
    code, out, err = run_cli(["--problem", "trees", "--input", k4_file,
                              "--limit", "2", "--oracle-check"], capsys)
    assert code == 1 and out == ""
    assert "--oracle-check needs a full run (no --limit)" in err


def test_oracle_cap_exits_before_run(tmp_path, capsys):
    # 18 isolated vertices: the run would print one solution, but the
    # sweep over 2^18 subsets is beyond the cap, so nothing runs
    p = tmp_path / "isolated.txt"
    p.write_text("18 0\n")
    code, out, err = run_cli(["--problem", "forests", "--input", str(p),
                              "--oracle-check"], capsys)
    assert code == 1 and out == ""
    assert "ground set of size 18 exceeds the brute-force cap of 16" in err


def test_points_file_and_edge_prefix(tmp_path, capsys):
    p = tmp_path / "pts.txt"
    p.write_text("3 1\n0 0\n6 0\n0 6\n2 2\n")
    code, out, _ = run_cli(["--problem", "hulls", "--input", str(p)], capsys)
    assert code == 0
    assert sorted(out.splitlines()) == ["v 0 1", "v 0 2", "v 1 2"]

    e = tmp_path / "tri.txt"
    e.write_text(TRIANGLE)
    code, out, _ = run_cli(["--problem", "bipartite-edge", "--input", str(e)],
                           capsys)
    assert code == 0
    assert all(line.startswith("e ") for line in out.splitlines())
    assert len(out.splitlines()) == 3


class ClosedAfter:
    """A stdout whose reader goes away after ``writes`` writes."""

    def __init__(self, writes, fd):
        self.writes, self.fd = writes, fd

    def write(self, text):
        if not self.writes:
            raise BrokenPipeError(32, "Broken pipe")
        self.writes -= 1
        return len(text)

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("extra,writes", [((), 2), (("--count-only",), 0),
                                          (("--mode", "pspace"), 2)])
def test_closed_output_pipe_exits_0_quietly(k4_file, tmp_path, capsys,
                                            monkeypatch, extra, writes):
    # the first line gets out, the next write breaks the pipe (--count-only
    # breaks on its one line); the lines read are a prefix, as with --limit
    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", ClosedAfter(writes, sink.fileno()))
        code = main(["--problem", "forests", "--input", k4_file, *extra])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_module_entrypoint_runs():
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "maxenum", "--problem", "trees",
         "--input", "/dev/stdin", "--count-only"],
        input=K4, text=True, capture_output=True,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6"
