"""The runner of the checks past the oracle's reach (``tests/past_oracle.py``)
can fail: one row passes as committed, and fails with its ``comp_calls``
bound or its solution count off by one."""

import pytest

from past_oracle import INPUTS, ROWS, run_row

ROW = next(r for r in ROWS if (r.input, r.variant) == ("grid3x5-tri", "chordal-induced"))


def test_row_passes_as_committed(tmp_path):
    assert (ROW.solutions, ROW.most_comp_calls, ROW.oracle) == (44, 207, True)
    ok, report, lines = run_row(ROW, tmp_path)
    assert ok, report
    assert len(lines) == 44


@pytest.mark.parametrize("change", [{"most_comp_calls": 206}, {"solutions": 43}],
                         ids=["comp_calls", "solutions"])
def test_row_fails_off_by_one(tmp_path, change):
    ok, report, _ = run_row(ROW._replace(**change), tmp_path)
    assert not ok and report.startswith("FAIL chordal-induced exp on grid3x5-tri")


def test_each_row_names_a_built_input_and_compares_on_it():
    assert all(row.input in INPUTS for row in ROWS)
    assert not ROWS[0].as_above
    assert all(above.input == row.input for above, row in zip(ROWS, ROWS[1:]) if row.as_above)
