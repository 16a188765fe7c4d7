"""The shared output writer: one rule set for every CSV cell."""

import numpy as np

from riemscale._render import render_csv


def test_csv_cell_rules_and_preamble():
    text = render_csv(
        ("flag", "count", "x", "y", "name"),
        [
            [True, 3, 0.1, np.float64(2.0) / 3.0, "sphere:2"],
            [False, np.int64(-7), 0.3, np.float64(1.0), "a"],
        ],
        {"max_deviation": 0.5},
    )
    assert text == (
        "# max_deviation=0.5\n"
        "flag,count,x,y,name\n"
        "true,3,0.10000000000000001,0.66666666666666663,sphere:2\n"
        "false,-7,0.29999999999999999,1,a\n"
    )


def test_csv_without_preamble_or_rows_is_the_header_line():
    assert render_csv(["a", "b"], []) == "a,b\n"
