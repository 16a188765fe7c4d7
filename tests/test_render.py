"""The shared output writer: one rule set for every CSV cell."""

import math

import numpy as np
import pytest

from riemscale._render import render_csv, render_json


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


# (value, its text): Python floats take the float-first branch, the
# others their own, and each gives the text it gave before that branch
_CELLS = [
    (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"),
    (1.7976931348623157e308, "1.7976931348623157e+308"),
    (0.1, "0.10000000000000001"),
    (np.float64(2.0) / 3.0, "0.66666666666666663"),
    (True, "true"),
    (3, "3"),
]


@pytest.mark.parametrize("value, text", _CELLS)
def test_each_scalar_renders_as_before_in_json_and_csv(value, text):
    assert render_json(value) == text + "\n"
    assert render_json({"v": [value]}) == '{\n  "v": [\n    ' + text + "\n  ]\n}\n"
    assert render_csv(["v"], [[value]], {"k": value}) == f"# k={text}\nv\n{text}\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                   np.float64("inf")])
def test_non_finite_floats_fail_in_json_and_are_written_in_csv(value):
    with pytest.raises(ValueError, match="cannot serialize non-finite value"):
        render_json({"v": value})
    assert render_csv(["v"], [[value]]) == f"v\n{format(float(value), '.17g')}\n"
    assert format(float(value), ".17g") in ("nan", "inf", "-inf")
