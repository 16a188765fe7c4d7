"""Typed entry points given arbitrary arguments: each call returns, or
raises a ``GeometryError`` subclass, whatever the argument's type."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from riemscale import (
    Euclidean,
    GeometryError,
    ManifoldPoint,
    OptimizerConfig,
    ScaleFactor,
    euclidean_chart,
    metric_at,
    polar_chart,
    volume_scale_factor,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)

# Integers stay in [-3, 64], so that no drawn count allocates or integrates
# anything large.
SMALL_INTS = st.integers(-3, 64)
SMALL_FLOATS = st.floats(-20.0, 20.0)

ARGUMENTS = st.one_of(
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -0.0, -1, -2.5]),
    st.floats(),
    SMALL_INTS,
    st.lists(st.one_of(SMALL_FLOATS, SMALL_INTS), max_size=4),
    # rectangular or ragged nested lists
    st.lists(st.lists(SMALL_FLOATS, max_size=3), max_size=3),
    st.lists(st.one_of(SMALL_FLOATS, st.text(max_size=2), st.none()), max_size=3),
)

CALLS = {
    "ScaleFactor": ScaleFactor,
    "OptimizerConfig.step_size": OptimizerConfig,
    "OptimizerConfig.max_iters": lambda v: OptimizerConfig(0.1, max_iters=v),
    "OptimizerConfig.grad_tol": lambda v: OptimizerConfig(0.1, grad_tol=v),
    "volume_scale_factor.scale": lambda v: volume_scale_factor(v, 2),
    "volume_scale_factor.n": lambda v: volume_scale_factor(2.0, v),
    "euclidean_chart": euclidean_chart,
    "metric_at": lambda v: metric_at(polar_chart(), v),
    "ManifoldPoint": lambda v: ManifoldPoint(Euclidean(2), v),
}


@SETTINGS
@given(st.sampled_from(sorted(CALLS)), ARGUMENTS)
def test_typed_entry_points_return_or_raise_a_geometry_error(name, value):
    try:
        CALLS[name](value)
    except GeometryError:
        pass
