"""Typed entry points given arbitrary arguments: each call returns, or
raises a ``GeometryError`` subclass, whatever the argument's type."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from riemscale import (
    Euclidean,
    GeometryError,
    ManifoldPoint,
    OptimizerConfig,
    SampledCurve,
    ScaleFactor,
    TangentVector,
    curve_length,
    euclidean_chart,
    exp_map,
    inner_product,
    metric_at,
    norm,
    polar_chart,
    tangent_projection,
    volume_scale_factor,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=500)

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
    "ManifoldPoint.manifold": lambda v: ManifoldPoint(v, [1.0, 0.0]),
    # no drawn argument is a point, vector or curve
    "TangentVector": lambda v: TangentVector(v, [1.0]),
    "SampledCurve": SampledCurve,
    "norm": norm,
    "exp_map": exp_map,
    "inner_product": lambda v: inner_product(v, v),
    "tangent_projection": lambda v: tangent_projection(v, [1, 0]),
    "curve_length": curve_length,
}


@SETTINGS
@given(st.sampled_from(sorted(CALLS)), ARGUMENTS)
@example("TangentVector", "a")
@example("SampledCurve", 5)
@example("norm", "a")
@example("exp_map", "a")
@example("inner_product", "a")
@example("tangent_projection", "a")
@example("curve_length", "ab")
def test_typed_entry_points_return_or_raise_a_geometry_error(name, value):
    try:
        CALLS[name](value)
    except GeometryError:
        pass
