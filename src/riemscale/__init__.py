"""Constant metric scaling on Riemannian manifolds.

The library separates what a constant metric scale changes from what
it leaves alone.  Measured quantities (norms, distances, curve
lengths, volume densities, gradient magnitudes) pick up fixed powers
of the factor; the geodesic machinery (connection, geodesics,
exponential/logarithm maps, parallel transport, tangent projections)
is untouched, which for optimizers means a metric scale is nothing but
a step-size knob.

Layout:

* :mod:`riemscale.manifolds` -- closed-form geometry on Euclidean
  space, the sphere, and SPD matrices.
* :mod:`riemscale.scaling` -- the constant-scale wrapper with exact
  scaling laws and verbatim delegation of the invariant structure; the
  typed operations of :mod:`riemscale.manifolds` measure in the scaled
  metric on points built over it.
* :mod:`riemscale.charts` -- coordinate-chart numerics (Christoffel
  symbols, geodesic integration, volume densities) that rederive the
  same facts from raw metric matrices.
* :mod:`riemscale.optimize` -- gradient descent with exponential-map
  updates, barycenter objectives, step-size equivalence, and scale
  calibration.
* :mod:`riemscale.verify` / :mod:`riemscale.cli` -- the property
  suite and its command-line front end.
"""

from ._version import __version__
from .errors import (
    ContractViolationError,
    DegenerateInputError,
    DomainError,
    GeometryError,
    InternalConsistencyError,
    InvalidChartError,
    PartialEquivalenceError,
    PartialPathError,
)
from .manifolds import (
    Euclidean,
    Manifold,
    ManifoldPoint,
    SampledCurve,
    Sphere,
    SymmetricPositiveDefinite,
    TangentVector,
    curve_length,
    distance,
    exp_map,
    inner_product,
    log_map,
    manifold_from_string,
    norm,
    parallel_transport,
    random_point,
    random_tangent,
    riemannian_gradient,
    tangent_projection,
)
from .scaling import ScaleFactor, ScaledManifold, volume_scale_factor
from .charts import (
    Chart,
    ChristoffelField,
    GeodesicPath,
    chart_curve_length,
    chart_from_string,
    christoffel_at,
    coordinate_speed,
    euclidean_chart,
    geodesic_integrate,
    geodesic_integrate_many,
    geodesic_residual,
    metric_at,
    polar_chart,
    scale_chart_constant,
    scale_chart_pointwise,
    sphere_chart,
    spherical_to_ambient,
    volume_density,
)
from .optimize import (
    Objective,
    OptimizerConfig,
    OptimizerTrace,
    calibrate_scale,
    equivalence_check,
    frechet_objective,
    joint_descent,
    pairwise_distances,
    random_frechet_problem,
    riemannian_gd,
    riemannian_gd_many,
)
from .verify import render_csv, render_json, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
