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

``import riemscale`` loads none of these modules.  Each name of
``__all__`` (the submodules themselves included) imports its module the
first time it is read, as an attribute or by ``from riemscale import``,
and is then bound in the package like an eagerly imported name; only
``__version__`` is bound at import.
"""

import importlib

from ._version import __version__

# The names each submodule exports.
_EXPORTS = {
    "errors": """ContractViolationError DegenerateInputError DomainError GeometryError
        InternalConsistencyError InvalidChartError PartialEquivalenceError
        PartialPathError""",
    "manifolds": """Euclidean Manifold ManifoldPoint SampledCurve Sphere
        SymmetricPositiveDefinite TangentVector curve_length distance exp_map
        inner_product log_map manifold_from_string norm parallel_transport random_point
        random_tangent riemannian_gradient tangent_projection""",
    "scaling": "ScaleFactor ScaledManifold volume_scale_factor",
    "charts": """Chart ChristoffelField GeodesicPath chart_curve_length chart_from_string
        christoffel_at coordinate_speed euclidean_chart geodesic_integrate
        geodesic_integrate_many geodesic_residual metric_at polar_chart
        scale_chart_constant scale_chart_pointwise sphere_chart spherical_to_ambient
        volume_density""",
    "optimize": """Objective OptimizerConfig OptimizerTrace calibrate_scale
        equivalence_check frechet_objective joint_descent pairwise_distances
        random_frechet_problem riemannian_gd riemannian_gd_many""",
    "verify": "render_csv render_json run_suite",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_MODULE_OF.update((module, module) for module in _EXPORTS)

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    value = loaded if name == module else getattr(loaded, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
