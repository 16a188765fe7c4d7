"""The package namespace: its exported names, loaded on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riemscale

EXPORTED = (
    "Chart ChristoffelField ContractViolationError DegenerateInputError DomainError "
    "Euclidean GeodesicPath GeometryError InternalConsistencyError InvalidChartError "
    "Manifold ManifoldPoint Objective OptimizerConfig OptimizerTrace "
    "PartialEquivalenceError PartialPathError SampledCurve ScaleFactor ScaledManifold "
    "Sphere SymmetricPositiveDefinite TangentVector calibrate_scale chart_curve_length "
    "chart_from_string charts christoffel_at coordinate_speed curve_length distance "
    "equivalence_check errors euclidean_chart exp_map frechet_objective geodesic_integrate "
    "geodesic_integrate_many geodesic_residual inner_product joint_descent log_map "
    "manifold_from_string manifolds metric_at norm optimize pairwise_distances "
    "parallel_transport polar_chart random_frechet_problem random_point random_tangent "
    "render_csv render_json riemannian_gd riemannian_gd_many riemannian_gradient run_suite "
    "scale_chart_constant scale_chart_pointwise scaling sphere_chart spherical_to_ambient "
    "tangent_projection verify volume_density volume_scale_factor"
).split()
SUBMODULES = ("charts", "errors", "manifolds", "optimize", "scaling", "verify")


def test_all_lists_the_exported_names():
    assert len(EXPORTED) == 68
    assert riemscale.__all__ == EXPORTED


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from riemscale import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTED)
    for name in SUBMODULES:
        assert namespace[name] is importlib.import_module(f"riemscale.{name}")


@pytest.mark.parametrize("name", EXPORTED)
def test_an_exported_name_is_its_module_object(name):
    value = getattr(riemscale, name)
    if name in SUBMODULES:
        assert value is sys.modules[f"riemscale.{name}"]
    else:
        assert any(vars(sys.modules[f"riemscale.{m}"]).get(name) is value for m in SUBMODULES)
    assert name in dir(riemscale)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'riemscale' has no attribute 'no_such_name'"):
        riemscale.no_such_name
    with pytest.raises(ImportError):
        exec("from riemscale import no_such_name", {})


def test_importing_the_package_loads_no_computing_module():
    src = str(Path(riemscale.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, riemscale; "
        "print(riemscale.__version__, *sorted(m for m in sys.modules if m.startswith('riemscale')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    version, *loaded = done.stdout.split()
    assert version == riemscale.__version__
    assert loaded == ["riemscale", "riemscale._version"]
