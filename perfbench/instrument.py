"""Span wrappers around the public calls into each library module.

`install` patches the library in place and returns an `Installed`
handle whose `remove` puts every original back.  Functions that other
modules imported by value (``verify`` holds its own ``christoffel_at``,
``cli`` its own ``render_json``) are replaced in every module that holds
them, so no call path escapes the trace.  Nothing here changes what the
library computes; the wrappers only record spans and counters.

Span names, by layer:

* ``manifolds.<family>.<op>`` for op in exp, log, dist, transport, inner
  and ``validate`` (point and tangent validation); counters
  ``manifolds.eigh`` (numpy ``eigh`` plus scipy generalized ``eigh``) and
  ``manifolds.eigvalsh``, counted only for calls made from
  ``riemscale.manifolds``.
* ``scaling.forward`` (exp/log/transport/to_tangent/validate forwarded by
  ``ScaledManifold``) and ``scaling.measure`` (its scaled inner, dist,
  curve length and gradient conversions).
* ``charts.<fn>`` for metric_at, christoffel_at, geodesic_integrate,
  chart_curve_length and volume_density; counters ``charts.metric_fn``
  (outermost metric-function evaluations) and ``charts.rk4_steps``.
* ``optimize.<fn>`` for riemannian_gd, equivalence_check,
  pairwise_distances, calibrate_scale and the ``value_fn`` /
  ``gradient_fn`` of every Fréchet objective; counters
  ``optimize.iterations`` and ``optimize.stop_error``.
* ``verify.<check_id>`` per property check and ``verify.render_json``.
* ``cli.parse``, ``cli.handler``, ``cli.render`` and ``cli.emit``.
"""

from __future__ import annotations

import sys
from dataclasses import replace

FAMILIES = {"Euclidean": "euclidean", "Sphere": "sphere", "SymmetricPositiveDefinite": "spd"}
MANIFOLD_OPS = ("exp", "log", "dist", "transport", "inner")
VALIDATORS = ("validate_point", "validate_tangent")
SCALING_FORWARD = ("exp", "log", "transport", "to_tangent") + VALIDATORS
SCALING_MEASURE = (
    "inner", "dist", "curve_length", "euclidean_to_riemannian_gradient", "rescale_gradient",
)
CHART_FUNCTIONS = (
    "metric_at", "christoffel_at", "geodesic_integrate", "chart_curve_length", "volume_density",
)
OPTIMIZE_FUNCTIONS = (
    "riemannian_gd", "equivalence_check", "pairwise_distances", "calibrate_scale",
)
CLI_HANDLERS = ("cmd_verify", "cmd_scale_table", "cmd_frechet", "cmd_calibrate", "cmd_geodesic")


class _Namespace:
    """Stand-in for a module inside one library module: overridden
    attributes come first, everything else is looked up once on the
    real module and then cached."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        value = getattr(self._target, name)
        setattr(self, name, value)
        return value


class Installed:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)

    def remove(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)


def _library_modules():
    return [
        m for n, m in sorted(sys.modules.items())
        if n == "riemscale" or n.startswith("riemscale.")
    ]


def _replace_everywhere(installed: Installed, original, wrapped, skip=()) -> None:
    for module in _library_modules():
        if module.__name__ in skip:
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                installed.set(module, name, wrapped)


def install(tracer) -> Installed:
    import numpy as np
    import scipy

    from riemscale import charts, cli, manifolds, optimize, scaling, verify

    done = Installed()

    # manifolds: per-family operations and the eigendecompositions behind them
    for cls_name, family in FAMILIES.items():
        cls = getattr(manifolds, cls_name)
        for op in MANIFOLD_OPS:
            done.set(cls, op, tracer.wrap(f"manifolds.{family}.{op}", vars(cls)[op]))
        for op in VALIDATORS:
            done.set(cls, op, tracer.wrap(f"manifolds.{family}.validate", vars(cls)[op]))

    def counted(name, fn):
        def call(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return call

    done.set(manifolds, "np", _Namespace(np, linalg=_Namespace(
        np.linalg,
        eigh=counted("manifolds.eigh", np.linalg.eigh),
        eigvalsh=counted("manifolds.eigvalsh", np.linalg.eigvalsh),
    )))
    done.set(manifolds, "scipy", _Namespace(scipy, linalg=_Namespace(
        scipy.linalg, eigh=counted("manifolds.eigh", scipy.linalg.eigh),
    )))

    # scaling: the wrapper's forwarded and rescaled operations
    sm = scaling.ScaledManifold
    for op in SCALING_FORWARD:
        done.set(sm, op, tracer.wrap("scaling.forward", vars(sm)[op]))
    for op in SCALING_MEASURE:
        done.set(sm, op, tracer.wrap("scaling.measure", vars(sm)[op]))

    # charts: the public numerics, metric evaluations and RK4 steps
    for fn_name in CHART_FUNCTIONS:
        original = getattr(charts, fn_name)
        _replace_everywhere(done, original, tracer.wrap(f"charts.{fn_name}", original))
    integrate = charts.geodesic_integrate  # the traced one

    def geodesic_integrate(*args, **kwargs):
        try:
            path = integrate(*args, **kwargs)
        except charts.PartialPathError as exc:
            tracer.counts["charts.rk4_steps"] += len(exc.partial_path.times) - 1
            raise
        tracer.counts["charts.rk4_steps"] += len(path.times) - 1
        return path

    _replace_everywhere(done, integrate, geodesic_integrate)

    in_metric = [False]

    def count_metric_fn(fn):
        def metric_fn(x):
            if in_metric[0]:
                return fn(x)
            in_metric[0] = True
            tracer.counts["charts.metric_fn"] += 1
            try:
                return fn(x)
            finally:
                in_metric[0] = False

        return metric_fn

    chart_init = vars(charts.Chart)["__post_init__"]

    def chart_post_init(self):
        chart_init(self)
        object.__setattr__(self, "metric_fn", count_metric_fn(self.metric_fn))

    done.set(charts.Chart, "__post_init__", chart_post_init)

    # optimize: descent, its objective callbacks, pairwise work
    for fn_name in OPTIMIZE_FUNCTIONS:
        original = getattr(optimize, fn_name)
        _replace_everywhere(done, original, tracer.wrap(f"optimize.{fn_name}", original))
    descend = optimize.riemannian_gd

    def riemannian_gd(*args, **kwargs):
        trace = descend(*args, **kwargs)
        tracer.counts["optimize.iterations"] += len(trace) - 1
        tracer.counts["optimize.stop_error"] += trace.stop_reason == optimize.STOP_ERROR
        return trace

    _replace_everywhere(done, descend, riemannian_gd)
    make_objective = optimize.frechet_objective

    def frechet_objective(points):
        objective = make_objective(points)
        return optimize.Objective(
            tracer.wrap("optimize.value_fn", objective.value_fn),
            tracer.wrap("optimize.gradient_fn", objective.gradient_fn),
        )

    _replace_everywhere(done, make_objective, frechet_objective)

    # verify: one span per property check, and the canonical renderer
    done.set(verify, "PROPERTY_CHECKS", tuple(
        replace(check, run=tracer.wrap(f"verify.{check.check_id}", check.run))
        for check in verify.PROPERTY_CHECKS
    ))
    _replace_everywhere(
        done, verify.render_json, tracer.wrap("verify.render_json", verify.render_json),
        skip=("riemscale.cli",),
    )

    # cli: parsing, the command handlers, rendering and emitting output
    done.set(cli, "parse_config", tracer.wrap("cli.parse", cli.parse_config))
    for fn_name in CLI_HANDLERS:
        original = getattr(cli, fn_name)
        wrapped = tracer.wrap("cli.handler", original)
        done.set(cli, fn_name, wrapped)
        for command, handler in cli.HANDLERS.items():
            if handler is original:
                done.set(cli.HANDLERS, command, wrapped)
    for fn_name in ("render_json", "render_csv"):
        done.set(cli, fn_name, tracer.wrap("cli.render", getattr(cli, fn_name)))
    done.set(cli, "_emit", tracer.wrap("cli.emit", cli._emit))
    for cls in (optimize.OptimizerTrace, charts.GeodesicPath):
        done.set(cls, "to_csv", tracer.wrap("cli.render", vars(cls)["to_csv"]))
    return done
