"""Machine-checkable property suite for the scaling behaviour.

Every claimed law -- the variant quantities with their exact factors,
the invariance of the geodesic machinery, and the optimizer step-size
equivalence -- appears here as one named check.  Its runner sweeps
seeded cases and yields every deviation it measures; :func:`_worst`
reduces them to the largest, which is compared against a pinned
tolerance.  A closed-form sweep draws its cases one after another, as
single points, stacks the draws, and measures the whole stack with one
batched call per operation and scale; it yields per case, then per
scale, then per operation.  One deliberately inverted check demonstrates that a
position-dependent factor breaks connection invariance, so its
criterion is a lower bound instead of an upper bound.

Per-check random streams are derived by hashing the root seed together
with the check id; adding checks therefore never perturbs existing
ones, and a report is byte-reproducible from its seed.  After the
checks, :func:`run_suite` appends one ``report.coverage`` record that
compares the number of records with the registry size.

:func:`render_json` writes the whole report and :func:`render_csv` the
per-check records table; both use the library's single output format
(17 significant digits, ``true``/``false``, sorted keys).
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _render
from ._render import render_json
from ._version import __version__
from .charts import (
    _connections,
    _densities,
    _spherical_rows,
    builtin_charts,
    chart_from_string,
    christoffel_at,
    geodesic_integrate_many,
    scale_chart_constant,
    scale_chart_pointwise,
    chart_curve_length,
)
from .manifolds import Manifold, ManifoldPoint, Sphere, manifold_from_string
from .optimize import (
    OptimizerConfig,
    _twin_arms,
    _twin_deviations,
    calibrate_scale,
    pairwise_distances,
    random_frechet_problem,
    riemannian_gd,
    riemannian_gd_many,
)
from .scaling import ScaledManifold, volume_scale_factor

SCHEMA_VERSION = 1

MANIFOLD_SPECS = ("euclidean:3", "sphere:2", "spd:2")
VARIANT_LAMBDAS = (0.25, 1.0, 4.0, 10.0)
INVARIANT_LAMBDAS = (0.25, 4.0, 10.0)
CASES_PER_SWEEP = 100
DELEGATION_CASES = 25
MANIFOLDS = tuple(manifold_from_string(spec) for spec in MANIFOLD_SPECS)

# Safe launch states for chart geodesics: trajectories stay well inside
# each built-in domain over one unit of time.
GEODESIC_STARTS = {
    "euclidean:2": ((0.0, 0.0), (0.5, -0.3)),
    "polar": ((3.0, 0.0), (0.5, 0.2)),
    "sphere-chart": ((1.2, 0.3), (0.2, 0.5)),
}
# The start of the sphere-chart geodesic compared with the closed form:
# the equator, eastward at unit speed.
EQUATOR_START = ((np.pi / 2, 0.0), (0.0, 1.0))


def derive_seed(root_seed: int, check_id: str) -> int:
    """Stable per-check stream seed from the root seed and the check id."""
    digest = hashlib.sha256(f"{root_seed}:{check_id}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _rel(value, reference):
    """Relative deviation of ``value`` from ``reference``, whose size is
    taken as at least 1e-300; elementwise on arrays."""
    return abs(value - reference) / np.maximum(abs(reference), 1e-300)


def _rel_rows(value: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per row of two stacks: the largest entrywise gap over the largest
    reference entry (at least 1e-300)."""
    axes = tuple(range(1, reference.ndim))
    scale = np.maximum(np.max(np.abs(reference), axis=axes), 1e-300)
    return np.max(np.abs(value - reference), axis=axes) / scale


def _bit_gaps(got: np.ndarray, ref: np.ndarray) -> list:
    """Per row of two stacks: ``None`` where the rows have the same bits,
    else their largest entrywise gap, at least 1e-30 so that it fails a
    zero tolerance."""
    a, b = (np.ascontiguousarray(x, dtype=float).reshape(len(ref), -1) for x in (got, ref))
    differ = (a.view(np.uint64) != b.view(np.uint64)).any(axis=1)
    with np.errstate(invalid="ignore"):
        gaps = np.maximum(np.max(np.abs(a - b), axis=1), 1e-30)
    return [gap if d else None for d, gap in zip(differ.tolist(), gaps.tolist())]


def _case_major(per_scale):
    """Yield ``per_scale[scale][operation][case]`` per case, then scale,
    then operation, skipping ``None``."""
    for case in zip(*(zip(*ops) for ops in per_scale)):
        for ops in case:
            yield from (value for value in ops if value is not None)


def _angles_between(m: Manifold, p: np.ndarray, u: np.ndarray, v: np.ndarray) -> list:
    """Per row of the stacks: the angle between tangent vectors ``u`` and
    ``v`` at ``p``, stable for nearly parallel inputs, and 0.0 where
    either vector is zero."""
    nu = m.norm(p, u)
    nv = m.norm(p, v)
    angles = [0.0] * len(nu)
    moving = (nu != 0.0) & (nv != 0.0)
    if moving.any():
        p, u, v, nu, nv = p[moving], u[moving], v[moving], nu[moving], nv[moving]
        c = m.inner(p, u, v) / (nu * nv)
        column = (...,) + (np.newaxis,) * (u.ndim - 1)
        s = m.norm(p, u / nu[column] - c[column] * (v / nv[column]))
        # math.asin, not np.arcsin: their roundings differ on some inputs
        for i, si, ci in zip(np.flatnonzero(moving).tolist(), s.tolist(), c.tolist()):
            angle = math.asin(min(1.0, si))
            angles[i] = math.pi - angle if ci < 0.0 else angle
    return angles


def _draw(draw, m: Manifold, rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """``count`` cases of ``draw(m, rng)``, drawn one after another and
    stacked per argument."""
    return [np.array(column) for column in zip(*(draw(m, rng) for _ in range(count)))]


def _point_and_tangent(m, rng):
    p = m.random_point(rng)
    return p, m.random_tangent(p, rng)


def _point_and_ambient(m, rng):
    return m.random_point(rng), rng.standard_normal(m.ambient_shape)


def _two_points(m, rng):
    return m._random_points(rng, 2)


def _two_points_and_tangent(m, rng):
    p, q = _two_points(m, rng)
    return p, q, m.random_tangent(p, rng)


def _two_points_tangent_and_ambient(m, rng):
    return *_two_points_and_tangent(m, rng), rng.standard_normal(m.ambient_shape)


def _random_curves(m: Manifold, rng: np.random.Generator) -> tuple[np.ndarray]:
    """A sweep of four-point sampled curves, each built from successive
    moderate geodesic steps, as one ``(count, 4, *ambient_shape)`` stack.

    Each curve draws its start and then the ambient vectors of its three
    steps, in the order ``random_tangent`` draws them; every step is then
    projected, shortened to length 0.3 and taken for all curves at once.
    """
    starts, raw = [], []
    for _ in range(CASES_PER_SWEEP):
        starts.append(m.random_point(rng))
        raw.append([rng.standard_normal(m.ambient_shape) for _ in range(3)])
    pts = [np.array(starts)]
    column = (...,) + (np.newaxis,) * len(m.ambient_shape)
    for w in np.stack(raw, axis=1):
        v = m.to_tangent(pts[-1], w)
        nv = m.norm(pts[-1], v)
        shrink = np.divide(0.3, nv, out=np.ones_like(nv), where=nv > 0.0)
        pts.append(m.exp(pts[-1], v * shrink[column]))
    return (np.stack(pts, axis=1),)


def _interior_points(chart, rng: np.random.Generator, count: int) -> np.ndarray:
    margin = np.maximum(0.05 * (chart.upper - chart.lower), 1e-3)
    return rng.uniform(chart.lower + margin, chart.upper - margin, (count, chart.dimension))


# ---------------------------------------------------------------------------
# Check runners.  Each takes a dedicated random generator and yields every
# deviation it measures; :func:`_worst` reduces them to the check's result.
# ---------------------------------------------------------------------------


def _sqrt_law(rng, draw, measure):
    """Relative deviations of ``measure`` on each scaled manifold from
    sqrt(lam) times its base value, at the stacked arguments ``draw``
    gives for a sweep of cases."""
    for m in MANIFOLDS:
        args = draw(m, rng)
        base = measure(m, *args)
        yield from _case_major([
            [_rel(measure(ScaledManifold(m, lam), *args), math.sqrt(lam) * base).tolist()]
            for lam in VARIANT_LAMBDAS
        ])


def _sweep(draw):
    """The stacked arguments of ``CASES_PER_SWEEP`` cases of ``draw``."""
    return lambda m, rng: _draw(draw, m, rng, CASES_PER_SWEEP)


def _run_variant_norm(rng):
    return _sqrt_law(rng, _sweep(_point_and_tangent), lambda m, p, v: m.norm(p, v))


def _run_variant_distance(rng):
    return _sqrt_law(rng, _sweep(_two_points), lambda m, p, q: m.dist(p, q))


def _run_variant_curve_length(rng):
    return _sqrt_law(rng, _random_curves, lambda m, curves: m.curve_length(curves))


def _run_variant_gradient(rng):
    for m in MANIFOLDS:
        p, ambient = _draw(_point_and_ambient, m, rng, CASES_PER_SWEEP)
        base = m.euclidean_to_riemannian_gradient(p, ambient)
        yield from _case_major([
            [_rel_rows(
                ScaledManifold(m, lam).euclidean_to_riemannian_gradient(p, ambient), base / lam
            ).tolist()]
            for lam in VARIANT_LAMBDAS
        ])


def _run_variant_volume_factor(rng):
    for n in range(1, 9):
        for lam in VARIANT_LAMBDAS:
            reference = math.exp(0.5 * n * math.log(lam))
            yield _rel(volume_scale_factor(lam, n), reference)


def _geodesic_ops(m: Manifold, p, q, v, w) -> tuple:
    return m.exp(p, v), m.log(p, q), m.transport(p, q, v), m.to_tangent(p, w)


def _run_delegation(rng):
    for m in MANIFOLDS:
        args = _draw(_two_points_tangent_and_ambient, m, rng, DELEGATION_CASES)
        base = _geodesic_ops(m, *args)
        yield from _case_major([
            list(map(_bit_gaps, _geodesic_ops(ScaledManifold(m, lam), *args), base))
            for lam in VARIANT_LAMBDAS
        ])


def _run_composition(rng):
    pairs = ((0.25, 4.0), (4.0, 10.0), (10.0, 0.25))
    for m in MANIFOLDS:
        for lam1, lam2 in pairs:
            nested = ScaledManifold(ScaledManifold(m, lam1), lam2)
            flat = ScaledManifold(m, lam1 * lam2)
            p, q, v, ambient = _draw(_two_points_tangent_and_ambient, m, rng, DELEGATION_CASES)
            yield from _case_major([[
                _rel(nested.norm(p, v), flat.norm(p, v)).tolist(),
                _rel(nested.dist(p, q), flat.dist(p, q)).tolist(),
                _rel_rows(
                    nested.euclidean_to_riemannian_gradient(p, ambient),
                    flat.euclidean_to_riemannian_gradient(p, ambient),
                ).tolist(),
            ]])


def _run_unit_scale_identity(rng):
    for m in MANIFOLDS:
        sm = ScaledManifold(m, 1.0)
        p, q, v = _draw(_two_points_and_tangent, m, rng, DELEGATION_CASES)
        yield from _case_major([[
            _bit_gaps(sm.norm(p, v), m.norm(p, v)),
            _bit_gaps(sm.dist(p, q), m.dist(p, q)),
            _bit_gaps(sm.rescale_gradient(v), m.rescale_gradient(v)),
            _bit_gaps(sm.exp(p, v), m.exp(p, v)),
            _bit_gaps(sm.log(p, q), m.log(p, q)),
        ]])


def _run_gradient_direction(rng):
    for m in MANIFOLDS:
        p, ambient = _draw(_point_and_ambient, m, rng, DELEGATION_CASES)
        grad = m.euclidean_to_riemannian_gradient(p, ambient)
        kept = ~(m.norm(p, grad) < 1e-12)
        p, grad = p[kept], grad[kept]
        yield from _case_major([
            [_angles_between(m, p, ScaledManifold(m, lam).rescale_gradient(grad), grad)]
            for lam in VARIANT_LAMBDAS
        ])


def _run_connection_invariance(rng):
    for chart in builtin_charts():
        points = _interior_points(chart, rng, 20)
        base = _connections(chart, points)
        for lam in INVARIANT_LAMBDAS:
            got = _connections(scale_chart_constant(chart, lam), points)
            yield from np.abs(got - base).max(axis=(1, 2, 3)).tolist()


@functools.cache
def _suite_geodesics():
    """Every chart geodesic the suite checks, from one lockstep run of
    1000 steps: per built-in chart its base arm and its scaled arms from
    that chart's start, then the sphere-chart equator arm.  Returns the
    paths grouped per chart, and the equator path.  ``run_suite`` clears
    the cache on entry and on exit."""
    charts = {chart.name: chart for chart in builtin_charts()}
    per_chart = 1 + len(INVARIANT_LAMBDAS)
    arms, starts = [], []
    for name, chart in charts.items():
        arms += [chart, *(scale_chart_constant(chart, lam) for lam in INVARIANT_LAMBDAS)]
        starts += [GEODESIC_STARTS[name]] * per_chart
    # the same chart object, so the equator arm shares the sphere's metric calls
    arms.append(charts["sphere-chart"])
    starts.append(EQUATOR_START)
    x0, v0 = np.array(starts).transpose(1, 0, 2)
    *paths, equator = geodesic_integrate_many(arms, x0, v0, steps=1000)
    grouped = [paths[i : i + per_chart] for i in range(0, len(paths), per_chart)]
    return grouped, equator


def _run_geodesic_invariance(rng):
    for base, *scaled in _suite_geodesics()[0]:
        for path in scaled:
            yield float(np.max(np.abs(path.positions - base.positions)))


def _run_volume_law(rng):
    for chart in builtin_charts():
        points = _interior_points(chart, rng, 20)
        base = _densities(chart, points)
        for lam in VARIANT_LAMBDAS:
            got = _densities(scale_chart_constant(chart, lam), points)
            yield from _rel(got / base, volume_scale_factor(lam, chart.dimension)).tolist()


def _run_length_law(rng):
    times = np.linspace(0.0, 1.0, 101)
    for chart in builtin_charts():
        for _ in range(3):
            ends = _interior_points(chart, rng, 2)
            points = ends[0] + times[:, None] * (ends[1] - ends[0])
            base = chart_curve_length(chart, times, points)
            for lam in VARIANT_LAMBDAS:
                scaled = scale_chart_constant(chart, lam)
                got = chart_curve_length(scaled, times, points)
                yield _rel(got, math.sqrt(lam) * base)


def _run_nonconstant_scaling(rng):
    # inverted check: a position-dependent factor must CHANGE the connection
    chart = chart_from_string("euclidean:2")
    scaled = scale_chart_pointwise(chart, lambda x: math.exp(2.0 * x[0]))
    origin = np.zeros(2)
    base = christoffel_at(chart, origin).symbols
    got = christoffel_at(scaled, origin).symbols
    yield float(np.max(np.abs(got - base)))


def _run_chart_matches_closed_form(rng):
    path = _suite_geodesics()[1]
    ambient = _spherical_rows(path.positions)
    # one exp from the start, broadcast over the tangents t * (0, 1, 0)
    references = Sphere(2).exp(ambient[0], path.times[:, np.newaxis] * np.array([0.0, 1.0, 0.0]))
    yield from np.max(np.abs(ambient - references), axis=1).tolist()


def _run_update_rule_identity(rng):
    for m in MANIFOLDS:
        p, ambient = _draw(_point_and_ambient, m, rng, DELEGATION_CASES)
        grad = m.euclidean_to_riemannian_gradient(p, ambient)
        yield from _case_major([
            [
                _rel_rows(-eta * ScaledManifold(m, lam).rescale_gradient(grad),
                          -(eta / lam) * grad).tolist()
                for eta in (0.1, 0.5)
            ]
            for lam in VARIANT_LAMBDAS
        ])


def _run_trajectory_equivalence(rng):
    # per manifold, the twins of every scale descend as one lockstep run;
    # each arm is bit for bit the one-arm run equivalence_check makes
    for m in MANIFOLDS:
        _, objective, x0 = random_frechet_problem(m, 4, rng)
        manifolds, configs = _twin_arms(m, 0.1, INVARIANT_LAMBDAS, 200)
        traces = riemannian_gd_many(manifolds, objective, [x0] * len(manifolds), configs)
        yield from _twin_deviations(m, traces)


def _run_iterate_gradient_direction(rng):
    for m in MANIFOLDS:
        _, objective, x0 = random_frechet_problem(m, 4, rng)
        sm = ScaledManifold(m, 4.0)
        config = OptimizerConfig(step_size=0.1, max_iters=50, grad_tol=0.0)
        trace = riemannian_gd(sm, objective, x0, config)
        points = np.array([point.coordinates for point in trace.iterates])
        if objective._measure_many is None:  # no stacked pass: one call per iterate
            grad = np.array([objective.gradient_fn(point).components for point in trace.iterates])
        else:
            grad = objective._measure_many(points)[0]
        kept = ~(m.norm(points, grad) < 1e-12)
        points, grad = points[kept], grad[kept]
        yield from _angles_between(m, points, sm.rescale_gradient(grad), grad)


def _run_frechet_gradient(rng):
    h = 1e-5
    for m in MANIFOLDS:
        _, objective, _ = random_frechet_problem(m, 4, rng)
        for _ in range(10):
            x = ManifoldPoint(m, m.random_point(rng))
            v = m.random_tangent(x.coordinates, rng)
            nv = m.norm(x.coordinates, v)
            if nv == 0.0:
                continue
            v = v / nv
            f_plus = objective.value_fn(ManifoldPoint(m, m.exp(x.coordinates, h * v)))
            f_minus = objective.value_fn(ManifoldPoint(m, m.exp(x.coordinates, -h * v)))
            fd = (f_plus - f_minus) / (2.0 * h)
            grad = objective.gradient_fn(x).components
            ip = m.inner(x.coordinates, grad, v)
            denom = max(abs(ip), 1e-3 * m.norm(x.coordinates, grad), 1e-12)
            yield abs(fd - ip) / denom


def _run_calibration_optimality(rng):
    # the fitted loss minus the loss 0.1% to either side: positive if not optimal
    for m in MANIFOLDS:
        for _ in range(5):
            points, _, _ = random_frechet_problem(m, 4, rng)
            base = pairwise_distances(points)
            noise = rng.standard_normal(base.shape)
            targets = np.abs(rng.uniform(0.5, 3.0) * base + 0.05 * (noise + noise.T))
            np.fill_diagonal(targets, 0.0)
            scale, best = calibrate_scale(points, targets)
            iu = np.triu_indices(len(points), k=1)
            d, t = base[iu], targets[iu]
            for step in (1.0 + 1e-3, 1.0 - 1e-3):
                yield best - float(np.sum((math.sqrt(scale.value * step) * d - t) ** 2))


def _worst(runner):
    """A check's ``run``: the largest deviation ``runner`` yields, 0 if
    it yields none, or NaN if any is NaN, so that the check fails."""
    def run(rng):
        deviations = list(runner(rng))
        if any(map(math.isnan, deviations)):
            return math.nan
        return max(deviations, default=0.0)

    return run


@dataclass(frozen=True)
class PropertyCheck:
    check_id: str
    category: str
    target: str
    lam: str
    tolerance: float
    criterion: str  # "<=" bounds the deviation above, ">=" below
    run: Callable[[np.random.Generator], float]


_ALL_MANIFOLDS = "|".join(MANIFOLD_SPECS)
_ALL_CHARTS = "euclidean:2|polar|sphere-chart"
_VARIANT_LAMS = "|".join(f"{v:g}" for v in VARIANT_LAMBDAS)
_INVARIANT_LAMS = "|".join(f"{v:g}" for v in INVARIANT_LAMBDAS)

PROPERTY_CHECKS: tuple[PropertyCheck, ...] = tuple(
    PropertyCheck(*fields, run=_worst(runner)) for *fields, runner in (
        ("variant.norm", "variant", _ALL_MANIFOLDS, _VARIANT_LAMS,
         1e-12, "<=", _run_variant_norm),
        ("variant.distance", "variant", _ALL_MANIFOLDS, _VARIANT_LAMS,
         1e-12, "<=", _run_variant_distance),
        ("variant.curve-length", "variant", _ALL_MANIFOLDS, _VARIANT_LAMS,
         1e-12, "<=", _run_variant_curve_length),
        ("variant.gradient", "variant", _ALL_MANIFOLDS, _VARIANT_LAMS,
         1e-12, "<=", _run_variant_gradient),
        ("variant.volume-factor", "variant", "n=1..8", _VARIANT_LAMS,
         1e-14, "<=", _run_variant_volume_factor),
        ("invariant.delegation", "invariant", _ALL_MANIFOLDS, _VARIANT_LAMS,
         0.0, "<=", _run_delegation),
        ("invariant.composition", "invariant", _ALL_MANIFOLDS,
         "0.25*4|4*10|10*0.25", 1e-12, "<=", _run_composition),
        ("invariant.unit-scale-identity", "invariant", _ALL_MANIFOLDS, "1",
         0.0, "<=", _run_unit_scale_identity),
        ("invariant.gradient-direction", "invariant", _ALL_MANIFOLDS,
         _VARIANT_LAMS, 1e-12, "<=", _run_gradient_direction),
        ("chart.connection-invariance", "chart", _ALL_CHARTS, _INVARIANT_LAMS,
         1e-6, "<=", _run_connection_invariance),
        ("chart.geodesic-invariance", "chart", _ALL_CHARTS, _INVARIANT_LAMS,
         1e-8, "<=", _run_geodesic_invariance),
        ("chart.volume-law", "chart", _ALL_CHARTS, _VARIANT_LAMS,
         1e-10, "<=", _run_volume_law),
        ("chart.length-law", "chart", _ALL_CHARTS, _VARIANT_LAMS,
         1e-10, "<=", _run_length_law),
        ("chart.nonconstant-scaling-breaks-connection", "negative-check",
         "euclidean:2", "exp(2*x0)", 0.5, ">=", _run_nonconstant_scaling),
        ("chart.matches-closed-form-geodesic", "cross-check",
         "sphere-chart", "1", 1e-6, "<=", _run_chart_matches_closed_form),
        ("optimizer.update-rule-identity", "optimizer", _ALL_MANIFOLDS,
         _VARIANT_LAMS, 1e-14, "<=", _run_update_rule_identity),
        ("optimizer.trajectory-equivalence", "optimizer", _ALL_MANIFOLDS,
         _INVARIANT_LAMS, 1e-8, "<=", _run_trajectory_equivalence),
        ("optimizer.iterate-gradient-direction", "optimizer", _ALL_MANIFOLDS,
         "4", 1e-12, "<=", _run_iterate_gradient_direction),
        ("optimizer.frechet-gradient", "optimizer", _ALL_MANIFOLDS, "1",
         1e-5, "<=", _run_frechet_gradient),
        ("optimizer.calibration-optimality", "optimizer", _ALL_MANIFOLDS,
         "fitted", 0.0, "<=", _run_calibration_optimality),
    )
)

EXPECTED_PROPERTY_COUNT = 20


def _record(check: PropertyCheck, seed: int) -> dict:
    """Run ``check`` on its stream derived from ``seed``; its report record."""
    rng = np.random.default_rng(derive_seed(seed, check.check_id))
    deviation = float(check.run(rng))
    if check.criterion == "<=":
        passed = deviation <= check.tolerance
    else:
        passed = deviation >= check.tolerance
    return {
        "id": check.check_id,
        "category": check.category,
        "target": check.target,
        "lambda": check.lam,
        "deviation": deviation,
        "tolerance": check.tolerance,
        "criterion": check.criterion,
        "passed": passed,
    }


def run_suite(seed: int) -> dict:
    """Run every check with streams derived from ``seed`` and assemble the
    report, ordered by check id.  The chart geodesics are integrated
    afresh for each run and released when it ends."""
    _suite_geodesics.cache_clear()
    try:
        records = [_record(check, seed) for check in PROPERTY_CHECKS]
    finally:
        _suite_geodesics.cache_clear()
    records.append(
        {
            "id": "report.coverage",
            "category": "meta",
            "target": "suite",
            "lambda": "-",
            "deviation": float(abs(len(records) - EXPECTED_PROPERTY_COUNT)),
            "tolerance": 0.0,
            "criterion": "<=",
            "passed": len(records) == EXPECTED_PROPERTY_COUNT,
        }
    )
    records.sort(key=lambda r: r["id"])
    passed = sum(1 for r in records if r["passed"])
    return {
        "schema_version": SCHEMA_VERSION,
        "environment": {"seed": int(seed), "version": __version__},
        "records": records,
        "summary": {
            "total": len(records),
            "passed": passed,
            "failed": len(records) - passed,
        },
    }


REPORT_COLUMNS = (
    "id", "category", "target", "lambda",
    "deviation", "tolerance", "criterion", "passed",
)


def report_rows(report: dict) -> list[list]:
    """The per-check records as rows of :data:`REPORT_COLUMNS` cells."""
    return [[record[col] for col in REPORT_COLUMNS] for record in report["records"]]


def render_csv(report: dict) -> str:
    """Flat CSV rendering of the per-check records."""
    return _render.render_csv(REPORT_COLUMNS, report_rows(report))
