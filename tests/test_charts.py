"""Chart numerics: metric evaluation, finite-difference connections,
geodesic integration, and the scaling comparisons built on them."""

import contextlib
import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import riemscale.charts as charts_module

from riemscale import (
    Chart,
    ChristoffelField,
    ContractViolationError,
    DomainError,
    GeodesicPath,
    GeometryError,
    InternalConsistencyError,
    InvalidChartError,
    PartialPathError,
    Sphere,
    SymmetricPositiveDefinite,
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

INVARIANT_SCALES = (0.25, 4.0, 10.0)

GEODESIC_CASES = (
    (euclidean_chart(2), [0.0, 0.0], [0.5, -0.3]),
    (polar_chart(), [3.0, 0.0], [0.5, 0.2]),
    (sphere_chart(), [1.2, 0.3], [0.2, 0.5]),
)


def counted_chart(name, dim, half_width=5.0):
    """A curved chart, g = diag(1 + x^2), that records the number of
    points of each call of its metric function."""
    calls = []

    def metric(X):
        calls.append(len(X))
        G = np.zeros((len(X), dim, dim))
        G[:, range(dim), range(dim)] = 1.0 + X**2
        return G

    ones = np.ones(dim)
    return Chart(name, dim, -half_width * ones, half_width * ones, metric), calls


def polar_christoffel_oracle(r):
    """Hand-differentiated connection of g = diag(1, r^2)."""
    gam = np.zeros((2, 2, 2))
    gam[0, 1, 1] = -r
    gam[1, 0, 1] = gam[1, 1, 0] = 1.0 / r
    return gam


def sphere_christoffel_oracle(theta):
    """Hand-differentiated connection of g = diag(1, sin^2 theta)."""
    gam = np.zeros((2, 2, 2))
    gam[0, 1, 1] = -math.sin(theta) * math.cos(theta)
    gam[1, 0, 1] = gam[1, 1, 0] = 1.0 / math.tan(theta)
    return gam


def conformal_christoffel_oracle():
    """Hand evaluation for the factor exp(2*x0) on the flat plane.

    For a flat metric times exp(2 phi) the connection is
    d^k_i dphi_j + d^k_j dphi_i - delta_ij dphi_k; here phi = x0.
    """
    dphi = np.array([1.0, 0.0])
    gam = np.zeros((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                gam[k, i, j] = (
                    (k == i) * dphi[j] + (k == j) * dphi[i] - (i == j) * dphi[k]
                )
    return gam


# ---------------------------------------------------------------------------
# metric evaluation
# ---------------------------------------------------------------------------


def test_metric_euclidean_is_identity(rng):
    chart = euclidean_chart(3)
    for _ in range(5):
        x = rng.uniform(-9.0, 9.0, 3)
        assert_allclose(metric_at(chart, x), np.eye(3))


def test_metric_polar_example():
    assert_allclose(metric_at(polar_chart(), [2.0, 0.0]), np.diag([1.0, 4.0]))


def test_metric_sphere_chart_example():
    assert_allclose(
        metric_at(sphere_chart(), [math.pi / 2, 0.0]), np.diag([1.0, 1.0])
    )


def test_metric_outside_domain_raises():
    with pytest.raises(DomainError):
        metric_at(polar_chart(), [0.05, 0.0])


def test_metric_function_domain_error_reaches_the_caller_unchanged():
    class Singular(DomainError):
        pass

    def metric(X):
        raise Singular(f"no metric at {X}")

    chart = Chart("singular", 2, [-1.0, -1.0], [1.0, 1.0], metric)
    for call in (metric_at, christoffel_at, volume_density):
        with pytest.raises(Singular, match="no metric at"):
            call(chart, [0.0, 0.0])


def constant_metric(matrix):
    """A batched metric function with the same matrix at every point."""
    matrix = np.array(matrix, dtype=float)
    return lambda X: np.tile(matrix, (len(X), 1, 1))


def test_metric_validation_rejects_bad_charts():
    asym = Chart("asym", 2, [-1.0, -1.0], [1.0, 1.0], constant_metric([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(InvalidChartError, match="asym at .* is not symmetric"):
        metric_at(asym, [0.0, 0.0])
    indefinite = Chart("indef", 2, [-1.0, -1.0], [1.0, 1.0], constant_metric(np.diag([1.0, -1.0])))
    with pytest.raises(InvalidChartError, match="indef at .* is not positive definite"):
        metric_at(indefinite, [0.0, 0.0])


def test_metric_of_the_wrong_batch_shape_names_its_chart():
    # a pointwise (n,) -> (n, n) function breaks the batched contract
    pointwise = Chart("pointwise", 2, [-1.0, -1.0], [1.0, 1.0], lambda x: np.eye(2))
    for call in (metric_at, christoffel_at, volume_density):
        with pytest.raises(InvalidChartError, match=r"pointwise on \d+ points has shape \(2, 2\)"):
            call(pointwise, [0.0, 0.0])
    with pytest.raises(InvalidChartError, match="pointwise"):
        geodesic_integrate_many((polar_chart(), pointwise), [0.5, 0.0], [0.1, 0.1], steps=5)
    with pytest.raises(InvalidChartError, match="pointwise"):
        chart_curve_length(pointwise, [0.0, 1.0], [[0.0, 0.0], [0.5, 0.0]])


def test_chart_construction_validation():
    with pytest.raises(ContractViolationError):
        Chart("bad", 2, [0.0, 0.0], [0.0, 1.0], lambda x: np.eye(2))
    with pytest.raises(ContractViolationError):
        Chart("bad", 0, [], [], lambda x: np.eye(1))


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------


def test_christoffel_euclidean_vanishes():
    field = christoffel_at(euclidean_chart(2), [1.0, -3.0])
    assert_allclose(field.symbols, 0.0, atol=0)


def test_christoffel_polar_against_hand_oracle():
    field = christoffel_at(polar_chart(), [2.0, 1.0])
    oracle = polar_christoffel_oracle(2.0)
    assert oracle[0, 1, 1] == -2.0 and oracle[1, 0, 1] == 0.5
    assert_allclose(field.symbols, oracle, atol=1e-6)


def test_christoffel_sphere_chart_against_hand_oracle():
    field = christoffel_at(sphere_chart(), [math.pi / 3, 0.0])
    assert_allclose(field.symbols, sphere_christoffel_oracle(math.pi / 3), atol=1e-6)


def test_christoffel_lower_index_symmetry(rng):
    for chart in (polar_chart(), sphere_chart()):
        for _ in range(10):
            x = rng.uniform(chart.lower + 0.2, chart.upper - 0.2)
            field = christoffel_at(chart, x)
            assert_allclose(
                field.symbols, field.symbols.transpose(0, 2, 1), atol=1e-8
            )


def test_christoffel_near_boundary_raises():
    with pytest.raises(DomainError):
        christoffel_at(polar_chart(), [0.1, 0.0])


# ---------------------------------------------------------------------------
# geodesic integration
# ---------------------------------------------------------------------------


def test_geodesic_euclidean_is_straight_line():
    path = geodesic_integrate(euclidean_chart(2), [1.0, -2.0], [0.5, 0.25])
    expected = np.array([1.0, -2.0]) + path.times[:, None] * np.array([0.5, 0.25])
    assert float(np.max(np.abs(path.positions - expected))) <= 1e-10


def test_geodesic_polar_radial_line():
    path = geodesic_integrate(polar_chart(), [1.0, 0.0], [1.0, 0.0])
    assert_allclose(path.positions[:, 0], 1.0 + path.times, atol=1e-12)
    assert_allclose(path.positions[:, 1], 0.0, atol=0)


def test_geodesic_sphere_chart_equator():
    path = geodesic_integrate(sphere_chart(), [math.pi / 2, 0.0], [0.0, 1.0])
    assert float(np.max(np.abs(path.positions[:, 0] - math.pi / 2))) <= 1e-8
    assert float(np.max(np.abs(path.positions[:, 1] - path.times))) <= 1e-8


def test_geodesic_conserves_coordinate_speed():
    for chart, x0, v0 in (
        (polar_chart(), [3.0, 0.0], [0.5, 0.2]),
        (sphere_chart(), [1.2, 0.3], [0.2, 0.5]),
    ):
        path = geodesic_integrate(chart, x0, v0)
        s0 = coordinate_speed(chart, path.positions[0], path.velocities[0])
        for k in range(0, len(path.times), 100):
            s = coordinate_speed(chart, path.positions[k], path.velocities[k])
            assert abs(s - s0) / s0 <= 1e-6


def test_geodesic_satisfies_discretized_equation():
    path = geodesic_integrate(sphere_chart(), [1.2, 0.3], [0.2, 0.5], steps=200)
    assert geodesic_residual(sphere_chart(), path) <= 1e-4


def test_geodesic_domain_exit_keeps_partial_path():
    chart = euclidean_chart(2)
    with pytest.raises(PartialPathError) as excinfo:
        geodesic_integrate(chart, [9.0, 0.0], [5.0, 0.0])
    partial = excinfo.value.partial_path
    assert len(partial.times) > 1
    assert float(partial.positions[-1, 0]) <= 10.0
    assert float(partial.positions[-1, 0]) >= 9.9


def _same_bytes(a, b):
    return all(
        x.tobytes() == y.tobytes()
        for x, y in zip(
            (a.times, a.positions, a.velocities), (b.times, b.positions, b.velocities)
        )
    )


@pytest.mark.parametrize("chart, x0, v0", GEODESIC_CASES, ids=[c.name for c, _, _ in GEODESIC_CASES])
def test_lockstep_paths_are_bit_identical_to_single_runs(chart, x0, v0):
    arms = (chart, *(scale_chart_constant(chart, lam) for lam in INVARIANT_SCALES))
    together = geodesic_integrate_many(arms, x0, v0, steps=250)
    assert len(together) == len(arms)
    for arm, path in zip(arms, together):
        assert _same_bytes(path, geodesic_integrate(arm, x0, v0, steps=250))


def _polar_box(name, r_max):
    return Chart(name, 2, [0.1, -math.pi], [r_max, math.pi], polar_chart().metric_fn)


def test_lockstep_raises_the_lowest_failed_arm_like_a_single_run():
    # radial line r = 3 + t: "slow" leaves its box near t = 0.8, "fast" near t = 0.3
    slow, fast, wide = _polar_box("slow", 3.8), _polar_box("fast", 3.3), _polar_box("wide", 10.0)
    for arms, failing in (((slow, fast), slow), ((wide, fast), fast)):
        with pytest.raises(PartialPathError) as alone:
            geodesic_integrate(failing, [3.0, 0.0], [1.0, 0.0], steps=100)
        with pytest.raises(PartialPathError) as together:
            geodesic_integrate_many(arms, [3.0, 0.0], [1.0, 0.0], steps=100)
        assert str(together.value) == str(alone.value)
        assert failing.name in str(together.value)
        assert _same_bytes(together.value.partial_path, alone.value.partial_path)


def test_lockstep_raises_a_lower_arm_failure_before_a_later_arms_earlier_error():
    # arm 1's metric turns indefinite at r > 3.3, well before arm 0 leaves its box
    def metric(X):
        G = np.zeros((len(X), 2, 2))
        G[:, 0, 0] = 1.0
        G[:, 1, 1] = np.where(X[:, 0] <= 3.3, X[:, 0] ** 2, -1.0)
        return G

    slow = _polar_box("slow", 3.8)
    turning = Chart("turning", 2, [0.1, -math.pi], [10.0, math.pi], metric)
    with pytest.raises(InvalidChartError, match="turning at .* is not positive definite"):
        geodesic_integrate(turning, [3.0, 0.0], [1.0, 0.0], steps=100)
    with pytest.raises(PartialPathError) as alone:
        geodesic_integrate(slow, [3.0, 0.0], [1.0, 0.0], steps=100)
    with pytest.raises(PartialPathError) as together:
        geodesic_integrate_many((slow, turning), [3.0, 0.0], [1.0, 0.0], steps=100)
    assert str(together.value) == str(alone.value)
    assert _same_bytes(together.value.partial_path, alone.value.partial_path)


def test_lockstep_invalid_arm_raises_naming_its_chart():
    indefinite = Chart("indefinite-arm", 2, [-1.0, -1.0], [1.0, 1.0],
                       constant_metric(np.diag([1.0, -1.0])))
    with pytest.raises(InvalidChartError, match="indefinite-arm at .* is not positive definite"):
        geodesic_integrate_many((polar_chart(), indefinite), [0.5, 0.0], [0.1, 0.1])


@pytest.mark.parametrize("dim", [2, 3])
def test_lockstep_makes_one_stencil_of_metric_evaluations_per_stage(dim):
    first, first_calls = counted_chart("first", dim)
    second, second_calls = counted_chart("second", dim)
    steps = 20
    geodesic_integrate_many((first, second), np.zeros(dim), np.full(dim, 0.3), steps=steps)
    # 4 RK4 stages, each one call on the center plus 2n stencil points
    for calls in (first_calls, second_calls):
        assert len(calls) == 4 * steps
        assert sum(calls) == 4 * (2 * dim + 1) * steps


@pytest.mark.parametrize("dim", [2, 3])
def test_constant_scaled_arms_share_one_base_call_per_stage(dim):
    base, calls = counted_chart("base", dim)
    arms = (base, scale_chart_constant(base, 0.25), scale_chart_constant(base, 4.0),
            scale_chart_constant(scale_chart_constant(base, 4.0), 10.0))
    steps = 20
    geodesic_integrate_many(arms, np.zeros(dim), np.full(dim, 0.3), steps=steps)
    # one call per RK4 stage over the stencils of all K arms
    assert calls == [len(arms) * (2 * dim + 1)] * (4 * steps)
    # an arm on another base keeps a call of its own
    other, other_calls = counted_chart("other", dim)
    calls.clear()
    geodesic_integrate_many((base, other, scale_chart_constant(base, 2.0)),
                            np.zeros(dim), np.full(dim, 0.3), steps=steps)
    assert calls == [2 * (2 * dim + 1)] * (4 * steps)
    assert other_calls == [2 * dim + 1] * (4 * steps)


def test_lockstep_interleaved_bases_and_scales_are_bit_identical_to_single_runs():
    polar, sphere = polar_chart(), sphere_chart()
    scaled = scale_chart_constant(polar, 3.0)  # not a power of 2, so no factor is exact
    arms = (polar, sphere, scaled, scale_chart_constant(scaled, 0.7),
            scale_chart_pointwise(polar, lambda x: 1.0 + 0.1 * x[1] ** 2))
    x0, v0 = [1.2, 0.3], [0.2, 0.5]
    together = geodesic_integrate_many(arms, x0, v0, steps=100)
    for arm, path in zip(arms, together):
        assert _same_bytes(path, geodesic_integrate(arm, x0, v0, steps=100))
    # the scale of a scale is b * (a * g), as an opaque metric function computes it
    opaque = Chart("opaque", 2, polar.lower, polar.upper,
                   lambda X: 0.7 * (3.0 * polar.metric_fn(X)))
    assert _same_bytes(together[3], geodesic_integrate(opaque, x0, v0, steps=100))


def test_metric_sees_each_center_point_bit_for_bit():
    seen = []

    def metric(X):
        seen.append(X.copy())
        return np.tile(np.eye(2), (len(X), 1, 1))

    x = np.array([-0.0, 0.5])  # the sign of the zero survives the stencil
    christoffel_at(Chart("flat", 2, [-1.0, -1.0], [1.0, 1.0], metric), x)
    assert seen[0][0].tobytes() == x.tobytes()


def test_semidefinite_metric_is_rejected_naming_its_chart_and_row():
    semidefinite = Chart("semidef", 2, [-1.0, -1.0], [1.0, 1.0], constant_metric(np.diag([1.0, 0.0])))
    with pytest.raises(InvalidChartError, match=r"semidef at \[0.5 0. \] is not positive definite"):
        metric_at(semidefinite, [0.5, 0.0])
    with pytest.raises(InvalidChartError, match="semidef at .* is not positive definite"):
        geodesic_integrate_many((polar_chart(), semidefinite), [0.5, 0.0], [0.1, 0.1], steps=5)

    def flat_at_zero(X):  # g = diag(1, x0^2): semidefinite where x0 = 0
        G = np.zeros((len(X), 2, 2))
        G[:, 0, 0] = 1.0
        G[:, 1, 1] = X[:, 0] ** 2
        return G

    degenerate = Chart("degenerate", 2, [-1.0, -1.0], [1.0, 1.0], flat_at_zero)
    with pytest.raises(InvalidChartError, match=r"degenerate at \[0\. +0\.5\] is not positive definite"):
        chart_curve_length(degenerate, [0.0, 0.5, 1.0], [[-0.5, 0.5], [0.0, 0.5], [0.5, 0.5]])


def test_lockstep_with_per_arm_starts_matches_single_runs():
    # the 12 arms of the verify suite: each built-in chart, base and scaled, from its own start
    arms, starts = [], []
    for chart, x0, v0 in GEODESIC_CASES:
        arms += [chart, *(scale_chart_constant(chart, lam) for lam in INVARIANT_SCALES)]
        starts += [(x0, v0)] * (1 + len(INVARIANT_SCALES))
    x0s, v0s = np.array(starts).transpose(1, 0, 2)
    together = geodesic_integrate_many(arms, x0s, v0s, steps=250)
    assert len(together) == 12
    for arm, x0, v0, path in zip(arms, x0s, v0s, together):
        assert _same_bytes(path, geodesic_integrate(arm, x0, v0, steps=250))


def test_lockstep_rerun_uses_each_arms_own_start():
    # radial lines r = 3 + t and r = 3.5 + t: the second arm leaves r <= 3.8 near t = 0.3
    box = _polar_box("box", 3.8)
    with pytest.raises(PartialPathError) as alone:
        geodesic_integrate(box, [3.5, 0.0], [1.0, 0.0], steps=100)
    with pytest.raises(PartialPathError) as together:
        geodesic_integrate_many((_polar_box("wide", 10.0), box), [[3.0, 0.0], [3.5, 0.0]],
                                [1.0, 0.0], steps=100)
    assert str(together.value) == str(alone.value)
    assert _same_bytes(together.value.partial_path, alone.value.partial_path)


def test_lockstep_rejects_mismatched_or_missing_charts():
    with pytest.raises(ContractViolationError):
        geodesic_integrate_many((), [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ContractViolationError):
        geodesic_integrate_many((euclidean_chart(2), euclidean_chart(3)), [0.0, 0.0], [1.0, 0.0])


# ---------------------------------------------------------------------------
# lockstep blocks: checks deferred to a block's end, a failing block redone
# stage by stage
# ---------------------------------------------------------------------------

PROBE_STEPS = 130  # two blocks of 64 steps and a remainder of 2


def _path_bytes(path):
    return tuple(a.tobytes() for a in (path.times, path.positions, path.velocities))


def _outcome(run):
    """The paths ``run()`` returns, or the type, message and partial path
    of what it raises, as values that are equal when two runs agree."""
    try:
        paths = run()
    except Exception as exc:
        partial = getattr(exc, "partial_path", None)
        return type(exc), str(exc), None if partial is None else _path_bytes(partial)
    return tuple(_path_bytes(p) for p in paths)


def _alike_for_every_block_size(monkeypatch, run, steps):
    """``run``'s one outcome under blocks of 1, 3, 64 and ``steps`` steps."""
    outcomes = []
    for size in (1, 3, 64, steps):
        monkeypatch.setattr(charts_module, "_BLOCK_STEPS", size)
        outcomes.append(_outcome(run))
    assert all(o == outcomes[0] for o in outcomes)
    return outcomes[0]


def _faulty_chart(fault, step):
    """A flat chart named "probe" whose metric goes wrong, as ``fault``
    says, at every center with x0 a quarter of a step or more into
    ``step`` of the line ``x = (t, 0)`` over ``PROBE_STEPS`` steps, and
    at that center's stencil points."""
    threshold = (step + 0.25) / PROBE_STEPS

    def metric(X):
        groups = X.reshape(-1, 5, 2)  # each center, then its 4 stencil points
        G = np.tile(np.eye(2), (len(X), 1, 1)).reshape(-1, 5, 2, 2)
        bad = groups[:, 0, 0] >= threshold
        if not bad.any():
            return G.reshape(-1, 2, 2)
        message = f"probe fails at {groups[bad][0, 0]}"
        if fault == "non-finite":
            G[bad, :, 1, 1] = np.nan
        elif fault == "asymmetric":
            G[bad, :, 0, 1] = 1e-6
        elif fault == "indefinite":
            G[bad, :, 1, 1] = -1.0
        elif fault == "connection":  # a symmetric center, asymmetric x0 neighbours
            G[bad, 1, 0, 1], G[bad, 3, 0, 1] = 1e-9, -1e-9
        elif fault == "overflow":  # the x0 difference of g_00 overflows
            G[bad, 1, 0, 0], G[bad, 3, 0, 0] = 1e308, -1e308
        elif fault == "subnormal":  # a valid metric whose inverse overflows
            G[bad] *= 1e-310
        else:
            raise fault(message)
        return G.reshape(-1, 2, 2)

    return Chart("probe", 2, [-10.0, -10.0], [10.0, 10.0], metric)


def _probe_run(fault, step):
    # a flat arm in front, so the lockstep run and its one-arm reruns both take part
    arms = (euclidean_chart(2), _faulty_chart(fault, step))
    return lambda: geodesic_integrate_many(arms, [0.0, 0.0], [1.0, 0.0], steps=PROBE_STEPS)


@pytest.mark.parametrize("step", [0, 40, 63, PROBE_STEPS - 1],
                         ids=["first-step", "mid-block", "block-end", "run-end"])
@pytest.mark.parametrize("fault, error, message", [
    ("non-finite", InvalidChartError, "metric of probe at {x} has non-finite entries"),
    ("asymmetric", InvalidChartError, "metric of probe at {x} is not symmetric"),
    ("indefinite", InvalidChartError, "metric of probe at {x} is not positive definite"),
    ("connection", InternalConsistencyError,
     "connection coefficients of probe at {x} asymmetric by 5.000e-05"),
    ("subnormal", PartialPathError,
     "geodesic on probe stopped near t={t}: inverse metric of probe at {x} has non-finite entries"),
    (DomainError, PartialPathError, "geodesic on probe stopped near t={t}: probe fails at {x}"),
    (InvalidChartError, InvalidChartError, "probe fails at {x}"),
    (ValueError, ValueError, "probe fails at {x}"),
], ids=["non-finite", "asymmetric", "indefinite", "connection", "inverse-overflow",
        "raises-DomainError", "raises-GeometryError", "raises-ValueError"])
def test_a_failing_step_gives_one_outcome_for_every_block_size(
    monkeypatch, step, fault, error, message
):
    kind, text, partial = _alike_for_every_block_size(
        monkeypatch, _probe_run(fault, step), PROBE_STEPS
    )
    # the second stage of ``step``, at its middle, is the first to fail
    x = np.array([(step + 0.5) / PROBE_STEPS, 0.0])
    assert kind is error
    assert text == message.format(x=x, t=f"{step * (1.0 / PROBE_STEPS):.6g}")
    if kind is PartialPathError:
        assert len(np.frombuffer(partial[0])) == step + 1


def test_a_run_that_is_not_a_whole_number_of_blocks_matches_stage_by_stage(monkeypatch):
    arms, starts = [], []
    for chart, x0, v0 in GEODESIC_CASES:
        arms += [chart, *(scale_chart_constant(chart, lam) for lam in INVARIANT_SCALES)]
        starts += [(x0, v0)] * (1 + len(INVARIANT_SCALES))
    x0s, v0s = np.array(starts).transpose(1, 0, 2)
    paths = _alike_for_every_block_size(
        monkeypatch, lambda: geodesic_integrate_many(arms, x0s, v0s, steps=PROBE_STEPS),
        PROBE_STEPS,
    )
    # the reference: every RK4 step made on its own, with every check on its stage
    plan, box = charts_module._plan(arms), charts_module._stencil_box(arms)
    states = [(x0s, v0s)]
    for _ in range(PROBE_STEPS):
        states.append(charts_module._rk4_step(arms, plan, box, *states[-1], 1.0 / PROBE_STEPS))
    positions, velocities = np.array(states).transpose(1, 0, 2, 3)
    for a, (_, got_positions, got_velocities) in enumerate(paths):
        assert got_positions == positions[:, a].tobytes()
        assert got_velocities == velocities[:, a].tobytes()


@pytest.mark.parametrize("v0, r_max, steps, stop", [
    # the radial line r = 3 + t leaves r <= 3.8 in the second block of 64 steps
    ([1.0, 0.0], 3.8, 100, "near t=0.79"),
    ([1.0, 0.0], 10.0, 100, None),
    # on the tangent line r = 3 sqrt(1 + t^2) the last stage, at r = 4.2409, stays in
    # the box; only the end of the last step, at r = 4.2425, leaves it
    ([0.0, 1.0], 4.2417 + 1e-5, 5, "at t=1"),
], ids=["leaves-mid-block", "stays-inside", "leaves-at-the-last-step"])
def test_no_metric_call_sees_a_point_outside_its_box(monkeypatch, v0, r_max, steps, stop):
    seen, polar = [], polar_chart().metric_fn

    def metric(X):
        seen.append(X.copy())
        return polar(X)

    box = Chart("box", 2, [0.1, -math.pi], [r_max, math.pi], metric)
    outcome = _alike_for_every_block_size(
        monkeypatch, lambda: geodesic_integrate_many((box,), [3.0, 0.0], v0, steps=steps), steps
    )
    if stop is None:
        assert len(outcome) == 1
    else:
        assert outcome[0] is PartialPathError
        assert outcome[1].startswith(f"geodesic left the domain of box {stop}")
    rows = np.concatenate(seen)
    assert ((rows >= box.lower) & (rows <= box.upper)).all()


@pytest.mark.parametrize("regime, error, message, warned", [
    ("warnings-error", RuntimeWarning, "overflow encountered in subtract", 0),
    ("raise", FloatingPointError, "overflow encountered in subtract", 0),
    ("ignore", InternalConsistencyError, r"connection coefficients of probe .* by nan", 0),
    # the lockstep run and the probe's rerun on its own each warn twice
    ("warn", InternalConsistencyError, r"connection coefficients of probe .* by nan", 2),
])
def test_a_stage_overflow_is_alike_for_every_block_size(
    monkeypatch, regime, error, message, warned
):
    run, recorded = _probe_run("overflow", 40), []

    def in_regime():
        errstate = contextlib.nullcontext() if regime == "warnings-error" else np.errstate(all=regime)
        with warnings.catch_warnings(record=True) as caught, errstate:
            warnings.simplefilter("error" if regime == "warnings-error" else "always")
            try:
                return run()
            finally:
                recorded.append([str(w.message) for w in caught])

    kind, text, _ = _alike_for_every_block_size(monkeypatch, in_regime, PROBE_STEPS)
    assert kind is error
    assert re.fullmatch(message, text)
    # each warning once, as a stage-by-stage run gives it
    pair = ["overflow encountered in subtract", "invalid value encountered in subtract"]
    assert recorded == [pair * warned] * 4


# A metric that Cholesky rejects but that is positive definite: its smallest
# eigenvalue is 5.6e-17 > 0, so a stage's check accepts it
G0 = np.array([[3.67156589071382, -1.1616639570428582],
               [-1.1616639570428582, 0.36754430922935477]])


def test_a_metric_cholesky_rejects_but_the_stage_accepts_costs_no_redone_block(monkeypatch):
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(G0)
    assert np.linalg.eigvalsh(G0)[0] > 0.0
    calls = []

    def metric(X):
        calls.append(len(X))
        return np.tile(G0, (len(X), 1, 1))

    chart = Chart("g0", 2, [-10.0, -10.0], [10.0, 10.0], metric)
    paths = []
    for size in (1, 3, 64):
        monkeypatch.setattr(charts_module, "_BLOCK_STEPS", size)
        calls.clear()
        paths.append(_path_bytes(geodesic_integrate(chart, [0.0, 0.0], [0.5, -0.3])))
        assert len(calls) == 4 * charts_module.DEFAULT_STEPS  # no block was redone
    assert paths[0] == paths[1] == paths[2]


def _ulps(x: float, k: int) -> float:
    return x + k * np.spacing(x)


def _stages_accept(charts, box, X, metrics, coefficients, positions) -> bool:
    """Whether the checks of a stage-by-stage run accept stored stages:
    ``_validated`` on each stage's metrics, the coefficients' symmetry
    test (``ChristoffelField`` makes the one ``_connection`` makes) on
    each arm of each stage, and ``_first_outside`` on each step's end."""
    try:
        for G, gamma in zip(metrics, coefficients):
            charts_module._validated(charts, X, G)
            for x, symbols in zip(X, gamma):
                ChristoffelField(x, symbols)
    except GeometryError:
        return False
    return all(charts_module._first_outside(box, P) is None for P in positions)


METRIC_TOL = charts_module.METRIC_SYMMETRY_TOL
COEFFICIENT_TOL = charts_module.CHRISTOFFEL_SYMMETRY_TOL


BLOCK_CHARTS = (polar_chart(), sphere_chart())
BLOCK_BOX = charts_module._stencil_box(BLOCK_CHARTS)
EDGE = BLOCK_BOX[1][1, 0]  # the largest x0 of arm 1 whose stencil stays in its box


# Each fault is set in stage 5 of 8, arm 1 of 2, or in the end of step 1 of 2.
@pytest.mark.parametrize("stored, index, value, accepted", [
    ("metrics", (), None, True),
    ("metrics", (5, 1, 1, 1), math.nan, False),
    ("metrics", (5, 1, 0, 1), _ulps(METRIC_TOL, -3), True),
    ("metrics", (5, 1, 0, 1), METRIC_TOL, True),
    ("metrics", (5, 1, 0, 1), _ulps(METRIC_TOL, 3), False),
    ("metrics", (5, 1), np.diag([1.0, -1.0]), False),
    ("metrics", (5, 1), G0, True),
    ("coefficients", (5, 1, 1, 0, 1), _ulps(COEFFICIENT_TOL, -3), True),
    ("coefficients", (5, 1, 1, 0, 1), COEFFICIENT_TOL, True),
    ("coefficients", (5, 1, 1, 0, 1), _ulps(COEFFICIENT_TOL, 3), False),
    ("positions", (1, 1, 0), EDGE, True),
    ("positions", (1, 1, 0), _ulps(EDGE, 1), False),
], ids=["valid", "non-finite-metric", "metric-asymmetric-below", "metric-asymmetric-at",
        "metric-asymmetric-above", "indefinite-metric", "cholesky-rejects-G0",
        "coefficients-asymmetric-below", "coefficients-asymmetric-at",
        "coefficients-asymmetric-above", "position-on-the-box", "position-outside-the-box"])
def test_a_block_passes_exactly_when_its_stages_checks_accept(stored, index, value, accepted):
    X = np.array([[3.0, 0.0], [1.2, 0.3]])
    arrays = {
        "metrics": np.tile(np.eye(2), (8, 2, 1, 1)),
        "coefficients": np.zeros((8, 2, 2, 2, 2)),
        "positions": np.tile(X, (2, 1, 1)),
    }
    if value is not None:
        arrays[stored][index] = value
    block = charts_module._Block(2, 2, 2)
    for G, gamma in zip(arrays["metrics"], arrays["coefficients"]):
        block.store(G, gamma)
    assert _stages_accept(BLOCK_CHARTS, BLOCK_BOX, X, *arrays.values()) is accepted
    assert block.passes(BLOCK_BOX, arrays["positions"]) is accepted


START = ([3.0, 0.0], [0.5, 0.2])


@pytest.mark.parametrize("call", [
    pytest.param(lambda c: geodesic_integrate(c, [math.nan, 0.0], START[1]), id="x0-nan"),
    pytest.param(lambda c: geodesic_integrate(c, START[0], [math.inf, 0.0]), id="v0-inf"),
    pytest.param(lambda c: geodesic_integrate_many((c, c), [START[0]] * 3, START[1]),
                 id="x0-rows-mismatch"),
    pytest.param(lambda c: geodesic_integrate_many((c, c), START[0], [START[1], [0.1, math.nan]]),
                 id="v0-nan-row"),
    pytest.param(lambda c: coordinate_speed(c, START[0], [math.nan, 0.0]), id="speed-nan-velocity"),
    pytest.param(lambda c: geodesic_integrate(c, *START, steps=True), id="steps-bool"),
    pytest.param(lambda c: geodesic_integrate(c, *START, steps=2.5), id="steps-float"),
    pytest.param(lambda c: geodesic_integrate(c, *START, steps=0), id="steps-zero"),
    pytest.param(lambda c: geodesic_residual(c, geodesic_integrate(euclidean_chart(3), [0.0] * 3,
                                                                    [0.1] * 3, steps=4)),
                 id="residual-dimension-mismatch"),
    pytest.param(lambda c: geodesic_residual(c, GeodesicPath([0.0, 0.5, 1.0], [[0.0, 0.0]] * 3,
                                                             [[math.nan, 0.0]] * 3)),
                 id="residual-nan-velocities"),
    pytest.param(lambda c: metric_at(c, "ab"), id="metric-text-point"),
    pytest.param(lambda c: metric_at(c, [math.nan, 0.0]), id="metric-nan-point"),
    pytest.param(lambda c: christoffel_at(c, [3.0, math.inf]), id="christoffel-inf-point"),
    pytest.param(lambda c: geodesic_integrate(c, [[3.0, 0.0], [3.0]], START[1]), id="x0-ragged"),
    pytest.param(lambda c: coordinate_speed(c, START[0], ["x", 1.0]), id="speed-text-velocity"),
    pytest.param(lambda c: chart_curve_length(c, [0.0, 1.0], [[3.0, 0.0], [4.0]]),
                 id="curve-ragged-points"),
    pytest.param(lambda c: chart_curve_length(c, ["a", "b"], [[3.0, 0.0], [4.0, 0.0]]),
                 id="curve-text-times"),
    pytest.param(lambda c: chart_curve_length(c, [0.0, 1.0], [[3.0, 0.0], [math.nan, 0.0]]),
                 id="curve-nan-points"),
    pytest.param(lambda c: spherical_to_ambient([1.0, 2.0, 3.0]), id="spherical-three-coords"),
    pytest.param(lambda c: spherical_to_ambient([math.nan, 0.0]), id="spherical-nan-coords"),
    pytest.param(lambda c: euclidean_chart(-1), id="euclidean-chart-negative"),
    pytest.param(lambda c: euclidean_chart(2.5), id="euclidean-chart-float"),
    pytest.param(lambda c: ChristoffelField([3.0, 0.0], np.zeros((2, 2))),
                 id="christoffel-field-shape"),
    pytest.param(lambda c: GeodesicPath([0.0, 1.0], [3.0, 4.0], [1.0, 1.0]),
                 id="path-one-dimensional-positions"),
    pytest.param(lambda c: GeodesicPath(["a", "b"], [[3.0, 0.0]] * 2, [[1.0, 0.0]] * 2),
                 id="path-text-times"),
])
def test_bad_chart_arguments_are_rejected_before_any_evaluation(call):
    chart, calls = counted_chart("counted", 2, half_width=9.0)
    with pytest.raises(ContractViolationError):
        call(chart)
    assert calls == []


# ---------------------------------------------------------------------------
# volume densities
# ---------------------------------------------------------------------------


def test_volume_density_examples():
    assert volume_density(euclidean_chart(2), [0.3, -0.7]) == pytest.approx(1.0)
    assert volume_density(polar_chart(), [3.0, 0.5]) == pytest.approx(3.0, rel=1e-14)
    assert volume_density(sphere_chart(), [math.pi / 6, 0.0]) == pytest.approx(
        0.5, rel=1e-14
    )


def _error_of(call):
    """The type and message of what ``call()`` raises."""
    with pytest.raises(GeometryError) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("chart", [
    euclidean_chart(2), polar_chart(), sphere_chart(),
    scale_chart_constant(sphere_chart(), 4.0), scale_chart_constant(polar_chart(), 0.25),
], ids=["euclidean", "polar", "sphere", "sphere-scaled", "polar-scaled"])
def test_stacked_chart_helpers_give_each_single_call_bit_for_bit(chart):
    rng = np.random.default_rng(19)
    margin = 0.05 * (chart.upper - chart.lower)
    X = rng.uniform(chart.lower + margin, chart.upper - margin, (20, chart.dimension))
    symbols = np.stack([christoffel_at(chart, x).symbols for x in X])
    densities = np.array([volume_density(chart, x) for x in X])
    assert charts_module._connections(chart, X).tobytes() == symbols.tobytes()
    assert charts_module._densities(chart, X).tobytes() == densities.tobytes()


def test_stacked_chart_helpers_raise_the_error_of_their_first_failing_row():
    polar = polar_chart()
    inside, near_edge, outside = [3.0, 0.0], [0.1 + 1e-6, 0.0], [0.05, 0.0]
    for rows in ([inside, near_edge, outside], [inside, outside, near_edge]):
        X = np.array(rows)
        first = X[1]
        assert _error_of(lambda: charts_module._connections(polar, X)) == _error_of(
            lambda: christoffel_at(polar, first)
        )
        if first[0] < polar.lower[0]:  # only the stencil of the other one leaves the box
            assert _error_of(lambda: charts_module._densities(polar, X)) == _error_of(
                lambda: volume_density(polar, first)
            )
    # a metric that is not positive definite, and one whose inverse overflows
    flat = scale_chart_pointwise(euclidean_chart(2), lambda x: 1.0 if x[0] < 1.0 else -1.0)
    tiny = scale_chart_constant(polar, 1e-310)
    for chart, X in ((flat, np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 0.0]])),
                     (tiny, np.array([[3.0, 0.0], [4.0, 0.0]]))):
        assert _error_of(lambda: charts_module._connections(chart, X)) == _error_of(
            lambda: christoffel_at(chart, X[1] if chart is flat else X[0])
        )
    # densities past the range: sqrt(det) is 1e154 r, whose det overflows past r = 1.34
    huge = scale_chart_constant(polar, 1e154)
    X = np.array([[1.0, 0.0], [3.0, 0.0], [5.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert charts_module._densities(huge, X[:1]).tolist() == [volume_density(huge, X[0])]
        error = _error_of(lambda: charts_module._densities(huge, X))
    assert error == _error_of(lambda: volume_density(huge, X[1]))
    assert error == (
        DomainError, "volume density of polar|scale=1e+154 at [3. 0.] is inf, not finite"
    )


def test_first_outside_is_the_first_row_outside_its_box():
    rng = np.random.default_rng(23)
    lower, upper = np.array([0.1, -np.pi]), np.array([10.0, np.pi])
    stacked = (rng.uniform(0.0, 1.0, (9, 2)), rng.uniform(5.0, 11.0, (9, 2)))
    for box in ((lower, upper), stacked):
        for _ in range(200):
            # each row the box's midpoint, or with odds 1 in 10 a random row
            mid = np.broadcast_to((box[0] + box[1]) / 2.0, (9, 2))
            X = np.where(rng.random((9, 1)) < 0.1, rng.uniform(-1.0, 12.0, (9, 2)), mid)
            if rng.random() < 0.2:
                X[rng.integers(9), rng.integers(2)] = math.nan
            inside = ((X >= box[0]) & (X <= box[1])).all(axis=1)
            expected = None if inside.all() else int(np.flatnonzero(~inside)[0])
            assert charts_module._first_outside(box, X) == expected


def test_stacked_box_tests_name_the_first_row_that_fails_them():
    polar = polar_chart()
    FD_STEP = charts_module.FD_STEP
    X = np.tile([3.0, 0.0], (7, 1))
    X[2, 0] = polar.lower[0] + FD_STEP / 2.0  # both within FD_STEP of the boundary
    X[5, 1] = polar.upper[1] - FD_STEP / 4.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        error = _error_of(lambda: charts_module._connections(polar, X))
        assert error == _error_of(lambda: christoffel_at(polar, X[2]))
        assert issubclass(error[0], DomainError)
        assert error[1].startswith(f"{X[2]} is within {FD_STEP} of the boundary of polar")
        assert charts_module._densities(polar, X).tobytes() == np.array(
            [volume_density(polar, x) for x in X]
        ).tobytes()  # within the box itself, the densities pass
        X[3, 0], X[6, 0] = polar.upper[0] + 1.0, polar.lower[0] / 2.0
        error = _error_of(lambda: charts_module._densities(polar, X))
    assert error == _error_of(lambda: volume_density(polar, X[3]))
    assert error == (DomainError, f"{X[3]} is outside the domain of polar")


def test_stacked_spherical_rows_are_each_single_conversion_bit_for_bit():
    rng = np.random.default_rng(29)
    chart = sphere_chart()
    X = np.concatenate((
        rng.uniform(chart.lower, chart.upper, (1000, 2)),
        rng.uniform(-10.0, 10.0, (500, 2)),
        [[0.0, 0.0], [-0.0, -0.0], [math.pi / 2, math.pi], [math.pi, -math.pi]],
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = charts_module._spherical_rows(X)
        singles = np.array([spherical_to_ambient(x) for x in X])
    assert rows.shape == (len(X), 3) and rows.dtype == np.float64
    assert rows.tobytes() == singles.tobytes()


def test_overflowing_chart_results_raise_a_domain_error_without_a_warning():
    huge = scale_chart_constant(euclidean_chart(2), 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="speed of .* on polar is inf, not finite"):
            coordinate_speed(polar_chart(), [3.0, 0.0], [1e200, 0.0])
        with pytest.raises(DomainError, match="volume density of .* is inf, not finite"):
            volume_density(huge, [0.0, 0.0])
        with pytest.raises(DomainError, match="length of the curve .* is inf, not finite"):
            chart_curve_length(huge, [0.0, 1e-10], [[0.0, 0.0], [5.0, 0.0]])
        # a valid but tiny metric whose inverse overflows: a domain limit, not a bad chart
        tiny = scale_chart_constant(sphere_chart(), 1e-310)
        inverse = r"inverse metric of sphere-chart\|scale=1e-310 at \[1\. 0\.\] has non-finite entries"
        with pytest.raises(DomainError, match=f"^{inverse}$"):
            christoffel_at(tiny, [1.0, 0.0])
        with pytest.raises(PartialPathError, match=f"near t=0: {inverse}$") as excinfo:
            geodesic_integrate(tiny, [1.0, 0.0], [0.2, 0.5], steps=50)
        assert len(excinfo.value.partial_path.times) == 1
        # finite results keep their arithmetic
        large = scale_chart_constant(euclidean_chart(2), 1e150)
        g = metric_at(large, [0.0, 0.0])
        assert volume_density(large, [0.0, 0.0]) == float(np.sqrt(np.linalg.det(g)))
        assert coordinate_speed(polar_chart(), [3.0, 0.0], [1e100, 0.0]) == 1e100


# ---------------------------------------------------------------------------
# constant chart scaling: measured quantities move, the connection does not
# ---------------------------------------------------------------------------


def test_scale_chart_constant_examples():
    polar = polar_chart()
    assert_allclose(
        metric_at(scale_chart_constant(polar, 1.0), [2.0, 0.0]),
        metric_at(polar, [2.0, 0.0]),
    )
    scaled_euclid = scale_chart_constant(euclidean_chart(2), 4.0)
    assert_allclose(metric_at(scaled_euclid, [0.1, 0.2]), 4.0 * np.eye(2))
    assert volume_density(scale_chart_constant(polar, 4.0), [3.0, 0.0]) == pytest.approx(
        12.0, rel=1e-14
    )


def test_connection_is_invariant_under_constant_scaling(rng):
    for chart in (euclidean_chart(2), polar_chart(), sphere_chart()):
        margin = 0.05 * (chart.upper - chart.lower)
        points = rng.uniform(chart.lower + margin, chart.upper - margin, (20, 2))
        for lam in INVARIANT_SCALES:
            scaled = scale_chart_constant(chart, lam)
            for x in points:
                delta = christoffel_at(scaled, x).symbols - christoffel_at(chart, x).symbols
                assert float(np.max(np.abs(delta))) <= 1e-6


def test_geodesics_are_invariant_under_constant_scaling():
    for chart, x0, v0 in GEODESIC_CASES:
        base = geodesic_integrate(chart, x0, v0, steps=1000)
        for lam in INVARIANT_SCALES:
            scaled = geodesic_integrate(scale_chart_constant(chart, lam), x0, v0, steps=1000)
            assert float(np.max(np.abs(scaled.positions - base.positions))) <= 1e-8


def test_volume_density_scales_by_half_dimension_power(rng):
    for chart in (euclidean_chart(2), polar_chart(), sphere_chart()):
        margin = 0.05 * (chart.upper - chart.lower)
        points = rng.uniform(chart.lower + margin, chart.upper - margin, (20, 2))
        for lam in (0.25, 1.0, 4.0, 10.0):
            scaled = scale_chart_constant(chart, lam)
            for x in points:
                ratio = volume_density(scaled, x) / volume_density(chart, x)
                assert ratio == pytest.approx(lam, rel=1e-10)  # n = 2


def test_curve_length_scales_by_root(rng):
    times = np.linspace(0.0, 1.0, 101)
    for chart in (euclidean_chart(2), polar_chart(), sphere_chart()):
        margin = 0.1 * (chart.upper - chart.lower)
        a, b = rng.uniform(chart.lower + margin, chart.upper - margin, (2, 2))
        points = a + times[:, None] * (b - a)
        base = chart_curve_length(chart, times, points)
        for lam in (0.25, 1.0, 4.0, 10.0):
            scaled = chart_curve_length(scale_chart_constant(chart, lam), times, points)
            assert scaled == pytest.approx(math.sqrt(lam) * base, rel=1e-10)


# ---------------------------------------------------------------------------
# pointwise scaling: the negative check
# ---------------------------------------------------------------------------


def test_pointwise_constant_factor_matches_constant_scaling():
    chart = polar_chart()
    pointwise = scale_chart_pointwise(chart, lambda x: 2.5)
    constant = scale_chart_constant(chart, 2.5)
    x = np.array([2.0, 0.7])
    assert_allclose(metric_at(pointwise, x), metric_at(constant, x))


def test_pointwise_exponential_factor_changes_connection():
    chart = euclidean_chart(2)
    scaled = scale_chart_pointwise(chart, lambda x: math.exp(2.0 * x[0]))
    origin = np.zeros(2)
    base = christoffel_at(chart, origin).symbols
    got = christoffel_at(scaled, origin).symbols
    assert float(np.max(np.abs(got - base))) >= 0.5
    assert_allclose(got, conformal_christoffel_oracle(), atol=1e-6)


def test_pointwise_trivial_factor_keeps_connection_flat():
    chart = euclidean_chart(2)
    scaled = scale_chart_pointwise(chart, lambda x: 1.0 + 0.0 * x[0])
    assert_allclose(christoffel_at(scaled, [0.3, -0.4]).symbols, 0.0, atol=1e-12)


def test_pointwise_nonpositive_factor_raises():
    chart = euclidean_chart(2)
    scaled = scale_chart_pointwise(chart, lambda x: x[0])  # zero at the origin
    with pytest.raises(InvalidChartError):
        metric_at(scaled, [0.0, 0.0])


# ---------------------------------------------------------------------------
# sampled coordinate curves
# ---------------------------------------------------------------------------


def test_chart_curve_length_constant_path():
    times = np.linspace(0.0, 1.0, 5)
    points = np.tile([1.0, 2.0], (5, 1))
    assert chart_curve_length(euclidean_chart(2), times, points) == 0.0


def test_chart_curve_length_straight_segment():
    times = np.linspace(0.0, 1.0, 101)
    points = np.array([0.0, 0.0]) + times[:, None] * np.array([3.0, 4.0])
    length = chart_curve_length(euclidean_chart(2), times, points)
    assert length == pytest.approx(5.0, abs=1e-10)


def test_chart_curve_length_polar_arc():
    times = np.linspace(0.0, 1.0, 1001)
    points = np.column_stack([np.full_like(times, 2.0), times * (math.pi / 2)])
    length = chart_curve_length(polar_chart(), times, points)
    assert length == pytest.approx(math.pi, abs=1e-4)


def test_chart_curve_length_validation():
    chart = euclidean_chart(2)
    with pytest.raises(ContractViolationError):
        chart_curve_length(chart, [0.0], [[0.0, 0.0]])
    with pytest.raises(DomainError):
        chart_curve_length(chart, [0.0, 1.0], [[0.0, 0.0], [20.0, 0.0]])
    segment = [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]
    for times in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [np.nan, 0.5, 1.0]):
        with pytest.raises(ContractViolationError):
            chart_curve_length(chart, times, segment)


# ---------------------------------------------------------------------------
# consistency with the closed-form sphere, registry, serialization
# ---------------------------------------------------------------------------


def test_equator_geodesic_matches_closed_form_sphere():
    # speed 2.5 over unit time is the unit-speed geodesic to the horizon 2.5
    speeds = (1.0, 2.5)
    paths = geodesic_integrate_many(
        (sphere_chart(),) * len(speeds), [math.pi / 2, 0.0], [[0.0, s] for s in speeds]
    )
    sphere = Sphere(2)
    for speed, path in zip(speeds, paths):
        start = spherical_to_ambient(path.positions[0])
        velocity = np.array([0.0, speed, 0.0])
        for t, x in zip(path.times[::100], path.positions[::100]):
            ambient = spherical_to_ambient(x)
            reference = sphere.exp(start, t * velocity)
            assert float(np.max(np.abs(ambient - reference))) <= 1e-6


# The coordinates (a, b, c) of P = [[a, b], [b, c]] on the SPD(2) cone, with
# the affine-invariant metric g_ij = tr(P^-1 E_i P^-1 E_j).  Unlike the
# built-in charts, its metric is dense, so a connection that inverts only
# the diagonal of the metric misses its off-diagonal terms.
_SPD_BASIS = np.array([[[1.0, 0.0], [0.0, 0.0]],
                       [[0.0, 1.0], [1.0, 0.0]],
                       [[0.0, 0.0], [0.0, 1.0]]])


def _spd_matrices(X):
    return np.einsum("ni,ijk->njk", X, _SPD_BASIS)


def _spd_coordinates(P):
    return np.stack([P[..., 0, 0], P[..., 0, 1], P[..., 1, 1]], axis=-1)


def _spd_coordinate_chart():
    def metric(X):
        A = np.linalg.inv(_spd_matrices(X))[:, None] @ _SPD_BASIS  # P^-1 E_i
        return np.einsum("nimk,njkm->nij", A, A)

    # det P >= 0.3 * 0.3 - 0.25 ** 2 = 0.0275 on the box
    return Chart("spd-coordinates", 3, [0.3, -0.25, 0.3], [3.0, 0.25, 3.0], metric)


def test_dense_spd_chart_connection_matches_the_closed_form(rng):
    # Gamma(V, W) = -(V P^-1 W + W P^-1 V) / 2 (Pennec, Fillard & Ayache,
    # IJCV 2006), so symbols[k, i, j] is coordinate k of Gamma(E_i, E_j)
    chart = _spd_coordinate_chart()
    worst = 0.0
    for x in rng.uniform(chart.lower + 0.01, chart.upper - 0.01, (50, 3)):
        pinv = np.linalg.inv(_spd_matrices(x[None])[0])
        product = _SPD_BASIS[:, None] @ pinv @ _SPD_BASIS[None]  # E_i P^-1 E_j
        oracle = _spd_coordinates(-(product + product.transpose(1, 0, 2, 3)) / 2)
        got = christoffel_at(chart, x).symbols
        worst = max(worst, float(np.max(np.abs(got - oracle.transpose(2, 0, 1)))))
    assert worst <= 1e-7


def test_dense_spd_chart_geodesic_matches_the_closed_form_exponential():
    velocity = np.array([[0.3, 0.2], [0.2, -0.1]])
    path = geodesic_integrate(
        _spd_coordinate_chart(), [1.0, 0.0, 1.0], _spd_coordinates(velocity), steps=100
    )
    spd = SymmetricPositiveDefinite(2)
    reference = _spd_coordinates(np.stack([spd.exp(np.eye(2), t * velocity) for t in path.times]))
    assert float(np.max(np.abs(path.positions - reference))) <= 1e-9


def test_chart_from_string():
    assert chart_from_string("polar").name == "polar"
    assert chart_from_string("sphere-chart").dimension == 2
    assert chart_from_string("euclidean:4").dimension == 4
    for bad in ("mercator", "euclidean:x", "euclidean:0"):
        with pytest.raises(ContractViolationError):
            chart_from_string(bad)


def test_geodesic_path_csv_round_trip():
    path = geodesic_integrate(polar_chart(), [1.0, 0.0], [1.0, 0.0], steps=10)
    lines = path.to_csv().strip().split("\n")
    assert lines[0] == "t,x0,x1,xdot0,xdot1"
    assert len(lines) == 12
    row = [float(cell) for cell in lines[-1].split(",")]
    assert row[0] == path.times[-1]
    assert row[1] == path.positions[-1, 0]
