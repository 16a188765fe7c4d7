"""Gradient descent, barycenter objectives, step-size equivalence, and
scale calibration."""

import math
import threading
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from riemscale import (
    ContractViolationError,
    DegenerateInputError,
    DomainError,
    Euclidean,
    PartialEquivalenceError,
    ManifoldPoint,
    Objective,
    OptimizerConfig,
    SampledCurve,
    ScaledManifold,
    Sphere,
    SymmetricPositiveDefinite,
    TangentVector,
    calibrate_scale,
    distance,
    equivalence_check,
    frechet_objective,
    joint_descent,
    norm,
    pairwise_distances,
    random_frechet_problem,
    riemannian_gd,
    riemannian_gd_many,
)
from riemscale import manifolds, optimize

E2 = Euclidean(2)
S2 = Sphere(2)


def _quadratic_objective(manifold):
    """f(x) = ||x||^2 / 2 on flat space; the gradient is the point itself."""

    def value_fn(x):
        return 0.5 * float(np.sum(x.coordinates**2))

    def gradient_fn(x):
        return TangentVector(x, np.array(x.coordinates))

    return Objective(value_fn, gradient_fn)


def _e(i):
    out = np.zeros(3)
    out[i] = 1.0
    return ManifoldPoint(S2, out)


# ---------------------------------------------------------------------------
# configuration and trace plumbing
# ---------------------------------------------------------------------------


def test_config_validation():
    for kwargs in (
        dict(step_size=0.0),
        dict(step_size=0.1, max_iters=0),
        dict(step_size=0.1, grad_tol=-1.0),
        dict(step_size="a"),
        dict(step_size=True),
        dict(step_size=0.1, grad_tol=math.nan),
        dict(step_size=0.1, max_iters=2.5),
        dict(step_size=0.1, max_iters=True),
        dict(step_size=0.1, max_iters=-10**5000),
    ):
        with pytest.raises(ContractViolationError):
            OptimizerConfig(**kwargs)
    with pytest.raises(ContractViolationError):
        riemannian_gd(S2, frechet_objective([_e(0)]), "abc", OptimizerConfig(0.1))


def test_trace_columns_have_equal_length_and_csv_schema():
    objective = _quadratic_objective(E2)
    x0 = ManifoldPoint(E2, np.array([4.0, 2.0]))
    trace = riemannian_gd(E2, objective, x0, OptimizerConfig(step_size=0.1, max_iters=5))
    assert len(trace.iterates) == len(trace.values) == len(trace.grad_norms)
    lines = trace.to_csv().strip().split("\n")
    assert lines[0] == "iter,f_value,grad_norm,coord_0,coord_1"
    assert len(lines) == len(trace) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[3]) == 4.0


def test_an_empty_trace_refuses_to_render_with_its_stop_reason():
    def gradient_fn(x):
        raise DomainError("no gradient here")

    objective = Objective(lambda x: 0.0, gradient_fn)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = riemannian_gd(S2, objective, _e(2), OptimizerConfig(step_size=0.1))
        assert len(trace) == 0 and trace.stop_reason == "error"
        for render in (trace.table, trace.to_csv):
            with pytest.raises(DomainError, match=r"stopped \(error\) before its first iterate"):
                render()


# ---------------------------------------------------------------------------
# descent behaviour
# ---------------------------------------------------------------------------


def test_stationary_start_converges_immediately():
    y = ManifoldPoint(S2, np.array([0.0, 0.0, 1.0]))
    trace = riemannian_gd(
        S2, frechet_objective([y]), y, OptimizerConfig(step_size=0.5)
    )
    assert trace.stop_reason == "converged"
    assert len(trace) == 1
    assert trace.values[0] == 0.0


def test_quadratic_with_unit_step_lands_on_minimum():
    objective = _quadratic_objective(E2)
    x0 = ManifoldPoint(E2, np.array([4.0, 2.0]))
    trace = riemannian_gd(E2, objective, x0, OptimizerConfig(step_size=1.0))
    assert trace.stop_reason == "converged"
    assert len(trace) == 2
    assert_allclose(trace.iterates[1].coordinates, 0.0, atol=0)


def test_sphere_two_point_mean_reaches_midpoint():
    objective = frechet_objective([_e(0), _e(1)])
    trace = riemannian_gd(
        S2, objective, _e(0), OptimizerConfig(step_size=0.5, max_iters=100)
    )
    target = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    assert trace.stop_reason == "converged"
    assert len(trace) <= 101
    assert float(np.max(np.abs(trace.iterates[-1].coordinates - target))) <= 1e-8


def test_max_iters_stop():
    objective = _quadratic_objective(E2)
    x0 = ManifoldPoint(E2, np.array([4.0, 2.0]))
    trace = riemannian_gd(E2, objective, x0, OptimizerConfig(step_size=0.1, max_iters=7))
    assert trace.stop_reason == "max_iters"
    assert len(trace) == 8  # start plus seven update steps


def test_domain_error_truncates_with_error_status():
    calls = {"n": 0}
    inner = frechet_objective([_e(0), _e(1)])

    def failing_gradient(x):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise DomainError("synthetic failure")
        return inner.gradient_fn(x)

    objective = Objective(inner.value_fn, failing_gradient)
    trace = riemannian_gd(
        S2, objective, _e(0), OptimizerConfig(step_size=0.5, max_iters=10)
    )
    assert trace.stop_reason == "error"
    assert len(trace) == 2


def _blowing_up(value, gradient):
    """The quadratic objective, except that inside the unit disc its value
    is ``value`` and its gradient is multiplied by ``gradient``."""
    quadratic = _quadratic_objective(E2)

    def inside(x):
        return float(np.linalg.norm(x.coordinates)) < 1.0

    def value_fn(x):
        return value if inside(x) else quadratic.value_fn(x)

    def gradient_fn(x):
        g = quadratic.gradient_fn(x).components
        return TangentVector(x, g * gradient if inside(x) else g)

    return Objective(value_fn, gradient_fn)


@pytest.mark.parametrize("value, gradient", [(math.inf, 1.0), (math.nan, 1.0), (1.0, 1e200)])
def test_a_non_finite_value_or_gradient_norm_stops_as_diverged(value, gradient):
    # each step halves the point: iterates 5, 2.5, 1.25, then 0.625 inside the disc
    objective = _blowing_up(value, gradient)
    x0 = ManifoldPoint(E2, [3.0, -4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for manifold, eta in ((E2, 0.5), (ScaledManifold(E2, 4.0), 2.0)):
            config = OptimizerConfig(step_size=eta, max_iters=10, grad_tol=0.0)
            trace = riemannian_gd(manifold, objective, x0, config)
            assert trace.stop_reason == "diverged"
            assert len(trace) == 3
            assert all(map(math.isfinite, trace.values + trace.grad_norms))
        with pytest.raises(PartialEquivalenceError, match="common prefix of 3 iterates"):
            equivalence_check(E2, objective, x0, eta=2.0, lam=4.0, iters=10)


def test_an_overflowing_frechet_gradient_stops_the_run_and_keeps_its_finite_iterates():
    # from 0 toward the mean 1 with step 1e308 the next iterate is 1e308:
    # its logarithms -1e308 and 2 - 1e308 are finite, their sum is not
    line = Euclidean(1)
    objective = frechet_objective([ManifoldPoint(line, [0.0]), ManifoldPoint(line, [2.0])])
    x0 = ManifoldPoint(line, [0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflowed distances and sum
        trace = riemannian_gd(line, objective, x0, OptimizerConfig(step_size=1e308))
        with pytest.raises(DomainError, match="sum of the logarithms overflowed"):
            objective.gradient_fn(ManifoldPoint(line, [1e308]))
    assert trace.stop_reason == "error"
    assert trace.iterates == (x0,)
    assert trace.values == (1.0,) and trace.grad_norms == (1.0,)


def test_scaled_run_uses_rescaled_gradient_and_scaled_norm():
    objective = _quadratic_objective(E2)
    x0 = ManifoldPoint(E2, np.array([4.0, 2.0]))
    lam = 4.0
    scaled = riemannian_gd(
        ScaledManifold(E2, lam), objective, x0,
        OptimizerConfig(step_size=0.4, max_iters=3, grad_tol=0.0),
    )
    base = riemannian_gd(
        E2, objective, x0, OptimizerConfig(step_size=0.1, max_iters=3, grad_tol=0.0)
    )
    for a, b in zip(scaled.iterates, base.iterates):
        assert_allclose(a.coordinates, b.coordinates, rtol=1e-14)
    # scaled norm of the rescaled gradient: ||g / lam|| * sqrt(lam)
    for gs, gb in zip(scaled.grad_norms, base.grad_norms):
        assert gs == pytest.approx(gb / math.sqrt(lam), rel=1e-14)


def test_update_step_identity_per_iterate(manifold, rng):
    _, objective, x0 = random_frechet_problem(manifold, 4, rng)
    lam, eta = 4.0, 0.1
    sm = ScaledManifold(manifold, lam)
    trace = riemannian_gd(
        sm, objective, x0, OptimizerConfig(step_size=eta, max_iters=20, grad_tol=0.0)
    )
    for point in trace.iterates:
        gradient = objective.gradient_fn(point).components
        step_scaled = -eta * sm.rescale_gradient(gradient)
        step_base = -(eta / lam) * gradient
        scale = max(float(np.max(np.abs(step_base))), 1e-300)
        assert float(np.max(np.abs(step_scaled - step_base))) / scale <= 1e-14


# ---------------------------------------------------------------------------
# barycenter objective
# ---------------------------------------------------------------------------


def test_frechet_single_point_minimizer():
    y = ManifoldPoint(S2, np.array([0.0, 1.0, 0.0]))
    objective = frechet_objective([y])
    assert objective.value_fn(y) == 0.0
    assert norm(objective.gradient_fn(y)) == 0.0


def test_frechet_euclidean_mean_is_minimizer(rng):
    points = [ManifoldPoint(E2, rng.standard_normal(2)) for _ in range(6)]
    objective = frechet_objective(points)
    trace = riemannian_gd(
        E2, objective, points[0], OptimizerConfig(step_size=0.5, max_iters=200)
    )
    mean = np.mean([p.coordinates for p in points], axis=0)
    assert_allclose(trace.iterates[-1].coordinates, mean, atol=1e-9)


def test_frechet_gradient_matches_finite_differences(manifold, rng):
    _, objective, _ = random_frechet_problem(manifold, 4, rng)
    h = 1e-5
    for _ in range(10):
        x = ManifoldPoint(manifold, manifold.random_point(rng))
        v = manifold.random_tangent(x.coordinates, rng)
        nv = manifold.norm(x.coordinates, v)
        if nv == 0.0:
            continue
        v = v / nv
        f_plus = objective.value_fn(ManifoldPoint(manifold, manifold.exp(x.coordinates, h * v)))
        f_minus = objective.value_fn(ManifoldPoint(manifold, manifold.exp(x.coordinates, -h * v)))
        fd = (f_plus - f_minus) / (2.0 * h)
        grad = objective.gradient_fn(x)
        ip = manifold.inner(x.coordinates, grad.components, v)
        denom = max(abs(ip), 1e-3 * norm(grad), 1e-12)
        assert abs(fd - ip) / denom <= 1e-5


def test_frechet_objective_validation():
    with pytest.raises(ContractViolationError):
        frechet_objective([])
    with pytest.raises(ContractViolationError):
        frechet_objective([_e(0), ManifoldPoint(E2, np.zeros(2))])
    with pytest.raises(ContractViolationError):
        frechet_objective(["a"])
    with pytest.raises(ContractViolationError):
        pairwise_distances([_e(0), _e(1).coordinates])


# ---------------------------------------------------------------------------
# step-size equivalence
# ---------------------------------------------------------------------------


def test_equivalence_unit_scale_is_exact():
    objective = frechet_objective([_e(0), _e(1), _e(2)])
    deviation = equivalence_check(S2, objective, _e(0), eta=0.2, lam=1.0, iters=50)
    assert deviation == 0.0


def test_equivalence_euclidean_quadratic():
    objective = _quadratic_objective(E2)
    x0 = ManifoldPoint(E2, np.array([4.0, 2.0]))
    deviation = equivalence_check(E2, objective, x0, eta=0.5, lam=10.0, iters=50)
    assert deviation <= 1e-10


def test_equivalence_sphere_frechet():
    objective = frechet_objective([_e(0), _e(1)])
    deviation = equivalence_check(S2, objective, _e(0), eta=0.1, lam=4.0, iters=200)
    assert deviation <= 1e-8


def test_equivalence_sweep(manifold, rng):
    _, objective, x0 = random_frechet_problem(manifold, 4, rng)
    for lam in (0.25, 4.0, 10.0):
        deviation = equivalence_check(manifold, objective, x0, eta=0.1, lam=lam, iters=200)
        assert deviation <= 1e-8


def test_equivalence_failing_arm_raises_typed_error_with_prefix_deviation():
    # the gradient at a point needs the logarithm toward its antipode
    antipode = ManifoldPoint(S2, -_e(0).coordinates)
    objective = frechet_objective([_e(0), antipode])
    with pytest.raises(PartialEquivalenceError, match="common prefix of 0 iterates") as info:
        equivalence_check(S2, objective, _e(0), eta=0.1, lam=4.0, iters=10)
    assert isinstance(info.value, DomainError)
    assert info.value.partial_deviation == 0.0


# ---------------------------------------------------------------------------
# lockstep descent: every arm is its own single run, bit for bit
# ---------------------------------------------------------------------------


def _assert_lockstep_matches_single_runs(manifolds_, objective, starts, configs):
    """Run the arms in lockstep and each on its own, on this host, and
    compare iterate bytes, values, gradient norms and stop reasons.  An
    objective with a stacked pass, whose runs check their iterates once
    per block, is also run both ways without it, on the path that checks
    each iterate as it is made, and must give the same traces."""
    objectives = [objective]
    if objective._measure_many is not None:
        objectives.append(replace(objective, _measure_many=None))
    runs = [riemannian_gd_many(manifolds_, o, starts, configs) for o in objectives]
    for a, (m, x0, config) in enumerate(zip(manifolds_, starts, configs, strict=True)):
        single = riemannian_gd(m, objective, x0, config)
        others = [traces[a] for traces in runs]
        others += [riemannian_gd(m, o, x0, config) for o in objectives[1:]]
        for trace in others:
            assert trace.stop_reason == single.stop_reason
            assert len(trace) == len(single)
            assert [x.coordinates.tobytes() for x in trace.iterates] == [
                x.coordinates.tobytes() for x in single.iterates
            ]
            assert np.array(trace.values).tobytes() == np.array(single.values).tobytes()
            assert np.array(trace.grad_norms).tobytes() == np.array(single.grad_norms).tobytes()
        assert single.iterates[:1] == (x0,)[: len(single)]  # the start point itself
    return [trace.stop_reason for trace in runs[0]]


@pytest.mark.parametrize("spec", ["euclidean:3", "sphere:2", "spd:2", "spd:8"])
def test_lockstep_arms_are_bit_identical_to_single_runs(spec):
    m = manifolds.manifold_from_string(spec)
    rng = np.random.default_rng(16)
    points, objective, x0 = random_frechet_problem(m, 5, rng)
    twins, twin_configs = optimize._twin_arms(m, 0.1, (0.25, 4.0, 10.0), 40)
    # nested scales, their own starts, steps and budgets, and an arm that
    # converges early while the others run on
    arms = twins + [ScaledManifold(ScaledManifold(m, 3.0), 0.7), ScaledManifold(m, 3.0), m]
    configs = twin_configs + [
        OptimizerConfig(step_size=0.2, max_iters=25, grad_tol=0.0),
        OptimizerConfig(step_size=1.0, max_iters=40, grad_tol=0.0),
        OptimizerConfig(step_size=0.5, max_iters=40, grad_tol=1e-2),
    ]
    starts = [x0] * len(twins) + [points[1], points[2], points[3]]
    stops = _assert_lockstep_matches_single_runs(arms, objective, starts, configs)
    assert stops[-1] == "converged"
    assert stops.count("max_iters") == len(arms) - 1


@pytest.mark.parametrize("spec", ["euclidean:3", "sphere:2", "spd:2", "spd:8"])
@pytest.mark.parametrize("scaled", [False, True])
def test_the_stacked_frechet_pass_is_each_points_gradient_then_value(spec, scaled):
    root = manifolds.manifold_from_string(spec)
    m = ScaledManifold(root, 4.0) if scaled else root
    rng = np.random.default_rng(30)
    points = [ManifoldPoint(m, x) for x in root._random_points(rng, 6)]
    objective = frechet_objective(points)
    # the first query point is a data point, so its pairs take the masked path
    xs = [points[0]] + [ManifoldPoint(m, x) for x in root._random_points(rng, 3)]
    at = np.array([x.coordinates for x in xs])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        components, values = objective._measure_many(at)
        assert components.shape == at.shape
        for x, gradient, value in zip(xs, components, values, strict=True):
            # one point's coordinates take gradient_fn's own arithmetic
            one, (one_value,) = objective._measure_many(x.coordinates)
            alone = objective.gradient_fn(x)
            assert gradient.tobytes() == one.tobytes() == alone.components.tobytes()
            # value_fn after gradient_fn, as a one-arm descent calls them
            assert np.array([value, one_value]).tobytes() == np.array(
                [objective.value_fn(x)] * 2
            ).tobytes()


def test_lockstep_arms_stop_on_their_own_errors_while_the_others_run_on():
    # a start antipodal to a data point cannot take the logarithm toward it
    far = ManifoldPoint(S2, np.array([1.0, 2.0, 2.0]) / 3.0)
    objective = frechet_objective([_e(0), _e(1), far])
    starts = [ManifoldPoint(S2, -_e(0).coordinates), _e(2), _e(0), far]
    arms = [S2, ScaledManifold(S2, 4.0), S2, ScaledManifold(S2, 0.5)]
    configs = [OptimizerConfig(step_size=0.3, max_iters=30, grad_tol=0.0)] * 4
    stops = _assert_lockstep_matches_single_runs(arms, objective, starts, configs)
    assert stops == ["error", "max_iters", "max_iters", "max_iters"]


@pytest.mark.parametrize("value, gradient", [(math.inf, 1.0), (math.nan, 1.0), (1.0, 1e200)])
def test_lockstep_arms_diverge_converge_and_run_out_on_their_own(value, gradient):
    # an objective with no stacked pass is evaluated arm by arm
    objective = _blowing_up(value, gradient)
    x0 = ManifoldPoint(E2, [3.0, -4.0])
    arms = [E2, ScaledManifold(E2, 4.0), E2, ScaledManifold(E2, 0.5), E2]
    configs = [
        OptimizerConfig(step_size=0.5, max_iters=10, grad_tol=0.0),  # diverges at iterate 3
        OptimizerConfig(step_size=2.0, max_iters=10, grad_tol=0.0),  # the same path, scaled
        OptimizerConfig(step_size=0.1, max_iters=10, grad_tol=4.0),  # converges at 3.645
        OptimizerConfig(step_size=0.005, max_iters=10, grad_tol=0.0),
        OptimizerConfig(step_size=0.5, max_iters=2, grad_tol=0.0),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stops = _assert_lockstep_matches_single_runs(arms, objective, [x0] * 5, configs)
    assert stops == ["diverged", "diverged", "converged", "max_iters", "max_iters"]


def test_a_lockstep_norm_that_only_its_scale_overflows_diverges():
    # inside the disc the base inner product of g / 1e10 is finite, about
    # 1e299, and only the scale 1e10 takes it past the range
    objective = _blowing_up(1.0, 1e160)
    x0 = ManifoldPoint(E2, [3.0, -4.0])
    arms = [ScaledManifold(E2, 1e10)] * 2
    configs = [OptimizerConfig(step_size=eta, max_iters=10, grad_tol=0.0) for eta in (5e9, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stops = _assert_lockstep_matches_single_runs(arms, objective, [x0] * 2, configs)
    assert stops == ["diverged", "max_iters"]


def test_lockstep_norms_of_mixed_depths_overflow_at_their_own_layer():
    # inside the disc the base inner product of g / 1e10 is about 4e299:
    # the nested arm passes the range only at its outer 1e5, the flat
    # 1e10 arm at its one layer, and the unscaled arm stays outside
    objective = _blowing_up(1.0, 1e160)
    x0 = ManifoldPoint(E2, [3.0, -4.0])
    arms = [ScaledManifold(ScaledManifold(E2, 1e5), 1e5), ScaledManifold(E2, 1e10), E2]
    configs = [
        OptimizerConfig(step_size=eta, max_iters=10, grad_tol=0.0) for eta in (5e9, 5e9, 0.005)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stops = _assert_lockstep_matches_single_runs(arms, objective, [x0] * 3, configs)
    assert stops == ["diverged", "diverged", "max_iters"]


def test_lockstep_of_a_plain_objective_matches_single_runs():
    objective = _quadratic_objective(Euclidean(3))
    x0 = ManifoldPoint(Euclidean(3), [4.0, 2.0, -1.0])
    arms = [Euclidean(3), ScaledManifold(Euclidean(3), 10.0), ScaledManifold(Euclidean(3), 0.25)]
    configs = [OptimizerConfig(step_size=0.1, max_iters=30, grad_tol=1e-3)] * 3
    stops = _assert_lockstep_matches_single_runs(arms, objective, [x0] * 3, configs)
    assert stops == ["max_iters", "max_iters", "converged"]


def test_a_rescaled_gradient_past_the_range_diverges_without_a_warning():
    # inside the disc the gradient is about 1e200, which 1e-300 takes past the range
    objective = _blowing_up(1.0, 1e200)
    x0 = ManifoldPoint(E2, [3.0, -4.0])
    arms = [ScaledManifold(E2, 1e-300), E2, ScaledManifold(E2, 2.0)]
    configs = [
        OptimizerConfig(step_size=eta, max_iters=10, grad_tol=0.0) for eta in (5e-301, 0.5, 0.005)
    ]
    # at the origin this one's gradient is (-5e8, 0), which 1e-300 takes past the range
    frechet = frechet_objective([ManifoldPoint(E2, [1e9, 0.0]), ManifoldPoint(E2, [0.0, 0.0])])
    origin = ManifoldPoint(E2, [0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stops = _assert_lockstep_matches_single_runs(arms, objective, [x0] * 3, configs)
        # the stacked pass of a Frechet objective, then its first gradient overflows
        lockstep = _assert_lockstep_matches_single_runs(arms, frechet, [origin] * 3, configs)
        (trace,) = riemannian_gd_many(arms[:1], frechet, [origin], configs[:1])
    assert stops == ["diverged", "diverged", "max_iters"]
    assert lockstep[0] == "diverged" and len(trace) == 0


class _SpyOnPoints:
    """The verdicts of every stacked point check of a manifold class."""

    def __init__(self, monkeypatch, cls):
        self.verdicts = []
        check = cls._points_pass

        def spy(manifold, X):
            self.verdicts.append(check(manifold, X))
            return self.verdicts[-1]

        monkeypatch.setattr(cls, "_points_pass", spy)


def test_a_lockstep_arm_whose_stacked_step_fails_validation_stops_on_its_own(monkeypatch):
    # at diag(a, 1) the gradient diag(40 a, 0) whitens to diag(40, 0), so a step
    # of eta multiplies a by exp(-40 eta): a step of 1 from I lands on
    # exp(diag(-40, 0)), which only rounding keeps from singular, so
    # validate_point rejects it
    spd = SymmetricPositiveDefinite(2)

    def gradient_fn(x):
        return TangentVector(x, np.diag([40.0 * x.coordinates[0, 0], 0.0]))

    objective = Objective(lambda x: 0.0, gradient_fn)
    arms = [spd, ScaledManifold(spd, 4.0), spd, ScaledManifold(spd, 0.5)]
    configs = [
        OptimizerConfig(step_size=eta, max_iters=10, grad_tol=0.0)
        for eta in (0.01, 0.04, 1.0, 0.005)
    ]
    spy = _SpyOnPoints(monkeypatch, SymmetricPositiveDefinite)
    start = ManifoldPoint(spd, np.eye(2))
    stops = _assert_lockstep_matches_single_runs(arms, objective, [start] * 4, configs)
    assert stops == ["max_iters", "max_iters", "error", "max_iters"]
    # the first stacked step fails its check, and the later ones, without the arm, pass
    assert spy.verdicts[0] is False and all(spy.verdicts[1:]) and len(spy.verdicts) == 10
    with pytest.raises(DomainError, match="not positive definite"):
        ManifoldPoint(spd, spd.exp(np.eye(2), -np.diag([40.0, 0.0])))


def test_one_lockstep_arm_is_a_single_run():
    objective = frechet_objective([_e(0), _e(1)])
    config = OptimizerConfig(step_size=0.5, max_iters=20)
    (trace,) = riemannian_gd_many([S2], objective, [_e(0)], [config])
    single = riemannian_gd(S2, objective, _e(0), config)
    assert [x.coordinates.tobytes() for x in trace.iterates] == [
        x.coordinates.tobytes() for x in single.iterates
    ]
    assert trace.values == single.values and trace.stop_reason == single.stop_reason


_VECDOT = (RuntimeWarning, "overflow encountered in vecdot")

# Fréchet descents that fail, keyed on how they stop and at which iterate:
# (manifold, objective, start, step size, iterations, the warnings of the
# run).  With blocks of 64 iterates, iterate 0 is the first of the first
# block, 1 inside it and 63 its last, 119 is inside the second block, 256
# the first of the fifth and 482 inside the eighth.
_FAILING_DESCENTS = {
    # the start is antipodal to a data point, whose logarithm is undefined
    ("error", 0): lambda: (
        S2, frechet_objective([_e(0), _e(1)]), ManifoldPoint(S2, -_e(0).coordinates), 0.3, 30,
        [],
    ),
    # `frechet --manifold euclidean:3 --eta 1e308`: at the first step's end the
    # squared distances overflow, and so does the sum of the logarithms
    ("error", 1): lambda: (
        Euclidean(3), *random_frechet_problem(Euclidean(3), 4, np.random.default_rng(0))[1:],
        1e308, 200, [_VECDOT, (RuntimeWarning, "overflow encountered in accumulate")],
    ),
    # a step leaves the cone: validate_point rejects the point it lands on
    ("error", 63): lambda: (
        SymmetricPositiveDefinite(2),
        *random_frechet_problem(SymmetricPositiveDefinite(2), 4, np.random.default_rng(0))[1:],
        2.0, 200, [],
    ),
    ("error", 119): lambda: (
        SymmetricPositiveDefinite(2),
        *random_frechet_problem(SymmetricPositiveDefinite(2), 4, np.random.default_rng(3))[1:],
        2.0, 200, [],
    ),
    # `frechet --manifold euclidean:3 --eta 5 --iters 400`: the value overflows
    ("diverged", 256): lambda: (
        Euclidean(3), *random_frechet_problem(Euclidean(3), 4, np.random.default_rng(0))[1:],
        5.0, 400, [],
    ),
    # each step doubles the distance to the one data point, from 2^30, until
    # its square overflows in vecdot
    ("diverged", 482): lambda: (
        Euclidean(3), frechet_objective([ManifoldPoint(Euclidean(3), [0.0, 0.0, 0.0])]),
        ManifoldPoint(Euclidean(3), [2.0**30, 0.0, 0.0]), 3.0, 1000, [_VECDOT],
    ),
}


@pytest.mark.parametrize("how, at", list(_FAILING_DESCENTS))
def test_a_block_that_fails_is_redone_with_the_trace_of_a_checked_run(how, at):
    manifold, objective, x0, eta, iters, warned = _FAILING_DESCENTS[how, at]()
    # a power-of-four scale walks the same path with a quarter of the step
    arms = [manifold, ScaledManifold(manifold, 0.25)]
    configs = [OptimizerConfig(step_size=s, max_iters=iters, grad_tol=0.0) for s in (eta, eta / 4)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        stops = _assert_lockstep_matches_single_runs(arms, objective, [x0] * 2, configs)
    assert stops == [how] * 2
    # the warnings of a checked run, none twice, or its first warning raised as
    # an error; where numpy ignores every condition, the block's checks alone
    # send it back
    expected = {
        ("always", "warn"): ((how, at), warned),
        ("error", "warn"): (repr(RuntimeWarning(warned[0][1])), []) if warned else ((how, at), []),
        ("error", "ignore"): ((how, at), []),
    }
    for (action, numpy_errors), outcome in expected.items():
        for o in (objective, replace(objective, _measure_many=None)):
            with warnings.catch_warnings(record=True) as caught, np.errstate(
                over=numpy_errors, invalid=numpy_errors, divide=numpy_errors
            ):
                warnings.simplefilter(action)
                try:
                    run = riemannian_gd(manifold, o, x0, configs[0])
                except RuntimeWarning as exc:
                    got = repr(exc)
                else:
                    got = (run.stop_reason, len(run))
            assert (got, [(w.category, str(w.message)) for w in caught]) == outcome


@pytest.mark.parametrize("spec", ["euclidean:3", "sphere:2", "spd:2", "spd:8"])
def test_a_frechet_descent_builds_no_point_or_vector_on_its_way(monkeypatch, spec):
    m = manifolds.manifold_from_string(spec)
    _, objective, x0 = random_frechet_problem(m, 6, np.random.default_rng(3))
    config = OptimizerConfig(step_size=0.1, max_iters=40, grad_tol=0.0)
    calls = Counter()
    check = manifolds.Manifold._check_shape

    def counted(self, arr, what):
        calls[what] += 1
        return check(self, arr, what)

    monkeypatch.setattr(manifolds.Manifold, "_check_shape", counted)
    for arm in (m, ScaledManifold(m, 3.3)):
        # its gradients and iterates are checked as stacks, once per block
        calls.clear()
        assert len(riemannian_gd(arm, objective, x0, config)) == 41
        (a, b) = riemannian_gd_many([arm, m], objective, [x0] * 2, [config] * 2)
        assert len(a) == len(b) == 41 and calls == {}
        # without its stacked pass, each gradient and each step is validated
        riemannian_gd(arm, replace(objective, _measure_many=None), x0, config)
        assert calls == {"tangent vector": 41, "point": 40}
    if m.family == "euclidean":  # a plain objective keeps two checks an iterate
        calls.clear()
        riemannian_gd(m, _quadratic_objective(m), x0, config)
        assert calls == {"tangent vector": 41, "point": 40}


def test_lockstep_argument_validation():
    objective = _quadratic_objective(E2)
    x0 = ManifoldPoint(E2, [1.0, 2.0])
    config = OptimizerConfig(step_size=0.1, max_iters=3)
    with pytest.raises(ContractViolationError, match="at least one manifold"):
        riemannian_gd_many([], objective, [], [])
    with pytest.raises(ContractViolationError, match="2 manifolds, 1 starts and 2 configs"):
        riemannian_gd_many([E2, E2], objective, [x0], [config] * 2)
    with pytest.raises(ContractViolationError, match="2 manifolds, 2 starts and 3 configs"):
        riemannian_gd_many([E2, E2], objective, [x0] * 2, [config] * 3)
    with pytest.raises(ContractViolationError, match="expected a OptimizerConfig"):
        riemannian_gd_many([E2], objective, [x0], [0.1])
    with pytest.raises(ContractViolationError, match="expected a ManifoldPoint"):
        riemannian_gd_many([E2], objective, [[1.0, 2.0]], [config])
    with pytest.raises(ContractViolationError, match="expected a Manifold"):
        riemannian_gd_many(["E2"], objective, [x0], [config])
    with pytest.raises(ContractViolationError, match="x0 lives on"):
        riemannian_gd_many([E2, Euclidean(3)], objective, [x0] * 2, [config] * 2)
    with pytest.raises(ContractViolationError, match="must share a root manifold"):
        riemannian_gd_many(
            [E2, ScaledManifold(Euclidean(3), 2.0)], objective,
            [x0, ManifoldPoint(Euclidean(3), [1.0, 2.0, 3.0])], [config] * 2,
        )
    scaled = ScaledManifold(E2, 2.0)
    with pytest.raises(ContractViolationError, match="x0 lives on"):
        riemannian_gd(scaled, objective, ManifoldPoint(scaled, [1.0, 2.0]), config)


class _Counting:
    """Stand-in for a module: the named functions count their calls in
    ``counts``, every other attribute is the module's own."""

    def __init__(self, target, counts, **overrides):
        self._target, self.counts = target, counts
        vars(self).update(overrides)

    def __getattr__(self, name):
        fn = getattr(self._target, name)
        if name in ("cholesky", "inv", "eigh", "eigvalsh"):

            def counted(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        return fn


@pytest.mark.parametrize("side", [2, 3])
def test_spd_descent_factors_each_iterate_once(monkeypatch, side):
    manifold = SymmetricPositiveDefinite(side)
    _, objective, x0 = random_frechet_problem(manifold, 5, np.random.default_rng(side))
    config = OptimizerConfig(step_size=0.1, max_iters=12, grad_tol=0.0)
    for arm in (manifold, ScaledManifold(manifold, 4.0)):
        counts = Counter()
        monkeypatch.setattr(manifolds, "np", _Counting(
            np, counts, linalg=_Counting(np.linalg, counts),
        ))
        trace = riemannian_gd(arm, objective, x0, config)
        monkeypatch.undo()
        assert trace.stop_reason == "max_iters"
        # per iterate one factor and one eigh, for the logarithms and the
        # distances both; per step one more eigh (exp); no eigvalsh.  Each
        # block's stacked point check factors the block's steps in one more
        # cholesky call: the factors of the single iterates are not kept
        iterates, steps = len(trace), len(trace) - 1
        blocks = -(-steps // optimize._BLOCK_STEPS)
        assert dict(counts) == {
            "cholesky": iterates + blocks, "inv": iterates, "eigh": iterates + steps,
        }


@pytest.mark.parametrize("side", [2, 3])
def test_spd_lockstep_descent_makes_one_eigh_per_round_and_step(monkeypatch, side):
    manifold = SymmetricPositiveDefinite(side)
    _, objective, x0 = random_frechet_problem(manifold, 5, np.random.default_rng(side))
    config = OptimizerConfig(step_size=0.1, max_iters=12, grad_tol=0.0)
    arms = (manifold, ScaledManifold(manifold, 4.0), ScaledManifold(manifold, 0.25))
    counts = Counter()
    monkeypatch.setattr(manifolds, "np", _Counting(
        np, counts, linalg=_Counting(np.linalg, counts),
    ))
    traces = riemannian_gd_many(arms, objective, [x0] * 3, [config] * 3)
    monkeypatch.undo()
    assert [t.stop_reason for t in traces] == ["max_iters"] * 3
    # per round one factor and one inverse of the stack of the arms' points,
    # taken by the stacked pass, which the stacked norm and step reuse; one
    # more cholesky call per block, whose stacked point check factors every
    # step the block made at once.  One eigh per round and one per step
    # (exp); no eigvalsh
    iterates, steps = len(traces[0]), len(traces[0]) - 1
    blocks = -(-steps // optimize._BLOCK_STEPS)
    assert dict(counts) == {
        "cholesky": iterates + blocks, "inv": iterates, "eigh": iterates + steps,
    }


@pytest.mark.parametrize("side", [2, 8])
def test_spd_descent_bits_do_not_depend_on_the_factor_memo(monkeypatch, side):
    manifold = SymmetricPositiveDefinite(side)
    _, objective, x0 = random_frechet_problem(manifold, 5, np.random.default_rng(side))
    config = OptimizerConfig(step_size=0.1, max_iters=12, grad_tol=0.0)
    whiten = SymmetricPositiveDefinite._whiten
    misses = []

    def cold(p, x=None, finite=True):  # every factor taken afresh
        manifolds._last_factor = (None, None, None)
        misses.append(p.shape)
        return whiten(p, x, finite)

    def same_bits(trace, fresh):
        assert trace.stop_reason == fresh.stop_reason == "max_iters"
        for a, b in zip(trace.iterates, fresh.iterates, strict=True):
            assert a.coordinates.tobytes() == b.coordinates.tobytes()
        assert trace.values == fresh.values and trace.grad_norms == fresh.grad_norms

    for arm in (manifold, ScaledManifold(manifold, 4.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = riemannian_gd(arm, objective, x0, config)
            with monkeypatch.context() as patch:
                patch.setattr(SymmetricPositiveDefinite, "_whiten", staticmethod(cold))
                fresh = riemannian_gd(arm, objective, x0, config)
        assert misses.count((side, side)) > len(trace)  # the memo was bypassed
        misses.clear()
        same_bits(trace, fresh)
    # a lockstep run remembers each stack of its arms' iterates; cold, every
    # stacked pass, norm and step factors it afresh (no step follows the last)
    arms = (manifold, ScaledManifold(manifold, 4.0), ScaledManifold(manifold, 0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traces = riemannian_gd_many(arms, objective, [x0] * 3, [config] * 3)
        with monkeypatch.context() as patch:
            patch.setattr(SymmetricPositiveDefinite, "_whiten", staticmethod(cold))
            fresh = riemannian_gd_many(arms, objective, [x0] * 3, [config] * 3)
    stacks = misses.count((3, 1, side, side)) + misses.count((3, side, side))
    assert stacks == 3 * len(traces[0]) - 1  # the memo was bypassed
    for trace, again in zip(traces, fresh, strict=True):
        same_bits(trace, again)
    for arm, trace in zip(arms, traces):  # and each arm is its one-arm run
        same_bits(trace, riemannian_gd(arm, objective, x0, config))


@pytest.mark.parametrize("side, n", [(2, 70), (8, 40)])
def test_spd_pairwise_distances_factor_each_base_once_per_block(monkeypatch, side, n):
    manifold = SymmetricPositiveDefinite(side)
    points, _, _ = random_frechet_problem(manifold, n, np.random.default_rng(side))
    expected = pairwise_distances(points)
    pairs = n * (n - 1) // 2
    blocks = -(-pairs // max(1, optimize._PAIR_BLOCK_BYTES // (8 * side * side)))
    assert blocks >= 2
    counts, factored = Counter(), []

    def cholesky(a):
        counts["cholesky"] += 1
        factored.append(len(a))
        return np.linalg.cholesky(a)

    pairwise_distances(points[:2])  # replaces the remembered matrix, so the counted call is cold
    monkeypatch.setattr(manifolds, "np", _Counting(
        np, counts, linalg=_Counting(np.linalg, counts, cholesky=cholesky),
    ))
    out = pairwise_distances(points)
    monkeypatch.undo()
    assert out.tobytes() == expected.tobytes()
    # per block one factor of its bases, its inverse and one eigvalsh; a
    # base point split between two blocks is factored in each
    assert dict(counts) == {"cholesky": blocks, "inv": blocks, "eigvalsh": blocks}
    assert sum(factored) <= n - 1 + blocks - 1


def test_spd_factor_memo_shares_a_stack_between_its_views_and_never_across_sides(monkeypatch):
    rng = np.random.default_rng(44)
    whiten = SymmetricPositiveDefinite._whiten
    blocks = SymmetricPositiveDefinite(2)._random_points(rng, 4)  # (4, 2, 2)
    big = SymmetricPositiveDefinite(4)._random_points(rng, 1)[0]

    def fresh(p):
        try:
            return np.linalg.cholesky(p).tobytes()
        except np.linalg.LinAlgError:
            return "not positive definite"

    def remembered(p):
        try:
            return whiten(p).tobytes()
        except DomainError:
            return "not positive definite"

    # a (K, 1, m, m) view of a remembered (K, m, m) stack reuses its factor
    low = whiten(blocks)
    counts = Counter()
    monkeypatch.setattr(manifolds, "np", _Counting(
        np, counts, linalg=_Counting(np.linalg, counts),
    ))
    view = whiten(blocks[:, np.newaxis])
    monkeypatch.undo()
    assert counts["cholesky"] == 0
    assert view.shape == (4, 1, 2, 2) and view.tobytes() == low.tobytes() == fresh(blocks)
    # the same 16 doubles as one 4 x 4 matrix, and the other way round, are
    # factored afresh: the key holds the matrix side as well as the bytes
    assert remembered(blocks.reshape(4, 4)) == fresh(blocks.reshape(4, 4))
    whiten(big)
    assert remembered(big.reshape(4, 2, 2)) == fresh(big.reshape(4, 2, 2))


@pytest.mark.parametrize("side", [2, 8])
def test_spd_single_base_against_a_stack_is_factored_once(monkeypatch, side):
    manifold = SymmetricPositiveDefinite(side)
    rng = np.random.default_rng(side)
    p, *rows = manifold._random_points(rng, 7)
    rows = np.stack(rows)
    tangents = np.stack([manifold.random_tangent(q, rng) for q in rows])
    with_base = np.concatenate([rows[:3], p[np.newaxis], rows[3:]])
    calls = {
        "dist": lambda: manifold.dist(p, rows),
        "log": lambda: manifold.log(p, rows),
        "log with a row equal to the base": lambda: manifold.log(p, with_base),
        "transport": lambda: manifold.transport(p, rows, tangents),
    }
    # the row equal to the base reads zero, and every other row its own bits
    masked = manifold.log(p, with_base)
    assert not masked[3].any()
    assert np.delete(masked, 3, axis=0).tobytes() == manifold.log(p, rows).tobytes()
    _assert_factored_once(monkeypatch, side, calls)


def _assert_factored_once(monkeypatch, side, calls):
    """Each call, made again on a cold factor memo, gives its bits and
    factors and inverts one ``(side, side)`` matrix, the broadcast base."""
    for name, call in calls.items():
        expected = call()
        counts, factored = Counter(), []

        def cholesky(a):
            factored.append(a.shape)
            return np.linalg.cholesky(a)

        manifolds._last_factor = (None, None, None)  # a cold memo, as for a new base
        monkeypatch.setattr(manifolds, "np", _Counting(
            np, counts, linalg=_Counting(np.linalg, counts, cholesky=cholesky),
        ))
        out = call()
        monkeypatch.undo()
        assert out.tobytes() == expected.tobytes(), name
        assert factored == [(side, side)], name
        assert counts["inv"] == 1, name


@pytest.mark.parametrize("side", [2, 8])
def test_spd_single_base_against_a_stack_holding_it_is_factored_once(monkeypatch, side):
    manifold = SymmetricPositiveDefinite(side)
    rng = np.random.default_rng(side)
    p, *rows = manifold._random_points(rng, 7)
    rows = np.stack(rows)
    tangents = np.stack([manifold.random_tangent(q, rng) for q in rows])
    rows[3] = p  # equal to the base, so measured as zero and carried unchanged
    calls = {
        "dist": lambda: manifold.dist(p, rows),
        "log": lambda: manifold.log(p, rows),
        "transport": lambda: manifold.transport(p, rows, tangents),
    }
    assert calls["dist"]()[3] == 0.0 and not calls["log"]()[3].any()
    assert calls["transport"]()[3].tobytes() == tangents[3].tobytes()
    _assert_factored_once(monkeypatch, side, calls)


@pytest.mark.parametrize("n", [1, 9, 40])
def test_spd_random_frechet_problem_factors_its_points_once(monkeypatch, n):
    manifold = SymmetricPositiveDefinite(3)
    counts = Counter()
    monkeypatch.setattr(manifolds, "np", _Counting(
        np, counts, linalg=_Counting(np.linalg, counts),
    ))
    random_frechet_problem(manifold, n, np.random.default_rng(n))
    monkeypatch.undo()
    # one eigh draws every point, one cholesky checks them all
    assert dict(counts) == {"eigh": 1, "cholesky": 1}


PROBLEMS = [Euclidean(3), S2, SymmetricPositiveDefinite(2), SymmetricPositiveDefinite(4),
            ScaledManifold(S2, 4.0)]


def _points_one_by_one(manifold, n, seed):
    rng = np.random.default_rng(seed)
    points = [ManifoldPoint(manifold, manifold.random_point(rng)) for _ in range(n)]
    return points, rng.bit_generator.state


@pytest.mark.parametrize("stacked_check", [True, False])
@pytest.mark.parametrize(
    "manifold", PROBLEMS, ids=["euclidean:3", "sphere:2", "spd:2", "spd:4", "sphere:2*4"]
)
def test_random_frechet_problem_gives_the_points_of_single_draws(
    monkeypatch, manifold, stacked_check
):
    if not stacked_check:  # every family validates its points row by row
        for cls in (Euclidean, Sphere, SymmetricPositiveDefinite):
            monkeypatch.setattr(cls, "_points_pass", lambda self, X: False)
    for n in (1, 2, 7):
        expected, state = _points_one_by_one(manifold, n, seed=n)
        rng = np.random.default_rng(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points, objective, x0 = random_frechet_problem(manifold, n, rng)
        assert rng.bit_generator.state == state
        assert isinstance(points, tuple) and len(points) == n and x0 is points[0]
        for point, single in zip(points, expected):
            assert type(point) is ManifoldPoint and point.manifold is manifold
            assert point.coordinates.tobytes() == single.coordinates.tobytes()
            assert point.coordinates.dtype == np.float64
            assert not point.coordinates.flags.writeable
        assert objective.value_fn(x0) == frechet_objective(expected).value_fn(expected[0])


def test_random_frechet_problem_validates_a_failing_draw_row_by_row(monkeypatch):
    # row 2 of the draw is not finite: the stacked check fails, and the row
    # meets the error its own ManifoldPoint raises
    spd = SymmetricPositiveDefinite(2)
    drawn = np.stack([np.eye(2)] * 4)
    drawn[2, 0, 1] = np.nan
    monkeypatch.setattr(
        SymmetricPositiveDefinite, "_random_points", lambda self, rng, count: drawn[:count]
    )
    with pytest.raises(ContractViolationError) as single:
        ManifoldPoint(spd, drawn[2])
    with pytest.raises(ContractViolationError) as stacked:
        random_frechet_problem(spd, 4, np.random.default_rng(0))
    assert str(stacked.value) == str(single.value)
    # without the bad row, the stacked check passes
    points, _, _ = random_frechet_problem(spd, 2, np.random.default_rng(0))
    assert [p.coordinates.tobytes() for p in points] == [np.eye(2).tobytes()] * 2


def test_random_frechet_problem_rejects_a_non_manifold():
    with pytest.raises(ContractViolationError, match="expected a Manifold"):
        random_frechet_problem("sphere:2", 3, np.random.default_rng(0))


def _count_pair_dist_calls(monkeypatch) -> Counter:
    """Count every ``_pair_dist`` call, the pass ``pairwise_distances``
    measures each block with, of the three families and of
    ``ScaledManifold`` from here on, by class name."""
    counts = Counter()
    for cls in (Euclidean, Sphere, SymmetricPositiveDefinite, ScaledManifold):

        def pair_dist(self, coords, i, j, _cls=cls, _pair_dist=cls._pair_dist):
            counts[_cls.__name__] += 1
            return _pair_dist(self, coords, i, j)

        monkeypatch.setattr(cls, "_pair_dist", pair_dist)
    return counts


def _single_distances(points) -> np.ndarray:
    """The distance matrix from one single ``dist`` call per pair."""
    n = len(points)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = points[0].manifold.dist(
                points[i].coordinates, points[j].coordinates
            )
    return out


def test_a_repeated_point_set_reuses_its_distances_in_a_fresh_copy(monkeypatch):
    manifold = SymmetricPositiveDefinite(3)
    points, _, _ = random_frechet_problem(manifold, 9, np.random.default_rng(4))
    equal = [ManifoldPoint(manifold, pt.coordinates.copy()) for pt in points]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = pairwise_distances(points)
        counts = Counter()
        monkeypatch.setattr(manifolds, "np", _Counting(
            np, counts, linalg=_Counting(np.linalg, counts),
        ))
        again = pairwise_distances(equal)
        monkeypatch.undo()
        assert counts == {}  # no cholesky, inv or eigvalsh
        assert again.tobytes() == first.tobytes()
        assert not np.shares_memory(again, first)
        assert again.flags.writeable
        # neither a hit's copy nor a miss's result is the stored matrix
        again[0, 1] = again[1, 0] = -1.0
        first[0, 2] = first[2, 0] = -2.0
        assert pairwise_distances(points).tobytes() == _single_distances(points).tobytes()


def _sphere_points(coords, manifold=S2):
    return [ManifoldPoint(manifold, np.asarray(c, dtype=float)) for c in coords]


_UNIT = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.6, 0.8, 0.0]]


@pytest.mark.parametrize("other, counted", [
    (_sphere_points([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.6, 0.8]]),
     {"Sphere": 1}),
    (_sphere_points(_UNIT[::-1]), {"Sphere": 1}),
    (_sphere_points(_UNIT[:3]), {"Sphere": 1}),
    (_sphere_points(_UNIT, ScaledManifold(S2, 4.0)), {"ScaledManifold": 1, "Sphere": 1}),
    (_sphere_points(_UNIT, Euclidean(3)), {"Euclidean": 1}),
], ids=["other-coordinates", "permuted", "other-n", "scaled", "other-family"])
def test_another_point_set_recomputes_its_distances(monkeypatch, other, counted):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairwise_distances(_sphere_points(_UNIT))
        counts = _count_pair_dist_calls(monkeypatch)
        out = pairwise_distances(other)
    assert counts == counted
    assert out.tobytes() == _single_distances(other).tobytes()


def test_only_the_last_point_set_is_remembered(monkeypatch):
    a = _sphere_points(_UNIT)
    b = _sphere_points(_UNIT[::-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = pairwise_distances(a)
        pairwise_distances(b)
        counts = _count_pair_dist_calls(monkeypatch)
        out = pairwise_distances(a)
    assert counts == {"Sphere": 1}
    assert out.tobytes() == expected.tobytes()


def test_a_call_that_raises_keeps_the_remembered_distances(monkeypatch):
    a = _sphere_points(_UNIT)
    mixed = [a[0], ManifoldPoint(Euclidean(3), _UNIT[1])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = pairwise_distances(a)
        with pytest.raises(ContractViolationError, match="different manifolds"):
            pairwise_distances(mixed)
        counts = _count_pair_dist_calls(monkeypatch)
        out = pairwise_distances(a)
    assert counts == {}
    assert out.tobytes() == expected.tobytes()


def test_calibrating_against_fresh_base_distances_measures_nothing_again(monkeypatch):
    manifold = SymmetricPositiveDefinite(2)
    points, _, _ = random_frechet_problem(manifold, 12, np.random.default_rng(6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        targets = 1.5 * pairwise_distances(points)
        counts = _count_pair_dist_calls(monkeypatch)
        scale, residual = calibrate_scale(points, targets)
    assert counts == {}
    assert scale.value == pytest.approx(2.25, rel=1e-12)
    assert residual <= 1e-20


def test_concurrent_callers_each_get_their_own_distances():
    rng = np.random.default_rng(8)
    sets = [
        random_frechet_problem(m, n, rng)[0]
        for m, n in ((S2, 30), (SymmetricPositiveDefinite(2), 25),
                     (SymmetricPositiveDefinite(3), 20), (E2, 30))
    ]
    serial = [_single_distances(points).tobytes() for points in sets]
    results = [[] for _ in sets]

    def work(k):
        for _ in range(40):
            results[k].append(pairwise_distances(sets[k]).tobytes())

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(sets))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    for got, want in zip(results, serial):
        assert got == [want] * 40


# ---------------------------------------------------------------------------
# scale calibration
# ---------------------------------------------------------------------------


def _euclidean_points(coords):
    return [ManifoldPoint(E2, np.asarray(c, dtype=float)) for c in coords]


def test_calibrate_recovers_unit_scale_exactly():
    points = _euclidean_points([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    targets = pairwise_distances(points)
    scale, residual = calibrate_scale(points, targets)
    assert scale.value == 1.0
    assert residual == 0.0


def test_calibrate_single_pair():
    points = _euclidean_points([[0.0, 0.0], [2.0, 0.0]])
    targets = np.array([[0.0, 4.0], [4.0, 0.0]])
    scale, residual = calibrate_scale(points, targets)
    assert scale.value == pytest.approx(4.0, rel=1e-15)
    assert residual <= 1e-28


def test_calibrate_uniformly_scaled_targets(manifold, rng):
    points = [ManifoldPoint(manifold, manifold.random_point(rng)) for _ in range(4)]
    base = pairwise_distances(points)
    for c in (0.5, 1.0, 3.0):
        scale, residual = calibrate_scale(points, c * base)
        assert scale.value == pytest.approx(c * c, rel=1e-10)
        assert residual <= 1e-10


def test_calibrate_local_minimum_property(manifold, rng):
    for _ in range(5):
        points = [ManifoldPoint(manifold, manifold.random_point(rng)) for _ in range(4)]
        base = pairwise_distances(points)
        noise = rng.standard_normal(base.shape)
        targets = np.abs(1.7 * base + 0.05 * (noise + noise.T))
        np.fill_diagonal(targets, 0.0)
        scale, best = calibrate_scale(points, targets)
        iu = np.triu_indices(4, k=1)
        d, t = base[iu], targets[iu]
        for factor in (1.0 + 1e-3, 1.0 - 1e-3):
            perturbed = float(np.sum((math.sqrt(scale.value * factor) * d - t) ** 2))
            assert best <= perturbed


def test_calibrate_degenerate_inputs():
    same = _euclidean_points([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DegenerateInputError):
        calibrate_scale(same, np.zeros((2, 2)))
    points = _euclidean_points([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateInputError):
        calibrate_scale(points, np.zeros((2, 2)))  # no positive scale fits


def test_calibrate_contract_violations():
    points = _euclidean_points([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ContractViolationError):
        calibrate_scale(points[:1], np.zeros((1, 1)))
    with pytest.raises(ContractViolationError):
        calibrate_scale(points, np.zeros((3, 3)))
    with pytest.raises(ContractViolationError):
        calibrate_scale(points, np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ContractViolationError):
        calibrate_scale(points, np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ContractViolationError):
        calibrate_scale(points, [[0.0, 1.0], [1.0]])
    for bad in (np.inf, np.nan):
        with pytest.raises(ContractViolationError, match="target distances must be finite"):
            calibrate_scale(points, np.array([[0.0, bad], [bad, 0.0]]))


def test_a_fit_past_the_double_range_is_a_domain_error_without_a_warning():
    points = _euclidean_points([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    base = pairwise_distances(points)
    # a target only on the pair at distance 1: sqrt(lam*) = 5e153 is in
    # range, and the residual 0.83 * 3e154**2 is not
    lopsided = np.zeros((3, 3))
    lopsided[0, 1] = lopsided[1, 0] = 3e154
    config = OptimizerConfig(step_size=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for targets, message in (
            (1e200 * base, "fitted scale"),  # lam* overflows
            (1e-200 * base, "fitted scale"),  # lam* underflows to zero
            (lopsided, "residual"),
        ):
            with pytest.raises(DomainError, match=message):
                calibrate_scale(points, targets)
            with pytest.raises(DomainError, match=message):
                joint_descent(points, targets, _quadratic_objective(E2), points[0], config)
        # sum(t d) overflows, and the infinite sqrt(lam*) meets the coincident pair's d = 0
        coincident = _euclidean_points([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DomainError, match="fitted scale inf"):
            calibrate_scale(coincident, 1e308 * (1.0 - np.eye(3)))


# ---------------------------------------------------------------------------
# joint point-and-scale descent
# ---------------------------------------------------------------------------


def test_joint_descent_unit_targets_match_plain_run(rng):
    points = [ManifoldPoint(S2, S2.random_point(rng)) for _ in range(4)]
    objective = frechet_objective(points)
    config = OptimizerConfig(step_size=0.2, max_iters=50, grad_tol=0.0)
    targets = pairwise_distances(points)
    trace, scale, residual = joint_descent(points, targets, objective, points[0], config)
    assert scale.value == 1.0
    assert residual == 0.0
    plain = riemannian_gd(S2, objective, points[0], config)
    for a, b in zip(trace.iterates, plain.iterates):
        assert np.array_equal(a.coordinates, b.coordinates)


def test_joint_descent_doubled_targets_match_quarter_step(rng):
    points = [ManifoldPoint(S2, S2.random_point(rng)) for _ in range(4)]
    objective = frechet_objective(points)
    config = OptimizerConfig(step_size=0.2, max_iters=100, grad_tol=0.0)
    targets = 2.0 * pairwise_distances(points)
    trace, scale, residual = joint_descent(points, targets, objective, points[0], config)
    assert scale.value == pytest.approx(4.0, rel=1e-12)
    assert residual == calibrate_scale(points, targets)[1]
    deviation = equivalence_check(
        S2, objective, points[0], eta=0.2, lam=scale.value, iters=100
    )
    assert deviation <= 1e-8
    assert len(trace) == 101


def test_joint_descent_stationary_start_is_scale_independent(rng):
    anchor = [ManifoldPoint(S2, S2.random_point(rng)) for _ in range(2)]
    y = anchor[0]
    objective = frechet_objective([y])
    config = OptimizerConfig(step_size=0.3, max_iters=50)
    targets = 5.0 * pairwise_distances(anchor)
    trace, scale, _ = joint_descent(anchor, targets, objective, y, config)
    assert scale.value == pytest.approx(25.0, rel=1e-12)
    assert trace.stop_reason == "converged"
    assert len(trace) == 1


def test_random_frechet_problem_shapes(manifold, rng):
    points, objective, x0 = random_frechet_problem(manifold, 3, rng)
    assert len(points) == 3
    assert x0 is points[0]
    assert objective.value_fn(x0) >= 0.0
    for bad in (0, 2.5, True):
        with pytest.raises(ContractViolationError):
            random_frechet_problem(manifold, bad, rng)


def _count_manifold_eq(monkeypatch) -> Counter:
    """Count every ``==``/``!=`` between sphere manifolds, and between
    scaled ones, from here on, by class name."""
    counts = Counter()
    for cls in (Sphere, ScaledManifold):

        def eq(self, other, _cls=cls, _eq=cls.__eq__):
            counts[_cls.__name__] += 1
            return _eq(self, other)

        monkeypatch.setattr(cls, "__eq__", eq)
    return counts


def _every_one_manifold_check(points, arm):
    """Run each entry point that checks that points, arms or samples
    share a manifold; ``arm`` is the manifold the descents run on."""
    objective = frechet_objective(points)
    config = OptimizerConfig(step_size=0.1, max_iters=3, grad_tol=0.0)
    pairwise_distances(points)
    calibrate_scale(points, 2.0 * pairwise_distances(points))  # a memo hit
    SampledCurve(points)
    distance(points[0], points[1])
    riemannian_gd(arm, objective, points[0], config)
    riemannian_gd_many([arm, ScaledManifold(arm, 4.0)], objective, points[:2], [config] * 2)


def test_points_on_one_manifold_object_make_no_manifold_comparison(monkeypatch):
    points, _, _ = random_frechet_problem(S2, 6, np.random.default_rng(4))
    pairwise_distances(points[:2])  # so that the counted calls meet a memo miss first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = _count_manifold_eq(monkeypatch)
        _every_one_manifold_check(points, S2)
    assert counts == {}


def test_equal_but_distinct_manifolds_are_still_one_manifold(monkeypatch):
    a, b = Sphere(2), Sphere(2)
    assert a is not b
    drawn, _, _ = random_frechet_problem(a, 6, np.random.default_rng(4))
    points = [ManifoldPoint(a if i % 2 else b, p.coordinates) for i, p in enumerate(drawn)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = _count_manifold_eq(monkeypatch)
        _every_one_manifold_check(points, a)
    assert counts["Sphere"] > 0  # the comparisons ran, and found the manifolds equal


def test_points_on_different_manifolds_are_still_rejected_with_the_same_messages():
    p2 = ManifoldPoint(S2, [1.0, 0.0, 0.0])
    p3 = ManifoldPoint(Sphere(3), [1.0, 0.0, 0.0, 0.0])
    config = OptimizerConfig(step_size=0.1, max_iters=3)
    objective = frechet_objective([p2])
    for call, message in (
        (lambda: frechet_objective([p2, p3]), "points live on different manifolds"),
        (lambda: pairwise_distances([p2, p3]), "points live on different manifolds"),
        (lambda: SampledCurve((p2, p2, p3)), "curve samples live on different manifolds"),
        (lambda: distance(p2, p3),
         "points live on different manifolds: Sphere(dim=2) vs Sphere(dim=3)"),
        (lambda: riemannian_gd(Sphere(3), objective, p2, config),
         "x0 lives on Sphere(dim=2), expected Sphere(dim=3)"),
        (lambda: riemannian_gd_many([S2, Sphere(3)], objective, [p2, p3], [config] * 2),
         "arms run in lockstep must share a root manifold"),
    ):
        with pytest.raises(ContractViolationError) as caught:
            call()
        assert str(caught.value) == message


@pytest.mark.parametrize("n", [0, 1, 2, 7, 130])
def test_pair_indices_are_read_only_triu_indices(n):
    rows, cols = optimize._pair_indices(n)
    for got, expected in zip((rows, cols), np.triu_indices(n, k=1)):
        assert not got.flags.writeable
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    assert optimize._pair_indices(n)[0] is rows  # computed once per point count
    assert optimize._pair_indices.cache_info().maxsize == 8


@pytest.mark.parametrize("manifold", [S2, SymmetricPositiveDefinite(2)])
def test_distances_and_fit_over_cached_pair_indices_match_recomputed_indices(manifold):
    points, _, _ = random_frechet_problem(manifold, 9, np.random.default_rng(8))
    targets = np.abs(np.random.default_rng(9).standard_normal((9, 9)))
    targets = targets + targets.T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairwise_distances(points[:2])  # a miss, so the indices are used again
        assert pairwise_distances(points).tobytes() == _single_distances(points).tobytes()
        scale, residual = calibrate_scale(points, targets)
    iu = np.triu_indices(9, k=1)
    d, t = _single_distances(points)[iu], targets[iu]
    sqrt_lam = float(np.dot(t, d)) / float(np.dot(d, d))
    assert scale.value == sqrt_lam**2
    assert residual == float(np.sum((sqrt_lam * d - t) ** 2))


ONE_MANIFOLD_CASES = [Euclidean(3), S2, SymmetricPositiveDefinite(2),
                      SymmetricPositiveDefinite(8), ScaledManifold(S2, 4.0)]


def _points_built(how, manifold, n, seed):
    """``n`` points on ``manifold``: rows of the read-only stack that
    ``random_frechet_problem`` draws, separately built points, or the two
    alternating."""
    drawn, _, _ = random_frechet_problem(manifold, n, np.random.default_rng(seed))
    separate = [ManifoldPoint(manifold, np.array(p.coordinates)) for p in drawn]
    if how == "stack-rows":
        return list(drawn)
    if how == "separate":
        return separate
    return [a if i % 2 else b for i, (a, b) in enumerate(zip(drawn, separate))]


@pytest.mark.parametrize("how", ["stack-rows", "separate", "mixed"])
@pytest.mark.parametrize("n", [1, 2, 130])
@pytest.mark.parametrize("manifold", ONE_MANIFOLD_CASES, ids=repr)
def test_one_manifold_coordinates_are_a_fresh_copy_with_np_stacks_bytes(manifold, n, how):
    points = _points_built(how, manifold, n, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_manifold, coords = optimize._on_one_manifold(tuple(points))
        expected = np.stack([p.coordinates for p in points])
    assert got_manifold is points[0].manifold
    assert coords.shape == expected.shape == (n, *manifold.ambient_shape)
    assert coords.dtype == np.float64 and coords.tobytes() == expected.tobytes()
    assert coords.flags.c_contiguous and coords.flags.writeable
    assert not any(np.shares_memory(coords, p.coordinates) for p in points)


@pytest.mark.parametrize("how", ["stack-rows", "separate", "mixed"])
def test_points_on_different_manifolds_are_rejected_however_they_were_built(how):
    points = _points_built(how, S2, 4, 3)
    stray = ManifoldPoint(ScaledManifold(S2, 4.0), points[1].coordinates)
    with pytest.raises(ContractViolationError) as caught:
        optimize._on_one_manifold((*points, stray))
    assert str(caught.value) == "points live on different manifolds"


@pytest.mark.parametrize("manifold", ONE_MANIFOLD_CASES, ids=repr)
def test_equal_point_sets_built_apart_hit_the_distance_memo(monkeypatch, manifold):
    first = _points_built("stack-rows", manifold, 12, 5)
    second = _points_built("separate", manifold, 12, 5)
    assert all(a.coordinates is not b.coordinates for a, b in zip(first, second))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = pairwise_distances(first)
        calls = []
        dist = type(manifold).dist
        monkeypatch.setattr(type(manifold), "dist", lambda self, p, q: calls.append(1) or dist(self, p, q))
        got = pairwise_distances(second)
        scale, _ = calibrate_scale(second, 2.0 * got)
    assert calls == []
    assert got.tobytes() == expected.tobytes()
    assert scale.value == 4.0
