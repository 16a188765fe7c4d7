"""The property suite: coverage, determinism, and rendering."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from riemscale import (
    Euclidean,
    ManifoldPoint,
    Objective,
    PartialEquivalenceError,
    TangentVector,
    equivalence_check,
    render_csv,
    render_json,
    run_suite,
    verify,
)
from riemscale.verify import (
    EXPECTED_PROPERTY_COUNT,
    PROPERTY_CHECKS,
    _worst,
    derive_seed,
)

GEODESIC_CHECKS = ("chart.geodesic-invariance", "chart.matches-closed-form-geodesic")


@pytest.fixture(scope="module")
def report():
    return run_suite(0)


def test_every_check_passes(report):
    failed = [r["id"] for r in report["records"] if not r["passed"]]
    assert failed == []
    assert report["summary"]["failed"] == 0
    assert report["summary"]["passed"] == report["summary"]["total"]


def test_one_record_per_check_plus_coverage(report):
    ids = [r["id"] for r in report["records"]]
    assert len(ids) == len(set(ids))
    assert len(ids) == EXPECTED_PROPERTY_COUNT + 1
    assert set(ids) == {c.check_id for c in PROPERTY_CHECKS} | {"report.coverage"}
    assert ids == sorted(ids)


def test_registry_size_is_pinned():
    assert len(PROPERTY_CHECKS) == EXPECTED_PROPERTY_COUNT


def test_negative_check_is_inverted(report):
    record = next(
        r for r in report["records"]
        if r["id"] == "chart.nonconstant-scaling-breaks-connection"
    )
    assert record["criterion"] == ">="
    assert record["deviation"] >= 0.5
    assert record["passed"] is True


def test_deviations_are_finite_and_nonnegative_where_bounded(report):
    import math

    for record in report["records"]:
        assert math.isfinite(record["deviation"])
        if record["criterion"] == "<=":
            assert record["deviation"] <= record["tolerance"]


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(0, "variant.norm") == derive_seed(0, "variant.norm")
    assert derive_seed(0, "variant.norm") != derive_seed(1, "variant.norm")
    seeds = {derive_seed(0, c.check_id) for c in PROPERTY_CHECKS}
    assert len(seeds) == len(PROPERTY_CHECKS)


def test_json_rendering_is_deterministic_and_round_trips(report):
    text = render_json(report)
    assert text == render_json(report)
    parsed = json.loads(text)
    assert parsed["summary"] == report["summary"]
    for got, expected in zip(parsed["records"], report["records"]):
        assert got["deviation"] == expected["deviation"]  # 17 digits round-trip
        assert got["tolerance"] == expected["tolerance"]


def test_json_contains_no_unordered_keys(report):
    text = render_json(report)
    env = json.loads(text)["environment"]
    assert set(env) == {"seed", "version"}


def test_csv_rendering(report):
    lines = render_csv(report).strip().split("\n")
    assert lines[0].startswith("id,category,target,lambda,deviation")
    assert len(lines) == 1 + len(report["records"])
    assert all(line.endswith(("true", "false")) for line in lines[1:])


def test_alternate_seed_also_passes():
    other = run_suite(20250808)
    assert other["summary"]["failed"] == 0
    assert other["environment"]["seed"] == 20250808


def test_suite_geodesics_are_one_lockstep_call_per_run(report, monkeypatch):
    calls = []
    integrate = verify.geodesic_integrate_many

    def counted(charts, *args, **kwargs):
        calls.append(len(charts))
        return integrate(charts, *args, **kwargs)

    monkeypatch.setattr(verify, "geodesic_integrate_many", counted)
    monkeypatch.setattr(verify, "PROPERTY_CHECKS", tuple(
        c for c in PROPERTY_CHECKS if c.check_id in GEODESIC_CHECKS
    ))
    expected = {r["id"]: r["deviation"] for r in report["records"] if r["id"] in GEODESIC_CHECKS}
    for run in (1, 2):
        got = {r["id"]: r["deviation"] for r in run_suite(0)["records"] if r["id"] in expected}
        assert got == expected
        # 12 invariance arms and the closed-form equator arm, integrated afresh each run
        assert calls == [13] * run


def _sequential_trajectory_equivalence(rng):
    """The trajectory-equivalence check as nine equivalence_check calls,
    one after another."""
    for m in verify.MANIFOLDS:
        _, objective, x0 = verify.random_frechet_problem(m, 4, rng)
        for lam in verify.INVARIANT_LAMBDAS:
            yield equivalence_check(m, objective, x0, eta=0.1, lam=lam, iters=200)


def _yields_and_error(runner, seed):
    """What ``runner`` yields on a stream seeded by ``seed``, and the type
    and message of the error it ends with, if any."""
    got = []
    try:
        for deviation in runner(np.random.default_rng(seed)):
            got.append(deviation)
    except PartialEquivalenceError as exc:
        return got, (type(exc).__name__, str(exc), exc.partial_deviation)
    return got, None


def test_trajectory_equivalence_is_one_lockstep_run_per_manifold(monkeypatch):
    calls = []
    descend = verify.riemannian_gd_many

    def counted(manifolds, *args):
        calls.append(len(manifolds))
        return descend(manifolds, *args)

    monkeypatch.setattr(verify, "riemannian_gd_many", counted)
    for seed in (42, 7):
        got = _yields_and_error(verify._run_trajectory_equivalence, seed)
        expected = _yields_and_error(_sequential_trajectory_equivalence, seed)
        assert len(got[0]) == 9 and got[1] is None
        assert np.array(got[0]).tobytes() == np.array(expected[0]).tobytes()
    assert calls == [6, 6, 6] * 2


def _inside_the_disc_is_infinite():
    """f(x) = |x|^2 / 2 on the plane, except inf inside the unit disc."""

    def value_fn(x):
        r = float(np.linalg.norm(x.coordinates))
        return math.inf if r < 1.0 else 0.5 * r * r

    return Objective(value_fn, lambda x: TangentVector(x, np.array(x.coordinates)))


def test_a_failing_lockstep_arm_raises_what_the_sequential_check_raises(monkeypatch):
    # from |x0| = 50 with steps eta / lam: lam 10 stays outside the disc
    # for 200 steps, lam 4 enters it after about 155 and lam 0.25 after 8
    plane = Euclidean(2)
    x0 = ManifoldPoint(plane, [30.0, -40.0])
    monkeypatch.setattr(verify, "MANIFOLDS", (plane,))
    monkeypatch.setattr(verify, "INVARIANT_LAMBDAS", (10.0, 4.0, 0.25))
    monkeypatch.setattr(
        verify, "random_frechet_problem",
        lambda m, n, rng: ((), _inside_the_disc_is_infinite(), x0),
    )
    got = _yields_and_error(verify._run_trajectory_equivalence, 0)
    expected = _yields_and_error(_sequential_trajectory_equivalence, 0)
    assert got == expected
    assert len(got[0]) == 1
    assert got[1][0] == "PartialEquivalenceError"
    assert "common prefix of 155 iterates" in got[1][1]


def test_iterate_gradient_direction_without_a_stacked_pass_yields_the_same_deviations(
    monkeypatch,
):
    # a traced benchmark run wraps the objective's callbacks and drops its
    # stacked pass; the check then measures one iterate at a time
    passes = []
    draw = verify.random_frechet_problem

    def without_stacked_pass(m, n, rng):
        points, objective, x0 = draw(m, n, rng)
        passes.append(objective._measure_many is not None)
        return points, replace(objective, _measure_many=None), x0

    for seed in (42, 7):
        stacked = list(verify._run_iterate_gradient_direction(np.random.default_rng(seed)))
        with monkeypatch.context() as patched:
            patched.setattr(verify, "random_frechet_problem", without_stacked_pass)
            single = list(verify._run_iterate_gradient_direction(np.random.default_rng(seed)))
        assert len(stacked) > 100
        assert np.array(single).tobytes() == np.array(stacked).tobytes()
    assert passes == [True] * 6


def test_worst_deviation_is_nan_if_any_deviation_is_nan():
    for deviations in ([1e-20, math.nan], [math.nan, 1e-20], [0.0, math.nan, 2.0]):
        assert math.isnan(_worst(lambda rng: iter(deviations))(None))
    assert _worst(lambda rng: iter([-2.0, -1.0]))(None) == -1.0
    assert _worst(lambda rng: iter([]))(None) == 0.0


def test_a_nan_deviation_fails_either_criterion(monkeypatch):
    nan_run = _worst(lambda rng: iter([1e-20, math.nan]))
    checks = tuple(
        replace(PROPERTY_CHECKS[0], check_id=f"nan{criterion}", criterion=criterion, run=nan_run)
        for criterion in ("<=", ">=")
    )
    monkeypatch.setattr(verify, "PROPERTY_CHECKS", checks)
    records = {r["id"]: r for r in run_suite(0)["records"]}
    for check in checks:
        assert math.isnan(records[check.check_id]["deviation"])
        assert records[check.check_id]["passed"] is False


# Per-case loops, one single call per operation: the references the batched
# sweeps must reproduce, deviation for deviation and in the same order.


def _loop_angle(m, p, u, v):
    nu = m.norm(p, u)
    nv = m.norm(p, v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    c = m.inner(p, u, v) / (nu * nv)
    s = min(1.0, m.norm(p, u / nu - c * (v / nv)))
    angle = math.asin(s)
    return math.pi - angle if c < 0.0 else angle


def _loop_curve(m, rng):
    pts = [m.random_point(rng)]
    for _ in range(3):
        v = m.random_tangent(pts[-1], rng)
        nv = m.norm(pts[-1], v)
        if nv > 0.0:
            v = v * (0.3 / nv)
        pts.append(m.exp(pts[-1], v))
    return pts


def _loop_norm_and_curve_length(rng):
    for measure, draw in (
        (lambda m, p, v: m.norm(p, v), verify._point_and_tangent),
        (lambda m, pts: m.curve_length(pts), lambda m, rng: (_loop_curve(m, rng),)),
    ):
        for m in verify.MANIFOLDS:
            for _ in range(verify.CASES_PER_SWEEP):
                args = draw(m, rng)
                base = measure(m, *args)
                for lam in verify.VARIANT_LAMBDAS:
                    ref = math.sqrt(lam) * base
                    got = measure(verify.ScaledManifold(m, lam), *args)
                    yield abs(got - ref) / max(abs(ref), 1e-300)


def _batched_norm_and_curve_length(rng):
    yield from verify._run_variant_norm(rng)
    yield from verify._run_variant_curve_length(rng)


def _loop_gradient_direction(rng):
    for m in verify.MANIFOLDS:
        for _ in range(verify.DELEGATION_CASES):
            p = m.random_point(rng)
            grad = m.euclidean_to_riemannian_gradient(p, rng.standard_normal(m.ambient_shape))
            if m.norm(p, grad) < 1e-12:
                continue
            for lam in verify.VARIANT_LAMBDAS:
                scaled = verify.ScaledManifold(m, lam).rescale_gradient(grad)
                yield _loop_angle(m, p, scaled, grad)


def _loop_update_rule_identity(rng):
    for m in verify.MANIFOLDS:
        for _ in range(verify.DELEGATION_CASES):
            p = m.random_point(rng)
            grad = m.euclidean_to_riemannian_gradient(p, rng.standard_normal(m.ambient_shape))
            for lam in verify.VARIANT_LAMBDAS:
                for eta in (0.1, 0.5):
                    got = -eta * verify.ScaledManifold(m, lam).rescale_gradient(grad)
                    ref = -(eta / lam) * grad
                    yield float(np.max(np.abs(got - ref))) / max(float(np.max(np.abs(ref))), 1e-300)


@pytest.mark.parametrize("batched, loop", [
    (_batched_norm_and_curve_length, _loop_norm_and_curve_length),
    (verify._run_gradient_direction, _loop_gradient_direction),
    (verify._run_update_rule_identity, _loop_update_rule_identity),
])
def test_batched_sweeps_yield_what_per_case_loops_yield(batched, loop):
    for seed in (42, 7):
        got = [float(x) for x in batched(np.random.default_rng(seed))]
        expected = [float(x) for x in loop(np.random.default_rng(seed))]
        assert np.array(got).tobytes() == np.array(expected).tobytes()
