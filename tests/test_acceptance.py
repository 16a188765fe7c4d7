"""Acceptance gate: every release-blocking criterion at its pinned
tolerance, one pass/fail line printed per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from riemscale import (
    ManifoldPoint,
    ScaledManifold,
    Sphere,
    christoffel_at,
    equivalence_check,
    euclidean_chart,
    frechet_objective,
    geodesic_integrate,
    manifold_from_string,
    pairwise_distances,
    polar_chart,
    riemannian_gd,
    scale_chart_constant,
    scale_chart_pointwise,
    sphere_chart,
    volume_density,
)
from riemscale.optimize import (
    OptimizerConfig,
    calibrate_scale,
    joint_descent,
    random_frechet_problem,
)
from riemscale.verify import GEODESIC_STARTS

MANIFOLD_SPECS = ("euclidean:3", "sphere:2", "spd:2")
ALL_SCALES = (0.25, 1.0, 4.0, 10.0)
CHARTS = (euclidean_chart(2), polar_chart(), sphere_chart())


def _criterion(number, description, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {description} ({elapsed:.2f}s < {budget:g}s)")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def _interior(chart, rng, count):
    margin = 0.05 * (chart.upper - chart.lower)
    return rng.uniform(chart.lower + margin, chart.upper - margin, (count, chart.dimension))


def test_criterion_1_norm_distance_length_scaling():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for spec in MANIFOLD_SPECS:
        m = manifold_from_string(spec)
        for _ in range(100):
            p = m.random_point(rng)
            q = m.random_point(rng)
            v = m.random_tangent(p, rng)
            steps = [p, m.exp(p, 0.2 * v)] if m.norm(p, v) > 0 else [p, p]
            base_norm = m.norm(p, v)
            base_dist = m.dist(p, q)
            base_len = m.curve_length(steps)
            for lam in ALL_SCALES:
                sm = ScaledManifold(m, lam)
                root = math.sqrt(lam)
                for got, ref in (
                    (sm.norm(p, v), root * base_norm),
                    (sm.dist(p, q), root * base_dist),
                    (sm.curve_length(steps), root * base_len),
                ):
                    worst = max(worst, abs(got - ref) / max(abs(ref), 1e-300))
    _criterion(
        1,
        f"norm/distance/length scale by sqrt(lambda), worst rel dev {worst:.2e} <= 1e-12",
        worst <= 1e-12,
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_2_volume_factor():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for chart in CHARTS:
        n = chart.dimension
        for x in _interior(chart, rng, 20):
            base = volume_density(chart, x)
            for lam in ALL_SCALES:
                ratio = volume_density(scale_chart_constant(chart, lam), x) / base
                ref = lam ** (n / 2)
                worst = max(worst, abs(ratio - ref) / ref)
    _criterion(
        2,
        f"volume density scales by lambda^(n/2), worst rel dev {worst:.2e} <= 1e-10",
        worst <= 1e-10,
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_3_gradient_law():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_scaling = 0.0
    worst_fd = 0.0
    h = 1e-5
    for spec in MANIFOLD_SPECS:
        m = manifold_from_string(spec)
        a = rng.standard_normal(m.ambient_shape)
        c = rng.standard_normal(m.ambient_shape)
        functions = [
            (lambda x, a=a: float(np.sum(a * x)), lambda x, a=a: a),
            (lambda x, c=c: 0.5 * float(np.sum((x - c) ** 2)), lambda x, c=c: x - c),
        ]
        if m.family == "spd":
            functions.append(
                (lambda x: float(np.linalg.slogdet(x)[1]), lambda x: np.linalg.inv(x))
            )
        for _ in range(50):
            p = m.random_point(rng)
            for value_fn, ambient_fn in functions:
                grad = m.euclidean_to_riemannian_gradient(p, ambient_fn(p))
                for lam in ALL_SCALES:
                    sm = ScaledManifold(m, lam)
                    got = sm.euclidean_to_riemannian_gradient(p, ambient_fn(p))
                    scale = max(float(np.max(np.abs(grad / lam))), 1e-300)
                    worst_scaling = max(
                        worst_scaling, float(np.max(np.abs(got - grad / lam))) / scale
                    )
                v = m.random_tangent(p, rng)
                nv = m.norm(p, v)
                if nv == 0.0:
                    continue
                v = v / nv
                fd = (value_fn(m.exp(p, h * v)) - value_fn(m.exp(p, -h * v))) / (2 * h)
                ip = m.inner(p, grad, v)
                denom = max(abs(ip), 1e-3 * m.norm(p, grad), 1e-12)
                worst_fd = max(worst_fd, abs(fd - ip) / denom)
    _criterion(
        3,
        f"gradient scales by 1/lambda (dev {worst_scaling:.2e} <= 1e-12) and matches "
        f"finite differences (dev {worst_fd:.2e} <= 1e-5)",
        worst_scaling <= 1e-12 and worst_fd <= 1e-5,
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_4_connection_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for chart in CHARTS:
        points = _interior(chart, rng, 20)
        for lam in (0.25, 4.0, 10.0):
            scaled = scale_chart_constant(chart, lam)
            for x in points:
                delta = christoffel_at(scaled, x).symbols - christoffel_at(chart, x).symbols
                worst = max(worst, float(np.max(np.abs(delta))))
    _criterion(
        4,
        f"constant scaling leaves the connection unchanged, worst dev {worst:.2e} <= 1e-6",
        worst <= 1e-6,
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_5_geodesic_exp_log_transport_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    bitwise_ok = True
    worst_log_norm = 0.0
    for spec in MANIFOLD_SPECS:
        m = manifold_from_string(spec)
        for _ in range(25):
            p = m.random_point(rng)
            q = m.random_point(rng)
            v = m.random_tangent(p, rng)
            w = rng.standard_normal(m.ambient_shape)
            base_dist = m.dist(p, q)
            for lam in ALL_SCALES:
                sm = ScaledManifold(m, lam)
                bitwise_ok &= sm.exp(p, v).tobytes() == m.exp(p, v).tobytes()
                bitwise_ok &= sm.log(p, q).tobytes() == m.log(p, q).tobytes()
                bitwise_ok &= (
                    sm.transport(p, q, v).tobytes() == m.transport(p, q, v).tobytes()
                )
                bitwise_ok &= (
                    sm.to_tangent(p, w).tobytes() == m.to_tangent(p, w).tobytes()
                )
                log_norm = sm.norm(p, sm.log(p, q))
                ref = math.sqrt(lam) * base_dist
                worst_log_norm = max(
                    worst_log_norm, abs(log_norm - ref) / max(ref, 1e-300)
                )
    worst_path = 0.0
    for chart in CHARTS:
        x0, v0 = GEODESIC_STARTS[chart.name]
        base = geodesic_integrate(chart, x0, v0, steps=1000)
        for lam in (0.25, 4.0, 10.0):
            scaled = geodesic_integrate(scale_chart_constant(chart, lam), x0, v0, steps=1000)
            worst_path = max(
                worst_path, float(np.max(np.abs(scaled.positions - base.positions)))
            )
    _criterion(
        5,
        "exp/log/transport/projection delegate bit-identically, chart geodesics "
        f"deviate {worst_path:.2e} <= 1e-8, scaled log norm tracks distance "
        f"(dev {worst_log_norm:.2e} <= 1e-10)",
        bitwise_ok and worst_path <= 1e-8 and worst_log_norm <= 1e-10,
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_6_optimizer_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    for spec in ("sphere:2", "spd:2"):
        m = manifold_from_string(spec)
        _, objective, x0 = random_frechet_problem(m, 4, rng)
        # lambda = 4 with step 0.1 against the unscaled metric with step 0.025
        worst = max(
            worst, equivalence_check(m, objective, x0, eta=0.1, lam=4.0, iters=200)
        )
    sphere = Sphere(2)
    e1 = ManifoldPoint(sphere, np.array([1.0, 0.0, 0.0]))
    e2 = ManifoldPoint(sphere, np.array([0.0, 1.0, 0.0]))
    trace = riemannian_gd(
        sphere, frechet_objective([e1, e2]), e1,
        OptimizerConfig(step_size=0.5, max_iters=100),
    )
    target = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    mean_err = float(np.max(np.abs(trace.iterates[-1].coordinates - target)))
    _criterion(
        6,
        f"scaled and step-rescaled runs coincide (dev {worst:.2e} <= 1e-8) and the "
        f"two-point sphere mean lands on the midpoint (err {mean_err:.2e} <= 1e-8)",
        worst <= 1e-8 and trace.stop_reason == "converged" and mean_err <= 1e-8,
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_7_scale_calibration():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    m = manifold_from_string("sphere:2")
    points, objective, x0 = random_frechet_problem(m, 4, rng)
    base = pairwise_distances(points)
    worst_lam = 0.0
    for c in (0.5, 1.0, 3.0):
        scale, residual = calibrate_scale(points, c * base)
        worst_lam = max(worst_lam, abs(scale.value - c * c) / (c * c))
        assert residual <= 1e-10
    # the calibrated run must retrace the base-metric run at step eta/lambda*
    eta, iters = 0.1, 200
    config = OptimizerConfig(step_size=eta, max_iters=iters, grad_tol=0.0)
    joint_trace, scale, _ = joint_descent(points, 2.0 * base, objective, x0, config)
    base_trace = riemannian_gd(
        m, objective, x0,
        OptimizerConfig(step_size=eta / scale.value, max_iters=iters, grad_tol=0.0),
    )
    deviation = max(
        m.dist(a.coordinates, b.coordinates)
        for a, b in zip(joint_trace.iterates, base_trace.iterates)
    )
    _criterion(
        7,
        f"targets c*d recover lambda*=c^2 (rel dev {worst_lam:.2e} <= 1e-10) and the "
        f"joint-descent path matches the eta/lambda* base run (dev {deviation:.2e} <= 1e-8)",
        worst_lam <= 1e-10 and scale.value == 4.0 and deviation <= 1e-8,
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_8_nonconstant_scaling_negative_check():
    start = time.perf_counter()
    chart = euclidean_chart(2)
    scaled = scale_chart_pointwise(chart, lambda x: math.exp(2.0 * x[0]))
    origin = np.zeros(2)
    delta = christoffel_at(scaled, origin).symbols - christoffel_at(chart, origin).symbols
    max_delta = float(np.max(np.abs(delta)))
    # hand-derived connection of exp(2*x0) times the flat metric
    oracle = np.zeros((2, 2, 2))
    oracle[0, 0, 0] = 1.0
    oracle[0, 1, 1] = -1.0
    oracle[1, 0, 1] = oracle[1, 1, 0] = 1.0
    oracle_err = float(np.max(np.abs(christoffel_at(scaled, origin).symbols - oracle)))
    _criterion(
        8,
        f"pointwise factor changes the connection (max delta {max_delta:.3f} >= 0.5, "
        f"oracle agreement {oracle_err:.2e} <= 1e-6)",
        max_delta >= 0.5 and oracle_err <= 1e-6,
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_9_cli_determinism(tmp_path):
    start = time.perf_counter()
    outputs = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "riemscale.cli", "--command", "verify",
             "--seed", "42", "--out", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    identical = outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    _criterion(
        9,
        "two verify runs with one seed are byte-identical and exit 0 on a "
        f"clean suite ({report['summary']['passed']}/{report['summary']['total']} passed)",
        identical and report["summary"]["failed"] == 0,
        time.perf_counter() - start,
        30.0,
    )
