"""Scaling laws on the wrapper: variant quantities carry exact factors,
invariant structure is forwarded bit for bit."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from riemscale import (
    ContractViolationError,
    DomainError,
    Euclidean,
    ManifoldPoint,
    SampledCurve,
    ScaleFactor,
    ScaledManifold,
    Sphere,
    SymmetricPositiveDefinite,
    TangentVector,
    curve_length,
    distance,
    exp_map,
    inner_product,
    log_map,
    norm,
    parallel_transport,
    random_point,
    random_tangent,
    riemannian_gradient,
    tangent_projection,
    volume_scale_factor,
)

from conftest import SCALES

S2 = Sphere(2)
SPD2 = SymmetricPositiveDefinite(2)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _on(sm, x):
    """The same point (or tangent vector, or curve) rebuilt over ``sm``, so
    the typed operations measure it in the scaled metric."""
    if isinstance(x, ManifoldPoint):
        return ManifoldPoint(sm, x.coordinates)
    if isinstance(x, TangentVector):
        return TangentVector(_on(sm, x.base), x.components)
    return SampledCurve(tuple(_on(sm, pt) for pt in x.points))


# ---------------------------------------------------------------------------
# scale factor validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan"), "abc", None, True, "4",
                                 pytest.param(10**5000, id="int-of-5001-digits")])
def test_scale_factor_rejects_bad_values(bad):
    with pytest.raises(ContractViolationError):
        ScaleFactor(bad)
    with pytest.raises(ContractViolationError):
        ScaledManifold(S2, bad)


def test_scale_factor_value():
    assert float(ScaleFactor(2.5)) == 2.5


# ---------------------------------------------------------------------------
# variant quantities: worked examples
# ---------------------------------------------------------------------------


def test_scaled_inner_examples():
    e2 = Euclidean(2)
    p = ManifoldPoint(e2, np.zeros(2))
    u = TangentVector(p, np.array([3.0, 4.0]))
    u1 = _on(ScaledManifold(e2, 1.0), u)
    u4 = _on(ScaledManifold(e2, 4.0), u)
    assert inner_product(u1, u1) == inner_product(u, u)
    assert inner_product(u4, u4) == 100.0

    pid = ManifoldPoint(SPD2, np.eye(2))
    w = TangentVector(pid, np.eye(2))
    w_half = _on(ScaledManifold(SPD2, 0.5), w)
    assert inner_product(w_half, w_half) == pytest.approx(1.0, abs=1e-14)


def test_scaled_norm_examples():
    e2 = Euclidean(2)
    p = ManifoldPoint(e2, np.zeros(2))
    zero = TangentVector(p, np.zeros(2))
    for lam in SCALES:
        assert norm(_on(ScaledManifold(e2, lam), zero)) == 0.0
    two = TangentVector(p, np.array([2.0, 0.0]))
    assert norm(_on(ScaledManifold(e2, 4.0), two)) == pytest.approx(4.0, rel=1e-15)
    ones = TangentVector(p, np.array([1.0, 1.0]))
    assert norm(_on(ScaledManifold(e2, 2.0), ones)) == pytest.approx(2.0, rel=1e-15)


def test_scaled_distance_examples():
    p = ManifoldPoint(S2, np.array([1.0, 0.0, 0.0]))
    q = ManifoldPoint(S2, np.array([0.0, 1.0, 0.0]))
    s1, s4 = ScaledManifold(S2, 1.0), ScaledManifold(S2, 4.0)
    assert distance(_on(s1, p), _on(s1, q)) == distance(p, q)
    assert distance(_on(s4, p), _on(s4, q)) == pytest.approx(math.pi, abs=1e-15)
    a = ManifoldPoint(SPD2, np.eye(2))
    b = ManifoldPoint(SPD2, np.diag([math.e, math.e]))
    # base distance oracle is sqrt(2); tripling the unit of length gives 3 sqrt(2)
    s9 = ScaledManifold(SPD2, 9.0)
    assert distance(_on(s9, a), _on(s9, b)) == pytest.approx(
        3.0 * math.sqrt(2.0), rel=1e-13
    )


def test_scaled_curve_length_examples():
    ts = np.linspace(0.0, math.pi / 2, 11)
    pts = tuple(
        ManifoldPoint(S2, np.array([math.cos(t), math.sin(t), 0.0])) for t in ts
    )
    curve = SampledCurve(pts)
    assert curve_length(_on(ScaledManifold(S2, 4.0), curve)) == pytest.approx(
        math.pi, abs=1e-10
    )
    assert curve_length(_on(ScaledManifold(S2, 1.0), curve)) == curve_length(curve)
    p = pts[0]
    constant = SampledCurve((p, p))
    assert curve_length(_on(ScaledManifold(S2, 10.0), constant)) == 0.0


def test_volume_scale_factor_examples():
    assert volume_scale_factor(1.0, 5) == 1.0
    assert volume_scale_factor(4.0, 3) == pytest.approx(8.0, rel=1e-15)
    assert volume_scale_factor(0.25, 2) == pytest.approx(0.25, rel=1e-15)
    assert volume_scale_factor(ScaleFactor(4.0), 2) == 4.0
    for n in (0, 2.0, True):
        with pytest.raises(ContractViolationError):
            volume_scale_factor(4.0, n)


@pytest.mark.parametrize("lam, n", [(1e10, 210), (1e-10, 210), (1e300, 3)])
def test_volume_scale_factor_out_of_double_range_is_a_domain_error(lam, n):
    with pytest.raises(DomainError, match="volume factor"):
        volume_scale_factor(lam, n)


def test_volume_scale_factor_matches_exponential_form():
    for lam in SCALES:
        for n in range(1, 9):
            expected = math.exp(0.5 * n * math.log(lam))
            assert volume_scale_factor(lam, n) == pytest.approx(expected, rel=1e-14)


def test_scaled_gradient_examples():
    e2 = Euclidean(2)
    p = ManifoldPoint(e2, np.array([1.0, 2.0]))
    ambient = p.coordinates  # gradient of the half squared norm
    assert _same_bits(
        riemannian_gradient(_on(ScaledManifold(e2, 1.0), p), ambient).components,
        riemannian_gradient(p, ambient).components,
    )
    assert_allclose(
        riemannian_gradient(_on(ScaledManifold(e2, 2.0), p), ambient).components,
        [0.5, 1.0],
    )
    for lam in SCALES:
        assert_allclose(
            riemannian_gradient(_on(ScaledManifold(e2, lam), p), np.zeros(2)).components,
            0.0,
            atol=0,
        )


# ---------------------------------------------------------------------------
# delegation: the geodesic machinery is identical, not approximately equal
# ---------------------------------------------------------------------------


def test_delegation_examples_at_extreme_scale():
    sm = ScaledManifold(S2, 100.0)
    p = ManifoldPoint(S2, np.array([1.0, 0.0, 0.0]))
    q = ManifoldPoint(S2, np.array([0.0, 1.0, 0.0]))
    v = TangentVector(p, np.array([0.0, math.pi / 2, 0.0]))
    assert _same_bits(exp_map(_on(sm, v)).coordinates, exp_map(v).coordinates)
    assert _same_bits(log_map(_on(sm, p), _on(sm, q)).components, log_map(p, q).components)
    assert_allclose(exp_map(_on(sm, v)).coordinates, [0.0, 1.0, 0.0], atol=1e-15)


def test_scaled_log_norm_rescales_like_distance():
    sm = ScaledManifold(S2, 4.0)
    p = ManifoldPoint(S2, np.array([1.0, 0.0, 0.0]))
    q = ManifoldPoint(S2, np.array([0.0, 1.0, 0.0]))
    v = log_map(_on(sm, p), _on(sm, q))
    assert norm(v) == pytest.approx(math.pi, abs=1e-14)
    assert norm(v) == pytest.approx(2.0 * norm(log_map(p, q)), rel=1e-14)


def test_delegation_is_bit_identical(manifold, rng):
    for lam in SCALES:
        sm = ScaledManifold(manifold, lam)
        for _ in range(25):
            p = random_point(manifold, rng)
            q = random_point(manifold, rng)
            v = random_tangent(p, rng)
            w = rng.standard_normal(manifold.ambient_shape)
            assert _same_bits(
                exp_map(_on(sm, v)).coordinates, exp_map(v).coordinates
            )
            assert _same_bits(
                log_map(_on(sm, p), _on(sm, q)).components, log_map(p, q).components
            )
            assert _same_bits(
                parallel_transport(_on(sm, v), _on(sm, q)).components,
                manifold.transport(p.coordinates, q.coordinates, v.components),
            )
            assert _same_bits(
                tangent_projection(_on(sm, p), w).components,
                manifold.to_tangent(p.coordinates, w),
            )


# ---------------------------------------------------------------------------
# randomized scaling laws
# ---------------------------------------------------------------------------


def test_variant_laws(manifold, rng):
    for _ in range(100):
        p = random_point(manifold, rng)
        q = random_point(manifold, rng)
        v = random_tangent(p, rng)
        ambient = rng.standard_normal(manifold.ambient_shape)
        base_norm = norm(v)
        base_dist = distance(p, q)
        base_grad = manifold.euclidean_to_riemannian_gradient(p.coordinates, ambient)
        for lam in SCALES:
            sm = ScaledManifold(manifold, lam)
            root = math.sqrt(lam)
            assert norm(_on(sm, v)) == pytest.approx(root * base_norm, rel=1e-12)
            assert distance(_on(sm, p), _on(sm, q)) == pytest.approx(
                root * base_dist, rel=1e-12
            )
            got = sm.euclidean_to_riemannian_gradient(p.coordinates, ambient)
            assert_allclose(got, base_grad / lam, rtol=1e-12, atol=0)


def test_variant_law_curve_length(manifold, rng):
    for _ in range(25):
        p = random_point(manifold, rng)
        pts = [p]
        for _ in range(3):
            step = random_tangent(pts[-1], rng)
            n = norm(step)
            if n > 0:
                step = TangentVector(pts[-1], step.components * (0.3 / n))
            pts.append(exp_map(step))
        curve = SampledCurve(tuple(pts))
        base = curve_length(curve)
        for lam in SCALES:
            sm = ScaledManifold(manifold, lam)
            assert curve_length(_on(sm, curve)) == pytest.approx(
                math.sqrt(lam) * base, rel=1e-12
            )


def test_scaling_composes_multiplicatively(manifold, rng):
    for lam1, lam2 in ((0.25, 4.0), (4.0, 10.0), (10.0, 0.25)):
        nested = ScaledManifold(ScaledManifold(manifold, lam1), lam2)
        flat = ScaledManifold(manifold, lam1 * lam2)
        assert nested.total_scale == pytest.approx(flat.lam, rel=1e-15)
        assert nested.root == manifold
        for _ in range(25):
            p = random_point(manifold, rng)
            q = random_point(manifold, rng)
            v = random_tangent(p, rng)
            assert nested.norm(p.coordinates, v.components) == pytest.approx(
                flat.norm(p.coordinates, v.components), rel=1e-12
            )
            assert nested.dist(p.coordinates, q.coordinates) == pytest.approx(
                flat.dist(p.coordinates, q.coordinates), rel=1e-12
            )
            assert_allclose(
                nested.rescale_gradient(v.components),
                flat.rescale_gradient(v.components),
                rtol=1e-12,
                atol=0,
            )


def test_unit_scale_is_a_full_identity(manifold, rng):
    sm = ScaledManifold(manifold, 1.0)
    for _ in range(25):
        p = random_point(manifold, rng)
        q = random_point(manifold, rng)
        v = random_tangent(p, rng)
        pc, qc, vc = p.coordinates, q.coordinates, v.components
        assert sm.norm(pc, vc) == manifold.norm(pc, vc)
        assert sm.dist(pc, qc) == manifold.dist(pc, qc)
        assert _same_bits(sm.rescale_gradient(vc), manifold.rescale_gradient(vc))
        assert _same_bits(sm.exp(pc, vc), manifold.exp(pc, vc))
        assert _same_bits(sm.log(pc, qc), manifold.log(pc, qc))


def test_gradient_direction_is_invariant(manifold, rng):
    for _ in range(50):
        p = random_point(manifold, rng)
        ambient = rng.standard_normal(manifold.ambient_shape)
        base = manifold.euclidean_to_riemannian_gradient(p.coordinates, ambient)
        base_norm = manifold.norm(p.coordinates, base)
        if base_norm < 1e-12:
            continue
        for lam in SCALES:
            sm = ScaledManifold(manifold, lam)
            scaled = sm.rescale_gradient(base)
            unit_scaled = scaled / manifold.norm(p.coordinates, scaled)
            unit_base = base / base_norm
            assert float(np.max(np.abs(unit_scaled - unit_base))) <= 1e-12


# ---------------------------------------------------------------------------
# contracts
# ---------------------------------------------------------------------------


def test_scaled_ops_reject_foreign_points():
    sm = ScaledManifold(S2, 4.0)
    p = ManifoldPoint(sm, np.array([1.0, 0.0, 0.0]))
    q = ManifoldPoint(Euclidean(3), np.ones(3))
    with pytest.raises(ContractViolationError):
        distance(p, q)
    with pytest.raises(ContractViolationError):
        distance(p, ManifoldPoint(S2, np.array([0.0, 1.0, 0.0])))
    with pytest.raises(ContractViolationError):
        ManifoldPoint(sm, np.ones(3))


def test_scaled_manifold_exposes_base_descriptor():
    sm = ScaledManifold(SPD2, 4.0)
    assert sm.family == "spd"
    assert sm.intrinsic_dim == SPD2.intrinsic_dim
    assert sm.ambient_shape == SPD2.ambient_shape
