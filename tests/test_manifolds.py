"""Closed-form geometry: worked examples with independent oracles, then
randomized structural properties."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from riemscale import (
    Chart,
    ContractViolationError,
    DomainError,
    Euclidean,
    InternalConsistencyError,
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
from test_batched import _spd


def _point(m, coords):
    return ManifoldPoint(m, np.asarray(coords, dtype=float))


def _vector(p, comps):
    return TangentVector(p, np.asarray(comps, dtype=float))


E2, E3 = Euclidean(2), Euclidean(3)
S2 = Sphere(2)
SPD2 = SymmetricPositiveDefinite(2)


# ---------------------------------------------------------------------------
# inner product
# ---------------------------------------------------------------------------


def test_inner_euclidean_is_dot_product():
    p = _point(E2, [0.0, 0.0])
    u = _vector(p, [3.0, 4.0])
    assert inner_product(u, u) == 25.0


def test_inner_spd_at_identity():
    p = _point(SPD2, np.eye(2))
    u = _vector(p, np.eye(2))
    assert inner_product(u, u) == pytest.approx(2.0, abs=1e-14)


def test_inner_spd_diagonal_against_explicit_trace():
    P = np.diag([2.0, 2.0])
    # oracle: evaluate trace(P^-1 U P^-1 V) directly from the definition
    oracle = float(np.trace(np.linalg.inv(P) @ np.eye(2) @ np.linalg.inv(P) @ np.eye(2)))
    assert oracle == pytest.approx(0.5, abs=1e-15)
    p = _point(SPD2, P)
    u = _vector(p, np.eye(2))
    assert inner_product(u, u) == pytest.approx(oracle, abs=1e-14)


def test_inner_requires_matching_base_points():
    p = _point(S2, [1.0, 0.0, 0.0])
    q = _point(S2, [0.0, 1.0, 0.0])
    u = _vector(p, [0.0, 1.0, 0.0])
    v = _vector(q, [1.0, 0.0, 0.0])
    with pytest.raises(ContractViolationError):
        inner_product(u, v)


def test_inner_spd_rejects_indefinite_base():
    with pytest.raises(DomainError):
        _point(SPD2, np.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# exp / log / distance
# ---------------------------------------------------------------------------


def test_exp_zero_velocity_is_identity(manifold, rng):
    p = random_point(manifold, rng)
    z = TangentVector(p, manifold.zero_tangent(p.coordinates))
    assert_allclose(exp_map(z).coordinates, p.coordinates, rtol=0, atol=1e-15)


def test_exp_sphere_quarter_circle():
    p = _point(S2, [1.0, 0.0, 0.0])
    v = _vector(p, [0.0, math.pi / 2, 0.0])
    assert_allclose(exp_map(v).coordinates, [0.0, 1.0, 0.0], atol=1e-15)


def test_exp_spd_at_identity_is_matrix_exponential():
    p = _point(SPD2, np.eye(2))
    v = _vector(p, np.diag([1.0, -1.0]))
    oracle = scipy.linalg.expm(np.diag([1.0, -1.0]))
    assert_allclose(oracle, np.diag([math.e, 1.0 / math.e]), rtol=1e-14)
    assert_allclose(exp_map(v).coordinates, oracle, rtol=1e-13)


def test_exp_spd_overflow_raises_instead_of_returning_nan():
    # exp(800) overflows, so the product holds inf * 0 = NaN entries
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InternalConsistencyError, match="drifted nan"):
            SPD2.exp(np.eye(2), np.diag([800.0, 1.0]))


def test_exp_sphere_overflow_raises_instead_of_a_math_error():
    # the tangent norm overflows to inf, where cos and sin are undefined
    e0 = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1e300, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not finite"):
            S2.exp(e0, v)
        with pytest.raises(DomainError, match="not finite"):
            exp_map(TangentVector(_point(S2, e0), v))


def test_spd_whitening_overflow_is_a_domain_error_without_a_warning():
    # L^-1 x L^-T with p = 1e-300 I scales x by 1e300: past the double range
    p = _point(SPD2, 1e-300 * np.eye(2))
    q = _point(SPD2, 1e300 * np.eye(2))
    v = _vector(p, 1e10 * np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op, args in ((norm, (v,)), (inner_product, (v, v)), (distance, (p, q)),
                         (log_map, (p, q))):
            with pytest.raises(DomainError, match="L\\^-1 x L\\^-T overflowed"):
                op(*args)


def test_spd_symmetry_guard_scales_with_an_ill_conditioned_base():
    # p = A diag(1, c) A^T with c up to 1e8 and q near the identity: the
    # log's rounding asymmetry grows with c, past any absolute budget
    rng = np.random.default_rng(0)
    for _ in range(500):
        a, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        p = (a * [1.0, 10.0 ** rng.uniform(0.0, 8.0)]) @ a.T
        p = 0.5 * (p + p.T)
        e = 1e-3 * rng.standard_normal((2, 2))
        q = np.eye(2) + 0.5 * (e + e.T)
        v = SPD2.log(p, q)
        assert np.isfinite(SPD2.exp(p, v)).all()


def test_log_at_same_point_is_zero(manifold, rng):
    p = random_point(manifold, rng)
    assert_allclose(log_map(p, p).components, 0.0, atol=0)


def test_log_sphere_quarter_circle():
    p = _point(S2, [1.0, 0.0, 0.0])
    q = _point(S2, [0.0, 1.0, 0.0])
    assert_allclose(log_map(p, q).components, [0.0, math.pi / 2, 0.0], atol=1e-15)


def test_log_spd_at_identity_is_matrix_logarithm():
    q_mat = np.diag([math.e**2, 1.0])
    oracle = scipy.linalg.logm(q_mat).real
    assert_allclose(oracle, np.diag([2.0, 0.0]), atol=1e-14)
    p = _point(SPD2, np.eye(2))
    q = _point(SPD2, q_mat)
    assert_allclose(log_map(p, q).components, oracle, atol=1e-13)


def test_log_sphere_antipode_raises():
    p = _point(S2, [1.0, 0.0, 0.0])
    q = _point(S2, [-1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        log_map(p, q)


def test_log_rejects_manifold_mismatch():
    p = _point(S2, [1.0, 0.0, 0.0])
    q = _point(E3, [1.0, 0.0, 0.0])
    with pytest.raises(ContractViolationError):
        log_map(p, q)
    with pytest.raises(ContractViolationError):
        log_map(p, q.coordinates)
    with pytest.raises(ContractViolationError):
        distance("a", "b")


def test_distance_to_self_is_exactly_zero(manifold, rng):
    p = random_point(manifold, rng)
    assert distance(p, p) == 0.0


def test_distance_sphere_quarter_circle():
    p = _point(S2, [1.0, 0.0, 0.0])
    q = _point(S2, [0.0, 1.0, 0.0])
    assert distance(p, q) == pytest.approx(math.pi / 2, abs=1e-15)


def test_distance_sphere_antipode_is_pi():
    p = _point(S2, [1.0, 0.0, 0.0])
    q = _point(S2, [-1.0, 0.0, 0.0])
    assert distance(p, q) == pytest.approx(math.pi, abs=1e-15)


def test_distance_spd_against_frobenius_log_oracle():
    q_mat = np.diag([math.e, math.e])
    # oracle: Frobenius norm of the matrix logarithm at the identity
    oracle = float(np.linalg.norm(scipy.linalg.logm(q_mat).real, "fro"))
    assert oracle == pytest.approx(math.sqrt(2.0), abs=1e-14)
    p = _point(SPD2, np.eye(2))
    q = _point(SPD2, q_mat)
    assert distance(p, q) == pytest.approx(oracle, abs=1e-13)


def test_distance_spd_indefinite_base_is_a_domain_error():
    with pytest.raises(DomainError, match="not positive definite"):
        SPD2.dist(-np.eye(2), np.eye(2))


def test_distance_spd_indefinite_target_is_a_domain_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not positive definite"):
            SPD2.dist(np.eye(2), np.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# parallel transport
# ---------------------------------------------------------------------------


def test_transport_to_same_point_is_identity(manifold, rng):
    p = random_point(manifold, rng)
    v = random_tangent(p, rng)
    out = parallel_transport(v, p)
    assert_allclose(out.components, v.components, atol=0)


def test_transport_sphere_vector_normal_to_geodesic_plane():
    p = _point(S2, [1.0, 0.0, 0.0])
    q = _point(S2, [0.0, 1.0, 0.0])
    v = _vector(p, [0.0, 0.0, 1.0])
    assert_allclose(parallel_transport(v, q).components, [0.0, 0.0, 1.0], atol=1e-15)


def test_transport_spd_against_congruence_oracle():
    p_mat, q_mat = np.eye(2), np.diag([4.0, 4.0])
    v_mat = np.eye(2)
    # oracle: E v E^T with E the principal square root of q p^-1
    e = scipy.linalg.sqrtm(q_mat @ np.linalg.inv(p_mat)).real
    oracle = e @ v_mat @ e.T
    assert_allclose(oracle, np.diag([4.0, 4.0]), atol=1e-13)
    p = _point(SPD2, p_mat)
    q = _point(SPD2, q_mat)
    v = _vector(p, v_mat)
    assert_allclose(parallel_transport(v, q).components, oracle, atol=1e-12)


@pytest.mark.filterwarnings("ignore:logm result may be inaccurate")  # the oracle's own estimate
@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.sampled_from([1, 2, 3, 8]), st.integers(0, 2**32 - 1), st.floats(0.0, 6.0))
def test_spd_operations_match_scipy_oracles_at_non_identity_base_points(side, seed, log_cond):
    # p has eigenvalues from 1 to cond in a random basis; the tangents are
    # a h a and q is a expm(h) a for Gaussian symmetric h, with a = p^(1/2),
    # so that they stay within a few units of p in the metric
    m = SymmetricPositiveDefinite(side)
    rng = np.random.default_rng(seed)
    cond = 10.0**log_cond
    p = _spd(rng, side, cond)
    a = scipy.linalg.sqrtm(p).real
    g = rng.standard_normal((4, side, side))
    h = (g + np.swapaxes(g, 1, 2)) / 2
    u, v, s = a @ h[:3] @ a
    q = a @ scipy.linalg.expm(h[3]) @ a

    def close(out, oracle, scale):
        assert np.max(np.abs(out - oracle)) <= 1e-12 * cond * scale

    def inner(x, y):
        return np.trace(np.linalg.solve(p, x) @ np.linalg.solve(p, y))

    close(m.inner(p, u, v), inner(u, v), math.sqrt(inner(u, u) * inner(v, v)))
    exp = p @ scipy.linalg.expm(np.linalg.solve(p, s))
    close(m.exp(p, s), exp, np.max(np.abs(exp)))
    log = (p @ scipy.linalg.logm(np.linalg.solve(p, q))).real
    close(m.log(p, q), log, np.max(np.abs(log)))
    e = scipy.linalg.sqrtm(q @ np.linalg.inv(p)).real
    transported = e @ v @ e.T
    close(m.transport(p, q, v), transported, np.max(np.abs(transported)))


def test_transport_sphere_antipode_raises():
    p = _point(S2, [1.0, 0.0, 0.0])
    q = _point(S2, [-1.0, 0.0, 0.0])
    v = _vector(p, [0.0, 0.0, 1.0])
    with pytest.raises(DomainError):
        parallel_transport(v, q)


# ---------------------------------------------------------------------------
# tangent projection and gradient conversion
# ---------------------------------------------------------------------------


def test_projection_is_idempotent(manifold, rng):
    p = random_point(manifold, rng)
    w = rng.standard_normal(manifold.ambient_shape)
    once = tangent_projection(p, w)
    twice = tangent_projection(p, once.components)
    assert_allclose(twice.components, once.components, atol=1e-14)


def test_projection_sphere_removes_normal_component():
    p = _point(S2, [1.0, 0.0, 0.0])
    assert_allclose(tangent_projection(p, [5.0, 1.0, 0.0]).components, [0.0, 1.0, 0.0])


def test_projection_spd_symmetrizes():
    p = _point(SPD2, np.eye(2))
    out = tangent_projection(p, np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert_allclose(out.components, [[0.0, 0.5], [0.5, 0.0]])


def test_gradient_euclidean_identity_map():
    p = _point(E2, [1.0, 2.0])
    out = riemannian_gradient(p, p.coordinates)
    assert_allclose(out.components, [1.0, 2.0])


def test_gradient_sphere_is_projection():
    p = _point(S2, [1.0, 0.0, 0.0])
    out = riemannian_gradient(p, [7.0, 0.0, 3.0])
    assert_allclose(out.components, [0.0, 0.0, 3.0])


def test_gradient_spd_example_matches_finite_differences(rng):
    p_mat = np.diag([2.0, 1.0])
    p = _point(SPD2, p_mat)
    grad = riemannian_gradient(p, np.eye(2))
    assert_allclose(grad.components, np.diag([4.0, 1.0]), atol=1e-13)
    # oracle: the defining identity, with f(X) = trace(X) so the ambient
    # gradient is the identity matrix
    h = 1e-6
    for _ in range(10):
        v = SPD2.random_tangent(p_mat, rng)
        fd = (
            np.trace(SPD2.exp(p_mat, h * v)) - np.trace(SPD2.exp(p_mat, -h * v))
        ) / (2 * h)
        ip = SPD2.inner(p_mat, grad.components, v)
        assert fd == pytest.approx(ip, rel=1e-5, abs=1e-8)


# ---------------------------------------------------------------------------
# curve length
# ---------------------------------------------------------------------------


def test_curve_length_constant_curve_is_zero(manifold, rng):
    p = random_point(manifold, rng)
    curve = SampledCurve((p, p, p))
    assert curve_length(curve) == 0.0


def test_curve_length_quarter_equator():
    ts = np.linspace(0.0, math.pi / 2, 11)
    pts = tuple(_point(S2, [math.cos(t), math.sin(t), 0.0]) for t in ts)
    assert curve_length(SampledCurve(pts)) == pytest.approx(math.pi / 2, abs=1e-10)


def test_curve_length_euclidean_polyline():
    pts = tuple(_point(E2, c) for c in ([0.0, 0.0], [1.0, 0.0], [1.0, 1.0]))
    assert curve_length(SampledCurve(pts)) == 2.0


def test_sampled_curve_validation():
    p = _point(E2, [0.0, 0.0])
    q = _point(E2, [1.0, 0.0])
    with pytest.raises(ContractViolationError):
        SampledCurve((p,))
    with pytest.raises(ContractViolationError):
        SampledCurve((p, _point(E3, [0.0, 0.0, 0.0])))
    with pytest.raises(ContractViolationError):
        SampledCurve((1, 2))
    with pytest.raises(ContractViolationError):
        SampledCurve((p, q.coordinates))


# ---------------------------------------------------------------------------
# membership validation and descriptors
# ---------------------------------------------------------------------------


def test_sphere_rejects_off_sphere_points():
    with pytest.raises(ContractViolationError):
        _point(S2, [1.0, 1.0, 0.0])


def test_sphere_rejects_non_tangent_vectors():
    p = _point(S2, [1.0, 0.0, 0.0])
    with pytest.raises(ContractViolationError):
        _vector(p, [1.0, 1.0, 0.0])


def test_spd_rejects_asymmetric_points_and_tangents():
    with pytest.raises(ContractViolationError):
        _point(SPD2, np.array([[1.0, 0.5], [0.0, 1.0]]))
    p = _point(SPD2, np.eye(2))
    with pytest.raises(ContractViolationError):
        _vector(p, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_wrong_shape_rejected(manifold):
    for coords in (np.zeros(7), [[1.0], [2.0, 3.0]]):
        with pytest.raises(ContractViolationError):
            ManifoldPoint(manifold, coords)


def test_non_finite_rejected():
    for coords in ([np.nan, 0.0], "ab"):
        with pytest.raises(ContractViolationError):
            ManifoldPoint(E2, coords)


def test_coordinates_are_read_only(manifold, rng):
    p = random_point(manifold, rng)
    with pytest.raises(ValueError):
        p.coordinates[(0,) * p.coordinates.ndim] = 3.0


def test_descriptor_invariants():
    assert Sphere(2).ambient_shape == (3,)
    assert Sphere(2).intrinsic_dim == 2
    assert SymmetricPositiveDefinite(2).intrinsic_dim == 3
    assert SymmetricPositiveDefinite(3).ambient_shape == (3, 3)
    assert Euclidean(4).intrinsic_dim == 4
    with pytest.raises(ContractViolationError):
        Sphere(0)


@pytest.mark.parametrize("build", [
    lambda: Sphere(True),
    lambda: Euclidean(True),
    lambda: SymmetricPositiveDefinite(2.5),
    lambda: Euclidean(0),
    lambda: Chart("flag", True, [0.0], [1.0], lambda x: np.eye(1)),
    lambda: Chart("nan-box", 1, [np.nan], [1.0], lambda x: np.eye(1)),
    lambda: Chart("nan-top", 2, [0.0, 0.0], [1.0, np.nan], lambda x: np.eye(2)),
    lambda: Chart("text-box", 1, ["a"], [1.0], lambda x: np.eye(1)),
], ids=["sphere-bool", "euclidean-bool", "spd-float", "euclidean-zero", "chart-bool",
        "chart-nan-lower", "chart-nan-upper", "chart-text-lower"])
def test_sizes_must_be_integers_and_boxes_ordered(build):
    with pytest.raises(ContractViolationError):
        build()


def test_manifold_from_string():
    assert manifold_from_string("euclidean:3") == Euclidean(3)
    assert manifold_from_string("sphere:2") == Sphere(2)
    assert manifold_from_string("spd:2") == SymmetricPositiveDefinite(2)
    for bad in ("torus:2", "sphere", "sphere:x", "sphere:0"):
        with pytest.raises(ContractViolationError):
            manifold_from_string(bad)


# ---------------------------------------------------------------------------
# randomized structural properties
# ---------------------------------------------------------------------------


def test_exp_log_round_trip(manifold, rng):
    for _ in range(100):
        p = random_point(manifold, rng)
        v = random_tangent(p, rng)
        nv = norm(v)
        if nv > 0:
            v = TangentVector(p, v.components * (rng.uniform(0.05, 1.0) / nv))
        q = exp_map(v)
        w = log_map(p, q)
        assert norm(TangentVector(p, w.components - v.components)) <= 1e-8
        assert distance(exp_map(w), q) <= 1e-8


def test_distance_metric_axioms(manifold, rng):
    for _ in range(100):
        a = random_point(manifold, rng)
        b = random_point(manifold, rng)
        c = random_point(manifold, rng)
        dab, dba = distance(a, b), distance(b, a)
        assert dab >= 0.0
        assert abs(dab - dba) <= 1e-10
        assert distance(a, c) <= dab + distance(b, c) + 1e-10


def test_transport_is_isometry(manifold, rng):
    for _ in range(100):
        p = random_point(manifold, rng)
        q = random_point(manifold, rng)
        v = random_tangent(p, rng)
        moved = parallel_transport(v, q)
        assert abs(norm(moved) - norm(v)) <= 1e-10


def test_transport_sends_log_to_reversed_log(manifold, rng):
    for _ in range(50):
        p = random_point(manifold, rng)
        q = random_point(manifold, rng)
        moved = parallel_transport(log_map(p, q), q)
        expected = -log_map(q, p).components
        assert float(np.max(np.abs(moved.components - expected))) <= 1e-10


def test_log_norm_equals_distance(manifold, rng):
    for _ in range(100):
        p = random_point(manifold, rng)
        q = random_point(manifold, rng)
        assert abs(norm(log_map(p, q)) - distance(p, q)) <= 1e-10


def _test_functions(manifold, rng):
    """Smooth functions with known ambient gradients, per family."""
    a = rng.standard_normal(manifold.ambient_shape)
    c = rng.standard_normal(manifold.ambient_shape)
    fns = [
        (lambda x: float(np.sum(a * x)), lambda x: a),
        (lambda x: 0.5 * float(np.sum((x - c) ** 2)), lambda x: x - c),
    ]
    if manifold.family == "spd":
        fns.append(
            (
                lambda x: float(np.linalg.slogdet(x)[1]),
                lambda x: np.linalg.inv(x),
            )
        )
    return fns


def test_gradient_matches_directional_derivative(manifold, rng):
    h = 1e-5
    for value_fn, ambient_grad_fn in _test_functions(manifold, rng):
        for _ in range(50):
            p = random_point(manifold, rng)
            v = random_tangent(p, rng)
            nv = norm(v)
            if nv == 0.0:
                continue
            v = TangentVector(p, v.components / nv)
            grad = riemannian_gradient(p, ambient_grad_fn(p.coordinates))
            ip = inner_product(grad, v)
            m = manifold
            fd = (
                value_fn(m.exp(p.coordinates, h * v.components))
                - value_fn(m.exp(p.coordinates, -h * v.components))
            ) / (2 * h)
            denom = max(abs(ip), 1e-3 * norm(grad), 1e-12)
            assert abs(fd - ip) / denom <= 1e-5


def test_random_draws_satisfy_membership(manifold, rng):
    for _ in range(25):
        p = random_point(manifold, rng)  # constructor validates
        random_tangent(p, rng)
