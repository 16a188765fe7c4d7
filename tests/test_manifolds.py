"""Closed-form geometry: worked examples with independent oracles, then
randomized structural properties."""

import math
import re
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
    GeometryError,
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
    pairwise_distances,
    parallel_transport,
    random_point,
    random_tangent,
    riemannian_gradient,
    tangent_projection,
)
from riemscale import ScaledManifold, manifolds
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


def test_spd_norm_whitens_its_one_vector_once(monkeypatch):
    whitened = []
    whiten = SymmetricPositiveDefinite._whiten

    def recording(p, x=None):
        whitened.append(None if x is None else x.shape)
        return whiten(p, x)

    monkeypatch.setattr(SymmetricPositiveDefinite, "_whiten", staticmethod(recording))
    p, v = np.diag([2.0, 3.0]), np.array([[1.0, 0.5], [0.5, 2.0]])
    single = SPD2.norm(p, v)
    stacked = SPD2.norm(np.stack([p] * 3), np.stack([v] * 3))
    SPD2.inner(p, v, 2.0 * v)
    # a norm whitens its vector (or its stack), an inner product the pair
    assert whitened == [(2, 2), (3, 2, 2), (2, 2, 2)]
    assert stacked.tolist() == [single] * 3
    assert single == math.sqrt(SPD2.inner(p, v, v.copy()))


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
    # exp(800) overflows, and the product would hold inf * 0 = NaN entries
    p = _point(SPD2, np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="exp of the whitened tangent"):
            SPD2.exp(np.eye(2), np.diag([800.0, 1.0]))
        with pytest.raises(DomainError, match="exp of the whitened tangent"):
            exp_map(_vector(p, 1e200 * np.eye(2)))


def test_exp_spd_overflow_mapping_back_is_a_domain_error_without_a_warning():
    # the whitened tangent is 20 I and exp(20) is finite, but L f L^T at
    # p = 1e300 I is 4.9e308 I: past the double range
    p = _point(SPD2, 1e300 * np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op, args in ((SPD2.exp, (p.coordinates, 2e301 * np.eye(2))),
                         (exp_map, (_vector(p, 2e301 * np.eye(2)),))):
            with pytest.raises(DomainError, match="L f L\\^T overflowed"):
                op(*args)


# Each SPD operation that maps a whitened result back, with a base and an
# argument whose result overflows there: exp as above; log from 1.7e308 I,
# which whitens I to 5.9e-309 I, whose logarithm -709 I maps back to
# -1.2e311 I; and transport to 4 I, whose 2 I map scales 1e308 I by 4.
_MAP_BACK_OVERFLOWS = {
    "exp": (SPD2.exp, 1e300 * np.eye(2), 2e301 * np.eye(2), "exp mapped back to L f L^T"),
    "log": (SPD2.log, 1.7e308 * np.eye(2), np.eye(2), "log mapped back to L f L^T"),
    "transport": (lambda p, v: SPD2.transport(p, 4.0 * np.eye(2), v), np.eye(2),
                  1e308 * np.eye(2), "transport E v E^T"),
}


@pytest.mark.parametrize("op", list(_MAP_BACK_OVERFLOWS))
def test_spd_results_mapped_back_past_the_range_are_a_domain_error_without_a_warning(op):
    fn, p, x, what = _MAP_BACK_OVERFLOWS[op]
    eye, indefinite = np.eye(2), np.diag([1.0, -1.0])
    message = "^" + re.escape(f"{what} overflowed, with p = L L^T") + "$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            fn(p, x)
        # row 1 overflows, and row 2's base fails the batch's factorization
        # first; the batch raises row 1's own error
        with pytest.raises(DomainError, match=message):
            fn(np.stack([eye, p, indefinite]), np.stack([0.5 * eye, x, eye]))


def test_typed_spd_log_and_transport_past_the_range_are_a_domain_error_without_a_warning():
    huge, eye = _point(SPD2, 1.7e308 * np.eye(2)), _point(SPD2, np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^log mapped back to L f L\\^T overflowed"):
            log_map(huge, eye)
        with pytest.raises(DomainError, match="^transport E v E\\^T overflowed"):
            parallel_transport(_vector(eye, 1e308 * np.eye(2)), _point(SPD2, 4.0 * np.eye(2)))


def test_typed_euclidean_exp_and_log_past_the_range_are_a_domain_error_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (E2, ScaledManifold(E2, 4.0)):
            top, bottom = _point(m, [1e308, 0.0]), _point(m, [-1e308, 0.0])
            with pytest.raises(DomainError, match="^exponential map is not finite$"):
                exp_map(_vector(top, [1e308, 0.0]))
            with pytest.raises(DomainError, match="^logarithm is not finite$"):
                log_map(bottom, top)
            # the largest finite results still pass
            assert exp_map(_vector(top, [7.9e307, 0.0])).coordinates[0] == 1e308 + 7.9e307
            assert log_map(_point(m, [0.0, 0.0]), top).components[0] == 1e308


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
        # distance and the logarithm measure this pair past the range (see
        # the tests below)
        for op, args in ((norm, (v,)), (inner_product, (v, v))):
            with pytest.raises(DomainError, match="L\\^-1 x L\\^-T overflowed"):
                op(*args)


@pytest.mark.parametrize("side", [1, 2, 3, 8])
@pytest.mark.parametrize("a, b", [
    (1e-300, 1e300), (1e300, 1e-300), (1e-300, 1e10), (1e10, 1e-300), (2.0**-1000, 2.0**1000),
])
def test_spd_dist_past_the_double_range_is_the_scalar_law_without_a_warning(side, a, b):
    # a I and b I lie sqrt(m) |ln(b / a)| apart in SPD(m); whitened at a I,
    # b I is (b / a) I, which overflows or underflows for these pairs
    m = SymmetricPositiveDefinite(side)
    eye = np.eye(side)
    exact = math.sqrt(side) * abs(math.log(b) - math.log(a))
    p, q = a * eye, b * eye
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = m.dist(p, q)
        # in a batch beside in-range pairs, which keep their own bits
        near = np.stack([eye, 3.0 * eye])
        batch = m.dist(np.stack([near[0], p, near[0]]), np.stack([near[1], q, q]))
        pairs = pairwise_distances([_point(m, x) for x in (p, eye, q)])
        scaled = ScaledManifold(m, 4.0).dist(p, q)
        typed = distance(_point(m, p), _point(m, q))
    assert single == pytest.approx(exact, rel=1e-14)
    assert batch[1] == single and batch[0] == m.dist(eye, 3.0 * eye)
    assert batch[2] == m.dist(eye, q) == pytest.approx(
        math.sqrt(side) * abs(math.log(b)), rel=1e-14
    )
    assert pairs[0, 2] == pairs[2, 0] == single
    assert scaled == 2.0 * single and typed == single


@pytest.mark.parametrize("side", [1, 2, 3, 8])
@pytest.mark.parametrize("a, b", [
    (1e-300, 1e300), (1e300, 1e-300), (1e-300, 1e10), (1e10, 1e-300), (2.0**-1000, 2.0**1000),
])
def test_spd_log_past_the_double_range_is_the_scalar_law_without_a_warning(side, a, b):
    # log at a I of b I is a ln(b / a) I: about 1.38e-297 I for the first
    # pair and -1.38e303 I for the second, though b I whitened at a I
    # overflows or underflows
    m = SymmetricPositiveDefinite(side)
    eye = np.eye(side)
    exact = a * (math.log(b) - math.log(a)) * eye
    p, q = a * eye, b * eye
    near = np.stack([eye, 3.0 * eye])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = m.log(p, q)
        # in a batch beside in-range pairs, which keep their own bits
        batch = m.log(np.stack([near[0], p, near[1]]), np.stack([near[1], q, q]))
        d, fused = m._dist_log(p, np.stack([q, near[1]]))
        # K bases broadcast against N rows, as the lockstep Frechet pass measures them
        d_many, fused_many = m._dist_log(np.stack([p, eye])[:, np.newaxis], np.stack([q, p]))
        scaled = ScaledManifold(m, 4.0).log(p, q)
        typed = log_map(_point(m, p), _point(m, q)).components
    np.testing.assert_allclose(single, exact, rtol=1e-13, atol=1e-13 * abs(exact).max())
    assert batch[1].tobytes() == single.tobytes()
    assert batch[0].tobytes() == m.log(near[0], near[1]).tobytes()
    assert batch[2].tobytes() == m.log(near[1], q).tobytes()
    assert fused[0].tobytes() == single.tobytes()
    assert fused[1].tobytes() == m.log(p, near[1]).tobytes()
    assert d[0] == pytest.approx(m.dist(p, q), rel=1e-13)
    assert d_many.shape == (2, 2) and fused_many.shape == (2, 2, side, side)
    assert fused_many[0, 0].tobytes() == single.tobytes()
    assert d_many[0, 1] == 0.0 and not fused_many[0, 1].any()
    assert fused_many[1, 0].tobytes() == m.log(eye, q).tobytes()
    assert fused_many[1, 1].tobytes() == m.log(eye, p).tobytes()
    assert scaled.tobytes() == typed.tobytes() == single.tobytes()


@pytest.mark.parametrize("side", [1, 2, 3, 8])
@pytest.mark.parametrize("a, b", [
    (1e-300, 1e300), (1e300, 1e-300), (1.0, 1e-310), (1e-310, 1.0), (2.0**-1000, 2.0**1000),
])
def test_spd_transport_past_the_double_range_is_the_scalar_law_without_a_warning(side, a, b):
    # from a I to b I the transport map is E = (q p^-1)^1/2 = sqrt(b / a) I,
    # so it takes a I to b I, though b I whitened at a I overflows or underflows
    m = SymmetricPositiveDefinite(side)
    eye = np.eye(side)
    p, q = a * eye, b * eye
    near = np.stack([eye, 3.0 * eye])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = m.transport(p, q, p)
        # in a batch beside in-range pairs, which keep their own bits
        batch = m.transport(np.stack([near[0], p, p]), np.stack([near[1], q, p]),
                            np.stack([eye, p, eye]))
        scaled = ScaledManifold(m, 4.0).transport(p, q, p)
        typed = parallel_transport(_vector(_point(m, p), p), _point(m, q)).components
        if b > a:  # where the result itself overflows, the error names the map back
            with pytest.raises(DomainError, match=r"^transport E v E\^T overflowed"):
                m.transport(p, q, 1e300 * eye)
    np.testing.assert_allclose(single, q, rtol=1e-13, atol=0.0)
    assert batch[1].tobytes() == single.tobytes()
    assert batch[0].tobytes() == m.transport(near[0], near[1], eye).tobytes()
    assert batch[2].tobytes() == eye.tobytes()  # a row equal to its base carries its vector
    assert scaled.tobytes() == typed.tobytes() == single.tobytes()


def test_spd_inner_product_overflow_is_a_domain_error_without_a_warning():
    # the whitened tangent is finite, its Frobenius product is not
    v = _vector(_point(SPD2, np.eye(2)), 1e200 * np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op, args in ((norm, (v,)), (inner_product, (v, v))):
            with pytest.raises(DomainError, match="inner product of the whitened tangents"):
                op(*args)


def test_spd_symmetrizing_near_the_top_of_the_range_stays_finite_without_a_warning():
    # entries of 1e308 sum past the range, but their symmetric part does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = np.full((2, 2), 1e308)
        assert tangent_projection(_point(SPD2, np.eye(2)), w).components.tobytes() == w.tobytes()
        # p g p is finite at 1e154 I, so the metric gradient is too
        p = 1e154 * np.eye(2)
        grad = riemannian_gradient(_point(SPD2, p), np.eye(2)).components
        assert grad.tobytes() == (p @ np.eye(2) @ p).tobytes()


def test_spd_log_toward_a_rounded_singular_point_is_a_domain_error():
    # Cholesky of this singular matrix succeeds by rounding (its last pivot
    # is 1.05e-8); its whitened eigenvalue 0 has no logarithm, as distance
    # already reports, and it is no point of the cone
    p = np.eye(2)
    q = np.array([[0.5, 0.5], [0.5, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op in (SPD2.dist, SPD2.log):
            with pytest.raises(DomainError, match="not positive definite"):
                op(p, q)
        with pytest.raises(DomainError, match="not positive definite"):
            ManifoldPoint(SPD2, q)


@pytest.mark.parametrize("side", [2, 3, 8])
def test_spd_points_with_condition_numbers_up_to_1e12_are_valid(side):
    # the rounded-singular check rejects only a smallest eigenvalue below
    # side * eps * max(diag(p)), at any overall scale
    m = SymmetricPositiveDefinite(side)
    for seed, scale in enumerate((1e-290, 1.0, 1e290)):
        x = scale * _spd(np.random.default_rng([side, seed]), side, 1e12)
        assert np.array_equal(ManifoldPoint(m, x).coordinates, x)


def test_spd_remembered_factor_gives_what_a_cold_call_gives():
    # the factor of the last single base matrix is remembered by its bytes;
    # a cold call is one made right after factoring an unrelated matrix
    rng = np.random.default_rng(5)
    m = SymmetricPositiveDefinite(3)
    p1, p2, unrelated = (m.random_point(rng) for _ in range(3))
    rows = np.stack([m.random_point(rng) for _ in range(4)])
    u = m.random_tangent(p1, rng)
    ops = [
        lambda p: m.validate_point(p),
        lambda p: m.exp(p, u),
        lambda p: m.log(p, rows),
        lambda p: np.concatenate([a.ravel() for a in m._dist_log(p, rows)]),
        lambda p: m.dist(p, rows),
        lambda p: m.inner(p, u, 2.0 * u),
        lambda p: m.norm(p, u),
        lambda p: m.transport(p, rows[0], u),
    ]

    def result(op, p):
        return np.asarray(op(p), dtype=float).tobytes()

    def cold(op, p):
        m.validate_point(unrelated)
        return result(op, p)

    bases = (p1, p2)
    expected = [[cold(op, p) for p in bases] for op in ops]
    order = (0, 0, 1, 0, 1, 1, 0)
    for i in order:
        for k, op in enumerate(ops):
            assert result(op, bases[i]) == expected[k][i]
    for k, op in enumerate(ops):
        for i in order:
            assert result(op, bases[i]) == expected[k][i]
    # one writable array changed in place between calls
    a = p1.copy()
    for i in order:
        for k, op in enumerate(ops):
            a[...] = bases[i]
            assert result(op, a) == expected[k][i]
    # a failure is not remembered, and raises again on the same bytes
    a[...] = -p1
    for _ in range(2):
        with pytest.raises(DomainError, match="not positive definite"):
            m.exp(a, u)
    a[...] = p1
    assert result(ops[1], a) == expected[1][0]
    # the same bytes in another dtype are another matrix: the int64
    # identity reads as a float64 diagonal of denormals
    tiny = 5e-324 * np.eye(3)
    assert tiny.tobytes() == np.eye(3, dtype=np.int64).tobytes()
    m.validate_point(tiny)
    assert result(ops[2], np.eye(3, dtype=np.int64)) == cold(ops[2], np.eye(3))


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


# ---------------------------------------------------------------------------
# stacked membership checks: stricter than the validators, never looser
# ---------------------------------------------------------------------------


def _validates(m, row, base=None) -> bool:
    """Whether ``row`` passes ``m``'s point validator, or its tangent
    validator at ``base``."""
    try:
        if base is None:
            m.validate_point(row)
        else:
            m.validate_tangent(base, row)
    except GeometryError:
        return False
    return True


def _stacked(m, X, P=None) -> bool:
    return m._points_pass(X) if P is None else m._tangents_pass(P, X)


def _assert_sound(m, rows, bases=None, exact=True):
    """The stacked check of each row alone, and of the row between two
    valid ones, passes only when the row's validator passes; with
    ``exact``, it passes exactly when the validator does.  Returns the
    validators' verdicts."""
    verdicts = []
    for i, row in enumerate(rows):
        base = None if bases is None else bases[i]
        single = _validates(m, row, base)
        alone = _stacked(m, row[np.newaxis], None if base is None else base[np.newaxis])
        assert alone <= single
        if exact:
            assert alone == single
        good = m.random_point(np.random.default_rng(i)) if base is None else np.zeros_like(row)
        P = None if base is None else np.stack([base] * 3)
        assert _stacked(m, np.stack([good, row, good]), P) == alone
        verdicts.append(single)
    return verdicts


def _ulps_around(x: float, k: int = 4) -> list[float]:
    """``x`` and its ``k`` nearest doubles on either side."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[::-1] + above[1:]


def _faulty_rows(m, rng) -> list[np.ndarray]:
    """Rows that fail every validator of ``m``: non-finite entries."""
    rows = []
    for bad in (np.nan, np.inf, -np.inf):
        row = m.random_point(rng).copy()
        row[(0,) * row.ndim] = bad
        rows.append(row)
    return rows


def test_stacked_checks_pass_valid_stacks_as_read_only_rows_of_the_same_bits(manifold, rng):
    X = np.stack([manifold.random_point(rng) for _ in range(5)])
    V = np.stack([manifold.random_tangent(x, rng) for x in X])
    assert manifold._points_pass(X) and manifold._tangents_pass(X, V)
    points = manifolds._points(manifold, X)
    for x, v, point in zip(X, V, points):
        assert point.manifold is manifold
        assert point.coordinates.tobytes() == manifold.validate_point(x).tobytes()
        assert v.tobytes() == manifold.validate_tangent(x, v).tobytes()
        assert point.coordinates.dtype == np.float64 and not point.coordinates.flags.writeable
    X[0] = V[0] = 7.0  # the rows are copies, not views of the caller's stacks
    assert points[0].coordinates.tobytes() == manifold.validate_point(
        points[0].coordinates
    ).tobytes()


def test_stacked_checks_reject_non_finite_rows_off_shape_and_non_float64_stacks(manifold, rng):
    X = np.stack([manifold.random_point(rng) for _ in range(4)])
    rows = _faulty_rows(manifold, rng)
    assert not any(_assert_sound(manifold, rows))
    assert not any(_assert_sound(manifold, rows, bases=X[:3]))
    assert manifolds._points(manifold, np.stack([X[0], rows[0]])) is None
    assert not manifold._tangents_pass(X[:1], rows[0][None])
    # a single row, a stack of rows of another shape, and other dtypes
    wider = np.concatenate([X, X], axis=-1)
    for stack in (X[0], wider, X.astype(np.float32), X.astype(np.float16)):
        assert not manifold._points_pass(stack)
        assert not manifold._tangents_pass(X, stack)
    assert not _validates(manifold, wider[0])
    ints = np.ones((2, *manifold.ambient_shape), dtype=np.int64)
    assert not manifold._points_pass(ints) and not manifold._tangents_pass(X[:2], ints)


def test_a_family_without_a_stacked_check_is_validated_row_by_row():
    scaled = ScaledManifold(S2, 4.0)
    X = np.eye(3)
    assert not scaled._points_pass(X) and not scaled._tangents_pass(X, 0.0 * X)
    assert manifolds._points(scaled, X) is None


def test_stacked_sphere_checks_decide_their_tolerances_as_the_validators_do(rng):
    # drift a few ulps either side of POINT_TOL, along the axes and along
    # random directions, where the squared norm is rounded
    directions = [np.eye(3)[0]] + [v / np.linalg.norm(v) for v in rng.standard_normal((6, 3))]
    rows = [
        a * u for u in directions
        for a in _ulps_around(1.0 + manifolds.POINT_TOL) + _ulps_around(1.0 - manifolds.POINT_TOL)
    ]
    verdicts = _assert_sound(S2, rows)
    assert any(verdicts) and not all(verdicts)
    # a normal component a few ulps either side of TANGENT_TOL, exact at e0
    # and rounded at random points
    e0 = np.eye(3)[0]
    bases, vectors = [], []
    for c in _ulps_around(manifolds.TANGENT_TOL) + _ulps_around(-manifolds.TANGENT_TOL):
        bases.append(e0)
        vectors.append(np.array([c, 1.0, -2.0]))
    for p in directions[1:]:
        w = rng.standard_normal(3)
        w -= np.dot(p, w) * p
        for c in np.linspace(0.9999, 1.0001, 21) * manifolds.TANGENT_TOL:
            bases.append(p)
            vectors.append(w + c * p)
    verdicts = _assert_sound(S2, vectors, bases)
    assert any(verdicts) and not all(verdicts)


def test_stacked_spd_checks_decide_asymmetry_and_pivots_as_the_validators_do():
    # asymmetry a few ulps either side of POINT_TOL, in points and tangents
    rows = [np.array([[2.0, a], [0.0, 2.0]]) for a in _ulps_around(manifolds.POINT_TOL)]
    verdicts = _assert_sound(SPD2, rows)
    assert verdicts == [True] * 5 + [False] * 4
    assert _assert_sound(SPD2, rows, bases=[np.eye(2)] * len(rows)) == verdicts
    # a pivot whose square is a few ulps either side of the rounding threshold
    # 2 eps, then points that only rounding keeps from singular, singular and
    # indefinite ones
    threshold = 2 * np.finfo(float).eps
    rows = [np.diag([1.0, t]) for t in _ulps_around(threshold, 8)]
    rows += [np.diag([1.0, t]) for t in (1e-17, 0.0, -1e-17, -1.0)]
    rows += [np.array([[1.0, 2.0], [2.0, 1.0]]), np.diag([1.0, 1e-300])]
    verdicts = _assert_sound(SPD2, rows)
    assert any(verdicts[:17]) and not all(verdicts[:17])
    assert verdicts[17:] == [False] * 6


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


class _Stream:
    """A stand-in generator whose ``standard_normal`` hands out the given
    values in order, as a real generator hands out its stream."""

    def __init__(self, values):
        self.values, self.used = np.asarray(values, dtype=float).ravel(), 0

    def standard_normal(self, size):
        n = int(np.prod(size))
        out = self.values[self.used:self.used + n].reshape(size)
        self.used += n
        return out


def _drawn_one_by_one(m, rng) -> np.ndarray:
    """One point drawn by the single-draw formula of ``m``'s family."""
    if isinstance(m, ScaledManifold):
        return _drawn_one_by_one(m.base, rng)
    if isinstance(m, Euclidean):
        return rng.standard_normal(m.dim)
    if isinstance(m, Sphere):
        while True:
            x = rng.standard_normal(m.dim + 1)
            n = np.linalg.norm(x)
            if n > 1e-8:
                return x / n
    a = rng.uniform(-1.0, 1.0, (m.side, m.side))
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    return (v * np.exp(w)) @ v.T


SAMPLED = [E3, S2, Sphere(5), SPD2, SymmetricPositiveDefinite(3),
           SymmetricPositiveDefinite(8), ScaledManifold(SymmetricPositiveDefinite(3), 4.0),
           ScaledManifold(ScaledManifold(S2, 0.5), 3.0)]


@pytest.mark.parametrize("count", [1, 2, 7])
@pytest.mark.parametrize("m", SAMPLED, ids=[
    "euclidean:3", "sphere:2", "sphere:5", "spd:2", "spd:3", "spd:8", "spd:3*4", "sphere:2*0.5*3",
])
def test_a_stacked_draw_is_count_single_draws_bit_for_bit(m, count):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rng = np.random.default_rng(count)
        stack = m._random_points(rng, count)
        assert stack.shape == (count, *m.ambient_shape) and stack.dtype == np.float64
        for single in (m.random_point, lambda r: _drawn_one_by_one(m, r)):
            seq = np.random.default_rng(count)
            rows = np.stack([single(seq) for _ in range(count)])
            assert rows.tobytes() == stack.tobytes()
            assert seq.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("m", [S2, Sphere(4)], ids=["sphere:2", "sphere:4"])
def test_a_stacked_sphere_draw_redraws_short_rows_from_the_stream_in_order(m):
    # rows 0, 3 and 4 of the stream are too short to normalise, and row 4
    # is also the first redraw of the stacked draw
    rows = np.random.default_rng(5).standard_normal((12, m.dim + 1))
    rows[0] = 0.0
    rows[3] = 1e-9
    rows[4] = -1e-10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for count in (1, 3, 5, 9):
            seq = _Stream(rows)
            expected = np.stack([_drawn_one_by_one(m, seq) for _ in range(count)])
            stacked = _Stream(rows)
            out = m._random_points(stacked, count)
            assert out.tobytes() == expected.tobytes()
            assert stacked.used == seq.used
            one = _Stream(rows)
            assert m.random_point(one).tobytes() == expected[0].tobytes()
            assert one.used == 2 * (m.dim + 1)
