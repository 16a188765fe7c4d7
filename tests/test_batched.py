"""The leading batch axis of ``Manifold.log`` and ``Manifold.dist`` (on
``q``, and for ``dist`` on ``p`` too): every row of a batched call is the
single call on that row, bit for bit, and the batched Fréchet objective
and pairwise distances keep the values of their per-point loops."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riemscale import (
    ContractViolationError,
    DomainError,
    Euclidean,
    GeometryError,
    InternalConsistencyError,
    ManifoldPoint,
    ScaledManifold,
    Sphere,
    SymmetricPositiveDefinite,
    frechet_objective,
    pairwise_distances,
)
from riemscale.manifolds import ANTIPODE_MARGIN, RENORM_TOL

SETTINGS = settings(derandomize=True, deadline=None, max_examples=50)

MANIFOLDS = [
    Euclidean(1), Euclidean(3), Euclidean(6),
    Sphere(1), Sphere(2), Sphere(5),
    SymmetricPositiveDefinite(1), SymmetricPositiveDefinite(2),
    SymmetricPositiveDefinite(3), SymmetricPositiveDefinite(8),
]


def _spd(rng, side, cond):
    """An SPD matrix with condition number ``cond`` and a random eigenbasis."""
    basis, _ = np.linalg.qr(rng.standard_normal((side, side)))
    w = np.exp(rng.uniform(0.0, math.log(cond), side))
    w[0], w[-1] = 1.0, cond
    x = (basis * w) @ basis.T
    return 0.5 * (x + x.T)


@st.composite
def batches(draw, manifolds=MANIFOLDS):
    """A manifold, a base point ``p`` and an ``(N, ...)`` stack of points,
    some rows equal to ``p`` and, on the sphere, some within 1e-15..1e-5
    of it."""
    m = draw(st.sampled_from(manifolds))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if isinstance(m, SymmetricPositiveDefinite):
        log_cond = draw(st.floats(0.0, 8.0))
        rows = [_spd(rng, m.side, 10.0 ** rng.uniform(0.0, log_cond)) for _ in range(n + 1)]
    else:
        rows = [m.random_point(rng) for _ in range(n + 1)]
    p, rows = rows[0], rows[1:]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        rows[i] = p
    if isinstance(m, Sphere):
        for i in draw(st.sets(st.integers(0, n - 1), max_size=3)):
            near = p + 10.0 ** rng.uniform(-15.0, -5.0) * rng.standard_normal(p.shape)
            rows[i] = near / np.linalg.norm(near)
    return m, p, np.stack(rows)


def _reference_dist(m, p, q):
    """Distance by the per-point formulas, one point at a time."""
    if isinstance(m, Euclidean):
        return float(np.linalg.norm(q - p))
    if np.array_equal(p, q):
        return 0.0
    if isinstance(m, Sphere):
        c = float(np.clip(np.dot(p, q), -1.0, 1.0))
        return float(np.arctan2(np.linalg.norm(q - c * p), c))
    linv = np.linalg.inv(np.linalg.cholesky(p))
    w = np.linalg.eigvalsh(linv @ q @ linv.T)
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


def _reference_log(m, p, q):
    """Logarithm by the per-point formulas, one point at a time."""
    if isinstance(m, Euclidean):
        return q - p
    if np.array_equal(p, q):
        return np.zeros_like(p)
    if isinstance(m, Sphere):
        c = float(np.clip(np.dot(p, q), -1.0, 1.0))
        if c <= -1.0 + ANTIPODE_MARGIN:
            raise DomainError("logarithm is undefined at the antipode: no canonical direction")
        u = q - c * p
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            return np.zeros_like(p)
        return (float(np.arctan2(nu, c)) / nu) * u
    low = np.linalg.cholesky(p)
    linv = np.linalg.inv(low)
    a = linv @ q @ linv.T
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    f = (v * np.log(w)) @ v.T
    out = low @ f @ low.T
    drift = float(np.max(np.abs(out - out.T)))
    size = float(np.max(np.abs(low))) ** 2 * float(np.max(np.abs(f)))
    if not drift <= RENORM_TOL * max(size, 1.0):
        raise InternalConsistencyError(f"matrix result drifted {drift:.3e} from symmetry")
    return 0.5 * (out + out.T)


def _outcome(fn, *args):
    """The bytes of a result, or the type name and message of its error."""
    try:
        out = fn(*args)
    except GeometryError as exc:
        return type(exc).__name__, str(exc)
    return "ok", np.asarray(out, dtype=float).tobytes()


def _first_failure_or_rows(fn, p, rows):
    """What a sequence of single calls gives: the first error, or the
    concatenated bytes of every row's result."""
    outcomes = [_outcome(fn, p, q) for q in rows]
    failed = [o for o in outcomes if o[0] != "ok"]
    return failed[0] if failed else ("ok", b"".join(o[1] for o in outcomes))


@SETTINGS
@given(batches())
def test_each_batched_row_is_the_single_call_on_that_row(batch):
    m, p, rows = batch
    for op, reference in ((m.dist, _reference_dist), (m.log, _reference_log)):
        expected = _first_failure_or_rows(lambda p, q: reference(m, p, q), p, rows)
        assert _outcome(op, p, rows) == expected
        assert _first_failure_or_rows(op, p, rows) == expected
    assert all(type(m.dist(p, q)) is float for q in rows)


@SETTINGS
@given(batches(), st.floats(-3.0, 3.0))
def test_dist_batches_the_base_point_row_by_row(batch, log_lam):
    m, p, rows = batch
    for man in (m, ScaledManifold(m, 10.0**log_lam)):
        others = rows[::-1]
        for ps, qs, pairs in (
            (rows, others, zip(rows, others)),
            (rows, p, ((a, p) for a in rows)),
            (p, rows, ((p, b) for b in rows)),
        ):
            expected = np.array([man.dist(a, b) for a, b in pairs])
            assert man.dist(ps, qs).tobytes() == expected.tobytes()


@SETTINGS
@given(st.sampled_from([m for m in MANIFOLDS if isinstance(m, SymmetricPositiveDefinite)]),
       st.integers(0, 2**32 - 1), st.floats(0.0, 4.0))
def test_spd_dist_matches_the_generalized_eigenvalue_form(m, seed, log_cond):
    rng = np.random.default_rng(seed)
    p, *rows = (_spd(rng, m.side, 10.0 ** rng.uniform(0.0, log_cond)) for _ in range(9))
    ref = np.array([
        math.sqrt(np.sum(np.log(scipy.linalg.eigh(q, p, eigvals_only=True)) ** 2)) for q in rows
    ])
    assert np.all(np.abs(m.dist(p, np.stack(rows)) - ref) <= 1e-9 * np.maximum(ref, 1.0))


def test_stacked_drift_guard_raises_with_the_first_drifted_rows_drift():
    stack = np.zeros((4, 2, 2))
    stack[1, 0, 1], stack[2, 0, 1], stack[3, 0, 1] = 1e-10, 3e-9, 2e-9
    with pytest.raises(InternalConsistencyError, match="drifted 3.000e-09"):
        SymmetricPositiveDefinite._resymmetrize(stack)


def _loop_value(m, x, coords):
    return sum(m.dist(x, y) ** 2 for y in coords) / (2.0 * len(coords))


def _loop_gradient(m, x, coords):
    total = m.zero_tangent(x)
    for y in coords:
        total = total + m.log(x, y)
    return -total / len(coords)


@SETTINGS
@given(batches(), st.integers(0, 40))
# a column of -0.0 logarithms: a sum started at +0.0 keeps +0.0
@example((Euclidean(2), np.array([0.0, 1.0]), np.array([[-0.0, 2.0], [-0.0, 3.0]])), 0)
def test_frechet_value_and_gradient_match_the_per_point_loop(batch, start):
    m, p, rows = batch
    objective = frechet_objective([ManifoldPoint(m, q) for q in rows])
    x = ManifoldPoint(m, rows[start % len(rows)] if start % 2 else p)
    assert _outcome(objective.value_fn, x) == _outcome(_loop_value, m, x.coordinates, rows)
    assert _outcome(lambda x: objective.gradient_fn(x).components, x) == _outcome(
        _loop_gradient, m, x.coordinates, rows
    )


@SETTINGS
@given(batches([m for m in MANIFOLDS if isinstance(m, Sphere)]), st.integers(0, 39),
       st.floats(0.0, 3e-5))
def test_sphere_batch_with_an_antipodal_row_raises(batch, index, angle):
    m, p, rows = batch
    axis = np.eye(len(p))[np.argmin(np.abs(p))]
    normal = axis - np.dot(axis, p) * p
    normal /= np.linalg.norm(normal)
    rows = rows.copy()
    # cos(pi - angle) <= -1 + 4.5e-10 lies within ANTIPODE_MARGIN of -1
    rows[index % len(rows)] = -math.cos(angle) * p + math.sin(angle) * normal
    with pytest.raises(DomainError, match="antipode"):
        m.log(p, rows)


@SETTINGS
@given(batches(), st.floats(-3.0, 3.0))
def test_pairwise_distances_on_mixed_manifolds_is_a_contract_violation(batch, log_lam):
    m, p, rows = batch
    points = [ManifoldPoint(m, q) for q in rows]
    points.insert(len(points) // 2, ManifoldPoint(ScaledManifold(m, 10.0**log_lam), p))
    with pytest.raises(ContractViolationError, match="different manifolds"):
        pairwise_distances(points)


@SETTINGS
@given(batches())
def test_pairwise_distances_fill_both_triangles_from_single_calls(batch):
    m, _, rows = batch
    points = [ManifoldPoint(m, q) for q in rows]
    expected = np.zeros((len(rows), len(rows)))
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            expected[i, j] = expected[j, i] = m.dist(rows[i], rows[j])
    assert pairwise_distances(points).tobytes() == expected.tobytes()
