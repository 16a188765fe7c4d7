"""The leading batch axis of the closed-form operations (``inner``,
``norm``, ``dist``, ``exp``, ``log``, ``transport``, ``to_tangent``, the
gradient maps and ``curve_length``): every row of a batched call is the
single call on that row, bit for bit, a batch raises its first failing
row's error, the fused ``_dist_log`` pass is ``dist`` and ``log``, the
batched Fréchet objective and pairwise distances keep the values of
their per-point loops, and the suite's sweeps make one call per
operation and scale."""

import functools
import math
import warnings
from collections import Counter
from itertools import repeat

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
    Manifold,
    ManifoldPoint,
    ScaledManifold,
    Sphere,
    SymmetricPositiveDefinite,
    TangentVector,
    frechet_objective,
    norm,
    pairwise_distances,
    riemannian_gradient,
)
from riemscale import manifolds, verify
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


def _single_calls(fn, *columns):
    """What a single call per row of the argument columns gives: the first
    error, or the concatenated bytes of every row's result."""
    outcomes = [_outcome(fn, *row) for row in zip(*columns)]
    failed = [o for o in outcomes if o[0] != "ok"]
    return failed[0] if failed else ("ok", b"".join(o[1] for o in outcomes))


@SETTINGS
@given(batches())
def test_each_batched_row_is_the_single_call_on_that_row(batch):
    m, p, rows = batch
    for op, reference in ((m.dist, _reference_dist), (m.log, _reference_log)):
        expected = _single_calls(lambda p, q: reference(m, p, q), repeat(p), rows)
        assert _outcome(op, p, rows) == expected
        assert _single_calls(op, repeat(p), rows) == expected
    assert all(type(m.dist(p, q)) is float for q in rows)


def _joined(d, logs):
    """Distances and logarithms of one batch as one flat array."""
    assert d.shape == logs.shape[:1]
    return np.concatenate([d, logs.ravel()])


# a unit vector whose rounded p . p is below one: its own row has a
# nonzero chord, and its distance must still read exactly zero
_P122 = np.array([1.0, 2.0, 2.0]) / np.linalg.norm([1.0, 2.0, 2.0])


# SPD's fused pass reads its distances from the eigenvalues of the
# logarithm's eigh, where dist reads eigvalsh, so the two may differ.
# Both lose accuracy as the condition numbers grow (near 1e8, each can be
# off by 1e-4 relative to a 60-digit reference), and so does their gap.
# Over the derandomized batches of this file (condition numbers up to 1e8)
# the largest gap is 5.8e-8 times max(dist, 1), at a distance of 24; the
# bound is that floor rounded up to one significant digit.
SPD_FUSED_DIST_TOL = 1e-7


def _assert_near_dist(fused, exact):
    """SPD fused distances within the bound of ``dist``'s: each within
    ``SPD_FUSED_DIST_TOL * max(d, 1)`` of its ``d``."""
    assert fused.shape == exact.shape
    assert np.all(np.abs(fused - exact) <= SPD_FUSED_DIST_TOL * np.maximum(exact, 1.0))


def _assert_near_value(fused, exact):
    """A Fréchet value from fused SPD distances within the bound of one
    from ``dist``: a squared distance moves by at most about
    ``2 * tol * max(d * d, 1)``, so their halved mean by
    ``tol * (2 * value + 1)``."""
    assert abs(fused - exact) <= SPD_FUSED_DIST_TOL * (2.0 * exact + 1.0)


@SETTINGS
@given(batches(), st.floats(-3.0, 3.0))
@example((Sphere(2), _P122, np.stack([_P122, np.array([0.0, 0.0, 1.0])])), 0.0)
def test_fused_distances_and_logarithms_are_dist_and_log_bit_for_bit(batch, log_lam):
    m, p, rows = batch
    for man in (m, ScaledManifold(m, 10.0**log_lam)):
        expected = _outcome(lambda p, q: _joined(man.dist(p, q), man.log(p, q)), p, rows)
        generic = functools.partial(Manifold._dist_log, man)
        assert _outcome(lambda p, q: _joined(*generic(p, q)), p, rows) == expected
        if isinstance(man, SymmetricPositiveDefinite) and expected[0] == "ok":
            # the one family pass whose distances are not dist's bits
            d, logs = man._dist_log(p, rows)
            assert logs.tobytes() == man.log(p, rows).tobytes()
            _assert_near_dist(d, man.dist(p, rows))
        else:
            assert _outcome(lambda p, q: _joined(*man._dist_log(p, q)), p, rows) == expected


@SETTINGS
@given(batches([m for m in MANIFOLDS if isinstance(m, SymmetricPositiveDefinite)]))
def test_spd_fused_distances_are_their_single_rows_and_near_dist(batch):
    m, p, rows = batch
    others = rows[::-1]
    for base, pairs in ((p, ((p, q) for q in rows)), (others, zip(others, rows))):
        d, logs = m._dist_log(base, rows)
        singles = [m._dist_log(a, b[np.newaxis]) for a, b in pairs]
        assert d.tobytes() == b"".join(s[0].tobytes() for s in singles)
        assert logs.tobytes() == b"".join(s[1].tobytes() for s in singles)
        _assert_near_dist(d, m.dist(base, rows))


@SETTINGS
@given(batches(), st.floats(-3.0, 3.0), st.integers(2, 4))
def test_dist_batches_the_base_point_row_by_row(batch, log_lam, k):
    m, p, rows = batch
    # a base stack of runs of k equal rows, paired with p and the rows in
    # turn, so that a run holds a row equal to its base
    runs = np.repeat(rows, k, axis=0)
    partners = np.resize(np.concatenate([p[np.newaxis], rows]), runs.shape)
    for man in (m, ScaledManifold(m, 10.0**log_lam)):
        others = rows[::-1]
        for ps, qs, pairs in (
            (rows, others, zip(rows, others)),
            (rows, p, ((a, p) for a in rows)),
            (p, rows, ((p, b) for b in rows)),
            (runs, partners, zip(runs, partners)),
        ):
            expected = np.array([man.dist(a, b) for a, b in pairs])
            assert man.dist(ps, qs).tobytes() == expected.tobytes()


def test_spd_dist_over_runs_of_bases_gives_the_single_calls_results_and_errors():
    rng = np.random.default_rng(3)
    a, b, q = (_spd(rng, 2, 10.0) for _ in range(3))
    diagonal = np.diag(np.diag(a))
    signed = diagonal.copy()
    signed[0, 1] = signed[1, 0] = -0.0  # == diagonal, with a factor of other bytes
    indefinite = np.diag([1.0, -1.0])
    m = SymmetricPositiveDefinite(2)
    for ps, qs in (
        ([a, a, a, b, b, a], [q, a, b, a, q, q]),
        ([diagonal, signed, signed, diagonal], [q, q, a, b]),
        # an indefinite base is 0 from itself, as alone, and fails otherwise
        ([a, indefinite, indefinite, b], [q, indefinite, indefinite, q]),
        ([a, a, indefinite, indefinite, b], [b, q, indefinite, q, a]),
    ):
        expected = _single_calls(m.dist, ps, qs)
        assert _outcome(m.dist, np.stack(ps), np.stack(qs)) == expected
    assert expected == ("DomainError", "matrix is not positive definite")


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


# each body that masks rows equal to their base runs its masked branch
# only when such a row is there; both branches give every row its bits
_MASKED_OPS = {
    "dist": lambda m, p, q: m.dist(p, q),
    "log": lambda m, p, q: m.log(p, q),
    "fused-dist": lambda m, p, q: m._dist_log(p, q)[0],
    "fused-log": lambda m, p, q: m._dist_log(p, q)[1],
}


@pytest.mark.parametrize("op", list(_MASKED_OPS))
@pytest.mark.parametrize(
    "m", [SymmetricPositiveDefinite(2), SymmetricPositiveDefinite(8), Sphere(2)], ids=str
)
def test_rows_that_all_differ_from_their_base_keep_the_masked_branchs_bits(m, op):
    fn = _MASKED_OPS[op]
    rng = np.random.default_rng(m.ambient_shape[0])
    p, *rows = m._random_points(rng, 7)
    rows, bases = np.stack(rows), m._random_points(rng, 6)
    axes = tuple(range(1, rows.ndim))
    assert not (rows == p).all(axis=axes).any() and not (rows == bases).all(axis=axes).any()
    keep = np.arange(7) != 2  # all but the inserted row, which equals its base
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for base, masked_base in ((p, p), (bases, np.insert(bases, 2, p, axis=0))):
            plain = fn(m, base, rows)
            masked = fn(m, masked_base, np.insert(rows, 2, p, axis=0))
            assert plain.tobytes() == masked[keep].tobytes()
            assert not masked[2].any()  # the masked row: distance 0, logarithm zero


def _drifted(stacked: bool, seed: int, entry: float) -> np.ndarray:
    """A symmetric 3 x 3 matrix whose (0, 2) entry is then set to
    ``entry`` and (2, 0) entry to 0; stacked, it is matrix 1 of four,
    and matrix 3 drifts by 1, so that a failure must name matrix 1."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 3, 3))
    out = a + a.mT
    out[:, 0, 2], out[:, 2, 0] = 0.0, 0.0
    out[1, 0, 2] = entry
    out[3, 0, 2] = 1.0
    return out if stacked else out[1]


@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
def test_the_symmetry_guard_raises_its_errors_and_passes_the_symmetric_part(stacked):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry, size, message in (
            (5e-9, 1.0, "matrix result drifted 5.000e-09 from symmetry"),
            (5e-9, 4.0, "matrix result drifted 5.000e-09 from symmetry"),
            (math.nan, 1.0, "matrix result drifted nan from symmetry"),
            (math.inf, 1.0, "matrix result drifted inf from symmetry"),
            (math.inf, math.inf, "matrix result drifted inf from symmetry"),
        ):
            with pytest.raises(InternalConsistencyError) as caught:
                SymmetricPositiveDefinite._resymmetrize(_drifted(stacked, 0, entry), size)
            assert str(caught.value) == message
        out = _drifted(stacked, 1, 5e-10)
        if stacked:
            out[3, 0, 2] = 3e-9  # within the budget of a size of 4
        for size in (4.0, math.inf):
            got = SymmetricPositiveDefinite._resymmetrize(out, size)
            assert got.tobytes() == manifolds._sym(out).tobytes()
            assert got.tobytes() == (0.5 * out + 0.5 * out.mT).tobytes()


def test_symmetrizing_halves_each_side_as_before_across_the_range():
    rng = np.random.default_rng(2)
    for scale in (1.0, 1e-310, 1e300, 1.7e308):
        a = scale * rng.uniform(-1.0, 1.0, (5, 4, 4))
        assert manifolds._sym(a).tobytes() == (0.5 * a + 0.5 * a.mT).tobytes()


def _loop_value(m, x, coords, dist=None):
    dist = dist or m.dist
    return sum(dist(x, y) ** 2 for y in coords) / (2.0 * len(coords))


def _fused_dist(m):
    """A single point's distance as the fused pass measures it."""
    return lambda x, y: float(m._dist_log(x, y[np.newaxis])[0][0])


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
    y = ManifoldPoint(m, rows[start % len(rows)] if start % 2 == 0 else p)
    value = _outcome(_loop_value, m, x.coordinates, rows)
    assert _outcome(objective.value_fn, x) == value
    assert _outcome(lambda x: objective.gradient_fn(x).components, x) == _outcome(
        _loop_gradient, m, x.coordinates, rows
    )
    # after the gradient, as a descent calls them: the same point reuses
    # the gradient's distances, another point measures its own
    after = _outcome(objective.value_fn, x)
    assert after == _outcome(_loop_value, m, x.coordinates, rows, _fused_dist(m))
    if isinstance(m, SymmetricPositiveDefinite) and value[0] == "ok":
        _assert_near_value(*(np.frombuffer(v[1])[0] for v in (after, value)))
    else:
        assert after == value
    assert _outcome(objective.value_fn, y) == _outcome(_loop_value, m, y.coordinates, rows)


def test_frechet_value_alone_is_defined_where_the_gradient_is_not():
    sphere = Sphere(2)
    north, east = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    objective = frechet_objective([ManifoldPoint(sphere, north), ManifoldPoint(sphere, east)])
    south = ManifoldPoint(sphere, -north)
    value = _loop_value(sphere, south.coordinates, np.stack([north, east]))
    assert value == pytest.approx((math.pi**2 + (math.pi / 2) ** 2) / 4, rel=1e-15)
    assert objective.value_fn(south) == value
    with pytest.raises(DomainError, match="antipode"):
        objective.gradient_fn(south)
    assert objective.value_fn(south) == value


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
    for op in (m.log, m._dist_log, ScaledManifold(m, 4.0)._dist_log):
        with pytest.raises(DomainError, match="antipode"):
            op(p, rows)


@SETTINGS
@given(batches(), st.floats(-3.0, 3.0))
def test_pairwise_distances_on_mixed_manifolds_is_a_contract_violation(batch, log_lam):
    m, p, rows = batch
    points = [ManifoldPoint(m, q) for q in rows]
    points.insert(len(points) // 2, ManifoldPoint(ScaledManifold(m, 10.0**log_lam), p))
    with pytest.raises(ContractViolationError, match="different manifolds"):
        pairwise_distances(points)


def _several_blocks(m, n):
    """A pairwise-distances case whose ``n(n-1)/2`` pairs span several
    blocks of ``pairwise_distances``, with duplicate points next to each
    other and apart."""
    base = m.base if isinstance(m, ScaledManifold) else m
    rng = np.random.default_rng(n)
    if isinstance(base, SymmetricPositiveDefinite):
        rows = [_spd(rng, base.side, 10.0 ** rng.uniform(0.0, 6.0)) for _ in range(n)]
    else:
        rows = [base.random_point(rng) for _ in range(n)]
    rows[4], rows[5], rows[11], rows[-1] = rows[3], rows[3], rows[0], rows[3]
    return m, None, np.stack(rows)


@SETTINGS
@given(batches())
@example(_several_blocks(SymmetricPositiveDefinite(8), 17))
@example(_several_blocks(ScaledManifold(SymmetricPositiveDefinite(8), 2.5), 40))
@example(_several_blocks(SymmetricPositiveDefinite(2), 65))
@example(_several_blocks(Sphere(2), 75))
@example(_several_blocks(ScaledManifold(Sphere(2), 2.5), 100))
def test_pairwise_distances_fill_both_triangles_from_single_calls(batch):
    m, _, rows = batch
    points = [ManifoldPoint(m, q) for q in rows]
    expected = np.zeros((len(rows), len(rows)))
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            expected[i, j] = expected[j, i] = m.dist(rows[i], rows[j])
    assert pairwise_distances(points).tobytes() == expected.tobytes()


def _pair_loop(m, coords):
    """What ``pairwise_distances`` must give: one single ``dist`` call per
    pair ``i < j``, or the first pair's error."""
    i, j = np.triu_indices(len(coords), k=1)
    return _single_calls(m.dist, coords[i], coords[j])


def _spd_set_with_twins(side, n, seed):
    """SPD points with equal values at two indices, some next to each
    other and some apart, and a twin of a diagonal point whose
    off-diagonal is -0.0: equal to it, with other bytes."""
    rng = np.random.default_rng(seed)
    rows = [_spd(rng, side, 10.0 ** rng.uniform(0.0, 6.0)) for _ in range(n)]
    rows[2] = np.diag(np.diag(rows[2]))
    rows[3] = rows[2].copy()
    rows[3][0, 1] = rows[3][1, 0] = -0.0
    rows[5], rows[6], rows[n - 1] = rows[4], rows[4], rows[0]
    return np.stack(rows)


@pytest.mark.parametrize("side, n", [(2, 70), (3, 12), (8, 40)])
def test_spd_pairwise_distances_over_duplicate_points_are_the_dist_loop(side, n):
    m = SymmetricPositiveDefinite(side)
    coords = _spd_set_with_twins(side, n, seed=side)
    assert coords[3].tobytes() != coords[2].tobytes() and (coords[3] == coords[2]).all()
    for man in (m, ScaledManifold(m, 2.5)):
        points = [ManifoldPoint(man, q) for q in coords]
        expected = _pair_loop(man, coords)
        assert expected[0] == "ok"
        out = pairwise_distances(points)
        assert out[np.triu_indices(n, k=1)].tobytes() == expected[1]
        assert out[2, 3] == out[4, 5] == out[5, 6] == out[0, n - 1] == 0.0


@pytest.mark.parametrize("lam", [0.1, 2.5, 4.0, 1e10])
def test_scaled_spd_pairwise_distances_are_the_root_of_the_scale_times_the_base(lam):
    m = SymmetricPositiveDefinite(3)
    coords = _spd_set_with_twins(3, 40, seed=5)
    base = pairwise_distances([ManifoldPoint(m, q) for q in coords])
    scaled = pairwise_distances([ManifoldPoint(ScaledManifold(m, lam), q) for q in coords])
    assert scaled.tobytes() == (math.sqrt(lam) * base).tobytes()


def test_spd_pair_pass_past_the_range_gives_the_dist_loops_result_or_error():
    m = SymmetricPositiveDefinite(2)
    eye = np.eye(2)
    tiny, huge = 1e-300 * eye, 1e300 * eye
    indefinite = np.diag([1.0, -1.0])
    # whitened by a tiny base a huge row overflows, by a huge base a tiny
    # row underflows; dist measures both past the range
    ranged = [tiny, eye, huge, 2.0 * eye, tiny]
    for coords in (ranged, ranged[::-1]):
        coords = np.stack(coords)
        expected = _pair_loop(m, coords)
        assert expected[0] == "ok"
        i, j = np.triu_indices(len(coords), k=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(m._pair_dist, coords, i, j) == expected
            points = [ManifoldPoint(m, q) for q in coords]
            assert pairwise_distances(points)[i, j].tobytes() == expected[1]
    # pairs that fail alone fail the block with the first one's error: a
    # base that has no factor, and a pair whose scaled-down row underflows
    for coords in (
        [eye, 2.0 * eye, indefinite, eye],
        [eye, np.diag([1e-300, 1.0]), np.diag([1e300, 1e-300])],
    ):
        coords = np.stack(coords)
        expected = _pair_loop(m, coords)
        assert expected == ("DomainError", "matrix is not positive definite")
        i, j = np.triu_indices(len(coords), k=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(m._pair_dist, coords, i, j) == expected


def _tangent(m, p, rng):
    """A tangent vector at ``p`` of moderate size in ``p``'s own metric."""
    if isinstance(m, SymmetricPositiveDefinite):
        low = np.linalg.cholesky(p)
        s = rng.standard_normal(p.shape)
        return 0.25 * (low @ (s + s.T) @ low.T)
    return m.to_tangent(p, rng.standard_normal(p.shape))


def _calls(man, p, rows, rng, zeros):
    """(operation, arguments) for every batched operation on ``man`` at a
    base point ``p`` and a stack of ``rows``: every argument stacked, a
    single base point against stacks, a base stack against a single last
    argument, and a base stack made of runs.  The rows listed in ``zeros``
    carry zero tangents."""
    base = man.root if isinstance(man, ScaledManifold) else man

    def tangents(points):
        out = np.stack([_tangent(base, x, rng) for x in points])
        out[sorted(zeros)] = 0.0
        return out

    at_rows, at_p = tangents(rows), tangents(repeat(p, len(rows)))
    at_rows2, at_p2 = tangents(rows), tangents(repeat(p, len(rows)))
    ambient = rng.standard_normal(rows.shape)
    others = rows[::-1]
    runs, run_tangents = np.repeat(rows, 2, axis=0), np.repeat(at_rows, 2, axis=0)
    forms = {
        "inner": [(rows, at_rows, at_rows2), (p, at_p, at_p2), (rows, at_rows, at_rows2[0]),
                  (runs, run_tangents, run_tangents[::-1])],
        "norm": [(rows, at_rows), (p, at_p), (rows, at_rows[0]), (runs, run_tangents)],
        "exp": [(rows, at_rows), (p, at_p), (rows, at_rows[0]), (runs, run_tangents)],
        "log": [(rows, others), (p, rows), (rows, p), (runs, np.repeat(others, 2, axis=0))],
        "transport": [(rows, others, at_rows), (p, rows, at_p), (rows, others, at_rows[0]),
                      (runs, np.repeat(others, 2, axis=0), run_tangents)],
        "to_tangent": [(rows, ambient), (p, ambient), (rows, ambient[0])],
        "euclidean_to_riemannian_gradient": [(rows, ambient), (p, ambient), (rows, ambient[0])],
    }
    return [(getattr(man, name), args) for name, arglist in forms.items() for args in arglist]


@SETTINGS
@given(batches(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.sets(st.integers(0, 39)))
def test_every_batched_operation_row_is_the_single_call_on_that_row(batch, la, lb, zeros):
    m, p, rows = batch
    zeros = {i for i in zeros if i < len(rows)}
    rng = np.random.default_rng(len(rows))
    for man in (m, ScaledManifold(ScaledManifold(m, 10.0**la), 10.0**lb)):
        for op, args in _calls(man, p, rows, rng, zeros):
            # a stack's rows, or a single argument paired with every row
            n = max(len(a) for a in args if a.ndim > p.ndim)
            columns = [a if a.ndim > p.ndim else repeat(a, n) for a in args]
            assert _outcome(op, *args) == _single_calls(op, *columns), op.__name__
        u = _tangent(m, p, rng)
        assert type(man.inner(p, u, u)) is float and type(man.norm(p, u)) is float


@pytest.mark.parametrize("m", [Euclidean(3), Sphere(2), SymmetricPositiveDefinite(2)])
def test_an_empty_batch_gives_empty_results(m):
    p = m.random_point(np.random.default_rng(0))
    e = np.zeros((0, *m.ambient_shape))
    for man in (m, ScaledManifold(m, 4.0)):
        for out in (man.inner(e, e, e), man.norm(p, e), man.dist(p, e),
                    man.curve_length(np.zeros((0, 3, *m.ambient_shape)))):
            assert out.shape == (0,)
        for out in (man.exp(e, e), man.log(p, e), man.transport(e, e, e), man.to_tangent(e, e),
                    man.euclidean_to_riemannian_gradient(p, e)):
            assert out.shape == e.shape
    for points in ([], [p]):
        with pytest.raises(ContractViolationError, match="at least 2 points"):
            m.curve_length(points)


def _first_error(op, *args):
    """The batched call's error, which must be the first failing row's."""
    n = max(len(a) for a in args)
    expected = _single_calls(op, *(a if len(a) == n else repeat(a[0], n) for a in args))
    assert expected[0] != "ok"
    assert _outcome(op, *args) == expected
    return expected


def test_a_sphere_batch_with_an_antipodal_row_raises_the_single_calls_error():
    m = Sphere(2)
    e = np.eye(3)
    bases = np.stack([e[0], e[1], e[2]])
    targets = np.stack([e[1], -e[1], e[0]])
    tangents = np.stack([e[2], e[2], e[1]])
    for op, args in ((m.log, (bases, targets)), (m.transport, (bases, targets, tangents))):
        assert _first_error(op, *args) == (
            "DomainError", "logarithm is undefined at the antipode: no canonical direction"
        )


def test_a_batch_raises_the_error_of_its_first_failing_row():
    spd = SymmetricPositiveDefinite(2)
    eye, indefinite = np.eye(2), np.diag([1.0, -1.0])
    tiny, huge = 1e-300 * eye, 1e300 * eye
    # a base that is not positive definite fails in every operation
    bases = np.stack([eye, indefinite, eye])
    for op, args in (
        (spd.exp, (bases, 0.1 * bases)),
        (spd.dist, (bases, np.stack([2.0 * eye] * 3))),
        (spd.log, (bases, np.stack([2.0 * eye] * 3))),
        (spd.transport, (bases, np.stack([2.0 * eye] * 3), np.stack([eye] * 3))),
        (spd.inner, (bases, np.stack([eye] * 3), np.stack([eye] * 3))),
    ):
        assert _first_error(op, *args) == ("DomainError", "matrix is not positive definite")
    # an earlier row that overflows wins over a later row's failed factorization
    _, message = _first_error(spd.exp, np.stack([tiny, indefinite]), np.stack([huge, eye]))
    assert "overflowed" in message
    # dist and log measure that pair past the range, so the later row's error is the batch's
    for op in (spd.dist, spd.log):
        assert _first_error(op, np.stack([tiny, indefinite]), np.stack([huge, eye])) == (
            "DomainError", "matrix is not positive definite"
        )
    # an earlier row scaled past the range wins over a later row's base overflow
    scaled = ScaledManifold(Euclidean(2), 1e300)
    u = np.array([[1e10, 0.0], [1e200, 0.0]])
    assert _first_error(scaled.inner, np.zeros((2, 2)), u, u) == (
        "DomainError", "scaled inner product inf is not finite"
    )
    assert _first_error(scaled.inner, np.zeros((2, 2)), u[::-1], u[::-1]) == (
        "DomainError", "inner product inf is not finite"
    )


def test_spd_transport_toward_a_target_that_is_not_positive_definite_is_a_domain_error():
    spd = SymmetricPositiveDefinite(2)
    eye = np.eye(2)
    indefinite, singular = np.diag([1.0, -1.0]), np.diag([1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (indefinite, singular):
            # transport now fails as dist and log do for the same pair
            for call in (lambda: spd.transport(eye, q, eye), lambda: spd.dist(eye, q),
                         lambda: spd.log(eye, q)):
                with pytest.raises(DomainError, match="^matrix is not positive definite$"):
                    call()
        targets = np.stack([2.0 * eye, singular, indefinite])
        assert _first_error(spd.transport, np.stack([eye] * 3), targets, np.stack([eye] * 3)) == (
            "DomainError", "matrix is not positive definite"
        )
        # an earlier row whose whitened target overflows wins over a later indefinite one
        _, message = _first_error(
            spd.transport, np.stack([1e-300 * eye, eye]), np.stack([1e300 * eye, indefinite]),
            np.stack([eye, eye]),
        )
        assert "overflowed" in message


def test_flat_and_sphere_inner_overflow_is_a_domain_error_without_a_warning():
    e0 = np.array([1.0, 0.0, 0.0])
    big = np.array([[0.0, 1e200, 0.0], [0.0, 1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in (
            TangentVector(ManifoldPoint(Euclidean(2), [0.0, 0.0]), [1e200, 0.0]),
            TangentVector(ManifoldPoint(Sphere(2), e0), big[0]),
        ):
            with pytest.raises(DomainError, match="inner product inf is not finite"):
                norm(v)
        with pytest.raises(DomainError, match="scaled inner product inf is not finite"):
            ScaledManifold(Sphere(2), 1e300).norm(e0, np.array([0.0, 1e10, 0.0]))
        for m in (Sphere(2), ScaledManifold(Sphere(2), 4.0)):
            with pytest.raises(DomainError, match="inner product inf is not finite"):
                m.norm(e0, big)
            with pytest.raises(DomainError, match="inner product inf is not finite"):
                m.inner(e0, big[::-1], big[::-1])
        assert ScaledManifold(Sphere(2), 1e300).norm(e0, big[1:]).tolist() == [1e150]
        # every base row is finite, and only the scaled product overflows
        with pytest.raises(DomainError, match="scaled inner product inf is not finite"):
            ScaledManifold(Sphere(2), 1e300).norm(e0, np.array([[0.0, 1.0, 0.0], [0.0, 1e10, 0.0]]))


def test_a_rescaled_gradient_past_the_range_is_a_domain_error_without_a_warning():
    tiny = ScaledManifold(Euclidean(2), 1e-300)
    nested = ScaledManifold(tiny, 1e-10)
    message = "gradient divided by the scale {} is not finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in ([1e200, 0.0], [[1.0, 0.0], [1e200, 0.0]], [np.nan, 0.0], [0.0, np.inf]):
            with pytest.raises(DomainError, match=f"^{message.format(1e-300)}$"):
                tiny.rescale_gradient(np.array(g))
        assert tiny.rescale_gradient(np.array([[1e-292, 0.0], [-1e8, 0.0]])).tolist() == [
            [1e8, 0.0], [-1e308, 0.0],
        ]
        # an earlier row past the range at the outer scale wins over a later
        # row past it at the inner one, as in a row-by-row run
        rows = np.array([[1e5, 0.0], [1e10, 0.0]])
        assert _first_error(nested.rescale_gradient, rows) == (
            "DomainError", message.format(1e-10)
        )
        assert _first_error(nested.rescale_gradient, rows[::-1]) == (
            "DomainError", message.format(1e-300)
        )


def test_a_converted_gradient_past_the_range_is_a_domain_error_without_a_warning():
    # the conversion divides by the scale through the check rescale_gradient makes
    tiny = ScaledManifold(Euclidean(1), 1e-300)
    message = "^gradient divided by the scale 1e-300 is not finite$"
    rows = np.array([[1e-10], [1e10]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            riemannian_gradient(ManifoldPoint(tiny, [0.0]), [1e10])
        with pytest.raises(DomainError, match=message):
            tiny.euclidean_to_riemannian_gradient(np.zeros((2, 1)), rows)
        # in range, the quotient keeps its bits
        got = tiny.euclidean_to_riemannian_gradient(np.zeros((1, 1)), rows[:1])
        assert got.tobytes() == (rows[:1] / 1e-300).tobytes()
        # a base error in a later row does not win over an earlier row's quotient
        spd = ScaledManifold(SymmetricPositiveDefinite(2), 1e-300)
        bases = np.stack([np.eye(2), 1e200 * np.eye(2)])
        gradients = np.stack([1e10 * np.eye(2), np.eye(2)])
        assert _first_error(spd.euclidean_to_riemannian_gradient, bases, gradients) == (
            "DomainError", "gradient divided by the scale 1e-300 is not finite"
        )
        assert _first_error(spd.euclidean_to_riemannian_gradient, bases[::-1], gradients[::-1]) == (
            "DomainError", "metric gradient p g p is not finite"
        )


def test_an_spd_metric_gradient_past_the_range_is_a_domain_error_without_a_warning():
    m = SymmetricPositiveDefinite(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^metric gradient p g p is not finite$"):
            riemannian_gradient(ManifoldPoint(m, 1e200 * np.eye(2)), np.eye(2))
        bases = np.stack([np.eye(2), 1e200 * np.eye(2)])
        assert _first_error(m.euclidean_to_riemannian_gradient, bases, np.eye(2)[None]) == (
            "DomainError", "metric gradient p g p is not finite"
        )
        # a product near the top of the range is still finite
        edge = 1e153 * np.eye(2)
        assert m.euclidean_to_riemannian_gradient(edge, np.eye(2)).tolist() == (
            (edge @ edge).tolist()
        )


def _counting(monkeypatch, ops):
    """Count the calls each family makes of ``ops``, as single calls or
    batched ones."""
    calls = Counter()
    for cls, rank in ((Euclidean, 1), (Sphere, 1), (SymmetricPositiveDefinite, 2)):
        for op in ops:
            def counted(self, *args, _cls=cls, _op=op, _rank=rank, _fn=vars(cls)[op]):
                kind = "batch" if any(np.ndim(a) > _rank for a in args) else "single"
                calls[_cls.__name__, _op, kind] += 1
                return _fn(self, *args)

            monkeypatch.setattr(cls, op, counted)
    return calls


def test_sweeps_make_one_call_per_operation_per_manifold_and_scale(monkeypatch):
    ops = ("dist", "exp", "log", "transport", "to_tangent")
    families = ("Euclidean", "Sphere", "SymmetricPositiveDefinite")
    per_manifold = 1 + len(verify.VARIANT_LAMBDAS)  # the base and each scale
    rng = np.random.default_rng(5)

    calls = _counting(monkeypatch, ops)
    list(verify._run_variant_distance(rng))
    assert calls == {(f, "dist", "batch"): per_manifold for f in families}

    calls = _counting(monkeypatch, ops)
    list(verify._run_delegation(rng))
    expected = {(f, op, "batch"): per_manifold for f in families for op in ops[1:]}
    # the draws: random_tangent projects one ambient draw per case
    expected |= {(f, "to_tangent", "single"): verify.DELEGATION_CASES for f in families}
    assert calls == expected


@SETTINGS
@given(batches(), st.floats(-3.0, 3.0), st.integers(2, 20))
# curves of 19 segments: numpy would sum 8 or more terms pairwise, not left to right
@example(_several_blocks(Sphere(2), 40), 0.0, 20)
@example(_several_blocks(SymmetricPositiveDefinite(3), 40), 0.5, 20)
def test_curve_length_of_a_stack_of_curves_is_each_curves_length(batch, log_lam, samples):
    m, _, rows = batch
    count = len(rows) // samples
    if count == 0:
        return
    curves = rows[: count * samples].reshape(count, samples, *m.ambient_shape)
    # the segment distances summed left to right, one single dist call each
    segments = [sum(m.dist(a, b) for a, b in zip(c[:-1], c[1:])) for c in curves]
    lam = 10.0**log_lam
    for man, factor in ((m, 1.0), (ScaledManifold(m, lam), math.sqrt(lam))):
        expected = [man.curve_length(list(curve)) for curve in curves]
        assert expected == [factor * x for x in segments]
        assert all(type(x) is float for x in expected)
        assert man.curve_length(curves).tobytes() == np.array(expected).tobytes()
    with pytest.raises(ContractViolationError, match="at least 2 points"):
        m.curve_length(rows[:, np.newaxis])
