"""Concrete Riemannian manifolds with closed-form geometry.

Three manifold families share one capability set: flat Euclidean space
R^n, the unit sphere S^n embedded in R^{n+1}, and the cone of symmetric
positive-definite matrices with the affine-invariant metric.  Each
exposes the metric (inner product, norm, distance), the geodesic
structure (exponential and logarithm maps, parallel transport along the
connecting geodesic), tangent projection, conversion of ambient
gradients to metric gradients, and chordal curve length.

Everything here is closed form: sphere operations use trigonometric
formulas, and every SPD operation factors its base point once, as
``p = L L^T`` by Cholesky, and whitens with ``L^-1 · L^-T``.
All values are immutable and all operations are pure functions, so the
module is safe for unrestricted concurrent use.

``dist(p, q)`` takes a leading batch axis on ``p``, on ``q`` or on
both, following the vectorisation convention of geomstats: stacks of
shape ``(N, *ambient_shape)``, or one point against a stack, give the
``(N,)`` distances row by row, each bit-identical to the single call on
that row.  ``log(p, q)`` takes the batch axis on ``q`` only and returns
``(N, *ambient_shape)`` tangent vectors.  A single point is the
batch-of-one case of the same code and gives an ambient array or a
Python float.  This lets a barycenter iterate measure all data points in
one call, with the Cholesky factor of the base point computed once.
SPD distance reads the eigenvalues of ``L^-1 q L^-T``, one stacked
``eigvalsh`` for the whole batch.  The other operations are pointwise.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

# Nothing here uses scipy, and the bare import loads no subpackage; the
# name stays a module attribute only because the benchmark's tracing
# hook (perfbench/instrument.py) replaces ``manifolds.scipy``.
import scipy  # noqa: F401

from .errors import ContractViolationError, DomainError, InternalConsistencyError

# Tolerances: membership checks mirror double-precision headroom; the
# renormalization budget bounds drift any single operation may repair.
POINT_TOL = 1e-12
TANGENT_TOL = 1e-10
RENORM_TOL = 1e-9
ANTIPODE_MARGIN = 1e-9


# Argument checks of the typed entry points; the raw ``Manifold`` engine
# methods and chart metric-function outputs go unchecked.


def _shown(value) -> str:
    """``repr(value)``, or the type and bit length of an int with more
    digits than Python converts to text."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            raise
        return f"{type(value).__name__} of {value.bit_length()} bits"


def _require_count(name: str, value) -> None:
    """Reject anything but a non-bool integer >= 1 (sizes, step counts)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ContractViolationError(f"{name} must be an integer >= 1, got {_shown(value)}")


def _require_real(name: str, value, positive: bool = True) -> float:
    """``value`` as a float if it is a finite non-bool real that is > 0,
    or >= 0 when ``positive`` is false; otherwise reject it."""
    x = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond the double range
            x = float(value)
    if not (math.isfinite(x) and (x > 0.0 if positive else x >= 0.0)):
        sign = "positive" if positive else "nonnegative"
        raise ContractViolationError(f"{name} must be a finite {sign} real, got {_shown(value)}")
    return x


def _require(kind: type, *values) -> None:
    """Reject any argument that is not a ``kind`` (a manifold, point,
    tangent vector or curve a typed entry point expects)."""
    for value in values:
        if not isinstance(value, kind):
            raise ContractViolationError(
                f"expected a {kind.__name__}, got {type(value).__name__}"
            )


def _floats(x, name: str) -> np.ndarray:
    """``x`` as a new float64 array; reject ragged, text or other
    non-numeric input."""
    try:
        raw = np.asarray(x)
    except ValueError:
        raw = None
    if raw is None or raw.dtype.kind not in "biuf":
        raise ContractViolationError(f"{name} must be a rectangular array of reals")
    return np.array(raw, dtype=float)


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.mT)


def _paired(stack: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The selected ``rows`` of a stack, or a stack of one as it is,
    which broadcasts against them."""
    return stack if len(stack) == 1 else stack[rows]


def _size(a: np.ndarray) -> np.ndarray:
    """Largest absolute entry of a matrix, or of each matrix in a stack."""
    return np.abs(a).max(axis=(-2, -1))


def _sym_apply(a: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to the symmetric part of a matrix (or of
    each matrix in a stack) through its eigenvalues."""
    w, v = np.linalg.eigh(_sym(a))
    return (v * fn(w)[..., np.newaxis, :]) @ v.mT


class Manifold(ABC):
    """Capability set shared by every manifold family.

    Methods operate on raw ``numpy`` arrays in the ambient
    representation (vectors for Euclidean space and the sphere, square
    symmetric matrices for the SPD cone).  The wrapper types
    :class:`ManifoldPoint` and :class:`TangentVector` add membership
    validation on top of this engine.
    """

    family: ClassVar[str]

    @property
    @abstractmethod
    def intrinsic_dim(self) -> int:
        """Dimension of the manifold itself (not of the ambient space)."""

    @property
    @abstractmethod
    def ambient_shape(self) -> tuple[int, ...]:
        """Shape of the arrays that represent points and tangent vectors."""

    # -- metric --------------------------------------------------------

    @abstractmethod
    def inner(self, p: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
        """Metric inner product of tangent vectors ``u``, ``v`` at ``p``."""

    def norm(self, p: np.ndarray, v: np.ndarray) -> float:
        """Metric norm of ``v`` at ``p``."""
        return math.sqrt(max(self.inner(p, v, v), 0.0))

    @abstractmethod
    def dist(self, p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
        """Geodesic distance between ``p`` and ``q``.

        Either argument, or both, may carry a leading batch axis,
        ``(N, *ambient_shape)``; a single point on one side is paired
        with every row of the other.  The result is then the ``(N,)``
        array of row distances, each the single call on that row.  Two
        single points give a Python float.
        """

    # -- geodesic structure ---------------------------------------------

    @abstractmethod
    def exp(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Endpoint of the unit-time geodesic from ``p`` with velocity ``v``."""

    @abstractmethod
    def log(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Initial velocity of the geodesic from ``p`` reaching ``q`` at time 1.

        ``q`` may carry a leading batch axis, ``(N, *ambient_shape)``;
        the result is then the ``(N, *ambient_shape)`` stack of
        logarithms at ``p``, and an error is the one the first failing
        row would raise on its own.
        """

    @abstractmethod
    def transport(self, p: np.ndarray, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Parallel transport of ``v`` along the minimizing geodesic p -> q."""

    @abstractmethod
    def to_tangent(self, p: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Project an ambient array onto the tangent space at ``p``."""

    @abstractmethod
    def euclidean_to_riemannian_gradient(
        self, p: np.ndarray, ambient_gradient: np.ndarray
    ) -> np.ndarray:
        """Convert the ambient (Euclidean) gradient of a smooth extension
        into the metric gradient at ``p``."""

    def rescale_gradient(self, gradient: np.ndarray) -> np.ndarray:
        """Gradient in this manifold's own metric, given the gradient
        measured in the unscaled base metric.  Identity here; scaled
        wrappers divide by their factor."""
        return gradient

    def curve_length(self, points: Sequence[np.ndarray]) -> float:
        """Length of a sampled curve as the sum of geodesic segment distances.

        Converges to the true length as the sampling refines, and is
        exact when consecutive samples lie on a common geodesic.
        """
        if len(points) < 2:
            raise ContractViolationError("a sampled curve needs at least 2 points")
        stack = np.stack(points)
        # Python floats summed left to right, as a segment-by-segment sum does
        return float(sum(self.dist(stack[:-1], stack[1:]).tolist()))

    # -- membership and sampling -----------------------------------------

    @abstractmethod
    def validate_point(self, coordinates) -> np.ndarray:
        """Check membership and return a canonical float64 copy."""

    @abstractmethod
    def validate_tangent(self, p: np.ndarray, components) -> np.ndarray:
        """Check tangency at ``p`` and return a canonical float64 copy."""

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def random_tangent(self, p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Projection of an ambient Gaussian draw onto the tangent space."""
        return self.to_tangent(p, rng.standard_normal(self.ambient_shape))

    def zero_tangent(self, p: np.ndarray) -> np.ndarray:
        return np.zeros(self.ambient_shape)

    def _rows(self, q) -> tuple[np.ndarray, bool]:
        """``q`` as an ``(N, *ambient_shape)`` stack, and whether it was one point."""
        q = np.asarray(q, dtype=float)
        single = q.ndim == len(self.ambient_shape)
        return (q[np.newaxis] if single else q), single

    def _pair(self, p, q) -> tuple[np.ndarray, np.ndarray, bool]:
        """``p`` and ``q`` as stacks that broadcast row by row (a single
        point is a stack of one), and whether both were single points."""
        ps, p_single = self._rows(p)
        qs, q_single = self._rows(q)
        return ps, qs, p_single and q_single

    def _check_shape(self, arr, what: str) -> np.ndarray:
        out = _floats(arr, what)
        if out.shape != self.ambient_shape:
            raise ContractViolationError(
                f"{what} has shape {out.shape}, expected {self.ambient_shape} on {self}"
            )
        if not np.all(np.isfinite(out)):
            raise ContractViolationError(f"{what} contains non-finite entries")
        return out


@dataclass(frozen=True)
class Euclidean(Manifold):
    """Flat R^n: every operation reduces to vector arithmetic."""

    dim: int
    family: ClassVar[str] = "euclidean"

    def __post_init__(self):
        _require_count("dimension", self.dim)

    @property
    def intrinsic_dim(self) -> int:
        return self.dim

    @property
    def ambient_shape(self) -> tuple[int, ...]:
        return (self.dim,)

    def inner(self, p, u, v) -> float:
        return float(np.dot(u, v))

    def dist(self, p, q):
        ps, qs, single = self._pair(p, q)
        diff = qs - ps
        # vecdot rounds each row like np.linalg.norm does a single vector
        d = np.sqrt(np.vecdot(diff, diff))
        return float(d[0]) if single else d

    def exp(self, p, v):
        return p + v

    def log(self, p, q):
        return q - p

    def transport(self, p, q, v):
        return v.copy()

    def to_tangent(self, p, w):
        return np.asarray(w, dtype=float).copy()

    def euclidean_to_riemannian_gradient(self, p, ambient_gradient):
        return np.asarray(ambient_gradient, dtype=float).copy()

    def validate_point(self, coordinates) -> np.ndarray:
        return self._check_shape(coordinates, "point")

    def validate_tangent(self, p, components) -> np.ndarray:
        return self._check_shape(components, "tangent vector")

    def random_point(self, rng):
        return rng.standard_normal(self.dim)


@dataclass(frozen=True)
class Sphere(Manifold):
    """Unit sphere S^n embedded in R^{n+1} with the round metric.

    Geodesics are great circles; the logarithm is only defined away
    from the antipode, where no canonical direction exists.
    """

    dim: int
    family: ClassVar[str] = "sphere"

    def __post_init__(self):
        _require_count("dimension", self.dim)

    @property
    def intrinsic_dim(self) -> int:
        return self.dim

    @property
    def ambient_shape(self) -> tuple[int, ...]:
        return (self.dim + 1,)

    def inner(self, p, u, v) -> float:
        return float(np.dot(u, v))

    def dist(self, p, q):
        ps, qs, single = self._pair(p, q)
        same, c, u, nu = self._chords(ps, qs)
        # atan2 keeps full accuracy near both coincident and antipodal pairs
        d = np.where(same, 0.0, np.arctan2(nu, c))
        return float(d[0]) if single else d

    def exp(self, p, v):
        with np.errstate(over="ignore"):
            theta = float(np.linalg.norm(v))
        if theta == 0.0:
            return p.copy()
        if not math.isfinite(theta):
            raise DomainError(f"tangent norm {theta} is not finite")
        out = math.cos(theta) * p + math.sin(theta) * (v / theta)
        return self._renormalize(out)

    def log(self, p, q):
        rows, single = self._rows(q)
        same, c, u, nu = self._chords(p, rows)
        if (~same & (c <= -1.0 + ANTIPODE_MARGIN)).any():
            raise DomainError(
                "logarithm is undefined at the antipode: no canonical direction"
            )
        zero = same | (nu == 0.0)
        theta = np.arctan2(nu, c)
        ratio = np.divide(theta, nu, out=np.zeros_like(theta), where=~zero)
        out = ratio[:, np.newaxis] * u
        out[zero] = 0.0
        return out[0] if single else out

    @staticmethod
    def _chords(p, rows):
        """Per row of ``rows``: equality with ``p`` (a point, or a stack
        of rows paired with ``rows``), the clipped cosine ``c``, the
        component ``u`` orthogonal to ``p`` and its norm."""
        same = (rows == p).all(axis=-1)
        c = np.clip(np.vecdot(rows, p), -1.0, 1.0)
        u = rows - c[:, np.newaxis] * p
        return same, c, u, np.sqrt(np.vecdot(u, u))

    def transport(self, p, q, v):
        w = self.log(p, q)
        theta = float(np.linalg.norm(w))
        if theta == 0.0:
            return v.copy()
        e = w / theta
        a = float(np.dot(e, v))
        # component along the geodesic rotates in the (p, e) plane,
        # the orthogonal complement rides along unchanged
        return v + a * ((math.cos(theta) - 1.0) * e - math.sin(theta) * p)

    def to_tangent(self, p, w):
        w = np.asarray(w, dtype=float)
        return w - np.dot(p, w) * p

    def euclidean_to_riemannian_gradient(self, p, ambient_gradient):
        return self.to_tangent(p, ambient_gradient)

    def validate_point(self, coordinates) -> np.ndarray:
        out = self._check_shape(coordinates, "point")
        drift = abs(float(np.linalg.norm(out)) - 1.0)
        if drift > POINT_TOL:
            raise ContractViolationError(
                f"point is off the unit sphere by {drift:.3e} (tolerance {POINT_TOL})"
            )
        return out

    def validate_tangent(self, p, components) -> np.ndarray:
        out = self._check_shape(components, "tangent vector")
        normal = abs(float(np.dot(p, out)))
        if normal > TANGENT_TOL:
            raise ContractViolationError(
                f"vector has a normal component of {normal:.3e} "
                f"(tolerance {TANGENT_TOL})"
            )
        return out

    def random_point(self, rng):
        while True:
            x = rng.standard_normal(self.dim + 1)
            n = np.linalg.norm(x)
            if n > 1e-8:
                return x / n

    def _renormalize(self, out: np.ndarray) -> np.ndarray:
        n = float(np.linalg.norm(out))
        if not abs(n - 1.0) <= RENORM_TOL:
            raise InternalConsistencyError(
                f"sphere result drifted {abs(n - 1.0):.3e} from unit norm"
            )
        return out / n


@dataclass(frozen=True)
class SymmetricPositiveDefinite(Manifold):
    """SPD matrices of a fixed side with the affine-invariant metric
    <U, V>_P = trace(P^-1 U P^-1 V).

    Every operation factors its base point once, ``p = L L^T``, and works
    on matrices whitened to ``L^-1 x L^-T``, which the congruence-invariant
    metric measures as it does their originals (Pennec et al., IJCV 2006).
    """

    side: int
    family: ClassVar[str] = "spd"

    def __post_init__(self):
        _require_count("matrix side", self.side)

    @property
    def intrinsic_dim(self) -> int:
        return self.side * (self.side + 1) // 2

    @property
    def ambient_shape(self) -> tuple[int, ...]:
        return (self.side, self.side)

    def inner(self, p, u, v) -> float:
        _, _, (wu, wv) = self._whiten(p, np.stack((u, v)))
        return float(np.vdot(wu, wv))

    def dist(self, p, q):
        ps, qs, single = self._pair(p, q)
        other = ~(qs == ps).all(axis=(-2, -1))
        # eigenvalues of p^-1 q, those of the whitened q, for the whole stack;
        # rows equal to p read as ones so that their distance is exactly zero
        w = np.ones(other.shape + (self.side,))
        if other.any():
            _, _, white = self._whiten(_paired(ps, other), _paired(qs, other))
            w[other] = vals = np.linalg.eigvalsh(white)
            if not np.all(vals > 0.0):
                raise DomainError("matrix is not positive definite")
        d = np.sqrt(np.sum(np.log(w) ** 2, axis=1))
        return float(d[0]) if single else d

    def exp(self, p, v):
        low, _, white = self._whiten(p, v)
        f = _sym_apply(white, np.exp)
        return self._resymmetrize(low @ f @ low.T, _size(low) ** 2 * _size(f))

    def log(self, p, q):
        rows, single = self._rows(q)
        out = np.zeros_like(rows)
        other = ~(rows == p).all(axis=(-2, -1))
        if other.any():
            low, _, white = self._whiten(p, rows[other])
            f = _sym_apply(white, np.log)
            out[other] = self._resymmetrize(low @ f @ low.T, _size(low) ** 2 * _size(f))
        return out[0] if single else out

    def transport(self, p, q, v):
        if np.array_equal(p, q):
            return v.copy()
        low, inv_low, white = self._whiten(p, q)
        # principal square root of q p^-1 = L W L^-1, with W the whitened q
        e = low @ _sym_apply(white, np.sqrt) @ inv_low
        return self._resymmetrize(e @ v @ e.T, _size(e) ** 2 * _size(v))

    def to_tangent(self, p, w):
        return _sym(np.asarray(w, dtype=float))

    def euclidean_to_riemannian_gradient(self, p, ambient_gradient):
        return _sym(p @ _sym(np.asarray(ambient_gradient, dtype=float)) @ p)

    def validate_point(self, coordinates) -> np.ndarray:
        out = self._check_shape(coordinates, "point")
        asym = float(np.max(np.abs(out - out.T)))
        if asym > POINT_TOL:
            raise ContractViolationError(
                f"matrix is asymmetric by {asym:.3e} (tolerance {POINT_TOL})"
            )
        self._whiten(out)  # raises unless out has a Cholesky factor
        return out

    def validate_tangent(self, p, components) -> np.ndarray:
        out = self._check_shape(components, "tangent vector")
        asym = float(np.max(np.abs(out - out.T)))
        if asym > POINT_TOL:
            raise ContractViolationError(
                f"tangent matrix is asymmetric by {asym:.3e} (tolerance {POINT_TOL})"
            )
        return out

    def random_point(self, rng):
        return _sym_apply(rng.uniform(-1.0, 1.0, (self.side, self.side)), np.exp)

    @staticmethod
    def _whiten(p: np.ndarray, x: np.ndarray | None = None):
        """``L``, ``L^-1`` and ``x`` whitened to ``L^-1 x L^-T``, with ``p = L L^T``
        for a matrix or each matrix in a stack, or ``L`` alone without ``x``;
        ``DomainError`` if ``p`` is not positive definite or the whitened
        ``x`` is not finite."""
        try:
            low = np.linalg.cholesky(p)
        except np.linalg.LinAlgError:
            raise DomainError("matrix is not positive definite") from None
        if x is None:
            return low
        with np.errstate(over="ignore", invalid="ignore"):
            inv_low = np.linalg.inv(low)
            white = inv_low @ x @ inv_low.mT
        if not np.isfinite(white).all():
            raise DomainError("whitened matrix L^-1 x L^-T overflowed, with p = L L^T")
        return low, inv_low, white

    @staticmethod
    def _resymmetrize(out: np.ndarray, size=1.0) -> np.ndarray:
        """Symmetrize a matrix or a stack of them; the first one that
        drifted past the budget raises with its own drift.

        ``size`` bounds the entries of the factors ``out`` is the product
        of (one value, or one per matrix): rounding drift grows with it,
        so the budget is ``RENORM_TOL`` times ``size``, never less than
        ``RENORM_TOL`` itself.  A non-finite entry always fails.
        """
        drift = np.atleast_1d(np.abs(out - out.mT).max(axis=(-2, -1)))
        ok = np.isfinite(drift) & (drift <= RENORM_TOL * np.maximum(size, 1.0))
        bad = drift[~ok]
        if bad.size:
            raise InternalConsistencyError(
                f"matrix result drifted {float(bad[0]):.3e} from symmetry"
            )
        return _sym(out)


def manifold_from_string(spec: str) -> Manifold:
    """Build a manifold from a ``family:size`` string.

    ``euclidean:n`` and ``sphere:n`` take the intrinsic dimension;
    ``spd:m`` takes the matrix side (intrinsic dimension m(m+1)/2).
    """
    try:
        family, _, size_str = spec.partition(":")
        size = int(size_str)
    except ValueError:
        raise ContractViolationError(f"malformed manifold spec {spec!r}") from None
    if family == "euclidean":
        return Euclidean(size)
    if family == "sphere":
        return Sphere(size)
    if family == "spd":
        return SymmetricPositiveDefinite(size)
    raise ContractViolationError(f"unknown manifold family {family!r}")


# ---------------------------------------------------------------------------
# Validated value types and the typed operation layer.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    """A point on a manifold, validated at construction.

    The coordinate array is stored as a read-only copy; operations
    never mutate it.
    """

    manifold: Manifold
    coordinates: np.ndarray

    def __post_init__(self):
        _require(Manifold, self.manifold)
        coords = self.manifold.validate_point(self.coordinates)
        object.__setattr__(self, "coordinates", _readonly(coords))

    def __repr__(self):
        return f"ManifoldPoint({self.manifold!r}, {self.coordinates!r})"


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent vector anchored to its base point."""

    base: ManifoldPoint
    components: np.ndarray

    def __post_init__(self):
        _require(ManifoldPoint, self.base)
        comps = self.manifold.validate_tangent(self.base.coordinates, self.components)
        object.__setattr__(self, "components", _readonly(comps))

    @property
    def manifold(self) -> Manifold:
        return self.base.manifold

    def __repr__(self):
        return f"TangentVector(base={self.base!r}, components={self.components!r})"


@dataclass(frozen=True, eq=False)
class SampledCurve:
    """An ordered sampling of a curve.

    At least two samples are required and all points must live on the
    same manifold.
    """

    points: tuple[ManifoldPoint, ...]

    def __post_init__(self):
        try:
            points = tuple(self.points)
        except TypeError:
            raise ContractViolationError(
                f"curve samples must be a sequence, got {type(self.points).__name__}"
            ) from None
        if len(points) < 2:
            raise ContractViolationError("a sampled curve needs at least 2 points")
        _require(ManifoldPoint, *points)
        m = points[0].manifold
        if any(pt.manifold != m for pt in points[1:]):
            raise ContractViolationError("curve samples live on different manifolds")
        object.__setattr__(self, "points", points)

    @property
    def manifold(self) -> Manifold:
        return self.points[0].manifold


def _require_same_manifold(p: ManifoldPoint, q: ManifoldPoint) -> Manifold:
    _require(ManifoldPoint, p, q)
    if p.manifold != q.manifold:
        raise ContractViolationError(
            f"points live on different manifolds: {p.manifold} vs {q.manifold}"
        )
    return p.manifold


def _require_same_base(u: TangentVector, v: TangentVector) -> ManifoldPoint:
    _require(TangentVector, u, v)
    if u.base is not v.base:
        _require_same_manifold(u.base, v.base)
        if not np.array_equal(u.base.coordinates, v.base.coordinates):
            raise ContractViolationError("tangent vectors have different base points")
    return u.base


def inner_product(u: TangentVector, v: TangentVector) -> float:
    """Metric inner product of two tangent vectors at a shared base point."""
    p = _require_same_base(u, v)
    return p.manifold.inner(p.coordinates, u.components, v.components)


def norm(v: TangentVector) -> float:
    """Metric norm of a tangent vector."""
    _require(TangentVector, v)
    return v.manifold.norm(v.base.coordinates, v.components)


def exp_map(v: TangentVector) -> ManifoldPoint:
    """Endpoint of the unit-time geodesic with initial velocity ``v``."""
    _require(TangentVector, v)
    m = v.manifold
    return ManifoldPoint(m, m.exp(v.base.coordinates, v.components))


def log_map(p: ManifoldPoint, q: ManifoldPoint) -> TangentVector:
    """Tangent vector at ``p`` whose geodesic reaches ``q`` at time 1."""
    m = _require_same_manifold(p, q)
    return TangentVector(p, m.log(p.coordinates, q.coordinates))


def distance(p: ManifoldPoint, q: ManifoldPoint) -> float:
    """Geodesic distance between two points."""
    m = _require_same_manifold(p, q)
    return m.dist(p.coordinates, q.coordinates)


def parallel_transport(v: TangentVector, q: ManifoldPoint) -> TangentVector:
    """Transport ``v`` along the minimizing geodesic from its base to ``q``."""
    _require(TangentVector, v)
    m = _require_same_manifold(v.base, q)
    return TangentVector(q, m.transport(v.base.coordinates, q.coordinates, v.components))


def tangent_projection(p: ManifoldPoint, w) -> TangentVector:
    """Project an ambient array onto the tangent space at ``p``."""
    _require(ManifoldPoint, p)
    return TangentVector(p, p.manifold.to_tangent(p.coordinates, w))


def riemannian_gradient(p: ManifoldPoint, ambient_gradient) -> TangentVector:
    """Metric gradient at ``p`` from the ambient gradient of a smooth extension."""
    _require(ManifoldPoint, p)
    m = p.manifold
    g = m._check_shape(ambient_gradient, "ambient gradient")
    return TangentVector(p, m.euclidean_to_riemannian_gradient(p.coordinates, g))


def curve_length(curve: SampledCurve) -> float:
    """Chordal-geodesic length of a sampled curve."""
    _require(SampledCurve, curve)
    return curve.manifold.curve_length([pt.coordinates for pt in curve.points])


def random_point(manifold: Manifold, rng: np.random.Generator) -> ManifoldPoint:
    """Draw a point with full support: normalized Gaussians on the sphere,
    matrix exponentials of uniform symmetric matrices on the SPD cone."""
    _require(Manifold, manifold)
    return ManifoldPoint(manifold, manifold.random_point(rng))


def random_tangent(p: ManifoldPoint, rng: np.random.Generator) -> TangentVector:
    """Draw a tangent vector by projecting an ambient Gaussian draw."""
    _require(ManifoldPoint, p)
    return TangentVector(p, p.manifold.random_tangent(p.coordinates, rng))
