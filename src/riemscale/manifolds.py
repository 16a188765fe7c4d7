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
``p = L L^T`` by Cholesky, and whitens with ``L^-1 · L^-T``.  ``exp``,
``log`` and ``transport`` map their results back out of the whitened
frame one way, ``_map_back``: the congruence ``a m a^T``, symmetrized
within a drift budget, and a ``DomainError`` without a warning if it
overflows.
All values are immutable and all operations are pure functions, so the
module is safe for unrestricted concurrent use.

The closed-form operations take a leading batch axis, following the
vectorisation convention of geomstats: ``inner``, ``norm``, ``dist``,
``exp``, ``log``, ``transport``, ``to_tangent`` and
``euclidean_to_riemannian_gradient`` accept stacks of shape
``(N, *ambient_shape)`` in any argument, and a single point or vector
broadcasts against a stack.  They give the ``N`` results row by row,
each bit-identical to the single call on that row, and a batch raises
the error its first failing row would raise on its own.  One dispatcher,
``Manifold._batched``, serves every operation but the plain numpy
expressions that cannot fail (Euclidean ``exp`` and ``log``) and the SPD
gradient map, whose one error, an overflow, names no row: it runs the
family's one stacked body, a single input as a stack of one, replays a
failed batch row by row to find its first failing row (``dist``
included), and gives a Python float or one ambient array when every
argument was single.  Only ``inner`` and ``exp`` keep a
second body for single inputs, because every descent iterate calls each
of them once on one point, where a stack of one costs several times as
much.
A row equal to its base point is the one case the ``dist`` and ``log``
bodies mask (on the sphere, also a row whose component orthogonal to the
base rounds to zero): its distance is exactly zero and its logarithm
the zero array.  Each body builds that mask and takes its masked path
only when the mask has a true entry, so a batch without such a row (every
descent iterate after the first, every pair ``pairwise_distances``
measures) makes no masked copy or store, with the same bits on every row.
``curve_length`` takes a ``(C, S, *ambient_shape)`` stack of C curves.
The sampler is stacked too: ``_random_points(rng, count)`` draws
``count`` points as one ``(count, *ambient_shape)`` stack, taking from
the generator exactly what ``count`` single draws take, so its rows are
theirs bit for bit; ``random_point`` is its one-row case.
On the SPD cone, ``dist``, the pair pass, ``log`` with the fused pass
below, and ``transport`` all read one whitening of their (base, row)
pairs, ``SymmetricPositiveDefinite._whitened``, which holds the cone's
one row-equality mask and its one range rescue.  ``dist`` reads the
eigenvalues of ``L^-1 q L^-T``, one stacked ``eigvalsh`` for the whole
batch.  A row whose whitened matrix leaves the double range (an entry
overflows, or a diagonal entry falls below the normal range) is whitened
again with the scalars factored out, as ``q / 2^b`` at ``p / 2^a``, and
its log eigenvalues are raised by ``ln 2^(b - a)``; every other row keeps
its bits.  ``log`` maps such a row's logarithm back by the factor of
``p / 2^a``, then multiplies it by ``2^a``: ``log(1e-300 I, 1e300 I)``
is about ``1.38e-297 I``.  ``transport`` maps such a row's vector by
``E' = L' W'^1/2 L'^-1``, with ``L'`` the factor of ``p / 2^a`` and
``W'`` the whitened row, then multiplies it by ``2^(b - a)``, which is
exact: ``transport(1e-300 I, 1e300 I, 1e-300 I)`` is about ``1e300 I``.
A rescued row raises ``DomainError`` only where its result overflows.

A barycenter iterate measures all data points in one pass: the private
``_dist_log(p, rows)`` gives ``dist(p, rows)`` and ``log(p, rows)``
together, sharing the row set-up, the sphere chords and the SPD
whitening.  Its logarithms are ``log``'s bit for bit, and so are its
distances on Euclidean space and the sphere.  On the SPD cone one
``eigh`` of each whitened row gives both: the logarithm from its
eigenvectors and the logs of its eigenvalues, the distance as the root
sum of those logs squared (Pennec et al., IJCV 2006), so these distances
may differ from ``dist``'s ``eigvalsh`` ones in their last bits; each
row still reads what it reads alone.  ``p`` may also be a
``(K, 1, *ambient_shape)`` stack of K points, each measured by
broadcasting against all N rows (on the SPD cone, also against its own
block of ``(K, N, *ambient_shape)`` rows), with ``(K, N)`` results: the
lockstep Fréchet pass measures its arms' iterates so.  A base that several rows
share (one point, one that ``_batched`` broadcasts, or such a stack) is
factored once in its own shape, K bases and not K·N, also when a row
equals its base: all its rows are whitened, and the equal ones zeroed.
The SPD cone also remembers the Cholesky factor (and, once
needed, its inverse) of the last base it factored, one matrix or a
stack, keyed on the exact bytes (and a stack also on the matrix side, so
that no factor is read back for matrices of another side).  So measuring
from a descent iterate, taking its norm and stepping from it factor it
once; a lockstep iterate's stack of arm points is factored and inverted
once, by the Fréchet pass, whose ``(K, 1, m, m)`` view shares the entry
of the ``(K, m, m)`` stack with the stacked norm and step.  The memo is
one tuple, replaced whole, so concurrent callers stay safe.  A base stack is factored row by
row, except a single base point that ``_batched`` broadcasts against a
stack, which is factored once and not remembered.
``pairwise_distances`` hands each block of its pairs to the private
``_pair_dist(coords, i, j)``, which on the SPD cone factors the block's
bases once and whitens every pair by its base's factor, with ``dist``'s
bits.

Each family also has two private stacked checks, ``_points_pass(X)`` and
``_tangents_pass(P, V)``: one call tells whether every row of a stack
would pass ``validate_point``, or ``validate_tangent`` at its row of
``P``.  Descent checks its new iterates and gradients with them, each
lockstep step's or each block's at once, and builds its points from
read-only rows of the checked stack (``_points``); when a check fails,
each row is validated on its own, so each meets its own error.  Their
rule: a stacked check may be stricter than its validator, never looser.
Each asks for float64 rows of the ambient shape with finite entries,
then makes the validator's own tests with the validator's arithmetic
(the sphere's ``vecdot`` rounds each row as its ``dot`` does, and the
SPD test factors the stack with one Cholesky call, through the factor
memo); ``Manifold``'s
default passes nothing, so a family without its own check is validated
row by row.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import (
    ContractViolationError,
    DomainError,
    GeometryError,
    InternalConsistencyError,
)

# Nothing here uses scipy, and the library does not import it.  The name
# is bound only because the benchmark's tracing hook, ``install()`` in
# perfbench/instrument.py, reads and swaps ``vars(manifolds)["scipy"]``;
# ROADMAP item 1 deletes that hook and this line together.
scipy = None

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


def _readonly(validated: np.ndarray, given) -> np.ndarray:
    """A validator's result, read-only.  Validators return a new float64
    array, which is frozen in place; anything else (the array they were
    given, another dtype) is copied first."""
    out = validated
    if out is given or out.dtype != np.float64:
        out = np.array(out, dtype=float)
    out.setflags(write=False)
    return out


def _sym(a: np.ndarray) -> np.ndarray:
    # halved before the sum, which then stays finite wherever the result
    # is; the same bits as 0.5 * (a + a.mT) away from the subnormal range
    half = 0.5 * a
    return half + half.mT


def _size(a: np.ndarray) -> np.ndarray:
    """Largest absolute entry of a matrix, or of each matrix in a stack."""
    return np.abs(a).max(axis=(-2, -1))


# reductions over a whole array, without the Python-level dispatch of .all and .min
_all = np.logical_and.reduce
_smallest = np.minimum.reduce


def _zeroed(same: np.ndarray | None, out: np.ndarray) -> np.ndarray:
    """``out``, a new array of per-row results, with the rows that ``same``
    marks (rows equal to their base, or ``None`` for none) set to zero."""
    if same is not None:
        out[same] = 0.0
    return out


def _log_eigenvalues(w: np.ndarray, rescue: tuple | None) -> np.ndarray:
    """The logarithms of the eigenvalues ``w`` of whitened SPD rows, those
    of each rescued row raised by ``ln 2^(b - a)`` (see
    ``SymmetricPositiveDefinite._whitened``); ``DomainError`` unless every
    eigenvalue is > 0."""
    if not (w > 0.0).all():
        raise DomainError("matrix is not positive definite")
    f = np.log(w)
    if rescue is not None:
        far, a, b = rescue
        f[far] += (b - a)[..., 0] * math.log(2.0)
    return f


def _ldexp_rows(out: np.ndarray, far: np.ndarray, exponent: np.ndarray, what: str) -> None:
    """Multiply the rows ``far`` of ``out`` by ``2^exponent`` in place,
    exactly unless a result leaves the normal range; ``DomainError``
    naming ``what``, with no warning, if one overflows."""
    with np.errstate(over="ignore"):
        out[far] = np.ldexp(out[far], exponent)
    if not np.isfinite(out[far]).all():
        raise DomainError(f"{what} overflowed, with p = L L^T")


def _as_base(factor: np.ndarray, p: np.ndarray, shared: bool) -> np.ndarray:
    """A factor of the SPD base stack ``p`` in ``p``'s shape: one matrix's
    factor broadcast when ``p`` broadcasts one matrix (``shared``), else a
    remembered stack's factor viewed as ``p`` is shaped, as ``(K, m, m)``
    or ``(K, 1, m, m)``."""
    if factor.shape == p.shape:
        return factor
    return np.broadcast_to(factor, p.shape) if shared else factor.reshape(p.shape)


def _dot_inner(self: "Manifold", p, u, v) -> float | np.ndarray:
    """The ``inner`` of Euclidean space and of the sphere (each class holds
    it as its own method): the dot product of the ambient vectors.
    ``np.vdot`` sets no overflow flag, and a stack's ``vecdot`` rounds
    each row as ``vdot`` does."""
    if p.ndim > 1 or u.ndim > 1 or v.ndim > 1:
        return self._batched(self.inner, _stacked_dot, p, u, v)
    out = float(np.vdot(u, v))
    if not math.isfinite(out):
        raise DomainError(f"inner product {out} is not finite")
    return out


def _stacked_dot(p, u, v) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.vecdot(u, v)
    if not np.isfinite(out).all():
        raise DomainError("inner product is not finite")
    return out


def _sym_apply(
    a: np.ndarray, fn: Callable[[np.ndarray], np.ndarray], positive: bool = False
) -> np.ndarray:
    """Apply a scalar function to the symmetric part of a matrix (or of
    each matrix in a stack) through its eigenvalues; with ``positive``,
    ``DomainError`` unless every eigenvalue is > 0."""
    w, v = np.linalg.eigh(_sym(a))
    if positive and not np.all(w > 0.0):
        raise DomainError("matrix is not positive definite")
    return (v * fn(w)[..., np.newaxis, :]) @ v.mT


class Manifold(ABC):
    """Capability set shared by every manifold family.

    Methods operate on raw ``numpy`` arrays in the ambient
    representation (vectors for Euclidean space and the sphere, square
    symmetric matrices for the SPD cone).  The wrapper types
    :class:`ManifoldPoint` and :class:`TangentVector` add membership
    validation on top of this engine.

    Every metric and geodesic operation also takes stacks of shape
    ``(N, *ambient_shape)`` in any argument; a single point or vector
    is paired with every row of the others.  The result is then the
    ``(N,)`` or ``(N, *ambient_shape)`` stack of row results, each the
    single call on that row bit for bit, and an error is the one the
    first failing row would raise on its own.  Each family writes one
    stacked body per operation and hands it to :meth:`_batched`; only
    ``inner`` and ``exp``, which a descent iterate calls on single
    inputs, also keep a single-input body.  The sampler has one stacked
    body as well, :meth:`_random_points`, and :meth:`random_point` is
    its one-row case.
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
    def inner(self, p: np.ndarray, u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
        """Metric inner product of tangent vectors ``u``, ``v`` at ``p``:
        a Python float, or one per row of a batch.  ``DomainError`` if it
        is not finite."""

    def norm(self, p: np.ndarray, v: np.ndarray) -> float | np.ndarray:
        """Metric norm of ``v`` at ``p``, or of each row of a batch."""
        ip = self.inner(p, v, v)
        if isinstance(ip, float):
            return math.sqrt(max(ip, 0.0))
        return np.sqrt(np.where(ip < 0.0, 0.0, ip))

    @abstractmethod
    def dist(self, p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
        """Geodesic distance between ``p`` and ``q``: a Python float for
        two single points, else the ``(N,)`` row distances."""

    # -- geodesic structure ---------------------------------------------

    @abstractmethod
    def exp(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Endpoint of the unit-time geodesic from ``p`` with velocity ``v``."""

    @abstractmethod
    def log(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Initial velocity of the geodesic from ``p`` reaching ``q`` at time 1."""

    def _dist_log(self, p: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``dist(p, rows)`` and ``log(p, rows)`` for a point (or a stack
        paired row by row) and an ``(N, *ambient_shape)`` stack, raising
        what calling ``dist`` and then ``log`` raises.  ``p`` may also be a
        ``(K, 1, *ambient_shape)`` stack of K points, each measured
        against every row: the results then carry the leading ``(K, N)``
        axes.  Families override it to share the work of the two calls;
        the logarithms keep ``log``'s bits, and the distances ``dist``'s
        except on the SPD cone, which reads them from the logarithm's
        ``eigh`` and whitens by its one path, ``_whitened`` (where each of
        the K points may also meet its own block of ``(K, N,
        *ambient_shape)`` rows).  Here the K·N pairs are one flat batch of
        each call."""
        if p.ndim <= rows.ndim:
            return self.dist(p, rows), self.log(p, rows)
        lead, shape = (len(p), len(rows)), self.ambient_shape
        p, rows = (np.broadcast_to(x, lead + shape).reshape(-1, *shape) for x in (p, rows))
        return self.dist(p, rows).reshape(lead), self.log(p, rows).reshape(lead + shape)

    def _pair_dist(self, coords: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``dist(coords[i], coords[j])``: the distances of the pairs
        ``(i[k], j[k])`` of a point stack, with ``i`` in ascending order as
        ``pairwise_distances`` gives it.  The SPD cone overrides it to
        factor the block's bases once and whiten each pair by index."""
        return self.dist(coords[i], coords[j])

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
        wrappers divide by their factor, and raise ``DomainError``, with
        no warning, when the quotient of a finite gradient is not finite
        (for a batch, the error of its first failing row)."""
        return gradient

    def curve_length(self, points: Sequence[np.ndarray]) -> float | np.ndarray:
        """Length of a sampled curve as the sum of geodesic segment distances.

        Converges to the true length as the sampling refines, and is
        exact when consecutive samples lie on a common geodesic.  A
        ``(C, S, *ambient_shape)`` stack of C curves gives their ``(C,)``
        lengths, each the single call on that curve.
        """
        curves = np.asarray(points, dtype=float)
        single = curves.ndim <= len(self.ambient_shape) + 1
        if single:
            curves = curves[np.newaxis]
        count, samples = curves.shape[:2]
        if samples < 2:
            raise ContractViolationError("a sampled curve needs at least 2 points")
        ends = (c.reshape(-1, *self.ambient_shape) for c in (curves[:, :-1], curves[:, 1:]))
        d = self.dist(*ends).reshape(count, samples - 1)
        # Python floats summed left to right, as a segment-by-segment sum does
        lengths = [float(sum(row)) for row in d.tolist()]
        return lengths[0] if single else np.array(lengths)

    # -- membership and sampling -----------------------------------------

    @abstractmethod
    def validate_point(self, coordinates) -> np.ndarray:
        """Check membership and return a canonical float64 copy."""

    @abstractmethod
    def validate_tangent(self, p: np.ndarray, components) -> np.ndarray:
        """Check tangency at ``p`` and return a canonical float64 copy."""

    def _points_pass(self, X: np.ndarray) -> bool:
        """Whether every row of the stack ``X`` is a point that
        ``validate_point`` returns unchanged (see the module docstring);
        ``False`` here, so that a family without a stacked check is
        validated row by row."""
        return False

    def _tangents_pass(self, P: np.ndarray, V: np.ndarray) -> bool:
        """Whether every row of the stack ``V`` is a tangent vector that
        ``validate_tangent`` at its row of ``P`` returns unchanged;
        ``False`` here, as for :meth:`_points_pass`."""
        return False

    def _finite_rows(self, X: np.ndarray) -> bool:
        """Whether ``X`` is a float64 ``(K, *ambient_shape)`` stack with
        finite entries: the ``_check_shape`` tests of every row."""
        return (
            isinstance(X, np.ndarray)
            and X.dtype == np.float64
            and X.shape[1:] == self.ambient_shape
            and X.ndim == len(self.ambient_shape) + 1
            and bool(np.isfinite(X).all())
        )

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        """One random point: the one-row case of :meth:`_random_points`."""
        return self._random_points(rng, 1)[0]

    def _random_points(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` random points as one ``(count, *ambient_shape)`` stack.
        Each family draws them as ``count`` single draws would, one after
        another, so the rows and the generator's final state are those of
        ``count`` calls of :meth:`random_point`."""
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

    def _batched(self, op: Callable, rows_op: Callable, *args):
        """The one dispatcher of the batch axis: ``rows_op``, the stacked
        body of the public operation ``op``, on ``args`` broadcast to
        stacks of one length (a single point is a stack of one).  If it
        fails, the error the first failing row raises on its own through
        ``op``.  When every argument was single, the one result: a Python
        float for a scalar operation, else one ambient array."""
        stacks, singles = zip(*(self._rows(a) for a in args))
        # stacks of one length need no broadcast, which costs as much as
        # a small body even when it changes nothing
        if len({len(s) for s in stacks}) > 1:
            stacks = np.broadcast_arrays(*stacks)
        try:
            out = rows_op(*stacks)
        except GeometryError:
            self._replay(op, *args)
            raise
        if not all(singles):
            return out
        return float(out[0]) if out.ndim == 1 else out[0]

    def _replay(self, op: Callable, *args) -> None:
        """Call ``op`` on the rows of a batch one at a time, so that the
        first failing row raises its own error; nothing for single points."""
        stacks, singles = zip(*(self._rows(a) for a in args))
        if all(singles):
            return
        for i in range(max(map(len, stacks))):
            op(*(s[0] if len(s) == 1 else s[i] for s in stacks))

    def _check_shape(self, arr, what: str) -> np.ndarray:
        out = _floats(arr, what)
        if out.shape != self.ambient_shape:
            raise ContractViolationError(
                f"{what} has shape {out.shape}, expected {self.ambient_shape} on {self}"
            )
        if not np.isfinite(out).all():
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

    inner = _dot_inner

    def dist(self, p, q):
        return self._batched(self.dist, self._stacked_dist, p, q)

    @staticmethod
    def _stacked_dist(p, q):
        diff = q - p
        # vecdot rounds each row like np.linalg.norm does a single vector
        return np.sqrt(np.vecdot(diff, diff))

    def exp(self, p, v):
        return p + v

    def log(self, p, q):
        return q - p

    def _dist_log(self, p, rows):
        diff = self.log(p, rows)
        return np.sqrt(np.vecdot(diff, diff)), diff

    def transport(self, p, q, v):
        return self._batched(self.transport, lambda p, q, v: v.copy(), p, q, v)

    def to_tangent(self, p, w):
        return self._batched(self.to_tangent, lambda p, w: w.copy(), p, w)

    def euclidean_to_riemannian_gradient(self, p, ambient_gradient):
        return self.to_tangent(p, ambient_gradient)

    def validate_point(self, coordinates) -> np.ndarray:
        return self._check_shape(coordinates, "point")

    def validate_tangent(self, p, components) -> np.ndarray:
        return self._check_shape(components, "tangent vector")

    def _points_pass(self, X) -> bool:
        return self._finite_rows(X)

    def _tangents_pass(self, P, V) -> bool:
        return self._finite_rows(V)

    def _random_points(self, rng, count):
        return rng.standard_normal((count, self.dim))


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

    inner = _dot_inner

    def dist(self, p, q):
        return self._batched(self.dist, self._stacked_dist, p, q)

    def _stacked_dist(self, p, q):
        same, c, u, nu = self._chords(p, q)
        # atan2 keeps full accuracy near antipodal pairs, not near coincident
        # ones: u = q - c p carries an absolute error of about eps, so the
        # relative error grows as the angle shrinks (9.9e-6 at 1e-12; ROADMAP
        # item 18)
        theta = np.arctan2(nu, c)
        return np.where(same, 0.0, theta) if same.any() else theta

    def exp(self, p, v):
        if p.ndim > 1 or v.ndim > 1:
            return self._batched(self.exp, self._stacked_exp, p, v)
        with np.errstate(over="ignore"):
            theta = math.sqrt(v.dot(v))  # np.linalg.norm's arithmetic, without its dispatch
        if theta == 0.0:
            return p.copy()
        if not math.isfinite(theta):
            raise DomainError(f"tangent norm {theta} is not finite")
        out = math.cos(theta) * p + math.sin(theta) * (v / theta)
        return self._renormalize(out)

    def _stacked_exp(self, p, v):
        with np.errstate(over="ignore"):
            theta = np.sqrt(np.vecdot(v, v))
        if not np.isfinite(theta).all():
            raise DomainError("tangent norm is not finite")
        moving = theta != 0.0
        if moving.all():  # no row to mask, as in every lockstep step
            theta = theta[:, np.newaxis]
            return self._renormalize(np.cos(theta) * p + np.sin(theta) * (v / theta))
        out = p.copy()
        theta = theta[moving, np.newaxis]
        step = np.cos(theta) * p[moving] + np.sin(theta) * (v[moving] / theta)
        out[moving] = self._renormalize(step)
        return out

    def log(self, p, q):
        return self._batched(self.log, lambda p, q: self._dist_log(p, q)[1], p, q)

    def _dist_log(self, p, rows):
        same, c, u, nu = self._chords(p, rows)
        if (~same & (c <= -1.0 + ANTIPODE_MARGIN)).any():
            raise DomainError(
                "logarithm is undefined at the antipode: no canonical direction"
            )
        zero = same | (nu == 0.0)
        theta = np.arctan2(nu, c)
        if not zero.any():  # no row to mask, as in every descent iterate after the first
            return theta, (theta / nu)[..., np.newaxis] * u
        ratio = np.divide(theta, nu, out=np.zeros_like(theta), where=~zero)
        out = ratio[..., np.newaxis] * u
        out[zero] = 0.0
        return np.where(same, 0.0, theta), out

    @staticmethod
    def _chords(p, rows):
        """Per pair of ``p`` (a point, a stack of rows paired with
        ``rows``, or a ``(K, 1, n + 1)`` stack broadcast against them) and
        ``rows``: their equality, the clipped cosine ``c``, the component
        ``u`` of the row orthogonal to ``p`` and its norm."""
        same = (rows == p).all(axis=-1)
        c = np.minimum(np.maximum(np.vecdot(rows, p), -1.0), 1.0)  # np.clip, without its dispatch
        u = rows - c[..., np.newaxis] * p
        return same, c, u, np.sqrt(np.vecdot(u, u))

    def transport(self, p, q, v):
        return self._batched(self.transport, self._stacked_transport, p, q, v)

    def _stacked_transport(self, p, q, v):
        w = self._dist_log(p, q)[1]
        theta = np.sqrt(np.vecdot(w, w))
        out = v.copy()
        moving = theta != 0.0
        p, v, theta = p[moving], v[moving], theta[moving, np.newaxis]
        e = w[moving] / theta
        a = np.vecdot(e, v)[:, np.newaxis]
        # component along the geodesic rotates in the (p, e) plane,
        # the orthogonal complement rides along unchanged
        out[moving] = v + a * ((np.cos(theta) - 1.0) * e - np.sin(theta) * p)
        return out

    def to_tangent(self, p, w):
        return self._batched(
            self.to_tangent, lambda p, w: w - np.vecdot(p, w)[:, np.newaxis] * p, p, w
        )

    def euclidean_to_riemannian_gradient(self, p, ambient_gradient):
        return self.to_tangent(p, ambient_gradient)

    def validate_point(self, coordinates) -> np.ndarray:
        out = self._check_shape(coordinates, "point")
        drift = abs(math.sqrt(out.dot(out)) - 1.0)
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

    def _points_pass(self, X) -> bool:
        if not self._finite_rows(X):
            return False
        # each row's vecdot is its dot, bit for bit, so each drift is validate_point's
        return bool((np.abs(np.sqrt(np.vecdot(X, X)) - 1.0) <= POINT_TOL).all())

    def _tangents_pass(self, P, V) -> bool:
        return self._finite_rows(V) and bool((np.abs(np.vecdot(P, V)) <= TANGENT_TOL).all())

    def _random_points(self, rng, count):
        x = rng.standard_normal((count, self.dim + 1))
        n = np.sqrt(np.vecdot(x, x))[:, np.newaxis]  # each row's np.linalg.norm
        kept = n[:, 0] > 1e-8
        if kept.all():
            return x / n
        # a row too short to normalise is redrawn, and its redraw is the
        # next draw in the stream, as in a run of single draws
        redrawn = self._random_points(rng, count - int(kept.sum()))
        return np.concatenate([x[kept] / n[kept], redrawn])

    def _renormalize(self, out: np.ndarray) -> np.ndarray:
        """``out`` over its norm, or each row of a stack over its own."""
        if out.ndim > 1:
            n = np.sqrt(np.vecdot(out, out))[:, np.newaxis]
            if not (np.abs(n - 1.0) <= RENORM_TOL).all():
                raise InternalConsistencyError("sphere result drifted from unit norm")
            return out / n
        n = math.sqrt(out.dot(out))
        if not abs(n - 1.0) <= RENORM_TOL:
            raise InternalConsistencyError(
                f"sphere result drifted {abs(n - 1.0):.3e} from unit norm"
            )
        return out / n


# The last SPD base factored, one matrix or a stack: (its key, L, L^-1 or
# None until a caller needs it), the key being a matrix's bytes or a
# stack's side and bytes.  Replaced whole, never changed in place.
_last_factor: tuple = (None, None, None)


@dataclass(frozen=True)
class SymmetricPositiveDefinite(Manifold):
    """SPD matrices of a fixed side with the affine-invariant metric
    <U, V>_P = trace(P^-1 U P^-1 V).

    Every operation factors its base point once, ``p = L L^T``, and works
    on matrices whitened to ``L^-1 x L^-T``, which the congruence-invariant
    metric measures as it does their originals (Pennec et al., IJCV 2006).
    ``dist``, the pair pass, ``log`` with ``_dist_log``, and ``transport``
    whiten their (base, row) pairs by one function, :meth:`_whitened`,
    with the cone's one row-equality mask and one range rescue.
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

    def inner(self, p, u, v):
        if p.ndim > 2 or u.ndim > 2 or v.ndim > 2:
            return self._batched(self.inner, self._stacked_inner, p, u, v)
        wu, wv = self._whitened_pair(p, u, v)
        out = float(np.vdot(wu, wv))
        if not math.isfinite(out):
            raise DomainError(f"inner product of the whitened tangents is {out}, not finite")
        return out

    def _stacked_inner(self, p, u, v):
        wu, wv = self._whitened_pair(p, u, v)
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.vecdot(*(w.reshape(len(w), self.side * self.side) for w in (wu, wv)))
        if not np.isfinite(out).all():
            raise DomainError("inner product of the whitened tangents is not finite")
        return out

    def dist(self, p, q):
        return self._batched(self.dist, self._stacked_dist, p, q)

    def _stacked_dist(self, p, q, index=None):
        """``dist``'s body, and the pair pass's with ``index`` (see
        :meth:`_whitened`): the root sum of the squared logarithms of the
        eigenvalues of each whitened row, which are those of ``p^-1 q``,
        read by one stacked ``eigvalsh``."""
        same, _, _, white, rescue = self._whitened(p, q, index)
        f = _log_eigenvalues(np.linalg.eigvalsh(white), rescue)
        return _zeroed(same, np.sqrt((f**2).sum(axis=-1)))

    def _pair_dist(self, coords, i, j):
        """``dist(coords[i], coords[j])`` from one factor of each base
        point: the block's bases are the slice ``coords[i[0] : i[-1] + 1]``,
        factored by one ``cholesky`` and one ``inv``, and each pair is
        whitened by its base's row, with the bits ``dist`` gives.  A block
        that fails is measured again by ``dist``, which gives each pair's
        own result or the first failing pair's error."""
        try:
            return self._stacked_dist(coords[i[0] : i[-1] + 1], coords[j], i - i[0])
        except GeometryError:
            return self.dist(coords[i], coords[j])

    def exp(self, p, v):
        if p.ndim > 2 or v.ndim > 2:
            return self._batched(self.exp, self._exp, p, v)
        return self._exp(p, v)

    def _exp(self, p, v):
        """``exp`` of a point or of stacks paired row by row."""
        low, _, white = self._whiten(p, v)
        with np.errstate(over="ignore", invalid="ignore"):
            f = _sym_apply(white, np.exp)
        if not np.isfinite(f).all():
            raise DomainError("exp of the whitened tangent L^-1 v L^-T overflowed, with p = L L^T")
        return self._map_back(low, f, "exp mapped back to L f L^T")

    def log(self, p, q):
        return self._batched(self.log, lambda p, q: self._dist_log(p, q)[1], p, q)

    def _dist_log(self, p, rows):
        """Distances and logarithms from one ``eigh`` of each whitened row
        (see :meth:`_whitened`): the logarithm is ``_sym_apply(white,
        np.log)`` bit for bit, and the distance the root sum of the same
        squared ``log(w)``, so it may differ from ``dist``, which reads
        ``eigvalsh``, in its last bits.  A row that is not positive definite
        raises ``dist``'s error before the logarithm is mapped back.  A
        rescued row's logarithm is mapped back by the factor of its
        ``p / 2^a``, then multiplied by ``2^a``."""
        same, low, _, white, rescue = self._whitened(p, rows)
        w, v = np.linalg.eigh(_sym(white))
        f = _log_eigenvalues(w, rescue)
        what = "log mapped back to L f L^T"
        out = self._map_back(low, (v * f[..., np.newaxis, :]) @ v.mT, what)
        if rescue is not None:
            far, a, _ = rescue
            _ldexp_rows(out, far, a, what)
        return _zeroed(same, np.sqrt((f**2).sum(axis=-1))), _zeroed(same, out)

    def transport(self, p, q, v):
        return self._batched(self.transport, self._stacked_transport, p, q, v)

    def _stacked_transport(self, p, q, v):
        same, low, inv_low, white, rescue = self._whitened(p, q)
        # principal square root of q p^-1 = L W L^-1, with W the whitened
        # q, whose eigenvalues are positive when q is positive definite
        root = _sym_apply(white, np.sqrt, positive=True)
        e = low @ root @ inv_low
        if same is None:
            out = self._map_back(e, v, "transport E v E^T")
        else:  # a row equal to its base carries its vector unchanged
            out, other = v.copy(), ~same
            out[other] = self._map_back(e[other], v[other], "transport E v E^T")
        if rescue is not None:
            # a row whitened as q / 2^b at p / 2^a has E = 2^((b - a) / 2) E', with E'
            # from the factor of p / 2^a, so its result is 2^(b - a) E' v E'^T (a row
            # equal to its base has b == a)
            far, a, b = rescue
            _ldexp_rows(out, far, b - a, "transport E v E^T")
        return out

    def to_tangent(self, p, w):
        return self._batched(self.to_tangent, lambda p, w: _sym(w), p, w)

    def euclidean_to_riemannian_gradient(self, p, ambient_gradient):
        # matmul and _sym pair stacks row by row as they are; the error
        # names no row, so one test of the whole stack is every row's
        with np.errstate(over="ignore", invalid="ignore"):
            out = _sym(p @ _sym(np.asarray(ambient_gradient, dtype=float)) @ p)
        if not np.isfinite(out).all():
            raise DomainError("metric gradient p g p is not finite")
        return out

    def validate_point(self, coordinates) -> np.ndarray:
        out = self._check_shape(coordinates, "point")
        asym = float(np.abs(out - out.T).max())
        if asym > POINT_TOL:
            raise ContractViolationError(
                f"matrix is asymmetric by {asym:.3e} (tolerance {POINT_TOL})"
            )
        pivot = min(self._whiten(out).diagonal().tolist())  # raises unless out has a factor
        # each squared pivot is at least the smallest eigenvalue: a factor
        # found only by rounding has one within rounding of zero
        if pivot * pivot <= self.side * sys.float_info.epsilon * max(out.diagonal().tolist()):
            raise DomainError("matrix is not positive definite")
        return out

    def validate_tangent(self, p, components) -> np.ndarray:
        out = self._check_shape(components, "tangent vector")
        asym = float(np.abs(out - out.T).max())
        if asym > POINT_TOL:
            raise ContractViolationError(
                f"tangent matrix is asymmetric by {asym:.3e} (tolerance {POINT_TOL})"
            )
        return out

    def _points_pass(self, X) -> bool:
        if not self._tangents_pass(None, X):  # finite and symmetric, as a tangent must be
            return False
        try:
            low = self._whiten(X)  # remembered for the next iterate's pass over the stack
        except DomainError:
            return False
        # validate_point's pivot test, row by row, in its order of operations
        pivots = low.diagonal(axis1=1, axis2=2).min(axis=1)
        largest = X.diagonal(axis1=1, axis2=2).max(axis=1)
        return bool((pivots * pivots > self.side * sys.float_info.epsilon * largest).all())

    def _tangents_pass(self, P, V) -> bool:
        return self._finite_rows(V) and bool((np.abs(V - V.mT) <= POINT_TOL).all())

    def _random_points(self, rng, count):
        return _sym_apply(rng.uniform(-1.0, 1.0, (count, self.side, self.side)), np.exp)

    @staticmethod
    def _whiten(p: np.ndarray, x: np.ndarray | None = None, finite: bool = True):
        """``L``, ``L^-1`` and ``x`` whitened to ``L^-1 x L^-T``, with ``p = L L^T``
        for a matrix or each matrix in a stack, or ``L`` alone without ``x``;
        ``DomainError`` if ``p`` is not positive definite or, with
        ``finite``, if the whitened ``x`` is not finite.

        The factors of the last float64 base, one matrix or a stack, are
        remembered for the next call on the same matrices (see the module
        docstring): the key is the exact bytes, and for a stack also the
        matrix side, so a ``(K, 1, m, m)`` view and a ``(K, m, m)`` stack
        of the same matrices share one entry.  A stack is factored row by row, except
        a single base that ``_batched`` broadcasts against a stack (a view
        whose rows share their memory), which is factored once and not
        remembered.
        """
        global _last_factor
        shared = p.ndim > 2 and len(p) > 1 and p.strides[0] == 0
        key = None
        if not shared and p.dtype == np.float64:
            # a stack's key holds the matrix side, so it never matches a single
            # matrix or a stack of another side with the same bytes, and a
            # single matrix's remembered factor always has the matrix's shape
            key = p.tobytes() if p.ndim == 2 else (p.shape[-1], p.tobytes())
        memo = _last_factor
        if key is None or memo[0] != key:
            try:
                low = np.linalg.cholesky(p[0] if shared else p)
            except np.linalg.LinAlgError:
                raise DomainError("matrix is not positive definite") from None
            low.setflags(write=False)  # shared through the memo
            memo = (key, low, None)
        _, low, inv_low = memo
        if x is None:
            if key is not None:
                _last_factor = memo
            return low if p.ndim == 2 else _as_base(low, p, shared)
        with np.errstate(over="ignore", invalid="ignore"):
            if inv_low is None:
                inv_low = np.linalg.inv(low)
                inv_low.setflags(write=False)
                memo = (key, low, inv_low)
            if key is not None:
                _last_factor = memo
            if p.ndim > 2:
                low, inv_low = _as_base(low, p, shared), _as_base(inv_low, p, shared)
            white = inv_low @ x @ inv_low.mT
        if finite and not np.isfinite(white).all():
            raise DomainError("whitened matrix L^-1 x L^-T overflowed, with p = L L^T")
        return low, inv_low, white

    def _whitened_pair(self, p, u, v) -> tuple[np.ndarray, np.ndarray]:
        """``u`` and ``v`` whitened at ``p``; the one vector of a norm
        (``u is v``) is whitened once."""
        if u is v:
            white = self._whiten(p, u)[2]
            return white, white
        return tuple(self._whiten(p, np.array((u, v)))[2])

    def _whitened(self, p, rows, index=None):
        """The one whitening of (base, row) pairs, which ``dist``, the pair
        pass, ``log`` with ``_dist_log``, and ``transport`` read.  The bases
        are ``p``: one matrix, a stack broadcast against ``rows`` (a
        ``_batched`` stride-0 view, or ``(K, 1, m, m)`` against ``(N, m,
        m)`` or ``(K, N, m, m)`` rows), each row's own (``p`` shaped as
        ``rows``), or, with ``index``, ``p[index[k]]`` for row ``k``.

        Returns ``(same, low, inv_low, white, rescue)``: which rows equal
        their base (``None`` when none does), which the callers zero or
        carry unchanged; ``L`` (``None`` with ``index``: the pair pass reads
        no factor) and ``L^-1`` of each base ``L L^T`` and each row
        whitened to ``L^-1 q L^-T``, in the broadcast shape; and
        ``rescue``, ``None`` when every whitened row is inside the double
        range (finite entries, a diagonal in the normal range).  Else each
        row outside it is whitened again, in place, as ``q / 2^b`` at
        ``p / 2^a`` (``2^a``, ``2^b`` the binades of their largest
        entries), its ``L`` and ``L^-1`` become the factor of ``p / 2^a``
        and its inverse (with ``index``, ``L^-1`` is left), and ``rescue``
        is ``(far, a, b)``: those rows and their exponents, as ``(F, 1,
        1)`` integer arrays.  A rescued row's log eigenvalues are then
        raised by ``ln 2^(b - a)``, and its transport scaled by
        ``2^(b - a)``.

        A shared base, and ``index``'s slice of bases, is factored once, and
        the rows equal to it are whitened with the others.  A row equal to
        its own base (or every row, when all equal their bases) is whitened
        as ``I`` at ``I``, so that no factor is taken for it.  Every factor
        comes from ``_whiten``."""
        bases = p if index is None else p[index]
        same = (rows == bases).all(axis=(-2, -1))
        if not same.any():  # none to mask in every descent iterate but the first
            same = None
        elif same.all() or (index is None and p.shape == rows.shape and p.strides[0] != 0):
            # an equal pair's own base may have no factor, and needs none
            eye, mask = np.eye(self.side), same[..., np.newaxis, np.newaxis]
            p = bases = np.where(mask, eye, bases)
            rows, index = np.where(mask, eye, rows), None
        if index is None:
            low, inv_low, white = self._whiten(p, rows, finite=False)
        else:  # the pair pass, which reads no factor
            low = None
            with np.errstate(over="ignore", invalid="ignore"):
                inv_low = np.linalg.inv(self._whiten(p))[index]
                white = inv_low @ rows @ inv_low.mT
        finite, diagonal = np.isfinite(white), white.diagonal(0, -2, -1)
        tiny = sys.float_info.min
        if _all(finite, None) and _smallest(diagonal, None, initial=math.inf) >= tiny:
            return same, low, inv_low, white, None
        far = ~(finite.all(axis=(-2, -1)) & (diagonal.min(axis=-1) >= tiny))
        bases, rows = (np.broadcast_to(x, white.shape)[far] for x in (bases, rows))
        a, b = (np.frexp(_size(x))[1][:, np.newaxis, np.newaxis] for x in (bases, rows))
        far_low, far_inv, white[far] = self._whiten(np.ldexp(bases, -a), np.ldexp(rows, -b))
        if low is not None:  # the pair pass reads no factor
            low, inv_low = (np.array(np.broadcast_to(x, white.shape)) for x in (low, inv_low))
            low[far], inv_low[far] = far_low, far_inv
        return same, low, inv_low, white, (far, a, b)

    def _map_back(self, a: np.ndarray, m: np.ndarray, what: str) -> np.ndarray:
        """``a m a^T``, a result ``m`` mapped back out of the whitened frame
        (``a`` is ``L``, or the transport's ``L W^1/2 L^-1``), symmetrized
        by ``_resymmetrize``; ``DomainError`` naming ``what``, with no
        warning, if an entry overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = a @ m @ a.mT
            try:
                return self._resymmetrize(out, _size(a) ** 2 * _size(m))
            except InternalConsistencyError:
                if np.isfinite(out).all():
                    raise
        raise DomainError(f"{what} overflowed, with p = L L^T")

    @staticmethod
    def _resymmetrize(out: np.ndarray, size=1.0) -> np.ndarray:
        """Symmetrize a matrix or a stack of them; the first one that
        drifted past the budget raises with its own drift.

        ``size`` bounds the entries of the factors ``out`` is the product
        of (one value, or one per matrix): rounding drift grows with it,
        so the budget is ``RENORM_TOL`` times ``size``, never less than
        ``RENORM_TOL`` itself.  A non-finite entry always fails.
        """
        drift = np.abs(out - out.mT).max(axis=(-2, -1))
        ok = np.isfinite(drift) & (drift <= RENORM_TOL * np.maximum(size, 1.0))
        if not ok.all():
            bad = np.atleast_1d(drift)[~np.atleast_1d(ok)]
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
        object.__setattr__(self, "coordinates", _readonly(coords, self.coordinates))

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
        object.__setattr__(self, "components", _readonly(comps, self.components))

    @property
    def manifold(self) -> Manifold:
        return self.base.manifold

    def __repr__(self):
        return f"TangentVector(base={self.base!r}, components={self.components!r})"


def _points(manifold: Manifold, X: np.ndarray) -> list[ManifoldPoint] | None:
    """The rows of ``X`` as points of ``manifold``, each what
    ``ManifoldPoint(manifold, row)`` gives, from one stacked check: the
    read-only rows of one copy of ``X``.  ``None`` when that check fails,
    so that each row is validated on its own."""
    if not manifold._points_pass(X):
        return None
    X = X.copy()
    X.setflags(write=False)
    out = []
    for row in X:
        point = object.__new__(ManifoldPoint)
        object.__setattr__(point, "manifold", manifold)
        object.__setattr__(point, "coordinates", row)
        out.append(point)
    return out


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
        if any(pt.manifold is not m and pt.manifold != m for pt in points[1:]):
            raise ContractViolationError("curve samples live on different manifolds")
        object.__setattr__(self, "points", points)

    @property
    def manifold(self) -> Manifold:
        return self.points[0].manifold


def _require_same_manifold(p: ManifoldPoint, q: ManifoldPoint) -> Manifold:
    _require(ManifoldPoint, p, q)
    if p.manifold is not q.manifold and p.manifold != q.manifold:
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
    """Endpoint of the unit-time geodesic with initial velocity ``v``;
    ``DomainError``, with no warning, if it is not finite."""
    _require(TangentVector, v)
    m = v.manifold
    # Euclidean exp is a bare sum, which the descent keeps unchecked
    with np.errstate(over="ignore", invalid="ignore"):
        out = m.exp(v.base.coordinates, v.components)
    if not np.isfinite(out).all():
        raise DomainError("exponential map is not finite")
    return ManifoldPoint(m, out)


def log_map(p: ManifoldPoint, q: ManifoldPoint) -> TangentVector:
    """Tangent vector at ``p`` whose geodesic reaches ``q`` at time 1;
    ``DomainError``, with no warning, if it is not finite."""
    m = _require_same_manifold(p, q)
    # Euclidean log is a bare difference, which the descent keeps unchecked
    with np.errstate(over="ignore", invalid="ignore"):
        out = m.log(p.coordinates, q.coordinates)
    if not np.isfinite(out).all():
        raise DomainError("logarithm is not finite")
    return TangentVector(p, out)


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
