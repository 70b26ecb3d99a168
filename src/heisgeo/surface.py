"""Per-point extrinsic geometry of a level-set hypersurface.

Given a defining function ``u`` with first and second derivatives, this
module builds the adapted frame (unit horizontal normal, characteristic
direction, the complex-structure-invariant complement), the horizontal
second fundamental form, the symmetric shape operator with its curvature
scalars ``k``, ``l``, ``H``, and decides umbilicity.

One array kernel does this over an (N, 2n+1) stack of coordinates
(:func:`report_many`), given as the stack itself or as a sequence of
:class:`~heisgeo.core.Point`: the derivatives come from one
:meth:`SurfaceDef.evaluate_many` call, and the frame, the form and the
eigenvalues are stacked array operations.  The per-point functions
(:func:`build_frame`, :func:`shape_matrix`, :func:`report`) are batches of
one, and a point gives the same bits alone and inside a batch.  A batch
that raises reruns one point at a time, and the first point that raises
alone raises its own error.

Derivatives of the normalized horizontal normal are exact: the frame is
parallel, so the normal field's frame coefficients are rational in the
defining function's gradient and Hessian and are differentiated in closed
form rather than by nested automatic differentiation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import duals
from .core import HorizontalVector, Point, _J, _unchecked

__all__ = [
    "GeometryError",
    "SingularPoint",
    "OffSurface",
    "NonSymmetric",
    "DegenerateProfile",
    "DomainError",
    "NotSingularCandidate",
    "PivotDegenerate",
    "SurfaceDef",
    "FrameBundle",
    "FrameBatch",
    "SurfaceReport",
    "ReportBatch",
    "RadialProfile",
    "build_frame",
    "frame_many",
    "shape_matrix",
    "report",
    "report_many",
    "rotsym_many",
    "singular_jacobian",
    "graph_derivatives",
    "horizontal_gradient",
    "alpha_directional",
    "jacobi_eigenvalues",
    "UMBILIC_TOL",
    "UMBILIC_TOL_FD",
]

UMBILIC_TOL = 1e-7     # with exact derivatives
UMBILIC_TOL_FD = 1e-5  # with the finite-difference oracle


class GeometryError(Exception):
    """Base class for geometric failure modes."""


class SingularPoint(GeometryError):
    """The horizontal gradient vanishes: the tangent space is horizontal."""


class OffSurface(GeometryError):
    """The queried point does not satisfy the defining equation."""


class NonSymmetric(GeometryError):
    """Shape operator lost symmetry; signals a derivative bug."""


class DegenerateProfile(GeometryError):
    """Radial profile data outside its validity domain."""


class DomainError(GeometryError):
    """Evaluation requested outside a defining function's domain."""


class NotSingularCandidate(GeometryError):
    """Graph data does not have a critical point at the origin."""


class PivotDegenerate(GeometryError):
    """A forced orthogonalization pivot collapsed; resample the point."""


# ---------------------------------------------------------------------------
# defining functions


@dataclass(frozen=True)
class SurfaceDef:
    """Defining function ``u`` with exact first and second derivatives.

    ``func`` maps a coordinate sequence (floats or duals) to a scalar.  When
    ``grad_hess`` is supplied it is used instead of automatic
    differentiation; both must agree, and the finite-difference mode
    (``derivatives="fd"``) is always available as an independent check.
    """

    func: Callable
    n: int
    name: str = ""
    derivatives: str = "exact"
    grad_hess: Optional[Callable] = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("ambient dimension parameter n must be >= 2")
        if self.derivatives not in ("exact", "fd"):
            raise ValueError("derivatives must be 'exact' or 'fd'")

    def value(self, coords) -> float:
        return float(self.func(np.asarray(coords, dtype=float)))

    def evaluate(self, coords):
        """Return ``(u, gradient, hessian)`` at coordinates: a batch of one of
        :meth:`evaluate_many`."""
        u, g, h = self.evaluate_many(np.asarray(coords, dtype=float)[None])
        return float(u[0]), g[0], h[0]

    def evaluate_many(self, coords):
        """``(u, gradient, hessian)`` stacks, of shapes (N,), (N, d) and
        (N, d, d), over an (N, d) stack of coordinates.

        A closed-form ``grad_hess`` takes the whole stack (it acts on the
        trailing axis), and so do duals (one ``duals.gradient_hessian``
        call); the finite-difference oracle runs row by row.  Rows are
        independent, so a row gives the same bits in any stack.  A row whose
        Hessian is not symmetric raises :class:`NonSymmetric`, the first
        such row.
        """
        coords = np.asarray(coords, dtype=float)
        if self.derivatives == "fd":
            rows = [duals.fd_gradient_hessian(self.func, c) for c in coords]
            u = np.array([r[0] for r in rows], dtype=float)
            g = np.array([r[1] for r in rows], dtype=float).reshape(coords.shape)
            h = np.array([r[2] for r in rows], dtype=float).reshape(
                coords.shape + coords.shape[-1:])
        elif self.grad_hess is None:
            u, g, h = duals.gradient_hessian(self.func, coords)
        else:
            u, g, h = self.grad_hess(coords)
            u = np.asarray(u, dtype=float)
            g = np.asarray(g, dtype=float)
            h = np.asarray(h, dtype=float)
        h_t = h.swapaxes(-1, -2)
        if (h != h_t).any():  # the gate, row by row
            asym = np.abs(h - h_t).max(axis=(-2, -1))
            bad = asym > 1e-12 * (1.0 + np.abs(h).max(axis=(-2, -1)))
            if bad.any():
                raise NonSymmetric(f"Hessian asymmetry {asym[bad.argmax()]:g}")
        return u, g, 0.5 * (h + h_t)

    def with_derivatives(self, mode) -> "SurfaceDef":
        return replace(self, derivatives=mode)

    @property
    def umbilic_tol(self):
        return UMBILIC_TOL if self.derivatives == "exact" else UMBILIC_TOL_FD


# ---------------------------------------------------------------------------
# horizontal gradient machinery; the helpers act on the trailing axes, so the
# same code serves one point and a stack of points


def horizontal_gradient(n, coords, grad):
    """Frame coefficients of the horizontal part of the gradient."""
    x = coords[..., :n]
    y = coords[..., n : 2 * n]
    ut = grad[..., 2 * n, None]
    b = np.empty(grad.shape[:-1] + (2 * n,))
    b[..., :n] = grad[..., :n] + y * ut
    b[..., n:] = grad[..., n : 2 * n] - x * ut
    return b


def _hgrad_jacobian(n, coords, grad, hess):
    """Coordinate Jacobian of the horizontal-gradient coefficients."""
    x = coords[..., :n, None]
    y = coords[..., n : 2 * n, None]
    ht = hess[..., 2 * n, None, :]
    jac = np.empty(hess.shape[:-2] + (2 * n, 2 * n + 1))
    jac[..., :n, :] = hess[..., :n, :] + y * ht
    jac[..., n:, :] = hess[..., n : 2 * n, :] - x * ht
    j = np.arange(n)
    ut = grad[..., 2 * n, None]
    jac[..., j, n + j] += ut
    jac[..., n + j, j] -= ut
    return jac


def _read_only(a):
    """``a``, made read-only: cached arrays are shared by every caller."""
    a.setflags(write=False)
    return a


def _dots(a, b):
    """Dot products of matching rows (last axis) of two stacks, each taken
    as one vector dot product, so a row gives the same bits in any stack."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _lifts(coords, v):
    """Coordinate components of stacked horizontal vectors ``v`` at stacked
    ``coords`` (``core.frame_lift`` row by row)."""
    n = v.shape[-1] // 2
    w = np.empty(v.shape[:-1] + (2 * n + 1,))
    w[..., : 2 * n] = v
    w[..., 2 * n] = (_dots(coords[..., n : 2 * n], v[..., :n])
                     - _dots(coords[..., :n], v[..., n:]))
    return w


def _norms(v):
    """Euclidean norms of the rows of a stack (as ``np.linalg.norm`` takes
    one vector's)."""
    return np.sqrt(_dots(v, v))


# ---------------------------------------------------------------------------
# adapted frame


@dataclass(frozen=True, eq=False)
class FrameBundle:
    """Adapted orthonormal data at a regular surface point.

    ``xi_prime`` holds ``2n-2`` unit vectors ``[v_1..v_{n-1}, Jv_1..Jv_{n-1}]``
    spanning the complex-structure-invariant part of the tangent plane; the
    full ordered tangent basis is ``v_1..v_{n-1}, e_n, Jv_1..Jv_{n-1}``.
    """

    p: Point
    e2n: HorizontalVector
    en: HorizontalVector
    xi_prime: tuple
    alpha: float
    pivots: tuple

    @property
    def n(self):
        return self.p.n


@dataclass(frozen=True, eq=False)
class FrameBatch:
    """Adapted frames of N points on one surface as stacked arrays.

    Row i holds what :class:`FrameBundle` holds for the point
    ``coords[i]``.  ``grad``/``hess`` are None for closed-form frames.
    """

    coords: np.ndarray     # (N, 2n+1)
    e2n: np.ndarray        # (N, 2n)
    en: np.ndarray         # (N, 2n)
    xi_prime: np.ndarray   # (N, 2n-2, 2n), rows v_1..v_{n-1}, Jv_1..Jv_{n-1}
    alpha: np.ndarray      # (N,)
    pivots: np.ndarray     # (N, n-1) integers
    grad: Optional[np.ndarray] = None
    hess: Optional[np.ndarray] = None

    def __len__(self):
        return len(self.coords)

    def bundle(self, i) -> FrameBundle:
        """Row i as a :class:`FrameBundle`.  Its point and vectors skip their
        constructors' checks: the kernel's rows are finite and well shaped."""
        return FrameBundle(
            p=_unchecked(Point, coords=self.coords[i]),
            e2n=_unchecked(HorizontalVector, coeffs=self.e2n[i]),
            en=_unchecked(HorizontalVector, coeffs=self.en[i]),
            xi_prime=tuple(_unchecked(HorizontalVector, coeffs=v) for v in self.xi_prime[i]),
            alpha=float(self.alpha[i]),
            pivots=tuple(self.pivots[i].tolist()),
        )


def build_frame(s: SurfaceDef, p: Point) -> FrameBundle:
    """Construct the adapted frame at ``p``.

    The horizontal normal is the normalized horizontal gradient, the
    characteristic direction its negative rotation, and the invariant
    complement is produced by pivoted Gram-Schmidt over the standard frame,
    pairing each accepted pivot with its rotation so the basis respects the
    complex structure.  A batch of one of :func:`frame_many`, whose
    ``pivots`` force a previously chosen pivot sequence, which extends the
    basis smoothly to nearby points.
    """
    return frame_many(s, (p,)).bundle(0)


def frame_many(s: SurfaceDef, points, pivots=None) -> FrameBatch:
    """Adapted frames of points or an (N, 2n+1) coordinate stack on one
    surface, as one batch: the frame stage of :func:`report_many`."""
    return _run(s, _stack(points, s.n), pivots, None)


def _stack(points, n=None):
    """``points`` (:class:`Point` objects or array rows) as the batch's own
    (N, 2n+1) float stack, ``n`` by default the first row's.  A row of
    another width or a non-finite coordinate raises ``ValueError``."""
    if isinstance(points, np.ndarray):
        if not np.isfinite(points).all():
            raise ValueError("coordinates must be finite")  # as Point raises
    else:
        points = [p.coords for p in points]  # a Point checks itself
    n = len(points[0]) // 2 if n is None else n
    if any(len(row) != 2 * n + 1 for row in points):
        raise ValueError("surface and point dimensions disagree")
    return np.array(points, dtype=float).reshape(len(points), 2 * n + 1)


def _run(s, coords, pivots, finish):
    """The kernel over a coordinate stack: one evaluation, then the frame
    stage and ``finish`` (the shape stage, or None).  If the stack raises,
    each row reruns alone under its own pivots, and the first row that
    raises alone raises."""
    pivots = _pivot_rows(s.n, len(coords), pivots)
    try:
        u, grad, hess = s.evaluate_many(coords)
        fb = _frames(s.n, coords, u, grad, hess, pivots)
        return fb if finish is None else finish(s, fb)
    except Exception:
        if len(coords) > 1:
            for i in range(len(coords)):
                _run(s, coords[i : i + 1], None if pivots is None else pivots[i : i + 1],
                     finish)
        raise


def _pivot_rows(n, count, pivots):
    """Forced pivots as (count, n-1) rows: one sequence for all points or
    one per point."""
    if pivots is None:
        return None
    rows = np.asarray(pivots, dtype=np.intp).reshape(-1, n - 1)
    return rows if len(rows) == count else np.broadcast_to(rows, (count, n - 1))


def _frames(n, coords, u, grad, hess, pivots):
    """Frame stage of the kernel over evaluated points.

    A point whose value or derivatives are not finite raises
    :class:`DomainError`; one whose horizontal gradient vanishes, that lies
    off the surface, or whose forced pivot collapses raises its own error
    (the first such point of each check).
    """
    finite = np.isfinite(u) & np.isfinite(grad).all(axis=-1)
    finite &= np.isfinite(hess).all(axis=(-2, -1))
    if not finite.all():
        i = int(finite.argmin())
        raise DomainError(f"non-finite value or derivatives at {coords[i]!r}")
    b = horizontal_gradient(n, coords, grad)
    gnorm = _norms(b)
    gscale = 1.0 + np.abs(grad).max(axis=-1)
    singular = gnorm <= 1e-9 * gscale
    bad = singular | (np.abs(u) > 1e-9 * gscale * (1.0 + np.abs(coords).max(axis=-1)))
    if bad.any():
        i = int(bad.argmax())
        if singular[i]:
            raise SingularPoint(f"horizontal gradient {gnorm[i]:g} at {coords[i]!r}")
        raise OffSurface(f"|u|={abs(u[i]):g} exceeds the on-surface tolerance")
    e2n = b / gnorm[:, None]
    en = -_J(e2n)
    xi, chosen = _complement(en, e2n, pivots)
    return FrameBatch(coords, e2n, en, xi, -grad[:, 2 * n] / gnorm, chosen, grad, hess)


def _complement(en, e2n, pivots=None):
    """Invariant complements of stacked ``en, e2n`` rows by pivoted Gram-Schmidt.

    Each point's pivot is the standard frame vector among ``e_1..e_n`` with
    the largest residual (ties resolve to the lowest index; ``e_{j+n} =
    J e_j`` has the same residual as ``e_j``, since the complement is
    J-invariant), and each accepted vector is paired with its rotation.
    Forced ``pivots`` rows replace the search; the first point whose forced
    residual collapses raises :class:`PivotDegenerate`.
    Returns ``(xi_prime, pivots)`` stacks.
    """
    count, dim = en.shape
    n = dim // 2
    used = np.empty((count, dim, dim))  # en, e2n, v_1, Jv_1, v_2, Jv_2, ...
    used[:, 0], used[:, 1] = en, e2n
    xi = np.empty((count, dim - 2, dim))
    chosen = np.empty((count, n - 1), dtype=np.intp)
    rows = np.arange(count)
    for beta in range(n - 1):
        basis = used[:, : 2 * beta + 2]
        basis_t = basis.transpose(0, 2, 1)
        if pivots is None:
            half = basis[:, :, :n]
            a = (1.0 - (half * half).sum(axis=1)).argmax(axis=1)
        else:
            a = pivots[:, beta]
        # the pivot column as a strided view, like ``B[:, a]`` of one matrix:
        # numpy picks its BLAS path, and so the rounding, by the strides
        col = np.empty_like(basis)[:, :, :1]
        col[:, :, 0] = basis[rows, :, a]
        r = _eye(dim)[a] - (basis_t @ col)[:, :, 0]
        rn = _norms(r)
        if pivots is not None and (rn < 1e-6).any():
            i = int((rn < 1e-6).argmax())
            raise PivotDegenerate(f"forced pivot {a[i]} degenerated ({rn[i]:g})")
        v = r / rn[:, None]
        v -= (basis_t @ (basis @ v[:, :, None]))[:, :, 0]  # re-orthogonalize
        v /= _norms(v)[:, None]
        jv = _J(v)
        used[:, 2 * beta + 2], used[:, 2 * beta + 3] = v, jv
        xi[:, beta], xi[:, n - 1 + beta] = v, jv
        chosen[:, beta] = a
    return xi, chosen


@functools.lru_cache(maxsize=None)
def _eye(dim):
    return _read_only(np.eye(dim))


# ---------------------------------------------------------------------------
# shape operator and report


@dataclass(frozen=True, eq=False)
class SurfaceReport:
    """Pointwise geometric state of a hypersurface."""

    frame: FrameBundle
    h: np.ndarray          # (2n-1)x(2n-1), basis v.., e_n, Jv..
    k: float               # mean eigenvalue of the shape operator on xi'
    l: float               # entry along the characteristic direction
    H: float               # trace of h
    eigenvalues: np.ndarray
    xn_residual: float
    spread: float
    umbilic: bool

    @property
    def alpha(self):
        return self.frame.alpha

    def to_dict(self):
        return {
            "point": list(self.frame.p.coords),
            "alpha": self.alpha,
            "k": self.k,
            "l": self.l,
            "H": self.H,
            "eigenvalues": list(self.eigenvalues),
            "xn_residual": self.xn_residual,
            "spread": self.spread,
            "umbilic": bool(self.umbilic),
        }


@dataclass(frozen=True, eq=False)
class ReportBatch:
    """Reports of N points on one surface as stacked arrays.

    Row i holds what :class:`SurfaceReport` holds for the point
    ``frame.coords[i]``; ``batch[i]`` is that report.
    """

    frame: FrameBatch
    h: np.ndarray            # (N, 2n-1, 2n-1)
    k: np.ndarray            # (N,)
    l: np.ndarray
    H: np.ndarray
    eigenvalues: np.ndarray  # (N, 2n-2)
    xn_residual: np.ndarray
    spread: np.ndarray
    umbilic: np.ndarray      # (N,) bool

    @property
    def alpha(self):
        return self.frame.alpha

    def __len__(self):
        return len(self.frame)

    def __getitem__(self, i) -> SurfaceReport:
        return self._report(i, self.frame.bundle(i))

    def _report(self, i, frame):
        return SurfaceReport(
            frame=frame,
            h=self.h[i],
            k=float(self.k[i]),
            l=float(self.l[i]),
            H=float(self.H[i]),
            eigenvalues=self.eigenvalues[i],
            xn_residual=float(self.xn_residual[i]),
            spread=float(self.spread[i]),
            umbilic=bool(self.umbilic[i]),
        )


def report_many(s: SurfaceDef, points, pivots=None) -> ReportBatch:
    """Reports of a sequence of points or an (N, 2n+1) coordinate stack on
    one surface, as one batch.

    The points are evaluated as one stack (:meth:`SurfaceDef.evaluate_many`);
    the frames, second fundamental forms and eigenvalues are then computed as
    stacked array operations, and entry i is bitwise what ``report(s, points[i],
    pivots)`` gives.  ``pivots`` is one forced pivot sequence for every
    point or one per point.  A failing point raises what :func:`report`
    raises for it; of several, the first in input order.
    """
    return _run(s, _stack(points, s.n), pivots, _shapes)


def _shapes(s, fb: FrameBatch) -> ReportBatch:
    """Shape stage of the kernel: second fundamental form and shape operator.

    Entry ``h[a,b]`` is minus the Levi product of the normal's derivative
    along basis vector b with basis vector a.  The shape operator adds the
    rotation correction on the invariant complement; its restriction there
    must come out symmetric, which is enforced as a sanity gate.
    """
    n = s.n
    nidx = n - 1
    coords = fb.coords
    b = horizontal_gradient(n, coords, fb.grad)
    gnorm = _norms(b)[:, None, None]
    jac = _hgrad_jacobian(n, coords, fb.grad, fb.hess)
    xi = fb.xi_prime
    basis = np.concatenate([xi[:, :nidx], fb.en[:, None], xi[:, nidx:]], axis=1)
    lift = _lifts(coords[:, None], basis)  # basis vectors as coordinates
    db = (jac[:, None] @ lift[..., None])[..., 0]  # row a: derivative of b along lift a
    derivs = db / gnorm - b[:, None, :] * _dots(b[:, None], db)[..., None] / gnorm**3
    h = -(basis @ derivs.transpose(0, 2, 1))
    l = h[:, nidx, nidx]
    xn_residual = _norms(derivs[:, nidx] + l[:, None] * fb.en)

    S = _shape_operator(h, fb.alpha)
    S_t = S.transpose(0, 2, 1)
    asym = np.max(np.abs(S - S_t), axis=(1, 2))
    bad = asym > 1e-8 * (1.0 + np.max(np.abs(S), axis=(1, 2)))
    if np.any(bad):
        raise NonSymmetric(f"shape operator asymmetry {asym[np.argmax(bad)]:g}")
    keep = _complement_rows(n)
    eigs = np.linalg.eigvalsh(0.5 * (S + S_t)[:, keep[:, None], keep])
    spread = eigs[:, -1] - eigs[:, 0]
    tol = s.umbilic_tol
    return ReportBatch(
        frame=fb,
        h=h,
        k=eigs.sum(axis=-1) / (2 * n - 2),  # the mean
        l=l,
        H=np.trace(h, axis1=1, axis2=2),
        eigenvalues=eigs,
        xn_residual=xn_residual,
        spread=spread,
        umbilic=(xn_residual <= tol) & (spread <= tol),
    )


def shape_matrix(s: SurfaceDef, f: FrameBundle) -> SurfaceReport:
    """Second fundamental form and shape operator in the adapted basis of
    ``f``: a batch of one of :func:`report_many` under ``f``'s pivots, which
    rebuild ``f``'s frame bit for bit."""
    return report_many(s, (f.p,), f.pivots)._report(0, f)


def report(s: SurfaceDef, p: Point) -> SurfaceReport:
    """Pointwise report at ``p``: a batch of one of :func:`report_many`."""
    return report_many(s, (p,))[0]


@functools.lru_cache(maxsize=None)
def _complement_rows(n):
    """Indices of the invariant complement's rows in the adapted basis."""
    return _read_only(np.delete(np.arange(2 * n - 1), n - 1))


def _shape_operator(h, alpha):
    """Form matrices plus the rotation correction: J' pairs v_beta <-> Jv_beta
    and kills e_n."""
    m = h.shape[-1]
    n = (m + 1) // 2
    S = h.copy()
    beta = np.arange(n - 1)
    alpha = np.asarray(alpha)[..., None]
    S[..., n + beta, beta] += alpha  # <J' v_beta, Jv_beta> = 1
    S[..., beta, n + beta] -= alpha  # <J' Jv_beta, v_beta> = -1
    return S


def _umbilic_form(n, k, l, alpha):
    """Form matrices of umbilic points: ``k`` on the invariant complement,
    ``l`` along the characteristic direction, the tilt across the pairs."""
    k, l, alpha = np.asarray(k), np.asarray(l), np.asarray(alpha)
    h = np.zeros(k.shape + (2 * n - 1, 2 * n - 1))
    diag = np.arange(2 * n - 1)
    h[..., diag, diag] = k[..., None]
    h[..., n - 1, n - 1] = l
    beta = np.arange(n - 1)
    h[..., beta, n + beta] = alpha[..., None]
    h[..., n + beta, beta] = -alpha[..., None]
    return h


def _transverse_brackets(h):
    """The parts outside the invariant complement D of the brackets
    ``[X_i, X_j]``, i < j, of its fields, from form matrices ``h``: an
    (..., pairs, 3) stack of components along e_n, e_2n and T.

    A bracket's horizontal part is ``D_{X_i} v_j - D_{X_j} v_i``.  The fields
    stay unit and orthogonal to e_n and e_2n, so the e_2n part of
    ``D_{X_i} v_j`` is ``-<v_j, D_{X_i} e_2n> = h_c[j, i]`` on the complement
    block ``h_c``.  With ``e_n = -J e_2n`` and the signed permutation
    ``J v_j = sum_q P_jq v_q``, its e_n part is ``(P h_c)[j, i]``.  The T
    part is the group's bracket ``-2 <J v_i, v_j> = -2 P_ij``.  Applying
    ``P`` only moves and negates rows, so it is exact.
    """
    n = (h.shape[-1] + 1) // 2
    keep = _complement_rows(n)
    hc = h[..., keep[:, None], keep]
    ph = np.concatenate([hc[..., n - 1 :, :], -hc[..., : n - 1, :]], axis=-2)
    i, j = np.triu_indices(2 * n - 2, 1)
    w = np.empty(h.shape[:-2] + (len(i), 3))
    w[..., 0] = ph[..., j, i] - ph[..., i, j]
    w[..., 1] = hc[..., j, i] - hc[..., i, j]
    w[..., 2] = np.where(j == i + n - 1, -2.0, 0.0)
    return w


def _sublaplacians(coords, hess):
    """Sublaplacians (sums of repeated frame derivatives of the defining
    function) at stacked evaluated points, each summed over j left to right.

    They need only the coordinate Hessian: the vertical coefficients of the
    frame fields contribute first-order cross terms."""
    n = coords.shape[-1] // 2
    utt = hess[..., 2 * n, 2 * n]
    acc = 0.0
    for j in range(n):
        x, y, a = coords[..., j], coords[..., n + j], n + j
        acc = acc + (hess[..., j, j] + 2.0 * y * hess[..., j, 2 * n] + y * y * utt)
        acc = acc + (hess[..., a, a] - 2.0 * x * hess[..., a, 2 * n] + x * x * utt)
    return acc


def alpha_directional(s: SurfaceDef, coords, w):
    """Exact directional derivative of the tilt function along ``w``.

    The tilt extends off the surface as minus the vertical derivative over
    the horizontal gradient norm; its derivative needs only the defining
    function's gradient and Hessian.  A batch of one of :func:`_alpha_rates`.
    """
    coords = np.asarray(coords, dtype=float)
    _, grad, hess = s.evaluate(coords)
    w = np.asarray(w, dtype=float)
    return float(_alpha_rates(coords[None], grad[None], hess[None], w[None])[0])


def _alpha_rates(coords, grad, hess, w):
    """Tilt derivatives along stacked coordinate vectors ``w`` at stacked
    evaluated points (:func:`alpha_directional` row by row)."""
    n = coords.shape[-1] // 2
    b = horizontal_gradient(n, coords, grad)
    gnorm = _norms(b)
    jw = (_hgrad_jacobian(n, coords, grad, hess) @ w[..., None])[..., 0]
    dut = _dots(hess[..., 2 * n, :], w)
    dnorm = _dots(b, jw) / gnorm
    ut = grad[..., 2 * n]
    return -dut / gnorm + ut * dnorm / gnorm**2


# ---------------------------------------------------------------------------
# rotationally symmetric closed forms


@dataclass(frozen=True)
class RadialProfile:
    """Squared-height profile ``t^2 = f(r)`` of a rotationally symmetric
    surface, as functions of ``r = |z|^2`` with derivatives."""

    f: Callable[[float], float]
    df: Callable[[float], float]
    ddf: Callable[[float], float]
    r_max: float


def rotsym_many(profile: RadialProfile, points) -> ReportBatch:
    """Closed-form reports of a sequence of points or an (N, 2n+1) coordinate
    stack on a rotationally symmetric surface.

    All scalars come from the radial profile alone; the surface is umbilic
    by symmetry, so the form matrices are filled with the umbilic pattern.
    The frames take their complement from the kernel's Gram-Schmidt.  The
    first point off the profile's domain or off the surface raises.
    """
    if not len(points):
        raise ValueError("need at least one point")
    coords = _stack(points)
    n = coords.shape[1] // 2
    vals = np.empty((len(coords), 5))
    for i, c in enumerate(coords):
        x, y, height = c[:n], c[n : 2 * n], float(c[2 * n])
        r = float(np.dot(x, x) + np.dot(y, y))
        z = math.sqrt(r)
        if z <= 0.0:
            raise DegenerateProfile("profile formulas need |z| > 0")
        fv, fp, fpp = profile.f(r), profile.df(r), profile.ddf(r)
        disc = fp * fp + fv
        if disc <= 0.0:
            raise DegenerateProfile(f"(f')^2 + f = {disc:g} <= 0")
        if abs(height * height - fv) > 1e-9 * (1.0 + abs(fv) + height * height):
            raise OffSurface("point does not satisfy t^2 = f(|z|^2)")
        zroot = z * math.sqrt(disc)
        l = (r - fp) / zroot - (1.0 + 2.0 * fpp) * fv * z / disc**1.5
        vals[i] = -fp / zroot, l, height / zroot, fp, zroot
    k, l, alpha, fp, zroot = vals.T
    x, y, t = coords[:, :n], coords[:, n : 2 * n], coords[:, 2 * n]
    fp, t, zroot = fp[:, None], t[:, None], zroot[:, None]
    e2n = np.concatenate([(fp * x - t * y) / zroot, (fp * y + t * x) / zroot], axis=1)
    e2n /= _norms(e2n)[:, None]
    en = -_J(e2n)
    xi, chosen = _complement(en, e2n)
    frame = FrameBatch(coords, e2n, en, xi, alpha, chosen)
    zeros = np.zeros(len(coords))
    return ReportBatch(
        frame=frame,
        h=_umbilic_form(n, k, l, alpha),
        k=k,
        l=l,
        H=l + (2 * n - 2) * k,
        eigenvalues=np.repeat(k[:, None], 2 * n - 2, axis=1),
        xn_residual=zeros,
        spread=zeros,
        umbilic=np.ones(len(coords), dtype=bool),
    )


# ---------------------------------------------------------------------------
# isolated-singular-point test


def singular_jacobian(grad, hess):
    """Full-rank test data at a critical point of a graph ``t = u(x, y)``.

    Returns ``(U, det U)`` where ``U`` adds the standard symplectic block to
    the graph Hessian.  For the umbilic normal form ``u = B|(x,y)|^2 + O(3)``
    the determinant is ``(4B^2+1)^n``.
    """
    grad = np.asarray(grad, dtype=float)
    hess = np.asarray(hess, dtype=float)
    if grad.size % 2 != 0 or hess.shape != (grad.size, grad.size):
        raise ValueError("need a gradient of length 2n and a 2n x 2n Hessian")
    n = grad.size // 2
    if float(np.max(np.abs(grad))) > 1e-10:
        raise NotSingularCandidate("gradient does not vanish at the origin")
    U = hess.copy()
    U[:n, n:] -= np.eye(n)
    U[n:, :n] += np.eye(n)
    return U, float(np.linalg.det(U))


def graph_derivatives(func, n):
    """Gradient and Hessian of a graph function of 2n variables at 0."""
    val, grad, hess = duals.gradient_hessian(func, np.zeros(2 * n))
    if abs(val) > 1e-12:
        raise NotSingularCandidate("graph does not pass through the origin")
    return grad, hess


# ---------------------------------------------------------------------------
# reference eigensolver


def jacobi_eigenvalues(mat):
    """Eigenvalues of a small symmetric matrix by cyclic Jacobi rotations.

    Reference only: the kernel takes its eigenvalues from
    ``np.linalg.eigvalsh``, and the tests compare the two.
    """
    a = np.array(mat, dtype=float)
    m = a.shape[0]
    if m == 1:
        return a.diagonal().copy()
    scale = 1.0 + float(np.max(np.abs(a)))
    for _ in range(60):  # at most 60 sweeps
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= 1e-14 * scale:
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                if tau == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                sn = t * c
                rot = np.eye(m)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = sn
                rot[q, p] = -sn
                a = rot.T @ a @ rot
                a = 0.5 * (a + a.T)
    return np.sort(np.diagonal(a).copy())
