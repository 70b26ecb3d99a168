"""Per-point extrinsic geometry of a level-set hypersurface.

Given a defining function ``u`` with first and second derivatives, this
module builds the adapted frame (unit horizontal normal, characteristic
direction, the complex-structure-invariant complement), the horizontal
second fundamental form, the symmetric shape operator with its curvature
scalars ``k``, ``l``, ``H``, and decides umbilicity.

Derivatives of the normalized horizontal normal are exact: the frame is
parallel, so the normal field's frame coefficients are rational in the
defining function's gradient and Hessian and are differentiated in closed
form rather than by nested automatic differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import duals
from .core import HorizontalVector, Point, _J, frame_lift

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
    "SurfaceReport",
    "RadialProfile",
    "build_frame",
    "shape_matrix",
    "report",
    "rotsym_report",
    "singular_jacobian",
    "graph_derivatives",
    "horizontal_gradient",
    "sublaplacian",
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
    params: dict = field(default_factory=dict)
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
        """Return ``(u, gradient, hessian)`` at coordinates."""
        coords = np.asarray(coords, dtype=float)
        if self.derivatives == "fd":
            u, g, h = duals.fd_gradient_hessian(self.func, coords)
        elif self.grad_hess is not None:
            u, g, h = self.grad_hess(coords)
            g = np.asarray(g, dtype=float)
            h = np.asarray(h, dtype=float)
        else:
            u, g, h = duals.gradient_hessian(self.func, coords)
        asym = float(np.max(np.abs(h - h.T))) if h.size else 0.0
        if asym > 1e-12 * (1.0 + float(np.max(np.abs(h)))):
            raise NonSymmetric(f"Hessian asymmetry {asym:g}")
        return float(u), g, 0.5 * (h + h.T)

    def with_derivatives(self, mode) -> "SurfaceDef":
        return replace(self, derivatives=mode)

    def negated(self) -> "SurfaceDef":
        """Same locus, opposite orientation of the horizontal normal."""
        f = self.func
        gh = self.grad_hess

        def neg_func(c):
            return -f(c)

        neg_gh = None
        if gh is not None:

            def neg_gh(c):
                u, g, h = gh(c)
                return -u, -np.asarray(g), -np.asarray(h)

        return replace(self, func=neg_func, grad_hess=neg_gh,
                       name=self.name + "-flipped")

    @property
    def umbilic_tol(self):
        return UMBILIC_TOL if self.derivatives == "exact" else UMBILIC_TOL_FD


# ---------------------------------------------------------------------------
# horizontal gradient machinery


def horizontal_gradient(n, coords, grad):
    """Frame coefficients of the horizontal part of the gradient."""
    x = coords[:n]
    y = coords[n : 2 * n]
    ut = grad[2 * n]
    b = np.empty(2 * n)
    b[:n] = grad[:n] + y * ut
    b[n:] = grad[n : 2 * n] - x * ut
    return b


def _hgrad_jacobian(n, coords, grad, hess):
    """Coordinate Jacobian of the horizontal-gradient coefficients."""
    x = coords[:n]
    y = coords[n : 2 * n]
    ut = grad[2 * n]
    jac = np.empty((2 * n, 2 * n + 1))
    jac[:n, :] = hess[:n, :] + y[:, None] * hess[2 * n, :][None, :]
    jac[n:, :] = hess[n : 2 * n, :] - x[:, None] * hess[2 * n, :][None, :]
    idx = np.arange(n)
    jac[idx, n + idx] += ut
    jac[n + idx, idx] -= ut
    return jac


def _singular_eps(grad):
    return 1e-9 * (1.0 + float(np.max(np.abs(grad))))


def _on_surface_tol(coords, grad):
    return (
        1e-9
        * (1.0 + float(np.max(np.abs(grad))))
        * (1.0 + float(np.max(np.abs(coords))))
    )


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
    grad_norm: float
    pivots: tuple
    _grad: np.ndarray = None
    _hess: np.ndarray = None

    @property
    def n(self):
        return self.p.n

    def basis(self):
        """Ordered tangent-plane basis as a (2n-1, 2n) coefficient matrix."""
        n = self.n
        rows = [v.coeffs for v in self.xi_prime[: n - 1]]
        rows.append(self.en.coeffs)
        rows.extend(v.coeffs for v in self.xi_prime[n - 1 :])
        return np.array(rows)


def build_frame(s: SurfaceDef, p: Point, pivots=None) -> FrameBundle:
    """Construct the adapted frame at ``p``.

    The horizontal normal is the normalized horizontal gradient, the
    characteristic direction its negative rotation, and the invariant
    complement is produced by pivoted Gram-Schmidt over the standard frame,
    pairing each accepted pivot with its rotation so the basis respects the
    complex structure.  ``pivots`` forces a previously chosen pivot sequence,
    which extends the basis smoothly to nearby points.
    """
    n = p.n
    if s.n != n:
        raise ValueError("surface and point dimensions disagree")
    coords = p.coords
    u, grad, hess = s.evaluate(coords)
    b = horizontal_gradient(n, coords, grad)
    gnorm = float(np.linalg.norm(b))
    if gnorm <= _singular_eps(grad):
        raise SingularPoint(f"horizontal gradient {gnorm:g} at {coords!r}")
    if abs(u) > _on_surface_tol(coords, grad):
        raise OffSurface(f"|u|={abs(u):g} exceeds the on-surface tolerance")
    e2n = b / gnorm
    en = -_J(e2n)
    alpha = -grad[2 * n] / gnorm
    xi, chosen = _complement(en, e2n, n, pivots)
    return FrameBundle(
        p=p,
        e2n=HorizontalVector(e2n),
        en=HorizontalVector(en),
        xi_prime=xi,
        alpha=float(alpha),
        grad_norm=gnorm,
        pivots=chosen,
        _grad=grad,
        _hess=hess,
    )


def _complement(en, e2n, n, pivots=None):
    """Invariant complement of ``en, e2n`` by pivoted Gram-Schmidt.

    Each pivot is the standard frame vector with the largest residual, and
    each accepted vector is paired with its rotation.  Forced ``pivots``
    replace the search; one whose residual collapses raises
    :class:`PivotDegenerate`.  Returns ``(xi_prime, pivots)``.
    """
    used = [en, e2n]
    first_half = []
    chosen = []
    for beta in range(n - 1):
        basis_mat = np.array(used)
        if pivots is None:
            norms = 1.0 - np.sum(basis_mat * basis_mat, axis=0)
            a = int(np.argmax(norms))  # ties resolve to the lowest index
        else:
            a = pivots[beta]
        r = np.zeros(2 * n)
        r[a] = 1.0
        r -= basis_mat.T @ basis_mat[:, a]
        rn = float(np.linalg.norm(r))
        if pivots is not None and rn < 1e-6:
            raise PivotDegenerate(f"forced pivot {a} degenerated ({rn:g})")
        v = r / rn
        v = v - basis_mat.T @ (basis_mat @ v)  # re-orthogonalize
        v /= np.linalg.norm(v)
        used += [v, _J(v)]
        first_half.append(v)
        chosen.append(a)
    xi = tuple(HorizontalVector(v) for v in first_half + [_J(v) for v in first_half])
    return xi, tuple(chosen)


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


def shape_matrix(s: SurfaceDef, f: FrameBundle) -> SurfaceReport:
    """Second fundamental form and shape operator in the adapted basis.

    Entry ``h[a,b]`` is minus the Levi product of the normal's derivative
    along basis vector b with basis vector a.  The shape operator adds the
    rotation correction on the invariant complement; its restriction there
    must come out symmetric, which is enforced as a sanity gate.
    """
    n = f.n
    coords = f.p.coords
    grad, hess = f._grad, f._hess
    if grad is None or hess is None:
        _, grad, hess = s.evaluate(coords)
    b = horizontal_gradient(n, coords, grad)
    gnorm = float(np.linalg.norm(b))
    jac = _hgrad_jacobian(n, coords, grad, hess)

    basis = f.basis()  # (2n-1, 2n)
    m = 2 * n - 1
    derivs = np.empty((m, 2 * n))  # row b: frame coeffs of D_{e_b} (b/|b|)
    for idx in range(m):
        w = frame_lift(HorizontalVector(basis[idx]), f.p)
        db = jac @ w
        derivs[idx] = db / gnorm - b * (b @ db) / gnorm**3

    h = -(basis @ derivs.T)  # h[a, idx] = -<deriv_idx, e_a>

    nidx = n - 1
    l = float(h[nidx, nidx])
    xn = derivs[nidx] + l * f.en.coeffs
    xn_residual = float(np.linalg.norm(xn))

    S = _shape_operator(h, f.alpha)
    asym = float(np.max(np.abs(S - S.T)))
    if asym > 1e-8 * (1.0 + float(np.max(np.abs(S)))):
        raise NonSymmetric(f"shape operator asymmetry {asym:g}")

    keep = [i for i in range(m) if i != nidx]
    S_xi = 0.5 * (S + S.T)[np.ix_(keep, keep)]
    eigs = np.linalg.eigvalsh(S_xi)
    k = float(np.mean(eigs))
    spread = float(eigs[-1] - eigs[0])
    tol = s.umbilic_tol
    return SurfaceReport(
        frame=f,
        h=h,
        k=k,
        l=l,
        H=float(np.trace(h)),
        eigenvalues=eigs,
        xn_residual=xn_residual,
        spread=spread,
        umbilic=bool(xn_residual <= tol and spread <= tol),
    )


def _shape_operator(h, alpha):
    """Form matrix plus the rotation correction: J' pairs v_beta <-> Jv_beta
    and kills e_n."""
    n = (h.shape[0] + 1) // 2
    S = h.copy()
    for beta in range(n - 1):
        S[n + beta, beta] += alpha      # <J' v_beta, Jv_beta> = 1
        S[beta, n + beta] -= alpha      # <J' Jv_beta, v_beta> = -1
    return S


def _umbilic_form(n, k, l, alpha):
    """Form matrix of an umbilic point: ``k`` on the invariant complement,
    ``l`` along the characteristic direction, the tilt across the pairs."""
    h = np.diag(np.full(2 * n - 1, k))
    h[n - 1, n - 1] = l
    for beta in range(n - 1):
        h[beta, n + beta] = alpha
        h[n + beta, beta] = -alpha
    return h


def report(s: SurfaceDef, p: Point, pivots=None) -> SurfaceReport:
    return shape_matrix(s, build_frame(s, p, pivots=pivots))


def sublaplacian(s: SurfaceDef, coords):
    """Sum of repeated frame derivatives of the defining function.

    Needs only the coordinate gradient and Hessian: the vertical coefficients
    of the frame fields contribute first-order cross terms.
    """
    coords = np.asarray(coords, dtype=float)
    n = (coords.size - 1) // 2
    _, grad, hess = s.evaluate(coords)
    x = coords[:n]
    y = coords[n : 2 * n]
    utt = hess[2 * n, 2 * n]
    acc = 0.0
    for j in range(n):
        acc += hess[j, j] + 2.0 * y[j] * hess[j, 2 * n] + y[j] * y[j] * utt
        a = n + j
        acc += hess[a, a] - 2.0 * x[j] * hess[a, 2 * n] + x[j] * x[j] * utt
    return float(acc)


def alpha_directional(s: SurfaceDef, coords, w):
    """Exact directional derivative of the tilt function along ``w``.

    The tilt extends off the surface as minus the vertical derivative over
    the horizontal gradient norm; its derivative needs only the defining
    function's gradient and Hessian.
    """
    coords = np.asarray(coords, dtype=float)
    n = (coords.size - 1) // 2
    _, grad, hess = s.evaluate(coords)
    b = horizontal_gradient(n, coords, grad)
    gnorm = float(np.linalg.norm(b))
    jac = _hgrad_jacobian(n, coords, grad, hess)
    w = np.asarray(w, dtype=float)
    dut = float(hess[2 * n, :] @ w)
    dnorm = float(b @ (jac @ w)) / gnorm
    ut = grad[2 * n]
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


def rotsym_report(profile: RadialProfile, p: Point) -> SurfaceReport:
    """Closed-form report for a rotationally symmetric surface.

    All scalars come from the radial profile alone; the surface is umbilic
    by symmetry, so the form matrix is filled with the umbilic pattern.
    """
    n = p.n
    x, y, t = p.x, p.y, p.t
    r = float(np.dot(x, x) + np.dot(y, y))
    z = np.sqrt(r)
    if z <= 0.0:
        raise DegenerateProfile("profile formulas need |z| > 0")
    fv, fp, fpp = profile.f(r), profile.df(r), profile.ddf(r)
    disc = fp * fp + fv
    if disc <= 0.0:
        raise DegenerateProfile(f"(f')^2 + f = {disc:g} <= 0")
    if abs(t * t - fv) > 1e-9 * (1.0 + abs(fv) + t * t):
        raise OffSurface("point does not satisfy t^2 = f(|z|^2)")
    root = np.sqrt(disc)
    k = -fp / (z * root)
    alpha = t / (z * root)
    l = (r - fp) / (z * root) - (1.0 + 2.0 * fpp) * fv * z / disc**1.5

    e2n = np.concatenate(
        [(fp * x - t * y) / (z * root), (fp * y + t * x) / (z * root)]
    )
    e2n /= np.linalg.norm(e2n)
    en = -_J(e2n)
    xi, chosen = _complement(en, e2n, n)
    frame = FrameBundle(
        p=p,
        e2n=HorizontalVector(e2n),
        en=HorizontalVector(en),
        xi_prime=xi,
        alpha=float(alpha),
        grad_norm=2.0 * z * root,
        pivots=chosen,
    )
    eigs = np.full(2 * n - 2, k)
    return SurfaceReport(
        frame=frame,
        h=_umbilic_form(n, k, l, alpha),
        k=float(k),
        l=float(l),
        H=float(l + (2 * n - 2) * k),
        eigenvalues=eigs,
        xn_residual=0.0,
        spread=0.0,
        umbilic=True,
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


def jacobi_eigenvalues(mat, tol=1e-14, max_sweeps=60):
    """Eigenvalues of a small symmetric matrix by cyclic Jacobi rotations.

    Reference only: ``shape_matrix`` takes its eigenvalues from
    ``np.linalg.eigvalsh``, and the tests compare the two.
    """
    a = np.array(mat, dtype=float)
    m = a.shape[0]
    if m == 1:
        return a.diagonal().copy()
    scale = 1.0 + float(np.max(np.abs(a)))
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * scale:
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
