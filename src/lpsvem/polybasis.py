"""Scaled monomial bases on polygons and positive-weight polygon quadrature.

Monomials are m_a(x) = ((x - x_E)/h_E)^a in graded lexicographic order
(1, xi, eta, xi^2, xi*eta, eta^2, ...).  Quadrature is a composite rule over
the ear-clip sub-triangulation using a collapsed (Duffy) tensor Gauss rule,
which keeps every weight positive at any exactness degree.

The quadrature, the mass and stiffness matrices and every ``monomial_*``
function work on a stack of cells (first axis).  Reference rules and
coefficient maps depend only on the degree and are built once per degree;
the cached arrays are read-only.
"""
from __future__ import annotations

import functools
import warnings
import numpy as np

from .geometry import GeometryError


class ConditionWarning(UserWarning):
    """Raised (as a warning) when an element matrix is badly conditioned."""


def poly_dim(k: int) -> int:
    """dim P_k in two variables; 0 for k < 0."""
    return 0 if k < 0 else (k + 1) * (k + 2) // 2


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays if len(arrays) > 1 else arrays[0]


@functools.lru_cache(maxsize=None)
def monomial_exponents(k: int) -> np.ndarray:
    """Graded-lex exponent pairs (m1, m2) for all |m| <= k (read-only)."""
    out = []
    for d in range(k + 1):
        for m2 in range(d + 1):
            out.append((d - m2, m2))
    return _frozen(np.asarray(out, dtype=int).reshape(-1, 2))


@functools.lru_cache(maxsize=None)
def grad_coeff_ref(k: int):
    """d/dxi and d/deta as coefficient maps P_k -> P_{k-1} for h_E = 1."""
    e_lo = monomial_exponents(k - 1)
    index_lo = {tuple(m): i for i, m in enumerate(e_lo.tolist())}
    Dx = np.zeros((len(e_lo), poly_dim(k)))
    Dy = np.zeros((len(e_lo), poly_dim(k)))
    for j, (m1, m2) in enumerate(monomial_exponents(k).tolist()):
        if m1 > 0:
            Dx[index_lo[(m1 - 1, m2)], j] = m1
        if m2 > 0:
            Dy[index_lo[(m1, m2 - 1)], j] = m2
    return _frozen(Dx, Dy)


@functools.lru_cache(maxsize=None)
def laplacian_ref(k: int) -> np.ndarray:
    """The Laplacian as a coefficient map P_k -> P_{k-2} for h_E = 1."""
    e_lo = monomial_exponents(k - 2)
    index_lo = {tuple(m): i for i, m in enumerate(e_lo.tolist())}
    L = np.zeros((len(e_lo), poly_dim(k)))
    for j, (m1, m2) in enumerate(monomial_exponents(k).tolist()):
        if m1 >= 2:
            L[index_lo[(m1 - 2, m2)], j] += m1 * (m1 - 1)
        if m2 >= 2:
            L[index_lo[(m1, m2 - 2)], j] += m2 * (m2 - 1)
    return _frozen(L)


def _scaled_coords(points, centroid, diameter):
    h = np.asarray(diameter, dtype=float)[:, None]
    xi = (points[..., 0] - centroid[:, None, 0]) / h
    eta = (points[..., 1] - centroid[:, None, 1]) / h
    return xi, eta, h


def monomial_values(degree: int, points, centroid, diameter) -> np.ndarray:
    """Scaled monomials of degree <= `degree` on a stack of cells.

    points (m, n, 2), centroid (m, 2), diameter (m,) -> values (m, n, dim).
    """
    xi, eta, _ = _scaled_coords(points, centroid, diameter)
    e = monomial_exponents(degree)
    return xi[..., None] ** e[:, 0] * eta[..., None] ** e[:, 1]


def monomial_gradients(degree: int, points, centroid, diameter) -> np.ndarray:
    """Gradients of the scaled monomials on a stack of cells; (m, n, dim, 2)."""
    xi, eta, h = _scaled_coords(points, centroid, diameter)
    e = monomial_exponents(degree)
    out = np.zeros(xi.shape + (len(e), 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, (m1, m2) in enumerate(e.tolist()):
            if m1 > 0:
                out[..., j, 0] = m1 / h * xi ** (m1 - 1) * eta ** m2
            if m2 > 0:
                out[..., j, 1] = m2 / h * xi ** m1 * eta ** (m2 - 1)
    return out


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _duffy_triangle_rule(degree: int):
    """Rule on the reference triangle {x,y>=0, x+y<=1}, exact to `degree`.

    Collapsing the unit square raises the polynomial degree by one in the
    radial direction, hence n Gauss points per axis with 2n-1 >= degree+1.
    """
    n = max(1, (degree + 3) // 2)
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    U, V = np.meshgrid(x, x, indexing="ij")
    WU, WV = np.meshgrid(w, w, indexing="ij")
    pts = np.column_stack([U.ravel(), (V * (1.0 - U)).ravel()])
    wts = (WU * WV * (1.0 - U)).ravel()
    return _frozen(pts, wts)


def build_quadrature(vertices, triangles, degree: int, cell_ids):
    """Composite positive-weight rule on a stack of cells.

    vertices (m, nv, 2), triangles (m, nt, 3) -> points (m, nt * nr, 2) and
    weights (m, nt * nr), sub-triangle by sub-triangle as listed.
    """
    if degree < 0:
        raise ValueError("quadrature degree must be >= 0")
    ref_pts, ref_w = _duffy_triangle_rule(degree)
    rows = np.arange(len(vertices))[:, None]
    a, b, c = (vertices[rows, triangles[..., i]] for i in range(3))   # (m, nt, 2)
    e1, e2 = b - a, c - a
    det = e1[..., 0] * e2[..., 1] - e2[..., 0] * e1[..., 1]
    bad = np.flatnonzero(np.any(det <= 0, axis=1))
    if bad.size:
        raise GeometryError(f"cell {cell_ids[bad[0]]}: degenerate sub-triangle")
    J = np.stack([e1, e2], axis=-1)
    pts = ref_pts @ J.transpose(0, 1, 3, 2) + a[:, :, None, :]
    wts = ref_w * det[..., None]
    m = len(vertices)
    return pts.reshape(m, -1, 2), wts.reshape(m, -1)


def mass_matrix(phi: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """H with H_ab = int_E m_a m_b from values phi (m, nq, dim) and weights
    (m, nq); shape (m, dim, dim)."""
    H = np.matmul(phi.transpose(0, 2, 1), weights[..., None] * phi)
    return 0.5 * (H + H.transpose(0, 2, 1))


def stiffness_matrix(dphi: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """G with G_ab = int_E grad m_a . grad m_b from gradients dphi
    (m, nq, dim, 2); singular along constants."""
    G = np.einsum("mqad,mq,mqbd->mab", dphi, weights, dphi)
    return 0.5 * (G + G.transpose(0, 2, 1))


def condition_warnings(H: np.ndarray, cell_ids, stacklevel: int = 2) -> None:
    """Warn once for every mass matrix of a stack with cond > 1e12."""
    for j in np.flatnonzero(np.linalg.cond(H) > 1e12):
        warnings.warn(f"cell {cell_ids[j]}: mass matrix condition number > 1e12",
                      ConditionWarning, stacklevel=stacklevel + 1)
