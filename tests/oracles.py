"""Independent oracles used by the test suite.

Everything here recomputes quantities along a different numerical route than
the library: exact closed-form monomial integrals, an independently built
over-integrated quadrature, dense KKT/normal-equation projector solves, pure
per-entry loops for the local forms, a P1 finite element realizer that
solves the local defining problem of a virtual function on a refined
sub-triangulation, the cell-by-cell constructions of the element operators
and of the global assembly that the grouped ``build_mesh_ops`` and
``forms.Assembler`` are checked against, the sparse-sum construction of the
eliminated systems that the solver's fixed patterns are checked against, and
the loop-by-loop mesh topology and generators (with the bisector-clipping
Voronoi cells) and the one-polygon ear clipping that the array-based
``geometry`` is checked against.  It also holds the helpers only tests use:
observed rates, energy norms, interpolation and shape-regularity checks.
"""
from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sparse
from scipy.special import roots_legendre

from lpsvem import element_ops as eo
from lpsvem import forms, geometry, solver
from lpsvem.element_ops import edge_internal_params
from lpsvem.geometry import CellGroup, GeometryError, MeshFormatError
from lpsvem.polybasis import (build_quadrature, grad_coeff_ref, laplacian_ref, mass_matrix,
                              monomial_exponents, monomial_gradients, monomial_values,
                              poly_dim, stiffness_matrix)

# ---------------------------------------------------------------------------
# exact monomial integrals over polygons (closed form, no quadrature)
# ---------------------------------------------------------------------------


def tri_monomial_integral(p0, p1, p2, a: int, b: int) -> float:
    """Exact integral of x^a y^b over the triangle (p0, p1, p2)."""
    e1 = (p1[0] - p0[0], p1[1] - p0[1])
    e2 = (p2[0] - p0[0], p2[1] - p0[1])
    jac = e1[0] * e2[1] - e1[1] * e2[0]
    total = 0.0
    # x = p0x + u e1x + v e2x, expanded with trinomial coefficients
    for i in range(a + 1):
        for j in range(a - i + 1):
            cx = (math.comb(a, i) * math.comb(a - i, j)
                  * p0[0] ** (a - i - j) * e1[0] ** i * e2[0] ** j)
            if cx == 0.0:
                continue
            for m in range(b + 1):
                for n in range(b - m + 1):
                    cy = (math.comb(b, m) * math.comb(b - m, n)
                          * p0[1] ** (b - m - n) * e1[1] ** m * e2[1] ** n)
                    if cy == 0.0:
                        continue
                    mu, nv = i + m, j + n
                    total += cx * cy * (math.factorial(mu) * math.factorial(nv)
                                        / math.factorial(mu + nv + 2))
    return jac * total


def polygon_monomial_integral(pts: np.ndarray, a: int, b: int) -> float:
    """Exact integral of x^a y^b over a simple CCW polygon."""
    out = 0.0
    for (i, j, k) in ear_clip(pts):
        out += tri_monomial_integral(pts[i], pts[j], pts[k], a, b)
    return out


def polygon_scaled_monomial_integral(pts, centroid, diam, e1, e2) -> float:
    """Exact integral of ((x-xc)/h)^e1 ((y-yc)/h)^e2 via binomial expansion."""
    out = 0.0
    for i in range(e1 + 1):
        for j in range(e2 + 1):
            c = (math.comb(e1, i) * math.comb(e2, j)
                 * (-centroid[0]) ** (e1 - i) * (-centroid[1]) ** (e2 - j))
            out += c * polygon_monomial_integral(pts, i, j)
    return out / diam ** (e1 + e2)


# ---------------------------------------------------------------------------
# independent over-integrated quadrature
# ---------------------------------------------------------------------------


def alt_triangle_rule(degree: int):
    """Rule on the reference triangle {u, v >= 0, u + v <= 1}, exact to
    `degree`, built unlike the library's (collapse along the other axis,
    scipy Gauss nodes)."""
    n = max(1, (degree + 3) // 2 + 1)
    x, w = roots_legendre(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    U, V = np.meshgrid(x, x, indexing="ij")
    WU, WV = np.meshgrid(w, w, indexing="ij")
    ref = np.column_stack([(U * (1.0 - V)).ravel(), V.ravel()])
    refw = (WU * WV * (1.0 - V)).ravel()
    return ref, refw


def alt_polygon_quadrature(pts: np.ndarray, degree: int):
    """Composite rule of `alt_triangle_rule` over the ear-clip triangles."""
    ref, refw = alt_triangle_rule(degree)
    P, W = [], []
    for (i, j, k) in ear_clip(pts):
        a, b, c = pts[i], pts[j], pts[k]
        J = np.column_stack([b - a, c - a])
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        P.append(ref @ J.T + a)
        W.append(refw * det)
    return np.vstack(P), np.concatenate(W)


def alt_edge_rule(npts: int):
    x, w = roots_legendre(npts)
    return 0.5 * (x + 1.0), 0.5 * w


# ---------------------------------------------------------------------------
# element data shared by the oracles
# ---------------------------------------------------------------------------


class OracleElement:
    """Monomial machinery for one polygon, built from scratch."""

    def __init__(self, pts: np.ndarray, k: int, extra_degree: int = 6):
        self.pts = np.asarray(pts, dtype=float)
        self.k = k
        self.nv = len(pts)
        # centroid/diameter recomputed directly
        area = 0.0
        cx = cy = 0.0
        for i in range(self.nv):
            x0, y0 = self.pts[i]
            x1, y1 = self.pts[(i + 1) % self.nv]
            cr = x0 * y1 - x1 * y0
            area += 0.5 * cr
            cx += (x0 + x1) * cr / 6.0
            cy += (y0 + y1) * cr / 6.0
        self.area = area
        self.centroid = np.array([cx / area, cy / area])
        d = self.pts[:, None, :] - self.pts[None, :, :]
        self.diam = float(np.sqrt((d ** 2).sum(-1)).max())
        self.exps = monomial_exponents(k)
        self.qp, self.qw = alt_polygon_quadrature(self.pts, 2 * k + extra_degree)
        self.n_dof = self.nv * k + poly_dim(k - 2)
        self._edge_nodes = np.array([0.0] + edge_internal_params(k) + [1.0])

    def mono(self, pts, deg=None):
        e = self.exps if deg is None else monomial_exponents(deg)
        xi = (np.atleast_2d(pts)[:, 0] - self.centroid[0]) / self.diam
        eta = (np.atleast_2d(pts)[:, 1] - self.centroid[1]) / self.diam
        return xi[:, None] ** e[None, :, 0] * eta[:, None] ** e[None, :, 1]

    def mono_grad(self, pts, deg=None):
        e = self.exps if deg is None else monomial_exponents(deg)
        p = np.atleast_2d(pts)
        xi = (p[:, 0] - self.centroid[0]) / self.diam
        eta = (p[:, 1] - self.centroid[1]) / self.diam
        out = np.zeros((len(p), len(e), 2))
        for j, (m1, m2) in enumerate(e):
            if m1 > 0:
                out[:, j, 0] = m1 / self.diam * xi ** (m1 - 1) * eta ** m2
            if m2 > 0:
                out[:, j, 1] = m2 / self.diam * xi ** m1 * eta ** (m2 - 1)
        return out

    def exact_H(self, deg=None) -> np.ndarray:
        """Mass matrix from the closed-form monomial integrals."""
        e = self.exps if deg is None else monomial_exponents(deg)
        H = np.zeros((len(e), len(e)))
        for i, (a1, b1) in enumerate(e):
            for j, (a2, b2) in enumerate(e):
                if j < i:
                    continue
                H[i, j] = H[j, i] = polygon_scaled_monomial_integral(
                    self.pts, self.centroid, self.diam, a1 + a2, b1 + b2)
        return H

    # -- boundary helpers ---------------------------------------------------

    def edges(self):
        for i in range(self.nv):
            a = self.pts[i]
            b = self.pts[(i + 1) % self.nv]
            yield i, a, b

    def edge_trace_dofs(self, i):
        k, nv = self.k, self.nv
        return [i] + [nv + i * (k - 1) + t for t in range(k - 1)] + [(i + 1) % nv]

    def lagrange(self, tq):
        nodes = self._edge_nodes
        out = np.ones((len(tq), len(nodes)))
        for a in range(len(nodes)):
            for b in range(len(nodes)):
                if a != b:
                    out[:, a] *= (tq - nodes[b]) / (nodes[a] - nodes[b])
        return out

    def boundary_mean(self, dofs) -> float:
        tq, tw = alt_edge_rule(self.k + 6)
        lag = self.lagrange(tq)
        total = 0.0
        per = 0.0
        for i, a, b in self.edges():
            ln = float(np.hypot(*(b - a)))
            vals = lag @ np.asarray(dofs)[self.edge_trace_dofs(i)]
            total += ln * float(tw @ vals)
            per += ln
        return total / per

    def poly_boundary_mean(self, deg) -> np.ndarray:
        tq, tw = alt_edge_rule(2 * self.k + 8)
        acc = np.zeros(poly_dim(deg))
        per = 0.0
        for i, a, b in self.edges():
            ln = float(np.hypot(*(b - a)))
            pts = a[None, :] + tq[:, None] * (b - a)[None, :]
            acc += ln * (tw @ self.mono(pts, deg))
            per += ln
        return acc / per

    # -- computable moments (same definition, independent numerics) ----------

    def moments(self, dofs, pi_nabla_coeffs) -> np.ndarray:
        """int_E w m_a for |a| <= k using moment dofs + the enhancement."""
        nk2 = poly_dim(self.k - 2)
        out = np.empty(poly_dim(self.k))
        d = np.asarray(dofs)
        out[:nk2] = self.area * d[self.nv * self.k:]
        Hfull = self.exact_H()
        out[nk2:] = (Hfull @ pi_nabla_coeffs)[nk2:]
        return out

    # -- projectors via dense KKT / normal equations --------------------------

    def pi_nabla(self, dofs, deg=None) -> np.ndarray:
        """Energy projection of the virtual function with the given dofs."""
        deg = self.k if deg is None else deg
        nd = poly_dim(deg)
        G = np.zeros((nd, nd))
        gq = self.mono_grad(self.qp, deg)
        for a in range(nd):
            for b in range(nd):
                G[a, b] = float(self.qw @ (gq[:, a, 0] * gq[:, b, 0]
                                           + gq[:, a, 1] * gq[:, b, 1]))
        rhs = np.zeros(nd)
        d = np.asarray(dofs, dtype=float)
        # -int (lap m) w + bdry flux, assembled per entry
        exps = monomial_exponents(deg)
        for a, (m1, m2) in enumerate(exps):
            val = 0.0
            if m1 >= 2:
                val -= m1 * (m1 - 1) / self.diam ** 2 * self._moment_low(d, (m1 - 2, m2))
            if m2 >= 2:
                val -= m2 * (m2 - 1) / self.diam ** 2 * self._moment_low(d, (m1, m2 - 2))
            tq, tw = alt_edge_rule(2 * self.k + 8)
            lag = self.lagrange(tq)
            for i, p, q in self.edges():
                ln = float(np.hypot(*(q - p)))
                nrm = np.array([(q - p)[1], -(q - p)[0]]) / ln
                pts = p[None, :] + tq[:, None] * (q - p)[None, :]
                gm = self.mono_grad(pts, deg)[:, a, :] @ nrm
                tr = lag @ d[self.edge_trace_dofs(i)]
                val += ln * float(tw @ (gm * tr))
            rhs[a] = val
        # KKT with the boundary-mean constraint
        K = np.zeros((nd + 1, nd + 1))
        K[:nd, :nd] = G
        pbm = self.poly_boundary_mean(deg)
        K[nd, :nd] = pbm
        K[:nd, nd] = pbm
        r = np.concatenate([rhs, [self.boundary_mean(d)]])
        sol = np.linalg.lstsq(K, r, rcond=None)[0]
        return sol[:nd]

    def _moment_low(self, dofs, exp_pair) -> float:
        """int_E w m_beta for |beta| <= k - 2 straight from the moment dofs."""
        exps2 = monomial_exponents(self.k - 2)
        for idx, (m1, m2) in enumerate(exps2):
            if (m1, m2) == exp_pair:
                return self.area * dofs[self.nv * self.k + idx]
        raise KeyError(exp_pair)

    def pi_zero(self, dofs) -> np.ndarray:
        c_nab = self.pi_nabla(dofs)
        m = self.moments(dofs, c_nab)
        return np.linalg.solve(self.exact_H(), m)

    def pi_grad(self, dofs, deg) -> np.ndarray:
        """L2 projection of grad w onto [P_deg]^2; returns (2, dim P_deg)."""
        nd = poly_dim(deg)
        d = np.asarray(dofs, dtype=float)
        c_nab = self.pi_nabla(dofs)
        mom = self.moments(d, c_nab)
        exps = monomial_exponents(deg)
        moment_index = {tuple(e): i for i, e in enumerate(monomial_exponents(self.k))}
        out = np.zeros((2, nd))
        tq, tw = alt_edge_rule(2 * self.k + 8)
        lag = self.lagrange(tq)
        for comp in range(2):
            rhs = np.zeros(nd)
            for a, (m1, m2) in enumerate(exps):
                val = 0.0
                power = m1 if comp == 0 else m2
                if power > 0:
                    lower = (m1 - 1, m2) if comp == 0 else (m1, m2 - 1)
                    val -= power / self.diam * mom[moment_index[lower]]
                for i, p, q in self.edges():
                    ln = float(np.hypot(*(q - p)))
                    nrm = np.array([(q - p)[1], -(q - p)[0]]) / ln
                    pts = p[None, :] + tq[:, None] * (q - p)[None, :]
                    mvals = self.mono(pts, deg)[:, a]
                    tr = lag @ d[self.edge_trace_dofs(i)]
                    val += ln * nrm[comp] * float(tw @ (mvals * tr))
                rhs[a] = val
            out[comp] = np.linalg.solve(self.exact_H(deg), rhs)
        return out

    def h1_seminorm_poly(self, coeffs, deg=None) -> float:
        gq = self.mono_grad(self.qp, deg)
        g = np.einsum("qad,a->qd", gq, coeffs)
        return float(self.qw @ (g ** 2).sum(axis=1))


# ---------------------------------------------------------------------------
# P1 finite element realization of virtual functions
# ---------------------------------------------------------------------------


class FemRealizer:
    """Realize order-k virtual functions on a refined P1 triangulation.

    Solves: Delta w in P_k with the given boundary trace, matching moment
    dofs, and the enhancement constraint; exposes the H1 seminorm of any
    virtual function and of its non-projected part.
    """

    def __init__(self, pts: np.ndarray, k: int, refine: int = 3):
        self.el = OracleElement(pts, k)
        self.k = k
        tris = [tuple(t) for t in ear_clip(pts)]
        nodes = [tuple(p) for p in pts]
        for _ in range(refine):
            nodes, tris = self._refine(nodes, tris)
        self.nodes = np.asarray(nodes)
        self.tris = np.asarray(tris, dtype=int)
        self._classify_boundary(pts)
        self._assemble()

    @staticmethod
    def _refine(nodes, tris):
        key = {n: i for i, n in enumerate(nodes)}
        nodes = list(nodes)

        def mid(i, j):
            m = ((nodes[i][0] + nodes[j][0]) / 2.0, (nodes[i][1] + nodes[j][1]) / 2.0)
            if m not in key:
                key[m] = len(nodes)
                nodes.append(m)
            return key[m]

        out = []
        for (a, b, c) in tris:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            out += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        return nodes, out

    def _classify_boundary(self, poly):
        """Map every boundary node to all polygon edges that contain it.

        A polygon vertex lies on two edges and must appear in both edge
        groups, or the boundary mean drops the end segments of an edge.
        """
        nv = len(poly)
        scale = self.el.diam
        self.bnd = {}        # node -> [(edge index, parameter), ...]
        for idx, p in enumerate(self.nodes):
            hits = []
            for i in range(nv):
                a, b = poly[i], poly[(i + 1) % nv]
                e = b - a
                L2 = float(e @ e)
                t = float((p - a) @ e) / L2
                if -1e-12 <= t <= 1 + 1e-12:
                    d = p - (a + t * e)
                    if float(d @ d) < (1e-9 * scale) ** 2:
                        hits.append((i, min(max(t, 0.0), 1.0)))
            if hits:
                self.bnd[idx] = hits

    def _assemble(self):
        n = len(self.nodes)
        k = self.k
        nk = poly_dim(k)
        K = np.zeros((n, n))
        # int hat_i m_a, exact: the enhancement rows compare it with exact
        # polynomial moments, so an inexact rule breaks P_k reproduction
        Mpoly = np.zeros((n, nk))
        ref, refw = alt_triangle_rule(k + 1)
        hats = np.column_stack([1.0 - ref.sum(axis=1), ref])
        for (a, b, c) in self.tris:
            pa, pb, pc = self.nodes[a], self.nodes[b], self.nodes[c]
            J = np.column_stack([pb - pa, pc - pa])
            det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
            area = 0.5 * det
            G = np.linalg.inv(J).T @ np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]).T
            Kloc = area * (G.T @ G)
            idx = (a, b, c)
            for i in range(3):
                for j in range(3):
                    K[idx[i], idx[j]] += Kloc[i, j]
            mv = self.el.mono(ref @ J.T + pa)
            for i, node in enumerate(idx):
                Mpoly[node] += det * ((refw * hats[:, i]) @ mv)
        self.K = K
        self.Mpoly = Mpoly
        self.interior = np.array([i for i in range(n) if i not in self.bnd], dtype=int)

        # trace map: fem boundary node values as linear combinations of dofs
        nd = self.el.n_dof
        self.T = np.zeros((n, nd))
        for idx, hits in self.bnd.items():
            edge, t = hits[0]
            lag = self.el.lagrange(np.array([t]))[0]
            for loc, dof in enumerate(self.el.edge_trace_dofs(edge)):
                self.T[idx, dof] += lag[loc]

        # solve the constrained problem for every unit dof vector
        ni = len(self.interior)
        nun = ni + nk
        A = np.zeros((nun, nun))
        A[:ni, :ni] = K[np.ix_(self.interior, self.interior)]
        A[:ni, ni:] = Mpoly[self.interior]
        B = np.zeros((nun, nd))
        B[:ni, :] = -K[self.interior] @ self.T
        # moment constraints
        nk2 = poly_dim(k - 2)
        Hfull = self.el.exact_H()
        # Pi-nabla of a fem function, as a linear map of node values
        Wg = np.zeros((nk, n))
        for (a, b, c) in self.tris:
            pa, pb, pc = self.nodes[a], self.nodes[b], self.nodes[c]
            J = np.column_stack([pb - pa, pc - pa])
            det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
            area = 0.5 * det
            G = np.linalg.inv(J).T @ np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]).T
            mids = np.array([(pa + pb) / 2, (pb + pc) / 2, (pc + pa) / 2])
            gm = self.el.mono_grad(mids)          # (3, nk, 2)
            for i, node in enumerate((a, b, c)):
                contrib = (area / 3.0) * np.einsum("qad,d->a", gm, G[:, i])
                Wg[:, node] += contrib
        Gt = np.zeros((nk, nk))
        gq = self.el.mono_grad(self.el.qp)
        for a in range(nk):
            for b in range(nk):
                Gt[a, b] = float(self.el.qw @ (gq[:, a, 0] * gq[:, b, 0]
                                               + gq[:, a, 1] * gq[:, b, 1]))
        pbm = self.el.poly_boundary_mean(k)
        # boundary mean of a fem function: trapezoid over the piecewise-linear
        # trace on the fem boundary nodes
        edge_groups: dict[int, list] = {}
        for idx in sorted(self.bnd):
            for e, t in self.bnd[idx]:
                edge_groups.setdefault(e, []).append((t, idx))
        mean_row = np.zeros(n)
        per = 0.0
        for e, lst in edge_groups.items():
            lst.sort()
            a = self.el.pts[e]
            b = self.el.pts[(e + 1) % self.el.nv]
            ln = float(np.hypot(*(b - a)))
            for (t0, i0), (t1, i1) in zip(lst[:-1], lst[1:]):
                seg = ln * (t1 - t0)
                mean_row[i0] += seg / 2.0
                mean_row[i1] += seg / 2.0
                per += seg
        mean_row /= per
        # constraint rows
        Crows = np.zeros((nk, n))
        crhs = np.zeros((nk, nd))
        if nk2:
            Crows[:nk2, :] = Mpoly[:, :nk2].T
            for b in range(nk2):
                crhs[b, self.el.nv * k + b] = self.el.area
        # energy projection of a fem function as a linear map of node values:
        # row 0 carries the boundary-mean constraint
        Gc = Gt.copy()
        Gc[0, :] = pbm
        Pmap = np.linalg.solve(Gc, np.vstack([mean_row[None, :], Wg[1:]]))
        for a in range(nk2, nk):
            Crows[a] = Mpoly[:, a] - (Hfull[a] @ Pmap)
        A[ni:, :ni] = Crows[:, self.interior]
        A[ni:, ni:] = 0.0
        B[ni:, :] = crhs - Crows @ self.T
        sol = np.linalg.solve(A, B)
        self.R = np.zeros((n, nd))
        self.R[self.interior] = sol[:ni]
        self.R += self.T
        self.Pmap = Pmap

    def realize(self, dofs) -> np.ndarray:
        return self.R @ np.asarray(dofs, dtype=float)

    def h1_seminorm_sq(self, dofs) -> float:
        v = self.realize(dofs)
        return float(v @ (self.K @ v))

    def h1_seminorm_sq_nonpoly(self, dofs, pi_nabla_coeffs) -> float:
        """|grad (I - Pi_nabla) w|^2 with the supplied projection coefficients."""
        v = self.realize(dofs) - self.el.mono(self.nodes) @ pi_nabla_coeffs
        return float(v @ (self.K @ v))


# ---------------------------------------------------------------------------
# manufactured cases: a sympy reference and an mpmath strong-form residual
# ---------------------------------------------------------------------------


def manufactured_reference(case_id: str):
    """Symbolic reference of a manufactured case (default conductivity),
    written apart from ``lpsvem.manufactured``: sympy expressions in the
    symbols ``x, y`` of the exact fields ``u1, u2, p, phi`` and of the sources
    ``F1, F2, g`` derived from them by symbolic differentiation."""
    import sympy as sp
    x, y = sp.symbols("x y")
    if case_id == "ex1":
        u1 = sp.sin(2 * sp.pi * x) * sp.cos(2 * sp.pi * y)
        u2 = -sp.cos(2 * sp.pi * x) * sp.sin(2 * sp.pi * y)
        p = sp.sin(2 * sp.pi * x) * sp.sin(2 * sp.pi * y)
        phi = 15 - 15 * sp.exp(-x * y * (x - 1) * (y - 1))
        mu = 1 / (1 - sp.Rational(1, 2) * phi) ** 2
        kap = sp.Integer(1)
    elif case_id in ("ex2_diffusive", "ex2_convective"):
        u1 = x ** 2 * y * (1 - x) * (1 - y)
        u2 = -(2 * x - 3 * x ** 2) * (y ** 2 / 2 - y ** 3 / 3)
        p = -100 * x ** 2 + sp.Rational(100, 3)
        phi = x ** 2 * y * (1 - x) * (1 - y) + 600
        mu = 1 + phi + sp.sin(phi) ** 2
        kap = sp.Integer(1) if case_id == "ex2_diffusive" else sp.Float(1e-6)
    elif case_id == "ex3":
        u1 = 2 * x ** 2 * y * (2 * y - 1) * (y - 1) * (x - 1) ** 2
        u2 = -2 * x * y ** 2 * (y - 1) ** 2 * (2 * x - 1) * (x - 1)
        p = sp.exp(y) * (x - sp.Rational(1, 2)) ** 3
        phi = x ** 2 + y ** 4
        mu = sp.exp(-phi)
        kap = sp.Float(1e-3) * sp.exp(phi)
    else:
        raise ValueError(f"not a manufactured case: {case_id!r}")
    e11, e22 = sp.diff(u1, x), sp.diff(u2, y)
    e12 = (sp.diff(u1, y) + sp.diff(u2, x)) / 2
    F1 = -(sp.diff(mu * e11, x) + sp.diff(mu * e12, y)) + sp.diff(p, x)
    F2 = -(sp.diff(mu * e12, x) + sp.diff(mu * e22, y)) + sp.diff(p, y)
    g = (-(sp.diff(kap * sp.diff(phi, x), x) + sp.diff(kap * sp.diff(phi, y), y))
         + u1 * sp.diff(phi, x) + u2 * sp.diff(phi, y))
    return SimpleNamespace(x=x, y=y, u1=u1, u2=u2, p=p, phi=phi, F1=F1, F2=F2, g=g)


def strong_residual_mp(case, x0: float, y0: float, dps: int = 30):
    """Momentum and heat residuals of the exact fields at one point, with all
    derivatives taken numerically in high precision: the case's field
    functions are called with the mpmath namespace, independent of the jets
    that derive the sources."""
    import mpmath as mp

    f = case.fields

    def at(fn):
        return lambda *args: fn(*args, mp)
    u1, u2, pf, phif, muf, kapf = (at(fn) for fn in (f.u1, f.u2, f.p, f.phi, f.mu, f.kappa))
    F, g = f.sources()

    with mp.workdps(dps):
        X, Y = mp.mpf(x0), mp.mpf(y0)

        def d(fun, wrt, x, y):
            if wrt == 0:
                return mp.diff(lambda t: fun(t, y), x)
            return mp.diff(lambda t: fun(x, t), y)

        def eps(x, y):
            e11 = d(u1, 0, x, y)
            e22 = d(u2, 1, x, y)
            e12 = (d(u1, 1, x, y) + d(u2, 0, x, y)) / 2
            return e11, e12, e22

        def s11(x, y):
            e11, _, _ = eps(x, y)
            return muf(phif(x, y)) * e11

        def s12(x, y):
            _, e12, _ = eps(x, y)
            return muf(phif(x, y)) * e12

        def s22(x, y):
            _, _, e22 = eps(x, y)
            return muf(phif(x, y)) * e22

        r1 = -(d(s11, 0, X, Y) + d(s12, 1, X, Y)) + d(pf, 0, X, Y)
        r2 = -(d(s12, 0, X, Y) + d(s22, 1, X, Y)) + d(pf, 1, X, Y)
        Fv = F(np.array([x0]), np.array([y0]))
        res_m = max(abs(float(r1) - float(Fv[0, 0])), abs(float(r2) - float(Fv[1, 0])))

        def q1(x, y):
            return kapf(phif(x, y)) * d(phif, 0, x, y)

        def q2(x, y):
            return kapf(phif(x, y)) * d(phif, 1, x, y)

        conv = u1(X, Y) * d(phif, 0, X, Y) + u2(X, Y) * d(phif, 1, X, Y)
        rg = -(d(q1, 0, X, Y) + d(q2, 1, X, Y)) + conv
        res_h = abs(float(rg) - float(g(np.array([x0]), np.array([y0]))[0]))
    return res_m, res_h


# ---------------------------------------------------------------------------
# brute-force local form matrices (criterion-2 style oracle)
# ---------------------------------------------------------------------------

def oracle_local_matrices(pts, k, spec, phi_coeffs, u_coeffs):
    """Brute-force local matrices from independently built projectors."""
    el = OracleElement(pts, k)
    n = el.n_dof
    qp, qw = el.qp, el.qw
    # dense projectors, one dof at a time
    P_nab = np.column_stack([el.pi_nabla(np.eye(n)[i]) for i in range(n)])
    P_zero = np.column_stack([el.pi_zero(np.eye(n)[i]) for i in range(n)])
    G_lo = [np.column_stack([el.pi_grad(np.eye(n)[i], k - 1)[c] for i in range(n)])
            for c in range(2)]
    G_hi = [np.column_stack([el.pi_grad(np.eye(n)[i], k)[c] for i in range(n)])
            for c in range(2)]
    D = np.zeros((n, poly_dim(k)))
    D[:el.nv * k if k > 1 else el.nv] = 0.0
    # dof matrix: point dofs + scaled moments, via oracle quadrature
    pts_dofs = [pts[i] for i in range(el.nv)]
    for i in range(el.nv):
        a, b = pts[i], pts[(i + 1) % el.nv]
        for t in edge_internal_params(k):
            pts_dofs.append(a + t * (b - a))
    Pd = np.asarray(pts_dofs)
    D[:len(Pd)] = el.mono(Pd)
    if poly_dim(k - 2):
        mono = el.mono(qp)
        D[len(Pd):] = (mono[:, :poly_dim(k - 2)].T @ (qw[:, None] * mono)) / el.area
    S = (np.eye(n) - D @ P_nab).T @ (np.eye(n) - D @ P_nab)
    Pn_lo = np.column_stack([el.pi_nabla(np.eye(n)[i], k - 1) for i in range(n)])
    S_lo = (np.eye(n) - D[:, :poly_dim(k - 1)] @ Pn_lo).T @ \
           (np.eye(n) - D[:, :poly_dim(k - 1)] @ Pn_lo)

    mono_lo = el.mono(qp, k - 1)
    mono_k = el.mono(qp, k)
    mu_q = spec.viscosity(mono_k @ phi_coeffs)
    mu0 = float(spec.viscosity(np.array([float(
        (qw @ (mono_k @ phi_coeffs)) / el.area)]))[0])
    e11 = mono_lo @ np.hstack([G_lo[0], np.zeros_like(G_lo[0])])
    e22 = mono_lo @ np.hstack([np.zeros_like(G_lo[1]), G_lo[1]])
    e12 = 0.5 * (mono_lo @ np.hstack([G_lo[1], G_lo[0]]))
    wmu = qw * mu_q
    visc = (e11 * wmu[:, None]).T @ e11 + (e22 * wmu[:, None]).T @ e22 \
        + 2.0 * (e12 * wmu[:, None]).T @ e12
    visc[:n, :n] += mu0 * S
    visc[n:, n:] += mu0 * S

    div_lo = mono_lo @ np.hstack([G_lo[0], G_lo[1]])
    qvals = mono_k @ P_zero
    bdiv = (qvals * qw[:, None]).T @ div_lo

    kap = spec.conductivity
    kq = kap(mono_k @ phi_coeffs)
    k0 = float(kap(np.array([float((qw @ (mono_k @ phi_coeffs)) / el.area)]))[0])
    gxv = mono_lo @ G_lo[0]
    gyv = mono_lo @ G_lo[1]
    temp = (gxv * (qw * kq)[:, None]).T @ gxv + (gyv * (qw * kq)[:, None]).T @ gyv + k0 * S

    V1 = mono_k @ u_coeffs[0]
    V2 = mono_k @ u_coeffs[1]
    conv1 = (qvals * qw[:, None]).T @ ((V1[:, None] * gxv) + (V2[:, None] * gyv))
    conv = conv1 if spec.convection_form == "convective" else 0.5 * (conv1 - conv1.T)

    t1, t2, t3 = spec.taus(el.diam)
    fx = mono_k @ G_hi[0] - mono_lo @ G_lo[0]
    fy = mono_k @ G_hi[1] - mono_lo @ G_lo[1]
    l2 = t2 * ((fx * qw[:, None]).T @ fx + (fy * qw[:, None]).T @ fy + S_lo)
    l3 = t3 * ((fx * qw[:, None]).T @ fx + (fy * qw[:, None]).T @ fy + S)
    divh = mono_k @ np.hstack([G_hi[0], G_hi[1]])
    fdiv = divh - div_lo
    S2 = np.zeros((2 * n, 2 * n))
    S2[:n, :n] = S
    S2[n:, n:] = S
    l1 = t1 * ((fdiv * qw[:, None]).T @ fdiv + S2)
    return {"viscous": visc, "divergence": bdiv, "temperature": temp,
            "convection": conv, "lps1": l1, "lps2": l2, "lps3": l3}


# ---------------------------------------------------------------------------
# per-cell reference of the element operators
# ---------------------------------------------------------------------------

def _edge_rule(k: int):
    n = k + 2
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def reference_cell_ops(pts, k: int, quad_degree: int | None = None,
                       cell_id: int = 0) -> SimpleNamespace:
    """Every projector, fluctuation map and stabilizer on one cell, built cell
    by cell from the stacked library helpers with a stack of one (the
    reference for the grouped construction of ``build_mesh_ops``).

    The array fields are those of ``GroupOps`` without the cell axis;
    ``geom`` is the one-cell ``CellGroup``, and ``mono``/``mono_grad`` evaluate
    the cell's scaled monomials of a given degree at points (n, 2).
    """
    if quad_degree is None:
        quad_degree = 2 * k + 2
    geom = CellGroup(np.array([cell_id]), np.asarray(pts, dtype=float)[None])
    verts = geom.vertices[0]
    edge_lengths, edge_normals = geom.edge_lengths[0], geom.edge_normals[0]
    area, diameter = float(geom.area[0]), float(geom.diameter[0])
    nv = len(verts)
    nk = poly_dim(k)
    nk1 = poly_dim(k - 1)
    nk2 = poly_dim(k - 2)
    n_dof = nv * k + nk2

    def mono(deg, x):
        return monomial_values(deg, np.atleast_2d(x)[None], geom.centroid, [diameter])[0]

    def mono_grad(deg, x):
        return monomial_gradients(deg, np.atleast_2d(x)[None], geom.centroid, [diameter])[0]

    qpts, qw = (a[0] for a in build_quadrature(geom.vertices, geom.triangles, quad_degree,
                                               geom.cell_ids))
    Phi = mono(k, qpts)
    H = mass_matrix(Phi[None], qw[None])[0]
    Gt = stiffness_matrix(mono_grad(k, qpts)[None], qw[None])[0]
    Phi_lo = Phi[:, :nk1]

    # --- boundary trace machinery -----------------------------------------
    tq, tw = _edge_rule(k)
    params = eo.edge_internal_params(k)
    nodes = np.array([0.0] + params + [1.0])
    lag = eo._lagrange_values(nodes, tq)          # (nq_e, k+1)
    # local ids of the trace nodes on edge i: [v_i, edge block, v_{i+1}]
    def edge_trace_dofs(i):
        out = [i]
        out.extend(nv + i * (k - 1) + np.arange(k - 1))
        out.append((i + 1) % nv)
        return np.array(out, dtype=int)

    perimeter = float(edge_lengths.sum())
    # boundary integrals: bmean[j] = (1/|dE|) * int_dE phi_j ds  and the flux
    # tables used by the B matrices
    bmean = np.zeros(n_dof)
    edge_pts = []      # quadrature points per edge
    edge_wts = []      # physical weights per edge
    edge_dof_tab = []  # trace dof ids per edge
    for i in range(nv):
        a = verts[i]
        b = verts[(i + 1) % nv]
        epts = a[None, :] + tq[:, None] * (b - a)[None, :]
        wts = tw * edge_lengths[i]
        dofs = edge_trace_dofs(i)
        bmean[dofs] += lag.T @ wts / perimeter
        edge_pts.append(epts)
        edge_wts.append(wts)
        edge_dof_tab.append(dofs)

    moment_cols = nv * k + np.arange(nk2)

    def poly_boundary_mean(deg):
        vals = np.zeros(poly_dim(deg))
        for i in range(nv):
            vals += edge_wts[i] @ mono(deg, edge_pts[i])
        return vals / perimeter

    # --- dof matrix: dof_i(m_a), shape (n_dof, nk) ----------------------------
    D = np.zeros((n_dof, nk))
    D[:nv, :] = mono(k, verts)
    if k > 1:
        for i in range(nv):
            a = verts[i]
            b = verts[(i + 1) % nv]
            ipts = a[None, :] + np.asarray(params)[:, None] * (b - a)[None, :]
            D[nv + i * (k - 1):nv + (i + 1) * (k - 1), :] = mono(k, ipts)
    if nk2:
        D[moment_cols, :] = (Phi[:, :nk2].T @ (qw[:, None] * Phi)) / area

    def pi_nabla_matrix(deg: int) -> np.ndarray:
        """Energy projector onto P_deg (deg <= k) as a coeff map."""
        nd = poly_dim(deg)
        G = Gt[:nd, :nd].copy()
        B = np.zeros((nd, n_dof))
        lap = laplacian_ref(deg) / diameter ** 2          # (dim P_{deg-2}, nd)
        if lap.shape[0]:
            B[:, moment_cols[:lap.shape[0]]] = -area * lap.T
        for i in range(nv):
            gm = mono_grad(deg, edge_pts[i])             # (nq_e, nd, 2)
            flux = gm @ edge_normals[i]                  # (nq_e, nd)
            B[:, edge_dof_tab[i]] += flux.T @ (edge_wts[i][:, None] * lag)
        # constant mode fixed by the boundary mean
        G[0, :] = poly_boundary_mean(deg)
        B[0, :] = bmean
        try:
            return np.linalg.solve(G, B)
        except np.linalg.LinAlgError as exc:
            raise eo.ElementError(
                f"cell {cell_id}: energy projector rank-deficient") from exc

    P_nabla = pi_nabla_matrix(k)
    if k == 1:
        # energy projection onto constants is the boundary mean
        P_nabla_lo = bmean[None, :].copy()
    else:
        P_nabla_lo = pi_nabla_matrix(k - 1)

    # --- computable moments up to degree k (enhancement) -------------------
    moments = np.zeros((nk, n_dof))
    if nk2:
        moments[:nk2, moment_cols] = area * np.eye(nk2)
    HP = H @ P_nabla
    moments[nk2:, :] = HP[nk2:, :]
    P_zero = np.linalg.solve(H, moments)

    # --- gradient projections ----------------------------------------------
    def grad_projection(deg: int):
        """L2 projection of the gradient onto [P_deg]^2, deg in {k-1, k}."""
        nd = poly_dim(deg)
        N = [np.zeros((nd, n_dof)), np.zeros((nd, n_dof))]
        for comp, Dref in enumerate(grad_coeff_ref(deg)):   # (dim P_{deg-1}, nd)
            Dc = Dref / diameter
            if Dc.shape[0]:
                # moments of w against M_{deg-1} are computable rows
                N[comp] -= Dc.T @ moments[:Dc.shape[0], :]
            for i in range(nv):
                mv = mono(deg, edge_pts[i])              # (nq_e, nd)
                nrm = edge_normals[i][comp]
                N[comp][:, edge_dof_tab[i]] += nrm * (mv.T @ (edge_wts[i][:, None] * lag))
        Hd = H[:nd, :nd]
        return tuple(np.linalg.solve(Hd, Nc) for Nc in N)

    P_grad = grad_projection(k - 1)
    P_grad_hi = grad_projection(k)
    pad = np.zeros((nk - nk1, n_dof))
    R_grad = tuple(P_grad_hi[c] - np.vstack([P_grad[c], pad]) for c in (0, 1))

    # divergence of [u1; u2]: the moment equations add componentwise, so the
    # projected divergence is [d/dx block | d/dy block]
    Div_lo = np.hstack([P_grad[0], P_grad[1]])
    Div_hi = np.hstack([P_grad_hi[0], P_grad_hi[1]])
    R_div = Div_hi - np.vstack([Div_lo, np.zeros((nk - nk1, 2 * n_dof))])

    # --- stabilizers --------------------------------------------------------
    Pdof = D @ P_nabla
    S = (np.eye(n_dof) - Pdof).T @ (np.eye(n_dof) - Pdof)
    Pdof_lo = D[:, :nk1] @ P_nabla_lo
    S_lo = (np.eye(n_dof) - Pdof_lo).T @ (np.eye(n_dof) - Pdof_lo)
    S = 0.5 * (S + S.T)
    S_lo = 0.5 * (S_lo + S_lo.T)

    int_m = qw @ Phi
    Pq = Phi @ P_zero
    Gq = tuple(Phi_lo @ P_grad[c] for c in (0, 1))

    return SimpleNamespace(
        geom=geom, mono=mono, mono_grad=mono_grad, cell_id=cell_id, k=k, n_dof=n_dof,
        area=area, diameter=diameter, qpts=qpts, qw=qw, H=H, D=D, P_nabla=P_nabla,
        P_zero=P_zero, P_grad=P_grad, R_grad=R_grad, Div_lo=Div_lo, R_div=R_div,
        S=S, S_lo=S_lo, int_m=int_m, Phi=Phi, Phi_lo=Phi_lo, Pq=Pq, Gq=Gq)


def cell_views(mops) -> list[SimpleNamespace]:
    """Every cell's operators in mesh order, as views into its group's
    arrays: each ``GroupOps`` field (the virtual element operators, no
    bilinear form) without the cell axis, with ``cell_id`` for ``cell_ids``
    and Python floats for ``area`` and ``diameter``."""
    out = [None] * mops.mesh.n_cells
    for g in mops.groups:
        for j, ci in enumerate(g.cell_ids.tolist()):
            view = SimpleNamespace(cell_id=ci)
            for f in dataclasses.fields(g):
                val = getattr(g, f.name)
                if f.name == "cell_ids":
                    continue
                if isinstance(val, tuple):
                    val = tuple(v[j] for v in val)
                elif isinstance(val, np.ndarray):
                    val = val[j].item() if val.ndim == 1 else val[j]
                setattr(view, f.name, val)
            out[ci] = view
    return out


# ---------------------------------------------------------------------------
# cell-by-cell reference of the global assembly
# ---------------------------------------------------------------------------

def _reference_coefficient_values(coef, ops, phi_coeffs, what):
    vals = np.asarray(coef(ops.Phi @ phi_coeffs), dtype=float)
    c0 = float(coef(np.array([phi_coeffs @ ops.int_m / ops.area]))[0])
    lo, hi = coef.lower * (1 - 1e-9), coef.upper * (1 + 1e-9)
    vmin, vmax = min(vals.min(), c0), max(vals.max(), c0)
    if not (lo <= vmin and vmax <= hi):
        bad = float(vmax if lo <= vmin else vmin)
        raise forms.ConfigurationError(
            f"cell {ops.cell_id}: {what} value {bad:g} outside "
            f"declared bounds [{coef.lower:g}, {coef.upper:g}]")
    return vals, c0


def reference_local_viscous(ops, spec, phi_coeffs):
    mu_q, mu0 = _reference_coefficient_values(spec.viscosity, ops, phi_coeffs, "viscosity")
    w = ops.qw * mu_q
    Hmu = ops.Phi_lo.T @ (w[:, None] * ops.Phi_lo)
    gx, gy = ops.P_grad
    z = np.zeros_like(gx)
    e11, e22, e12 = np.hstack([gx, z]), np.hstack([z, gy]), 0.5 * np.hstack([gy, gx])
    A = e11.T @ Hmu @ e11 + e22.T @ Hmu @ e22 + 2.0 * (e12.T @ Hmu @ e12)
    n = ops.n_dof
    A[:n, :n] += mu0 * ops.S
    A[n:, n:] += mu0 * ops.S
    return 0.5 * (A + A.T)


def reference_local_diffusion_unit(ops):
    nk1 = ops.Phi_lo.shape[1]
    return sum(ops.P_grad[c].T @ ops.H[:nk1, :nk1] @ ops.P_grad[c] for c in (0, 1)) + ops.S


def reference_local_divergence(ops):
    return ops.P_zero.T @ ops.H[:ops.Phi_lo.shape[1], :].T @ ops.Div_lo


def reference_local_lps(ops, spec):
    """(L1, L2, L3) of one cell with its taus applied."""
    t1, t2, t3 = spec.taus(ops.diameter)
    n = ops.n_dof
    RHR = sum(ops.R_grad[c].T @ ops.H @ ops.R_grad[c] for c in (0, 1))
    S2 = np.zeros((2 * n, 2 * n))
    S2[:n, :n] = ops.S
    S2[n:, n:] = ops.S
    return (t1 * (ops.R_div.T @ ops.H @ ops.R_div + S2), t2 * (RHR + ops.S_lo),
            t3 * (RHR + ops.S))


def reference_local_temperature(ops, spec, phi_coeffs=None):
    kappa = spec.conductivity
    if kappa.is_constant:
        return kappa.lower * reference_local_diffusion_unit(ops)
    if phi_coeffs is None:
        raise forms.ConfigurationError("nonlinear conductivity needs a temperature iterate")
    k_q, k0 = _reference_coefficient_values(kappa, ops, phi_coeffs, "conductivity")
    w = ops.qw * k_q
    Hk = ops.Phi_lo.T @ (w[:, None] * ops.Phi_lo)
    gx, gy = ops.P_grad
    A = gx.T @ Hk @ gx + gy.T @ Hk @ gy + k0 * ops.S
    return 0.5 * (A + A.T)


def reference_local_convection(ops, u_coeffs, form="skew"):
    V1 = ops.Phi @ u_coeffs[0]
    V2 = ops.Phi @ u_coeffs[1]
    w = ops.qw
    conv = ops.Pq.T @ ((w * V1)[:, None] * ops.Gq[0] + (w * V2)[:, None] * ops.Gq[1])
    if form == "convective":
        return conv
    return 0.5 * (conv - conv.T)


def _reference_check_finite(vals, ops, what):
    """A quadrature point is bad when any component of the field is not finite."""
    vals = np.asarray(vals, dtype=float)
    finite = np.isfinite(vals.reshape(-1, len(ops.qpts))).all(axis=0)
    if not finite.all():
        bad = ops.qpts[~finite][0]
        raise forms.ConfigurationError(
            f"{what} is not finite near ({bad[0]:.6g}, {bad[1]:.6g})")
    return vals


def reference_local_loads(ops, spec):
    x, y = ops.qpts[:, 0], ops.qpts[:, 1]
    w = ops.qw
    n = ops.n_dof
    rhs_m = np.zeros(2 * n)
    if spec.fixed_source is not None:
        F = _reference_check_finite(spec.fixed_source(x, y), ops, "momentum source")
        rhs_m[:n] += ops.Pq.T @ (w * F[0])
        rhs_m[n:] += ops.Pq.T @ (w * F[1])
    rhs_h = np.zeros(n)
    if spec.heat_source is not None:
        gv = _reference_check_finite(spec.heat_source(x, y), ops, "heat source")
        rhs_h = ops.Pq.T @ (w * gv)
    return rhs_m, rhs_h


def reference_assembly(mops, spec, u=None, phi=None) -> dict:
    """Every global block and right-hand side of ``forms.Assembler`` for the
    iterate (u, phi), assembled cell by cell in mesh order (the reference for
    the grouped assembly)."""
    N = mops.n_scalar
    u = np.zeros(2 * N) if u is None else u
    phi = np.zeros(N) if phi is None else phi
    cells = cell_views(mops)
    cdofs = [ops.dofs for ops in cells]
    vdofs = [np.concatenate([cd, cd + N]) for cd in cdofs]

    def block(vals, rows, cols, shape):
        r = np.concatenate([np.repeat(rd, len(cd)) for rd, cd in zip(rows, cols)])
        c = np.concatenate([np.tile(cd, len(rd)) for rd, cd in zip(rows, cols)])
        v = np.concatenate([a.ravel() for a in vals])
        return sparse.coo_matrix((v, (r, c)), shape=shape).tocsr()

    def scalar(vals):
        return block(vals, cdofs, cdofs, (N, N))

    def vector(vals):
        return block(vals, vdofs, vdofs, (2 * N, 2 * N))

    phi_c = [ops.P_zero @ phi[cd] for ops, cd in zip(cells, cdofs)]
    u_c = [np.vstack([ops.P_zero @ u[cd], ops.P_zero @ u[cd + N]])
           for ops, cd in zip(cells, cdofs)]
    lps = [reference_local_lps(ops, spec) for ops in cells]
    mean = np.zeros(N)
    for ops, cd in zip(cells, cdofs):
        mean[cd] += ops.P_zero.T @ ops.int_m
    L1 = vector([L[0] for L in lps])
    out = {
        "L1": L1,
        "L2": scalar([L[1] for L in lps]),
        "L3": scalar([L[2] for L in lps]),
        "B": block([reference_local_divergence(ops) for ops in cells], cdofs, vdofs,
                   (N, 2 * N)),
        "h1_surrogate": scalar([reference_local_diffusion_unit(ops) for ops in cells]),
        "mass0": scalar([ops.P_zero.T @ ops.H @ ops.P_zero for ops in cells]),
        "mean_row": mean,
        "A_uu": (vector([reference_local_viscous(o, spec, c)
                         for o, c in zip(cells, phi_c)]) + L1).tocsr(),
        "A_TT": scalar([reference_local_temperature(o, spec, c)
                        for o, c in zip(cells, phi_c)]),
        "C": scalar([reference_local_convection(o, c, spec.convection_form)
                     for o, c in zip(cells, u_c)]),
    }
    rhs_m, rhs_h = np.zeros(2 * N), np.zeros(N)
    for ops, cd, vd in zip(cells, cdofs, vdofs):
        rm, rh = reference_local_loads(ops, spec)
        rhs_m[vd] += rm
        rhs_h[cd] += rh
    out["rhs_momentum"], out["rhs_heat"] = rhs_m, rhs_h
    return out


# ---------------------------------------------------------------------------
# cell-by-cell reference of the error norms and the exported vertex fields
# ---------------------------------------------------------------------------

def reference_errors(state, exact, mops, phi_reference=None):
    """(``ErrorBundle`` fields as a dict, vertex fields (n_vertices, 4)) of
    ``postprocess.compute_errors`` and ``postprocess._vertex_fields``,
    computed cell by cell in mesh order on ``reference_cell_ops``, with the
    gradients of the energy projection taken from the monomial gradients."""
    mesh, lay, N = mops.mesh, mops.layout, mops.n_scalar
    cells = [reference_cell_ops(mesh.vertices[c], mops.k, cell_id=ci)
             for ci, c in enumerate(mesh.cells)]
    cdofs = [lay.group_dofs([ci])[0] for ci in range(mesh.n_cells)]
    have = exact is not None
    p_shift = 0.0
    if have and exact.p is not None:
        total = area = 0.0
        for ops in cells:
            total += float(ops.qw @ exact.p(ops.qpts[:, 0], ops.qpts[:, 1]))
            area += ops.area
        p_shift = total / area
    eu1 = eu0 = ep = et1 = et0 = div2 = 0.0
    for ops, cd in zip(cells, cdofs):
        w = ops.qw
        x, y = ops.qpts[:, 0], ops.qpts[:, 1]
        u_loc = np.concatenate([state.u[cd], state.u[cd + N]])
        dcoef = ops.Div_lo @ u_loc
        div2 += float(dcoef @ ops.H[:len(dcoef), :len(dcoef)] @ dcoef)
        if not have:
            continue
        dphi_tab = ops.mono_grad(mops.k, ops.qpts)          # (nq, nk, 2)
        if exact.u is not None:
            ue = np.asarray(exact.u(x, y), dtype=float)
            gue = np.asarray(exact.grad_u(x, y), dtype=float)
            for comp, dof in enumerate((state.u[cd], state.u[cd + N])):
                gh = np.einsum("qad,a->qd", dphi_tab, ops.P_nabla @ dof)
                eu1 += float(w @ ((gue[comp, 0] - gh[:, 0]) ** 2
                                  + (gue[comp, 1] - gh[:, 1]) ** 2))
                eu0 += float(w @ (ue[comp] - ops.Pq @ dof) ** 2)
        if exact.p is not None:
            pe = np.asarray(exact.p(x, y), dtype=float) - p_shift
            ep += float(w @ (pe - ops.Pq @ state.p[cd]) ** 2)
        if exact.phi is not None:
            gh = np.einsum("qad,a->qd", dphi_tab, ops.P_nabla @ state.phi[cd])
            gte = np.asarray(exact.grad_phi(x, y), dtype=float)
            et1 += float(w @ ((gte[0] - gh[:, 0]) ** 2 + (gte[1] - gh[:, 1]) ** 2))
            te = np.asarray(exact.phi(x, y), dtype=float)
            et0 += float(w @ (te - ops.Pq @ state.phi[cd]) ** 2)

    ref = phi_reference if phi_reference is not None else (exact.phi if have else None)
    if ref is None:
        dev_min = dev_max = 0.0
    else:
        coords = lay.point_dof_coords()
        ref_vals = (np.full(len(coords), float(ref)) if np.isscalar(ref)
                    else np.asarray(ref(coords[:, 0], coords[:, 1]), dtype=float))
        dev = state.phi[:lay.n_point] - ref_vals
        dev_min, dev_max = float(dev.min()), float(dev.max())
    has_u = have and exact.u is not None
    has_p = have and exact.p is not None
    has_phi = have and exact.phi is not None
    errors = {"e_u_h1": math.sqrt(eu1) if has_u else None,
              "e_u_l2": math.sqrt(eu0) if has_u else None,
              "e_p_l2": math.sqrt(ep) if has_p else None,
              "e_phi_h1": math.sqrt(et1) if has_phi else None,
              "e_phi_l2": math.sqrt(et0) if has_phi else None,
              "div_violation": math.sqrt(div2), "phi_dev_min": dev_min,
              "phi_dev_max": dev_max}

    acc = np.zeros((mesh.n_vertices, 4))
    cnt = np.zeros(mesh.n_vertices)
    for ci, (ops, cd) in enumerate(zip(cells, cdofs)):
        cell = mesh.cells[ci]
        vals = ops.mono(mops.k, mesh.vertices[cell])       # (nvc, nk)
        u1 = vals @ (ops.P_nabla @ state.u[cd])
        u2 = vals @ (ops.P_nabla @ state.u[cd + N])
        pv = vals @ (ops.P_zero @ state.p[cd])
        tv = vals @ (ops.P_zero @ state.phi[cd])
        acc[cell] += np.column_stack([u1, u2, pv, tv])
        cnt[cell] += 1.0
    return errors, acc / cnt[:, None]


# ---------------------------------------------------------------------------
# helpers that only tests use: rates, energy norms, vector interpolation
# ---------------------------------------------------------------------------

def observed_rates(hs, errors):
    """rate_i = log(e_i / e_{i+1}) / log(h_i / h_{i+1}); inf for zero coarse error."""
    hs = list(hs)
    es = list(errors)
    if len(hs) != len(es) or len(hs) < 2:
        raise ValueError("need matching h/error sequences of length >= 2")
    out = []
    for i in range(len(hs) - 1):
        if es[i + 1] == 0.0:
            out.append(math.inf)
        elif es[i] == 0.0:
            out.append(-math.inf)
        else:
            out.append(math.log(es[i] / es[i + 1]) / math.log(hs[i] / hs[i + 1]))
    return out


def mass0(asm) -> sparse.csr_matrix:
    """Global mass matrix of Pi0_k p, assembled group by group."""
    return asm._scalar.assemble([g.P_zero.transpose(0, 2, 1) @ g.H @ g.P_zero
                                 for g in asm.groups])


def triple_up(asm, u: np.ndarray, p: np.ndarray) -> float:
    """Energy-surrogate norm of (u, p): mu.lower |u|_1^2 + |Pi0_k p|_0^2 + the
    LPS terms L1 and L2."""
    N = asm.N
    h1_sq = lambda w: float(w @ (asm.h1_surrogate @ w))
    v = (asm.spec.viscosity.lower * (h1_sq(u[:N]) + h1_sq(u[N:]))
         + float(p @ (mass0(asm) @ p))
         + float(u @ (asm.L1 @ u)) + float(p @ (asm.L2 @ p)))
    return np.sqrt(max(v, 0.0))


def energy_norms(state, asm) -> tuple[float, float]:
    """Mesh-dependent energy norms of ((u, p), phi) via computable surrogates."""
    return triple_up(asm, state.u, state.p), solver.temperature_norm(asm, state.phi)


def reference_eliminated(system, regularize: bool = False):
    """The free-free block (CSC) and the Dirichlet shift on the free dofs of
    a Stokes or transport system, built the way the solver once built them
    on every sweep: the saddle matrix by ``bmat`` (plus ``eps`` on the
    pressure diagonal when ``regularize``), or the sum A_TT + C + L3, then
    ``K @ xfix``, ``K[free][:, free]`` and ``tocsc``.  Sparse sums drop the
    entries that sum to exactly zero.  The reference for the matrices the
    solver fills on its fixed pattern."""
    if hasattr(system, "A_uu"):
        N = len(system.mean_row)
        K = sparse.bmat([[system.A_uu, -system.B.T], [system.B, system.L2]], format="csr")
        if regularize:
            eps = 1e-10 * max(1.0, abs(system.A_uu).max())
            pressure = np.arange(2 * N, 3 * N)
            K = K + sparse.csr_matrix((np.full(N, eps), (pressure, pressure)), shape=K.shape)
        du = system.dirichlet_u
        free = np.concatenate([du.free, np.arange(2 * N + 1, 3 * N)])
        xfix = np.zeros(3 * N)
        xfix[du.fixed] = du.values[du.fixed]
    else:
        K = (system.A_TT + system.C + system.L3).tocsr()
        free, xfix = system.dirichlet_phi.free, system.dirichlet_phi.values
    return K[free][:, free].tocsc(), (K @ xfix)[free]


def reference_picard(spec, mops, tol: float = 1e-7, max_iter: int = 50):
    """The Picard loop from zero fields with an exact Stokes solve on every
    sweep: each sweep calls ``solve_stokes`` without loop state, so it
    factors its own system (and falls back to the regularized one on its
    own).  Returns (CoupledState, increment history)."""
    asm = forms.Assembler(mops, spec)
    N = asm.N

    def sweep(u_in, phi_in):
        u_new, p_new, _ = solver.solve_stokes(asm.build_stokes(phi_in))
        phi_new, _ = solver.solve_temperature(asm.build_transport(u_new, phi_in))
        return u_new, p_new, phi_new

    u, p, phi = np.zeros(2 * N), np.zeros(N), np.zeros(N)
    history = []
    for _ in range(max_iter):
        u_new, p_new, phi_new = sweep(u, phi)
        history.append(float(solver.temperature_norm(asm, phi_new - phi)
                             + solver.velocity_norm(asm, u_new - u)))
        u, p, phi = u_new, p_new, phi_new
        if history[-1] <= tol:
            break
    return solver.CoupledState(u=u, p=p, phi=phi), history


def interpolate_scalar(mops, f) -> np.ndarray:
    """Dof vector of a smooth function (point values + scaled moments); ``f``
    is called once for the point dofs and once per group."""
    lay = mops.layout
    out = np.zeros(lay.n_scalar)
    pts = lay.point_dof_coords()
    out[:lay.n_point] = f(pts[:, 0], pts[:, 1])
    nmom = lay.n_moment_per_cell
    if nmom:
        for g in mops.groups:
            x, y = g.qpts[..., 0].ravel(), g.qpts[..., 1].ravel()
            vals = np.broadcast_to(np.asarray(f(x, y), dtype=float), x.shape)
            mom = ((g.qw * vals.reshape(g.qw.shape))[:, None, :] @ g.Phi[..., :nmom])[:, 0]
            out[g.dofs[:, -nmom:]] = mom / g.area[:, None]
    return out


def interpolate_vector(mops, f1, f2) -> np.ndarray:
    """Dof vector of the smooth vector field (f1, f2)."""
    return np.concatenate([interpolate_scalar(mops, f1), interpolate_scalar(mops, f2)])


# ---------------------------------------------------------------------------
# polygon helpers and shape-regularity checks, one polygon at a time
# ---------------------------------------------------------------------------

def polygon_diameter(pts: np.ndarray) -> float:
    d = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((d ** 2).sum(-1)).max())


def _point_in_triangle(p, a, b, c, eps=1e-14):
    def cross(o, u, v):
        return (u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0])
    d1, d2, d3 = cross(a, b, p), cross(b, c, p), cross(c, a, p)
    return d1 >= -eps and d2 >= -eps and d3 >= -eps


def ear_clip(pts: np.ndarray) -> list[tuple[int, int, int]]:
    """Triangulate a simple CCW polygon into index triples by ear clipping."""
    n = len(pts)
    if n < 3:
        raise GeometryError("polygon with fewer than 3 vertices")
    tol = 1e-14 * polygon_diameter(pts) ** 2
    p = np.asarray(pts, dtype=float).tolist()
    idx = list(range(n))
    tris: list[tuple[int, int, int]] = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 4 * n * n:
            raise GeometryError("ear clipping failed; polygon may be non-simple")
        m = len(idx)
        clipped = False
        for k in range(m):
            i0, i1, i2 = idx[(k - 1) % m], idx[k], idx[(k + 1) % m]
            a, b, c = p[i0], p[i1], p[i2]
            cr = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cr <= tol:
                continue  # reflex or degenerate corner, not an ear
            ok = True
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                if _point_in_triangle(p[j], a, b, c):
                    ok = False
                    break
            if ok:
                tris.append((i0, i1, i2))
                idx.pop(k)
                clipped = True
                break
        if not clipped:
            raise GeometryError("ear clipping failed; polygon may be non-simple")
    tris.append((idx[0], idx[1], idx[2]))
    return tris


def polygon_signed_area(pts: np.ndarray) -> float:
    # shoelace about the first vertex: raw coordinates far from the origin
    # cancel catastrophically on small cells
    rel = pts - pts[0]
    x, y = rel[:, 0], rel[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def cell_areas(mesh) -> np.ndarray:
    """Signed area of every cell, in mesh order."""
    return np.array([polygon_signed_area(mesh.vertices[c]) for c in mesh.cells])


def polygon_kernel(pts: np.ndarray) -> np.ndarray | None:
    """Intersection of the inner half-planes of all edges (kernel polygon).

    Returns None when the polygon is not star-shaped.
    """
    poly = [tuple(p) for p in pts]
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        # keep points left of the directed edge a->b
        nx, ny = a[1] - b[1], b[0] - a[0]  # inward normal for CCW loop
        off = nx * a[0] + ny * a[1]
        new: list[tuple[float, float]] = []
        m = len(poly)
        for k in range(m):
            p, q = poly[k], poly[(k + 1) % m]
            sp = nx * p[0] + ny * p[1] - off
            sq = nx * q[0] + ny * q[1] - off
            if sp >= -1e-14:
                new.append(p)
            if (sp > 1e-14 and sq < -1e-14) or (sp < -1e-14 and sq > 1e-14):
                t = sp / (sp - sq)
                new.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        poly = new
        if len(poly) < 3:
            return None
    return np.asarray(poly)


def chebyshev_radius(pts: np.ndarray) -> float:
    """Radius of the largest ball inscribed in a convex polygon (via an LP)."""
    from scipy.optimize import linprog
    n = len(pts)
    A, b = [], []
    for i in range(n):
        p, q = pts[i], pts[(i + 1) % n]
        nx, ny = q[1] - p[1], -(q[0] - p[0])  # outward normal of CCW polygon
        ln = math.hypot(nx, ny)
        if ln < 1e-300:
            continue
        A.append([nx / ln, ny / ln, 1.0])
        b.append((nx * p[0] + ny * p[1]) / ln)
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=np.array(A), b_ub=np.array(b),
                  bounds=[(None, None), (None, None), (0, None)], method="highs")
    if not res.success:
        return 0.0
    return float(res.x[2])


@dataclasses.dataclass
class RegularityReport:
    gamma_edge: float
    gamma_star: float
    worst_cell: int


def check_regularity(mesh) -> RegularityReport:
    """Shape-regularity ratios: min(edge/h_E) and min(kernel inradius/h_E).

    Star-shapedness is assessed through the polygon kernel, which is exact for
    convex cells and conservative for concave ones.  Degenerate cells report a
    zero ratio instead of raising.
    """
    g_edge, g_star, worst = np.inf, np.inf, -1
    for ci, cell in enumerate(mesh.cells):
        pts = mesh.vertices[cell]
        try:
            hE = polygon_diameter(pts)
            d = np.roll(pts, -1, axis=0) - pts
            emin = float(np.hypot(d[:, 0], d[:, 1]).min())
            ge = emin / hE
            ker = polygon_kernel(pts)
            gs = 0.0 if ker is None else chebyshev_radius(ker) / hE
        except Exception:
            ge, gs = 0.0, 0.0
        if min(ge, gs) < min(g_edge, g_star):
            worst = ci
        g_edge = min(g_edge, ge)
        g_star = min(g_star, gs)
    return RegularityReport(float(g_edge), float(g_star), worst)


# ---------------------------------------------------------------------------
# loop-by-loop references of the mesh topology and generators
# ---------------------------------------------------------------------------

def reference_topology(vertices, cells):
    """(edges, edge_cells, cell_edges) built edge by edge with a dict, edges
    numbered by first appearance; raises the messages of ``PolyMesh``."""
    nv = len(vertices)
    edge_index: dict[tuple[int, int], int] = {}
    pairs: list[tuple[int, int]] = []
    adj: list[list[int]] = []
    cell_edges = []
    for ci, cell in enumerate(cells):
        cell = np.asarray(cell, dtype=int)
        if len(cell) < 3:
            raise GeometryError(f"cell {ci}: fewer than 3 vertices")
        if cell.min() < 0 or cell.max() >= nv:
            raise MeshFormatError(f"cell {ci}: bad vertex index {int(cell.max())}")
        if len(np.unique(cell)) != len(cell):
            raise GeometryError(f"cell {ci}: repeated vertex index")
        eids = np.empty(len(cell), dtype=int)
        for k in range(len(cell)):
            a, b = int(cell[k]), int(cell[(k + 1) % len(cell)])
            key = (min(a, b), max(a, b))
            eid = edge_index.get(key)
            if eid is None:
                eid = len(pairs)
                edge_index[key] = eid
                pairs.append(key)
                adj.append([])
            adj[eid].append(ci)
            eids[k] = eid
        cell_edges.append(eids)
    edges = np.asarray(pairs, dtype=int).reshape(-1, 2)
    ec = np.full((len(pairs), 2), -1, dtype=int)
    for eid, cs in enumerate(adj):
        if len(cs) > 2:
            raise GeometryError(f"edge {eid} shared by {len(cs)} cells")
        ec[eid, :len(cs)] = cs
    return edges, ec, cell_edges


def _reference_quad_cells(domain, nx, ny):
    xs = np.linspace(domain.x0, domain.x1, nx + 1)
    ys = np.linspace(domain.y0, domain.y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    vid = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
    cells = []
    for i in range(nx):
        for j in range(ny):
            if domain.notch is not None:
                xc, yc = 0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])
                if xc > domain.notch[0] and yc < domain.notch[1]:
                    continue
            cells.append(np.array([vid[i, j], vid[i + 1, j], vid[i + 1, j + 1], vid[i, j + 1]]))
    used = np.unique(np.concatenate(cells))
    remap = -np.ones(len(verts), dtype=int)
    remap[used] = np.arange(len(used))
    return verts[used], [remap[c] for c in cells], remap, vid


def reference_structured_mesh(family, domain, h, seed):
    """(vertices, cells) of a structured family, generated node by node and
    cell by cell."""
    def counts(hh):
        return max(1, round(domain.width / hh)), max(1, round(domain.height / hh))
    if family == "distorted_square":
        nx, ny = counts(h / 1.8)
        verts, cells, remap, vid = _reference_quad_cells(domain, nx, ny)
        s = min(domain.width / nx, domain.height / ny)
        rng = np.random.default_rng(seed)
        for i in range(1, nx):
            for j in range(1, ny):
                gid = remap[vid[i, j]]
                theta = rng.uniform(0.0, 2.0 * math.pi)
                rad = 0.3 * s * math.sqrt(rng.uniform())
                verts[gid, 0] += rad * math.cos(theta)
                verts[gid, 1] += rad * math.sin(theta)
        return verts, cells
    nx, ny = counts(h)
    verts, cells, remap, vid = _reference_quad_cells(domain, nx, ny)
    if family == "triangular":
        return verts, [t for q in cells for t in (q[[0, 1, 2]], q[[0, 2, 3]])]
    if family == "nonconvex":
        sx, sy = domain.width / nx, domain.height / ny
        for i in range(1, nx):
            for j in range(1, ny):
                gid = remap[vid[i, j]]
                sgn = 1.0 if (i + j) % 2 == 0 else -1.0
                verts[gid, 0] += sgn * 0.3 * sx
                verts[gid, 1] += sgn * 0.3 * sy
    return verts, cells


def reference_rect_markers(mesh, domain, tol):
    """Boundary markers of a mesh of a rectangle without a notch, by the wall
    that both end points of each boundary edge lie on."""
    v = mesh.vertices
    markers = {"left": [], "right": [], "bottom": [], "top": []}
    for eid in mesh.boundary_edge_ids():
        a, b = v[mesh.edges[eid]]
        if abs(a[0] - domain.x0) < tol and abs(b[0] - domain.x0) < tol:
            markers["left"].append(eid)
        elif abs(a[0] - domain.x1) < tol and abs(b[0] - domain.x1) < tol:
            markers["right"].append(eid)
        elif abs(a[1] - domain.y0) < tol and abs(b[1] - domain.y0) < tol:
            markers["bottom"].append(eid)
        elif abs(a[1] - domain.y1) < tol and abs(b[1] - domain.y1) < tol:
            markers["top"].append(eid)
        else:
            raise GeometryError("boundary edge not on any rectangle side")
    return {k: np.array(ids, dtype=int) for k, ids in markers.items() if ids}


def reference_hex_seeds(domain, h):
    s = math.sqrt(3.0) / 2.0 * h
    dy = s * math.sqrt(3.0) / 2.0
    ncol = max(1, round(domain.width / s))
    nrow = max(1, round(domain.height / dy))
    pts = []
    for j in range(nrow):
        y = domain.y0 + (j + 0.5) * domain.height / nrow
        off = 0.25 if j % 2 == 0 else 0.75
        for i in range(ncol):
            x = domain.x0 + (i + off) * domain.width / ncol
            pts.append((x, y))
    return np.array(pts), s


def reference_lloyd(points, domain, iters, band):
    """Lloyd steps on a fresh Voronoi diagram each, reading it region by
    region (a region that is unbounded or has fewer than 3 vertices keeps its
    seed).  The shoelace centroid is taken about the seed: about the origin
    it loses about eps * |x|^2 / area to cancellation."""
    from scipy.spatial import Voronoi
    n = len(points)
    pts = points.copy()
    for _ in range(iters):
        vor = Voronoi(geometry._mirror(pts, domain, band))
        flat, owner = [], []
        for i in range(n):
            reg = vor.regions[vor.point_region[i]]
            if -1 in reg or len(reg) < 3:
                continue
            nxt = reg[1:] + reg[:1]
            flat.extend(zip(reg, nxt))
            owner.extend([i] * len(reg))
        fe = np.asarray(flat)
        own = np.asarray(owner)
        a = vor.vertices[fe[:, 0]] - pts[own]
        b = vor.vertices[fe[:, 1]] - pts[own]
        cross = a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]
        area2 = np.zeros(n)
        cx = np.zeros(n)
        cy = np.zeros(n)
        np.add.at(area2, own, cross)
        np.add.at(cx, own, (a[:, 0] + b[:, 0]) * cross)
        np.add.at(cy, own, (a[:, 1] + b[:, 1]) * cross)
        ok = np.abs(area2) > 1e-300
        new = pts.copy()
        new[ok, 0] += cx[ok] / (3.0 * area2[ok])
        new[ok, 1] += cy[ok] / (3.0 * area2[ok])
        pts = new
    return pts


def _clip_halfplane(poly, px, py, qx, qy):
    """Keep the part of `poly` (list of xy tuples) closer to seed p than to q."""
    nx, ny = px - qx, py - qy  # points toward p's side
    off = nx * 0.5 * (px + qx) + ny * 0.5 * (py + qy)
    out = []
    m = len(poly)
    for k in range(m):
        ax, ay = poly[k]
        bx, by = poly[(k + 1) % m]
        sa = nx * ax + ny * ay - off
        sb = nx * bx + ny * by - off
        if sa >= 0.0:
            out.append((ax, ay))
        if (sa > 0.0 > sb) or (sa < 0.0 < sb):
            t = sa / (sa - sb)
            out.append((ax + t * (bx - ax), ay + t * (by - ay)))
    return out


def reference_voronoi(domain, h):
    """(vertices, cells) of the Lloyd-smoothed Voronoi mesh, each cell clipped
    from the rectangle by the bisectors of its neighbouring seeds, vertices
    identified on a grid of 1e-6 * s and numbered by first appearance.  The
    seeds are those of ``geometry._lloyd``, so that the cells compare to
    rounding (``reference_lloyd`` checks the seeds)."""
    from scipy.spatial import KDTree
    seeds, s = reference_hex_seeds(domain, h)
    seeds = geometry._lloyd(seeds, domain, band=3.0 * s)
    tree = KDTree(seeds)
    box = [(domain.x0, domain.y0), (domain.x1, domain.y0),
           (domain.x1, domain.y1), (domain.x0, domain.y1)]
    snap = 1e-6 * s
    vert_index: dict[tuple[int, int], int] = {}
    verts: list = []
    cells = []
    for i, neighbours in enumerate(tree.query_ball_point(seeds, 2.8 * s)):
        px, py = seeds[i]
        poly = list(box)
        for j in neighbours:
            if j != i:
                poly = _clip_halfplane(poly, px, py, seeds[j, 0], seeds[j, 1])
        ids = []
        for q in poly:
            key = (round(q[0] / snap), round(q[1] / snap))
            vid = vert_index.get(key)
            if vid is None:
                vid = len(verts)
                vert_index[key] = vid
                verts.append(q)
            if not ids or (vid != ids[-1] and vid != ids[0]):
                ids.append(vid)
        cells.append(np.array(ids))
    return np.asarray(verts), cells
