"""Per-element operators of the enhanced scalar virtual space of order k.

Every operator maps local degree-of-freedom vectors to polynomial coefficient
vectors in the scaled monomial basis.  Degrees of freedom per element: vertex
values, k-1 internal Gauss-Lobatto values per edge, and scaled internal
moments against monomials up to degree k-2.  The enhancement constraint (the
moments of w against monomials of degree k-1 and k equal those of its energy
projection) makes all maps below computable from the DOFs alone:

* ``P_nabla``      energy projection onto P_k
* ``P_zero``       L2 projection onto P_k
* ``P_grad``       componentwise L2 projection of the gradient onto P_{k-1}
* ``Div_lo``       the projected divergence of [u1; u2], built on ``P_grad``
* ``R_grad``       fluctuation of the gradient: its projection onto P_k minus
                   ``P_grad`` (``R_div`` likewise for the divergence)
* ``S``            dofi-dofi stabilizer of (I - Pi_nabla_k)
* ``S_lo``         dofi-dofi stabilizer of (I - Pi_nabla_{k-1})

``build_mesh_ops`` builds the operators one vertex-count group of cells at a
time, on arrays stacked along the cells (``GroupOps``); this is the only
representation of the element operators.  The bilinear forms built on them
live in ``forms``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CellGroup, PolyMesh
from .polybasis import (build_quadrature, condition_warnings, grad_coeff_ref, laplacian_ref,
                        mass_matrix, monomial_gradients, monomial_values, poly_dim,
                        stiffness_matrix)


class ElementError(RuntimeError):
    """Local construction failed (rank deficiency, degenerate data)."""


# internal Gauss-Lobatto parameters on (0,1) for the k+1 edge nodes
_GL_INTERNAL = {
    1: [],
    2: [0.5],
    3: [0.5 - 0.5 / math.sqrt(5.0), 0.5 + 0.5 / math.sqrt(5.0)],
}

SUPPORTED_ORDERS = tuple(sorted(_GL_INTERNAL))


def edge_internal_params(k: int) -> list[float]:
    if k not in _GL_INTERNAL:
        raise ValueError(f"order {k} not supported (orders {SUPPORTED_ORDERS})")
    return list(_GL_INTERNAL[k])


def _lagrange_values(nodes: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Values of the Lagrange basis on `nodes` at `pts`; shape (npts, nnodes)."""
    n = len(nodes)
    out = np.ones((len(pts), n))
    for i in range(n):
        for j in range(n):
            if i != j:
                out[:, i] *= (pts - nodes[j]) / (nodes[i] - nodes[j])
    return out


# ---------------------------------------------------------------------------
# global dof layout
# ---------------------------------------------------------------------------

@dataclass
class DofLayout:
    """Global numbering of the scalar space: vertices, edges, cell moments."""
    mesh: PolyMesh
    k: int
    n_scalar: int = field(init=False)
    n_point: int = field(init=False)

    def __post_init__(self):
        mesh, k = self.mesh, self.k
        self.n_moment_per_cell = poly_dim(k - 2)
        self.n_point = mesh.n_vertices + mesh.n_edges * (k - 1)
        self.n_scalar = self.n_point + mesh.n_cells * self.n_moment_per_cell
        self._params = np.asarray(edge_internal_params(k))

    def edge_dofs(self, eid: int) -> np.ndarray:
        k = self.k
        base = self.mesh.n_vertices + eid * (k - 1)
        return np.arange(base, base + (k - 1))

    def group_dofs(self, cell_ids) -> np.ndarray:
        """Global ids of cells with a common vertex count, one row per cell, in
        local order: vertices, edge nodes (traversal order), internal moments."""
        mesh, k = self.mesh, self.k
        ids = np.asarray(cell_ids, dtype=int).reshape(-1)
        loops = np.stack([mesh.cells[ci] for ci in ids])            # (m, nv)
        cols = [loops]
        if k > 1:
            eids = np.stack([mesh.cell_edges[ci] for ci in ids])
            base = (mesh.n_vertices + eids * (k - 1))[..., None]
            step = np.arange(k - 1)
            # an edge traversed against its canonical order lists its nodes reversed
            forward = (mesh.edges[eids, 0] == loops)[..., None]
            cols.append(np.where(forward, base + step, base + (k - 2 - step))
                        .reshape(len(ids), -1))
        nmom = self.n_moment_per_cell
        cols.append(self.n_point + ids[:, None] * nmom + np.arange(nmom))
        return np.concatenate(cols, axis=1)

    def constant(self) -> np.ndarray:
        """Dof vector of the constant function 1: 1 on the point dofs and on
        each cell's first moment, 0 on the moments of degree >= 1 (scaled
        monomials about the centroid, of zero cell mean)."""
        out = np.ones(self.n_scalar)
        out[self.n_point:].reshape(self.mesh.n_cells, self.n_moment_per_cell)[:, 1:] = 0.0
        return out

    def point_dof_coords(self) -> np.ndarray:
        """Coordinates of all point-valued dofs (vertex + edge nodes)."""
        mesh, k = self.mesh, self.k
        coords = [mesh.vertices]
        if k > 1:
            a = mesh.vertices[mesh.edges[:, 0]]
            b = mesh.vertices[mesh.edges[:, 1]]
            pts = np.stack([(1 - t) * a + t * b for t in self._params], axis=1)
            coords.append(pts.reshape(-1, 2))
        return np.vstack(coords)

    def marker_point_dofs(self, markers) -> np.ndarray:
        """Point dofs lying on the closure of the given boundary markers."""
        mesh = self.mesh
        out: set[int] = set()
        for name in markers:
            for eid in mesh.boundary_markers.get(name, []):
                a, b = mesh.edges[eid]
                out.add(int(a))
                out.add(int(b))
                out.update(int(d) for d in self.edge_dofs(eid))
        return np.array(sorted(out), dtype=int)


# ---------------------------------------------------------------------------
# stacked operators of a vertex-count group
# ---------------------------------------------------------------------------

@dataclass
class GroupOps:
    """Operators of a group of cells with a common vertex count, stacked along
    axis 0 in the order of ``cell_ids``.

    ``dofs`` holds the global scalar dofs of each cell in local order, the
    vertex ids first; ``qpts``/``qw`` are the quadrature rule of each cell.
    """
    cell_ids: np.ndarray            # (m,)
    area: np.ndarray                # (m,)
    diameter: np.ndarray            # (m,)
    k: int
    n_dof: int
    qpts: np.ndarray                # (m, nq, 2)
    qw: np.ndarray                  # (m, nq)
    # mass matrix of the monomial basis
    H: np.ndarray
    # dof matrix and projector matrices (dofs -> coefficients)
    D: np.ndarray
    P_nabla: np.ndarray
    P_zero: np.ndarray
    P_grad: tuple[np.ndarray, np.ndarray]
    R_grad: tuple[np.ndarray, np.ndarray]
    Div_lo: np.ndarray
    R_div: np.ndarray
    # stabilizers (dofs x dofs)
    S: np.ndarray
    S_lo: np.ndarray
    # integrals of the monomials, and value tables on the quadrature points
    int_m: np.ndarray
    Phi: np.ndarray
    Phi_lo: np.ndarray
    Pq: np.ndarray
    Gq: tuple[np.ndarray, np.ndarray]
    dofs: np.ndarray                # (m, n_dof)

    @functools.cached_property
    def eps_maps(self):
        """Coefficient maps of the projected symmetric gradient components
        (e11, e22, e12) acting on stacked [u1; u2] dof vectors, shape
        (m, dim P_{k-1}, 2 n_dof); built once per group."""
        gx, gy = self.P_grad
        z = np.zeros_like(gx)
        return (np.concatenate([gx, z], axis=2), np.concatenate([z, gy], axis=2),
                0.5 * np.concatenate([gy, gx], axis=2))


@functools.lru_cache(maxsize=None)
def _edge_rule(k: int):
    """Gauss rule with k + 2 points on (0, 1), read-only."""
    x, w = np.polynomial.legendre.leggauss(k + 2)
    t, wt = 0.5 * (x + 1.0), 0.5 * w
    t.flags.writeable = wt.flags.writeable = False
    return t, wt


def _solve_energy(G: np.ndarray, B: np.ndarray, cell_ids) -> np.ndarray:
    """Stacked solve of the energy projector systems; names a singular cell."""
    try:
        return np.linalg.solve(G, B)
    except np.linalg.LinAlgError:
        for j in range(len(G)):
            try:
                np.linalg.solve(G[j], B[j])
            except np.linalg.LinAlgError as exc:
                raise ElementError(
                    f"cell {cell_ids[j]}: energy projector rank-deficient") from exc
        raise


def _build_group(group: CellGroup, k: int, quad_degree: int | None,
                 global_dofs: np.ndarray) -> GroupOps:
    """Every projector, fluctuation map and stabilizer of a group of cells with
    a common vertex count, computed on arrays stacked along the cells;
    ``global_dofs`` are the cells' global dofs in local order.

    Each product is the stacked form of the one-cell product, and edge terms
    are added edge by edge, so every cell's result repeats the rounding of a
    cell-by-cell build.
    """
    params = edge_internal_params(k)
    if quad_degree is None:
        quad_degree = 2 * k + 2
    ids = group.cell_ids
    m, nv = group.vertices.shape[:2]
    nk = poly_dim(k)
    nk1 = poly_dim(k - 1)
    nk2 = poly_dim(k - 2)
    n_dof = nv * k + nk2
    moment_cols = nv * k + np.arange(nk2)
    verts, cen, h = group.vertices, group.centroid, group.diameter
    area = group.area[:, None, None]

    def mT(a):
        return a.transpose(0, 2, 1)

    qpts, qw = build_quadrature(verts, group.triangles, quad_degree, ids)
    Phi = monomial_values(k, qpts, cen, h)                  # (m, nq, nk)
    H = mass_matrix(Phi, qw)
    condition_warnings(H, ids, stacklevel=3)
    Gt = stiffness_matrix(monomial_gradients(k, qpts, cen, h), qw)
    Phi_lo = Phi[..., :nk1]

    # --- boundary trace machinery -----------------------------------------
    tq, tw = _edge_rule(k)
    nodes = np.array([0.0] + params + [1.0])
    lag = _lagrange_values(nodes, tq)                       # (nq_e, k+1)
    a = verts[:, :, None, :]
    ab = (np.roll(verts, -1, axis=1) - verts)[:, :, None, :]
    epts = (a + tq[:, None] * ab).reshape(m, -1, 2)         # (m, nv * nq_e, 2)
    ewts = tw * group.edge_lengths[..., None]               # (m, nv, nq_e)
    wlag = ewts[..., None] * lag                            # (m, nv, nq_e, k+1)
    Vb = monomial_values(k, epts, cen, h).reshape(m, nv, -1, nk)
    Gb = monomial_gradients(k, epts, cen, h).reshape(m, nv, -1, nk, 2)
    normals = group.edge_normals                            # (m, nv, 2)
    perimeter = group.edge_lengths.sum(axis=1)[:, None]
    # local ids of the trace nodes on edge i: [v_i, edge block, v_{i+1}]
    trace_dofs = [np.array([i, *(nv + i * (k - 1) + np.arange(k - 1)), (i + 1) % nv])
                  for i in range(nv)]

    # boundary integrals: bmean[j] = (1/|dE|) * int_dE phi_j ds
    bmean = np.zeros((m, n_dof))
    for i, dofs in enumerate(trace_dofs):
        bmean[:, dofs] += (lag.T @ ewts[:, i, :, None])[..., 0] / perimeter

    def poly_boundary_mean(nd: int) -> np.ndarray:
        vals = np.zeros((m, nd))
        for i in range(nv):
            # a contiguous table, as in the one-cell product: numpy takes
            # another BLAS path for a column slice, which rounds differently
            vals += (ewts[:, i, None, :] @ np.ascontiguousarray(Vb[:, i, :, :nd]))[:, 0]
        return vals / perimeter

    # --- dof matrix: dof_i(m_a), shape (m, n_dof, nk) -------------------------
    D = np.empty((m, n_dof, nk))
    D[:, :nv] = monomial_values(k, verts, cen, h)
    if k > 1:
        ip = a + np.asarray(params)[:, None] * ab           # (m, nv, k-1, 2)
        D[:, nv:nv * k] = monomial_values(k, ip.reshape(m, -1, 2), cen, h)
    if nk2:
        D[:, moment_cols] = (mT(Phi[..., :nk2]) @ (qw[..., None] * Phi)) / area

    # h_E^2 by C pow of a Python float, as the cell-by-cell build squares it;
    # numpy's h ** 2 multiplies and can differ in the last bit
    h2 = np.array([x ** 2 for x in h.tolist()])[:, None, None]

    def pi_nabla_matrix(deg: int) -> np.ndarray:
        """Energy projector onto P_deg (deg <= k) as a coeff map."""
        nd = poly_dim(deg)
        G = Gt[:, :nd, :nd].copy()
        B = np.zeros((m, nd, n_dof))
        lap = laplacian_ref(deg)                           # (dim P_{deg-2}, nd)
        if lap.shape[0]:
            B[:, :, moment_cols[:lap.shape[0]]] = -area * mT(lap / h2)
        for i, dofs in enumerate(trace_dofs):
            flux = Gb[:, i, :, :nd, :] @ normals[:, i, None, :, None]   # (m, nq_e, nd, 1)
            B[:, :, dofs] += mT(flux[..., 0]) @ wlag[:, i]
        # constant mode fixed by the boundary mean
        G[:, 0, :] = poly_boundary_mean(nd)
        B[:, 0, :] = bmean
        return _solve_energy(G, B, ids)

    P_nabla = pi_nabla_matrix(k)
    if k == 1:
        # energy projection onto constants is the boundary mean
        P_nabla_lo = bmean[:, None, :].copy()
    else:
        P_nabla_lo = pi_nabla_matrix(k - 1)

    # --- computable moments up to degree k (enhancement) -------------------
    moments = np.zeros((m, nk, n_dof))
    if nk2:
        moments[:, :nk2, moment_cols] = area * np.eye(nk2)
    HP = H @ P_nabla
    moments[:, nk2:, :] = HP[:, nk2:, :]
    P_zero = np.linalg.solve(H, moments)

    # --- gradient projections ----------------------------------------------
    def grad_projection(deg: int):
        """L2 projection of the gradient onto [P_deg]^2, deg in {k-1, k}."""
        nd = poly_dim(deg)
        out = []
        for comp, Dref in enumerate(grad_coeff_ref(deg)):   # (dim P_{deg-1}, nd)
            N = np.zeros((m, nd, n_dof))
            if Dref.shape[0]:
                # moments of w against M_{deg-1} are computable rows
                N -= mT(Dref / h[:, None, None]) @ moments[:, :Dref.shape[0], :]
            for i, dofs in enumerate(trace_dofs):
                nrm = normals[:, i, comp, None, None]
                N[:, :, dofs] += nrm * (mT(Vb[:, i, :, :nd]) @ wlag[:, i])
            out.append(np.linalg.solve(H[:, :nd, :nd], N))
        return tuple(out)

    P_grad = grad_projection(k - 1)
    P_grad_hi = grad_projection(k)
    pad = np.zeros((m, nk - nk1, n_dof))
    R_grad = tuple(P_grad_hi[c] - np.concatenate([P_grad[c], pad], axis=1) for c in (0, 1))

    # divergence of [u1; u2]: the moment equations add componentwise, so the
    # projected divergence is [d/dx block | d/dy block]
    Div_lo = np.concatenate(P_grad, axis=2)
    Div_hi = np.concatenate(P_grad_hi, axis=2)
    R_div = Div_hi - np.concatenate([Div_lo, np.zeros((m, nk - nk1, 2 * n_dof))], axis=1)

    # --- stabilizers --------------------------------------------------------
    def stabilizer(Pdof):
        # two operands, as in the one-cell product: for a buffer times its
        # own transpose numpy takes another BLAS path, which rounds differently
        S = mT(np.eye(n_dof) - Pdof) @ (np.eye(n_dof) - Pdof)
        return 0.5 * (S + mT(S))

    S = stabilizer(D @ P_nabla)
    S_lo = stabilizer(D[..., :nk1] @ P_nabla_lo)

    int_m = (qw[:, None, :] @ Phi)[:, 0]
    Pq = Phi @ P_zero
    Gq = tuple(Phi_lo @ P_grad[c] for c in (0, 1))

    return GroupOps(
        cell_ids=ids, area=group.area, diameter=group.diameter, k=k, n_dof=n_dof,
        qpts=qpts, qw=qw, H=H, D=D, P_nabla=P_nabla, P_zero=P_zero, P_grad=P_grad,
        R_grad=R_grad, Div_lo=Div_lo, R_div=R_div, S=S, S_lo=S_lo, int_m=int_m,
        Phi=Phi, Phi_lo=Phi_lo, Pq=Pq, Gq=Gq, dofs=global_dofs)


@dataclass
class MeshOps:
    """Element operators for every cell plus the global dof layout.

    ``groups`` holds the operators stacked per vertex-count group (ascending
    vertex count), each group listing its cells in mesh order.
    """
    mesh: PolyMesh
    k: int
    layout: DofLayout
    groups: list[GroupOps]

    @property
    def n_scalar(self) -> int:
        return self.layout.n_scalar


def build_mesh_ops(mesh: PolyMesh, k: int, quad_degree: int | None = None) -> MeshOps:
    """Element operators of every cell, built one vertex-count group at a time."""
    layout = DofLayout(mesh, k)
    groups = [_build_group(group, k, quad_degree, layout.group_dofs(group.cell_ids))
              for group in mesh.cell_groups]
    return MeshOps(mesh, k, layout, groups)
