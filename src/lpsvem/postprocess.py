"""Computable VEM error norms, divergence diagnostics and field export.

H1-type errors compare exact gradients with gradients of the elementwise
energy projection; L2-type errors use the L2 projection, both integrated with
the element quadrature.  The pressure error is taken against the zero-mean
shift of the exact pressure.  Everything is computed one vertex-count group of
cells at a time, and each exact field is called once per group.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .element_ops import GroupOps, MeshOps
from .forms import _field_values, per_group
from .polybasis import grad_coeff_ref, poly_dim

_NORMS = ("e_u_h1", "e_u_l2", "e_p_l2", "e_phi_h1", "e_phi_l2")


@dataclass
class ErrorBundle:
    e_u_h1: float | None
    e_u_l2: float | None
    e_p_l2: float | None
    e_phi_h1: float | None
    e_phi_l2: float | None
    div_violation: float
    phi_dev_min: float
    phi_dev_max: float

    @property
    def phi_dev_absmax(self) -> float:
        return max(abs(self.phi_dev_min), abs(self.phi_dev_max))


class ExactFields:
    """Analytic reference fields with gradients; all callables vectorized."""

    def __init__(self, u=None, grad_u=None, p=None, phi=None, grad_phi=None):
        self.u = u                # (x, y) -> (2, n)
        self.grad_u = grad_u      # (x, y) -> (2, 2, n), [i, j] = d u_i / d x_j
        self.p = p
        self.phi = phi
        self.grad_phi = grad_phi  # (x, y) -> (2, n)


def _exact_values(g: GroupOps, exact: ExactFields) -> dict[str, np.ndarray]:
    """The given exact fields on the quadrature points of a group, one call
    each; a non-finite value raises ``forms.ConfigurationError`` (a
    ``ValueError``) naming the lowest such cell of the group."""
    fields = []
    if exact.u is not None:
        grad_u = exact.grad_u
        fields += [("velocity", exact.u, 2),
                   ("velocity gradient", lambda x, y: np.reshape(grad_u(x, y), (4, -1)), 4)]
    if exact.p is not None:
        fields.append(("pressure", exact.p, 1))
    if exact.phi is not None:
        fields += [("temperature gradient", exact.grad_phi, 2), ("temperature", exact.phi, 1)]
    return dict(zip((f[0] for f in fields), _field_values(g, fields)))


def _mean(groups: list[GroupOps], vals: list[np.ndarray]) -> float:
    """Domain mean of a field given by its values on each group's quadrature points."""
    total = sum(float(np.sum(g.qw * v)) for g, v in zip(groups, vals))
    return total / sum(float(g.area.sum()) for g in groups)


def _squared_errors(g: GroupOps, state, N: int, exact: dict, p_shift: float) -> dict:
    """Squared error norms and divergence violation summed over a group."""
    w = g.qw
    u = (state.u[g.dofs], state.u[g.dofs + N])                  # (m, n) each
    dcoef = g.Div_lo @ np.concatenate(u, axis=1)[..., None]      # (m, nk1, 1)
    nk1 = dcoef.shape[1]
    out = {"div": float(np.sum(dcoef * (g.H[:, :nk1, :nk1] @ dcoef)))}

    def l2(dof, ref):
        return float(np.sum(w * (ref - (g.Pq @ dof[..., None])[..., 0]) ** 2))

    def h1(dof, ref_x, ref_y):
        # the gradient of Pi_nabla dof = sum c_a m_a has the coefficients
        # (grad_coeff_ref(k) / h_E) @ c in the degree-(k-1) monomials
        c = g.P_nabla @ dof[..., None]                          # (m, nk, 1)
        h = g.diameter[:, None, None]
        gx, gy = ((g.Phi_lo @ ((D / h) @ c))[..., 0] for D in grad_coeff_ref(g.k))
        return float(np.sum(w * ((ref_x - gx) ** 2 + (ref_y - gy) ** 2)))

    if "velocity" in exact:
        gue = exact["velocity gradient"]                        # (4, m, nq)
        out["e_u_h1"] = sum(h1(u[c], gue[2 * c], gue[2 * c + 1]) for c in (0, 1))
        out["e_u_l2"] = sum(l2(u[c], exact["velocity"][c]) for c in (0, 1))
    if "pressure" in exact:
        out["e_p_l2"] = l2(state.p[g.dofs], exact["pressure"] - p_shift)
    if "temperature" in exact:
        phi = state.phi[g.dofs]
        out["e_phi_h1"] = h1(phi, *exact["temperature gradient"])
        out["e_phi_l2"] = l2(phi, exact["temperature"])
    return out


def compute_errors(state, exact: ExactFields | None, mops: MeshOps,
                   phi_reference=None) -> ErrorBundle:
    """Error norms of a coupled state against analytic fields.

    ``phi_reference`` (callable or constant) feeds the dof-point extremes of
    phi_h - reference; it defaults to the exact temperature.  A non-finite
    exact field raises a ``ValueError`` naming the lowest cell it occurs on.
    """
    groups = mops.groups
    lay = mops.layout
    vals = ([{}] * len(groups) if exact is None
            else per_group(groups, lambda g: _exact_values(g, exact)))
    p_shift = _mean(groups, [v["pressure"] for v in vals]) if "pressure" in vals[0] else 0.0
    sq: dict[str, float] = {}
    for g, v in zip(groups, vals):
        for name, val in _squared_errors(g, state, mops.n_scalar, v, p_shift).items():
            sq[name] = sq.get(name, 0.0) + val

    ref = phi_reference if phi_reference is not None else (exact.phi if exact else None)
    if ref is None:
        dev_min = dev_max = 0.0
    else:
        coords = lay.point_dof_coords()
        ref_vals = (np.full(len(coords), float(ref)) if np.isscalar(ref)
                    else np.asarray(ref(coords[:, 0], coords[:, 1]), dtype=float))
        dev = state.phi[:lay.n_point] - ref_vals
        dev_min, dev_max = float(dev.min()), float(dev.max())

    return ErrorBundle(
        **{name: math.sqrt(sq[name]) if name in sq else None for name in _NORMS},
        div_violation=math.sqrt(sq["div"]), phi_dev_min=dev_min, phi_dev_max=dev_max)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _vertex_fields(state, mops: MeshOps):
    """Average the projected fields over cells incident to each vertex."""
    N = mops.n_scalar
    nv = mops.mesh.n_vertices
    acc = np.zeros((nv, 4))
    cnt = np.zeros(nv)
    for g in mops.groups:
        d = g.dofs
        nvc = (g.n_dof - poly_dim(g.k - 2)) // g.k
        verts = d[:, :nvc].ravel()          # the vertex dofs are the vertex ids
        coeffs = np.concatenate([g.P_nabla @ state.u[d][..., None],
                                 g.P_nabla @ state.u[d + N][..., None],
                                 g.P_zero @ state.p[d][..., None],
                                 g.P_zero @ state.phi[d][..., None]], axis=2)
        # the first rows of D are the monomials at the cell's vertices
        np.add.at(acc, verts, (g.D[:, :nvc] @ coeffs).reshape(-1, 4))
        np.add.at(cnt, verts, 1.0)
    return acc / cnt[:, None]


def export_fields(state, mesh, mops: MeshOps, path, fmt: str = "vtk_legacy"):
    """Write per-vertex projected fields as legacy-ASCII VTK polydata or CSV."""
    fields = _vertex_fields(state, mops)
    if fmt == "vtk_legacy":
        text = _vtk_text(mesh, fields)
    elif fmt == "csv":
        text = _csv_text(mesh, fields)
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _vtk_text(mesh, fields) -> str:
    out = io.StringIO()
    nv = mesh.n_vertices
    out.write("# vtk DataFile Version 3.0\n")
    out.write("coupled flow fields\nASCII\nDATASET POLYDATA\n")
    out.write(f"POINTS {nv} double\n")
    for xy in mesh.vertices:
        out.write(f"{xy[0]:.17g} {xy[1]:.17g} 0\n")
    size = sum(len(c) + 1 for c in mesh.cells)
    out.write(f"POLYGONS {mesh.n_cells} {size}\n")
    for c in mesh.cells:
        out.write(" ".join([str(len(c))] + [str(int(i)) for i in c]) + "\n")
    out.write(f"POINT_DATA {nv}\n")
    out.write("VECTORS velocity double\n")
    for row in fields:
        out.write(f"{row[0]:.17g} {row[1]:.17g} 0\n")
    for name, col in (("pressure", 2), ("temperature", 3)):
        out.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        for row in fields:
            out.write(f"{row[col]:.17g}\n")
    return out.getvalue()


def _csv_text(mesh, fields) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["x", "y", "u1", "u2", "p", "phi"])
    for xy, row in zip(mesh.vertices, fields):
        writer.writerow([f"{v:.17g}" for v in (xy[0], xy[1], row[0], row[1], row[2], row[3])])
    return out.getvalue()
