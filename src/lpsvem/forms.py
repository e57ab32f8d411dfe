"""Discrete bilinear/trilinear forms, LPS stabilization and global assembly.

Element matrices act on element dof vectors (scalar fields) or on stacked
[u1; u2] vectors (velocity).  Stabilization parameters scale per element as
tau1 = c1, tau2 = c2*h_E^2 and tau3 = c3*h_E.

The Stokes and temperature problems are coupled through the viscosity
mu(phi) and the convection u . grad phi only.  Every element matrix is built
here, one vertex-count group of cells at a time: the ``group_*`` kernels work
on the projectors, fluctuation maps and stabilizers of ``element_ops.GroupOps``
(arrays of shape (cells, ...)), and mu, kappa and the sources are called once
per group on all of its quadrature points.  ``Assembler`` scatters the element
blocks group after group.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .element_ops import GroupOps, MeshOps


class ConfigurationError(ValueError):
    """Problem description inconsistent with the mesh or with itself.

    ``cell_id`` names the cell the inconsistency was found on, if any.
    """

    def __init__(self, message: str, cell_id: int | None = None):
        super().__init__(message)
        self.cell_id = cell_id


# ---------------------------------------------------------------------------
# problem description
# ---------------------------------------------------------------------------

@dataclass
class Coefficient:
    """A bounded function of the temperature: the viscosity mu(r) or the
    conductivity kappa(r).

    The argument is clamped to ``temp_range`` before evaluation, which
    realizes the globally-bounded-coefficient assumption while leaving values
    near the solution untouched; ``lower``/``upper`` must bound the values on
    that range, and the element forms check them wherever they evaluate it.
    ``scale`` is the reference value that weights the temperature norm
    (``lower`` by default).  ``constant(value)`` makes the one kind of
    coefficient that ``is_constant``: it has no ``func``.
    """
    func: object                     # vectorized callable c(r); None for a constant
    lower: float
    upper: float
    temp_range: tuple[float, float] = (-np.inf, np.inf)
    scale: float | None = None

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper < np.inf):
            raise ConfigurationError(
                f"need 0 < lower <= upper < inf, got [{self.lower:g}, {self.upper:g}]")
        if self.func is None and self.lower != self.upper:
            raise ConfigurationError("a coefficient without func is constant: lower == upper")
        if self.scale is None:
            self.scale = self.lower
        lo, hi = self.temp_range
        if np.isfinite(lo) and np.isfinite(hi):
            vals = np.asarray(self(np.linspace(lo, hi, 513)), dtype=float)
            if vals.min() < self.lower * (1 - 1e-9) or vals.max() > self.upper * (1 + 1e-9):
                raise ConfigurationError(
                    f"coefficient leaves [{self.lower:g}, {self.upper:g}] on the "
                    f"declared temperature range (sampled {vals.min():g}..{vals.max():g})")

    def __call__(self, r):
        if self.func is None:
            return np.full(np.shape(r), self.lower)
        lo, hi = self.temp_range
        return self.func(np.clip(r, lo, hi))

    @property
    def is_constant(self) -> bool:
        return self.func is None

    @classmethod
    def constant(cls, value: float) -> "Coefficient":
        return cls(func=None, lower=float(value), upper=float(value))


@dataclass
class BoundaryCondition:
    """Per-marker data: velocity Dirichlet and temperature Dirichlet/zero-flux.

    ``velocity`` is a callable (x, y) -> (2,) or (2, n) values; it must be set
    on every marker.  ``temperature`` is a Dirichlet callable or None for the
    natural zero-flux condition.
    """
    velocity: object
    temperature: object | None = None


@dataclass
class ProblemSpec:
    """Coefficients, sources, boundary data and stabilization constants."""
    k: int
    viscosity: Coefficient
    conductivity: Coefficient
    bcs: dict[str, BoundaryCondition]
    fixed_source: object | None = None    # F(x, y) -> (2, n)
    heat_source: object | None = None     # g(x, y) -> (n,)
    c1: float = 0.1
    c2: float = 0.002
    c3: float = 1.0
    convection_form: str = "skew"

    def __post_init__(self):
        # all-zero taus are allowed (unstabilized comparison runs)
        if self.c1 < 0 or self.c2 < 0 or self.c3 < 0:
            raise ConfigurationError("stabilization constants must be >= 0")
        if self.convection_form not in ("skew", "convective"):
            raise ConfigurationError(f"unknown convection form {self.convection_form!r}")

    def taus(self, h_E: float) -> tuple[float, float, float]:
        return self.c1, self.c2 * h_E ** 2, self.c3 * h_E


# ---------------------------------------------------------------------------
# group kernels
# ---------------------------------------------------------------------------
# Every product below is the stacked form of the one-cell product, with the
# same operand layout, so each cell's result repeats the rounding of a
# cell-by-cell evaluation.

def _mT(a: np.ndarray) -> np.ndarray:
    return a.transpose(0, 2, 1)


def _weighted_gram(g: GroupOps, coef: Coefficient, phi_coeffs: np.ndarray, what: str):
    """``Phi_lo^T diag(w c) Phi_lo``, (m, nk1, nk1), and the cell-mean values
    c0, (m,), of the coefficient c at the temperature with Pi0_k coefficients
    ``phi_coeffs`` (m, nk), in one call of ``coef``; raises for the lowest
    cell where a value leaves the declared bounds, naming ``what``."""
    vals = (g.Phi @ phi_coeffs[..., None])[..., 0]
    means = (phi_coeffs[:, None, :] @ g.int_m[..., None])[:, 0, 0] / g.area
    out = np.asarray(coef(np.concatenate([vals.ravel(), means])), dtype=float)
    c_q, c0 = out[:vals.size].reshape(vals.shape), out[vals.size:]
    lo, hi = coef.lower * (1 - 1e-9), coef.upper * (1 + 1e-9)
    vmin, vmax = np.minimum(c_q.min(axis=1), c0), np.maximum(c_q.max(axis=1), c0)
    bad = ~((lo <= vmin) & (vmax <= hi))    # a NaN value is out of bounds
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        value = float(vmax[j] if lo <= vmin[j] else vmin[j])
        cell = int(g.cell_ids[j])
        raise ConfigurationError(
            f"cell {cell}: {what} value {value:g} outside "
            f"declared bounds [{coef.lower:g}, {coef.upper:g}]", cell_id=cell)
    w = g.qw * c_q
    return _mT(g.Phi_lo) @ (w[..., None] * g.Phi_lo), c0


def group_viscous(g: GroupOps, spec: ProblemSpec, phi_coeffs: np.ndarray) -> np.ndarray:
    """mu-weighted consistency term on projected strains plus VEM stabilizer,
    (m, 2n, 2n); raises for the lowest cell whose mu leaves its bounds."""
    Hmu, mu0 = _weighted_gram(g, spec.viscosity, phi_coeffs, "viscosity")
    e11, e22, e12 = g.eps_maps
    A = _mT(e11) @ Hmu @ e11 + _mT(e22) @ Hmu @ e22 + 2.0 * (_mT(e12) @ Hmu @ e12)
    n = g.n_dof
    mu0S = mu0[:, None, None] * g.S
    A[:, :n, :n] += mu0S
    A[:, n:, n:] += mu0S
    return 0.5 * (A + _mT(A))


def group_temperature(g: GroupOps, spec: ProblemSpec,
                      phi_coeffs: np.ndarray | None = None) -> np.ndarray:
    """Diffusion on projected gradients plus kappa-scaled VEM stabilizer,
    (m, n, n); raises for the lowest cell whose kappa leaves its bounds."""
    kappa = spec.conductivity
    if kappa.is_constant:
        return kappa.lower * group_diffusion_unit(g)
    if phi_coeffs is None:
        raise ConfigurationError("nonlinear conductivity needs a temperature iterate")
    Hk, k0 = _weighted_gram(g, kappa, phi_coeffs, "conductivity")
    gx, gy = g.P_grad
    A = _mT(gx) @ Hk @ gx + _mT(gy) @ Hk @ gy + k0[:, None, None] * g.S
    return 0.5 * (A + _mT(A))


def group_convection(g: GroupOps, u_coeffs: np.ndarray, form: str = "skew") -> np.ndarray:
    """Convection matrices tested with Pi0_k psi, (m, n, n); rows psi, columns phi.

    ``u_coeffs`` holds the Pi0_k coefficients of both velocity components,
    shape (m, 2, dim P_k).  The skew variant returns (c - c^T)/2 exactly.
    """
    V1 = (g.Phi @ u_coeffs[:, 0, :, None])[..., 0]
    V2 = (g.Phi @ u_coeffs[:, 1, :, None])[..., 0]
    w = g.qw
    conv = _mT(g.Pq) @ ((w * V1)[..., None] * g.Gq[0] + (w * V2)[..., None] * g.Gq[1])
    if form == "convective":
        return conv
    return 0.5 * (conv - _mT(conv))


def group_diffusion_unit(g: GroupOps) -> np.ndarray:
    """Unit-conductivity diffusion on projected gradients plus the VEM
    stabilizer, (m, n, n)."""
    nk1 = g.Phi_lo.shape[-1]
    return sum(_mT(P) @ g.H[:, :nk1, :nk1] @ P for P in g.P_grad) + g.S


def group_divergence(g: GroupOps) -> np.ndarray:
    """b_h: projected divergence of [u1; u2] tested with Pi0_k q, (m, n, 2n)."""
    nk1 = g.Phi_lo.shape[-1]
    return _mT(g.P_zero) @ _mT(g.H[:, :nk1, :]) @ g.Div_lo


def group_lps_terms(g: GroupOps, spec: ProblemSpec):
    """(L1, L2, L3) of a group: tau1 (R_div^T H R_div + S (+) S),
    tau2 (sum_c R_grad_c^T H R_grad_c + S_lo) and tau3 (the same with S)."""
    # taus of Python floats, as in a cell-by-cell call spec.taus(h_E)
    taus = np.array([spec.taus(h) for h in g.diameter.tolist()])[:, :, None, None]
    n = g.n_dof
    S2 = np.zeros((len(g.cell_ids), 2 * n, 2 * n))
    S2[:, :n, :n] = g.S
    S2[:, n:, n:] = g.S
    RHR = sum(_mT(R) @ g.H @ R for R in g.R_grad)
    return (taus[:, 0] * (_mT(g.R_div) @ g.H @ g.R_div + S2), taus[:, 1] * (RHR + g.S_lo),
            taus[:, 2] * (RHR + g.S))


def _field_values(g: GroupOps, fields) -> list[np.ndarray]:
    """Evaluate each ``(name, func, components)`` on all quadrature points of
    the group, as (m, nq) or (components, m, nq).  A non-finite value raises
    for the lowest such cell, naming its first bad quadrature point; within a
    cell the earlier field in ``fields`` is named."""
    x, y = g.qpts[..., 0].ravel(), g.qpts[..., 1].ravel()
    out, first = [], None
    for what, func, ncomp in fields:
        shape = g.qw.shape if ncomp == 1 else (ncomp, *g.qw.shape)
        flat = (x.size,) if ncomp == 1 else (ncomp, x.size)
        vals = np.broadcast_to(np.asarray(func(x, y), dtype=float), flat).reshape(shape)
        finite = np.isfinite(vals)
        if ncomp > 1:
            finite = finite.all(axis=0)
        bad = np.flatnonzero(~finite.all(axis=1))
        if len(bad) and (first is None or bad[0] < first[0]):
            j = int(bad[0])
            pt = g.qpts[j, np.flatnonzero(~finite[j])[0]]
            first = (j, f"{what} is not finite near ({pt[0]:.6g}, {pt[1]:.6g})")
        out.append(vals)
    if first is not None:
        raise ConfigurationError(first[1], cell_id=int(g.cell_ids[first[0]]))
    return out


def _test_with_Pq(g: GroupOps, vals: np.ndarray) -> np.ndarray:
    """int_E vals * Pi0_k psi for every local dof psi: (m, nq) -> (m, n)."""
    return (_mT(g.Pq) @ vals[..., None])[..., 0]


def group_loads(g: GroupOps, spec: ProblemSpec):
    """(momentum rhs (m, 2n), heat rhs (m, n)) of a group of cells."""
    m, n = len(g.cell_ids), g.n_dof
    fields = [f for f in (("momentum source", spec.fixed_source, 2),
                          ("heat source", spec.heat_source, 1)) if f[1] is not None]
    vals = dict(zip((f[0] for f in fields), _field_values(g, fields)))
    w = g.qw
    rhs_m = np.zeros((m, 2 * n))
    if "momentum source" in vals:
        F = vals["momentum source"]
        rhs_m[:, :n] += _test_with_Pq(g, w * F[0])
        rhs_m[:, n:] += _test_with_Pq(g, w * F[1])
    rhs_h = np.zeros((m, n))
    if "heat source" in vals:
        rhs_h = _test_with_Pq(g, w * vals["heat source"])
    return rhs_m, rhs_h


def per_group(groups: list[GroupOps], kernel, *per_group_args) -> list:
    """``kernel(g, *args)`` on every group; of the errors that name a cell,
    the one naming the lowest cell id is raised."""
    out, first = [], None
    for g, *args in zip(groups, *per_group_args):
        try:
            out.append(kernel(g, *args))
        except ConfigurationError as exc:
            if exc.cell_id is None:
                raise
            if first is None or exc.cell_id < first.cell_id:
                first = exc
    if first is not None:
        raise first
    return out


# ---------------------------------------------------------------------------
# global assembly
# ---------------------------------------------------------------------------

@dataclass
class DirichletData:
    mask: np.ndarray    # boolean over the field's dofs
    values: np.ndarray  # prescribed values (zero on free dofs)

    @property
    def free(self) -> np.ndarray:
        return np.where(~self.mask)[0]

    @property
    def fixed(self) -> np.ndarray:
        return np.where(self.mask)[0]


@dataclass
class StokesSystem:
    """The saddle blocks [[A_uu, -B^T], [B, L2]] of the decoupled
    momentum/continuity problem for a frozen phi."""
    A_uu: sp.csr_matrix          # viscous + L1, (2N, 2N)
    B: sp.csr_matrix             # divergence coupling, (N, 2N)
    L2: sp.csr_matrix


class _BlockPattern:
    """CSR pattern of the union of the local blocks (row dofs x column dofs of
    each cell, group after group), computed once, and the maps that sum
    stacked local matrices into it.

    ``assemble`` reproduces ``sp.coo_matrix((data, (rows, cols))).tocsr()``
    bit for bit, signed zeros included.  scipy places the entries row by row
    in input order, sorts each row with ``std::sort`` on the column alone
    (``sort_indices``) and sums duplicates left to right, from the first.  The
    sort's permutation depends on the columns only, so sorting the entry ids
    the same way recovers it.  ``_first`` holds the first term of every
    stored entry; ``_later`` holds, for each further term l = 1, 2, ..., the
    entries that have one and where it sits in the stacked local data.  Entries
    that sum to zero stay in the pattern.
    """

    def __init__(self, row_dofs, col_dofs, shape):
        self.shape = shape
        rows = np.concatenate([np.repeat(r, c.shape[1], axis=1).ravel()
                               for r, c in zip(row_dofs, col_dofs)])
        cols = np.concatenate([np.tile(c, (1, r.shape[1])).ravel()
                               for r, c in zip(row_dofs, col_dofs)])
        counts = np.bincount(rows, minlength=shape[0])
        order = np.argsort(rows, kind="stable")
        ids = sp.csr_matrix((order, cols[order].astype(np.int32),
                             np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)),
                            shape=shape)
        ids.sort_indices()
        # the first term of every (row, column) in the sorted order
        first = np.ones(len(rows), dtype=bool)
        first[1:] = np.diff(ids.indices) != 0
        first[ids.indptr[:-1][counts > 0]] = True
        starts = np.flatnonzero(first)
        terms = np.diff(np.append(starts, len(rows)))
        self._first = ids.data[starts].astype(np.int32)
        self._later = []
        for level in range(1, int(terms.max(initial=1))):
            entry = np.flatnonzero(terms > level)
            self._later.append((entry.astype(np.int32),
                                ids.data[starts[entry] + level].astype(np.int32)))
        self.indices = ids.indices[first]
        row_of = np.repeat(np.arange(shape[0]), counts)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(row_of[first], minlength=shape[0]))]).astype(np.int32)
        self.indices.flags.writeable = self.indptr.flags.writeable = False

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix with ``data`` on this pattern; the index arrays are shared."""
        m = sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)
        m.has_canonical_format = True
        return m

    def assemble(self, local: list[np.ndarray]) -> sp.csr_matrix:
        """Global matrix of per-group stacked local matrices."""
        flat = local[0].ravel() if len(local) == 1 else np.concatenate([a.ravel() for a in local])
        data = flat[self._first]
        for entry, term in self._later:
            data[entry] += flat[term]
        return self.matrix(data)


def _scatter(size: int, dofs: list[np.ndarray], local: list[np.ndarray]) -> np.ndarray:
    """Global vector of per-group stacked local vectors, summed group by group."""
    out = np.zeros(size)
    for d, a in zip(dofs, local):
        np.add.at(out, d, a)
    return out


class Assembler:
    """Scatter-add assembly with precomputed sparsity and static blocks; every
    local form is computed one vertex-count group at a time."""

    def __init__(self, mops: MeshOps, spec: ProblemSpec):
        self.mops = mops
        self.spec = spec
        mesh = mops.mesh
        if spec.k != mops.k:
            raise ConfigurationError("problem order differs from the operator order")
        unknown = set(spec.bcs) - set(mesh.boundary_markers)
        if unknown:
            raise ConfigurationError(f"boundary condition for unknown marker {sorted(unknown)}")
        missing = [m for m in mesh.boundary_markers
                   if m not in spec.bcs or spec.bcs[m].velocity is None]
        if missing:
            raise ConfigurationError(f"velocity Dirichlet data missing on markers {missing}")
        self.N = mops.n_scalar
        self.groups = mops.groups
        self._index_arrays()
        self._static_blocks()
        self._dirichlet()
        self._static_rhs()

    # -- sparsity ------------------------------------------------------------

    def _index_arrays(self):
        N = self.N
        self._sdofs = [g.dofs for g in self.groups]
        self._vdofs = [np.concatenate([d, d + N], axis=1) for d in self._sdofs]
        self._scalar = _BlockPattern(self._sdofs, self._sdofs, (N, N))
        self._vector = _BlockPattern(self._vdofs, self._vdofs, (2 * N, 2 * N))
        self._pv = _BlockPattern(self._sdofs, self._vdofs, (N, 2 * N))

    # -- static pieces ---------------------------------------------------------

    def _static_blocks(self):
        spec, groups = self.spec, self.groups
        lps = [group_lps_terms(g, spec) for g in groups]
        self.L1 = self._vector.assemble([L[0] for L in lps])
        self.L2 = self._scalar.assemble([L[1] for L in lps])
        self.L3 = self._scalar.assemble([L[2] for L in lps])
        self.B = self._pv.assemble([group_divergence(g) for g in groups])
        self.h1_surrogate = self._scalar.assemble([group_diffusion_unit(g) for g in groups])
        self.mean_row = _scatter(
            self.N, self._sdofs, [(_mT(g.P_zero) @ g.int_m[..., None])[..., 0] for g in groups])
        self.const = self.mops.layout.constant()
        self.A_TT_const = (self._scalar.assemble([group_temperature(g, spec) for g in groups])
                           if spec.conductivity.is_constant else None)

    def _dirichlet(self):
        mops, spec = self.mops, self.spec
        lay = mops.layout
        N = self.N
        coords = lay.point_dof_coords()
        mask_u = np.zeros(2 * N, dtype=bool)
        val_u = np.zeros(2 * N)
        mask_t = np.zeros(N, dtype=bool)
        val_t = np.zeros(N)
        for name in mops.mesh.boundary_markers:
            bc = spec.bcs[name]
            dofs = lay.marker_point_dofs([name])
            x, y = coords[dofs, 0], coords[dofs, 1]
            uv = np.asarray(bc.velocity(x, y), dtype=float).reshape(2, -1)
            mask_u[dofs] = True
            mask_u[dofs + N] = True
            val_u[dofs] = uv[0]
            val_u[dofs + N] = uv[1]
            if bc.temperature is not None:
                mask_t[dofs] = True
                val_t[dofs] = np.asarray(bc.temperature(x, y), dtype=float).ravel()
        val_u[~mask_u] = 0.0
        val_t[~mask_t] = 0.0
        self.dirichlet_u = DirichletData(mask_u, val_u)
        self.dirichlet_phi = DirichletData(mask_t, val_t)

    def _static_rhs(self):
        """The sources do not depend on the iterate."""
        loads = per_group(self.groups, lambda g: group_loads(g, self.spec))
        self.rhs_momentum = _scatter(2 * self.N, self._vdofs, [rm for rm, _ in loads])
        self.rhs_heat = _scatter(self.N, self._sdofs, [rh for _, rh in loads])

    # -- per-iterate assembly -------------------------------------------------

    def phi_cell_coeffs(self, phi: np.ndarray) -> list[np.ndarray]:
        """Pi0_k coefficients of phi on every cell, one (m, dim P_k) array per group."""
        return [(g.P_zero @ phi[g.dofs][..., None])[..., 0] for g in self.groups]

    def u_cell_coeffs(self, u: np.ndarray) -> list[np.ndarray]:
        """Pi0_k coefficients of both velocity components, one (m, 2, dim P_k)
        array per group."""
        N = self.N
        return [np.stack([(g.P_zero @ u[g.dofs][..., None])[..., 0],
                          (g.P_zero @ u[g.dofs + N][..., None])[..., 0]], axis=1)
                for g in self.groups]

    def build_stokes(self, phi: np.ndarray) -> StokesSystem:
        """Stokes blocks for the temperature iterate ``phi``."""
        A_uu = self.viscous_block(phi)
        A_uu.data += self.L1.data
        return StokesSystem(A_uu=A_uu, B=self.B, L2=self.L2)

    def build_transport(self, u: np.ndarray, phi: np.ndarray) -> sp.csr_matrix:
        """The transport matrix (A_TT + C) + L3 for the velocity ``u`` and the
        temperature iterate ``phi``, on the scalar pattern."""
        A_TT = self.diffusion_block(phi)
        K = self.convection_block(u)
        # A_TT + C, which commutes exactly; A_TT may be the shared constant one
        K.data += A_TT.data
        K.data += self.L3.data
        return K

    # -- the blocks that build_stokes and build_transport assemble -------------

    def viscous_block(self, phi: np.ndarray) -> sp.csr_matrix:
        return self._vector.assemble(per_group(
            self.groups, lambda g, pc: group_viscous(g, self.spec, pc),
            self.phi_cell_coeffs(phi)))

    def convection_block(self, u: np.ndarray) -> sp.csr_matrix:
        form = self.spec.convection_form
        return self._scalar.assemble(
            [group_convection(g, uc, form) for g, uc in zip(self.groups, self.u_cell_coeffs(u))])

    def diffusion_block(self, phi: np.ndarray) -> sp.csr_matrix:
        if self.A_TT_const is not None:
            return self.A_TT_const
        return self._scalar.assemble(per_group(
            self.groups, lambda g, pc: group_temperature(g, self.spec, pc),
            self.phi_cell_coeffs(phi)))
