import numpy as np
import pytest
import scipy.sparse as sp

from conftest import make_spec, one_cell_group, zero_velocity
from lpsvem import element_ops as eo
from lpsvem import forms
from lpsvem.geometry import MESH_FAMILIES, UNIT_SQUARE, generate_mesh
from lpsvem.polybasis import poly_dim
from oracles import (OracleElement, alt_polygon_quadrature, cell_views, interpolate_scalar,
                     interpolate_vector, mass0, oracle_local_matrices, reference_assembly)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
rng = np.random.default_rng(11)


def _const_spec_for(mesh, k, mu=1.0, kappa=1.0, **kw):
    return make_spec(mesh, k, viscosity=mu,
                     conductivity=kappa, **kw)


def _square_ops(k):
    return one_cell_group(SQUARE, k)


def _one_cell_matrices(g, spec, pc, uc):
    """Every element matrix of the one-cell group ``g`` for the Pi0_k
    coefficients ``pc`` of the temperature and ``uc`` (2, dim P_k) of the
    velocity, from the group kernels."""
    L1, L2, L3 = (L[0] for L in forms.group_lps_terms(g, spec))
    return {"viscous": forms.group_viscous(g, spec, pc[None])[0],
            "divergence": forms.group_divergence(g)[0],
            "temperature": forms.group_temperature(g, spec, pc[None])[0],
            "convection": forms.group_convection(g, uc[None], spec.convection_form)[0],
            "lps1": L1, "lps2": L2, "lps3": L3}


def _square_spec(k, mu=1.0, kappa=1.0):
    mesh = generate_mesh("uniform_square", UNIT_SQUARE, 1.0)
    return _const_spec_for(mesh, k, mu=mu, kappa=kappa)


# ---------------------------------------------------------------------------
# viscosity model
# ---------------------------------------------------------------------------

def test_viscosity_bounds_validation():
    with pytest.raises(forms.ConfigurationError):
        forms.Coefficient(func=lambda r: 1.0 + r, lower=1.0, upper=1.5,
                          temp_range=(0.0, 10.0))
    mu = forms.Coefficient(func=lambda r: 1.0 + r, lower=0.9, upper=3.2,
                           temp_range=(0.0, 2.0))
    # arguments outside the declared range are clamped
    assert float(mu(np.array([50.0]))[0]) == 3.0


def test_coefficient_constant_and_scale():
    c = forms.Coefficient.constant(0.8)
    assert c.is_constant and (c.lower, c.upper, c.scale) == (0.8, 0.8, 0.8)
    assert np.array_equal(c(np.array([-1e9, 0.0, np.nan])), np.full(3, 0.8))
    f = forms.Coefficient(func=lambda r: 2.0 + np.tanh(r), lower=1.0, upper=3.0)
    assert not f.is_constant and f.scale == 1.0
    assert forms.Coefficient(func=f.func, lower=1.0, upper=3.0, scale=2.0).scale == 2.0
    # a constant has no func; lower and upper bound a positive finite range
    for lower, upper, func in ((1.0, 2.0, None), (0.0, 1.0, f.func), (-1.0, -1.0, None),
                               (1.0, np.inf, f.func), (np.nan, np.nan, None), (2.0, 1.0, f.func)):
        with pytest.raises(forms.ConfigurationError):
            forms.Coefficient(func=func, lower=lower, upper=upper)


def test_constant_conductivity_is_value_times_unit_diffusion():
    """A constant conductivity scales the unit diffusion, bit for bit."""
    mesh, mops = _voronoi_k2()
    asm = forms.Assembler(mops, make_spec(mesh, 2, conductivity=0.8))
    reference = asm._scalar.assemble([0.8 * forms.group_diffusion_unit(g) for g in mops.groups])
    A_TT = asm.diffusion_block(np.zeros(mops.n_scalar))
    assert A_TT is asm.A_TT_const
    assert np.array_equal(A_TT.indptr, reference.indptr)
    assert np.array_equal(A_TT.indices, reference.indices)
    assert A_TT.data.tobytes() == reference.data.tobytes()


def test_local_viscous_out_of_bounds_value_names_cell():
    ops = _square_ops(1)
    # declared bounds do not contain the actual values: the element names itself
    bad_mu = forms.Coefficient(func=lambda r: np.full_like(np.asarray(r, dtype=float), 7.0),
                               lower=1.0, upper=2.0)
    spec = make_spec(generate_mesh("uniform_square", UNIT_SQUARE, 1.0), 1,
                     viscosity=bad_mu)
    with pytest.raises(forms.ConfigurationError, match="cell 0"):
        forms.group_viscous(ops, spec, np.zeros((1, poly_dim(1))))


@pytest.mark.parametrize("what", ["viscosity", "conductivity"])
def test_nan_coefficient_value_at_a_quadrature_point_is_out_of_bounds(what):
    """A NaN value inside a cell, with a finite value at the cell mean, is
    outside the declared bounds like any other."""
    ops = _square_ops(1)
    bad = forms.Coefficient(func=lambda r: np.where(r > 0.1, np.nan, 1.0), lower=0.5, upper=2.0)
    spec = make_spec(generate_mesh("uniform_square", UNIT_SQUARE, 1.0), 1, **{what: bad})
    pc = np.array([[0.0, 1.0, 0.0]])     # the temperature xi: zero mean, positive at x > 1/2
    kernel = forms.group_viscous if what == "viscosity" else forms.group_temperature
    with pytest.raises(forms.ConfigurationError, match=rf"^cell 0: {what} value nan outside"):
        kernel(ops, spec, pc)


# ---------------------------------------------------------------------------
# local forms: trivial identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_local_viscous_rigid_motions(k):
    ops = _square_ops(k)
    spec = _square_spec(k)
    A = forms.group_viscous(ops, spec, np.zeros((1, poly_dim(k))))[0]
    D = ops.D[0]
    assert np.abs(A - A.T).max() <= 1e-13 * max(1.0, np.abs(A).max())
    nk = poly_dim(k)
    for cu, cv in (((1.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (1.0, 0.0))):
        c1 = np.zeros(nk); c1[0] = cu[0]; c1[2] = cu[1]
        c2 = np.zeros(nk); c2[0] = cv[0]
        d = np.concatenate([D @ c1, D @ c2])
        assert abs(d @ A @ d) <= 1e-12
    # rigid rotation (-eta, xi)
    c1 = np.zeros(nk); c1[2] = -1.0
    c2 = np.zeros(nk); c2[1] = 1.0
    d = np.concatenate([D @ c1, D @ c2])
    assert abs(d @ A @ d) <= 1e-12


def test_local_viscous_linear_shear_value():
    # v = (x, 0): eps = diag(1, 0), integral of eps:eps over the unit square = 1
    ops = _square_ops(1)
    spec = _square_spec(1)
    A = forms.group_viscous(ops, spec, np.zeros((1, 3)))[0]
    x = SQUARE[:, 0]
    d = np.concatenate([x, np.zeros(4)])
    assert abs(d @ A @ d - 1.0) <= 1e-11


def test_local_divergence_values():
    B = forms.group_divergence(_square_ops(1))[0]
    x, y = SQUARE[:, 0], SQUARE[:, 1]
    expand = np.concatenate([x, y])          # div = 2
    ones = np.ones(4)                        # q = 1
    assert abs(ones @ B @ expand - 2.0) <= 1e-12
    rot = np.concatenate([-y, x])            # divergence-free rotation
    assert np.abs(B @ rot).max() <= 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_local_temperature_constants_and_linear(k):
    ops = _square_ops(k)
    spec = _square_spec(k)
    A = forms.group_temperature(ops, spec)[0]
    const = ops.D[0] @ np.eye(poly_dim(k))[0]
    assert np.abs(A @ const).max() <= 1e-12
    x = np.zeros(poly_dim(k)); x[1] = ops.diameter[0]  # the monomial xi*h = x-xc
    d = ops.D[0] @ x
    assert abs(d @ A @ d - 1.0) <= 1e-11     # kappa=1, grad = e_x, |E| = 1


def test_local_temperature_nonlinear_kappa_against_oracle():
    # nonlinear coefficients are only quadrature-exact when both sides use an
    # over-integrated rule (degree 2k+6) on a mesh-sized cell
    mesh = generate_mesh("distorted_square", UNIT_SQUARE, 1 / 5)
    mops = eo.build_mesh_ops(mesh, 2, quad_degree=2 * 2 + 6)
    cond = forms.Coefficient(func=lambda r: np.exp(r), lower=0.5, upper=10.0, scale=1.0)
    spec = make_spec(mesh, 2, conductivity=cond)
    phi_fun = lambda x, y: x ** 2 + y ** 4
    phi = interpolate_scalar(mops, phi_fun)
    ci = mesh.n_cells // 2
    pts = mesh.vertices[mesh.cells[ci]]
    g = one_cell_group(pts, 2, quad_degree=2 * 2 + 6)
    pc = g.P_zero[0] @ phi[mops.layout.group_dofs([ci])[0]]
    A = forms.group_temperature(g, spec, pc[None])[0]
    # oracle: per-entry integration with an over-integrated independent rule
    qp, qw = alt_polygon_quadrature(pts, 2 * 2 + 6)
    el = OracleElement(pts, 2)
    kq = np.exp(el.mono(qp) @ pc)
    gx = el.mono(qp, 1) @ g.P_grad[0][0]
    gy = el.mono(qp, 1) @ g.P_grad[1][0]
    k0 = np.exp(float(pc @ g.int_m[0] / g.area[0]))
    A_ref = (gx * (qw * kq)[:, None]).T @ gx + (gy * (qw * kq)[:, None]).T @ gy + k0 * g.S[0]
    assert np.abs(A - A_ref).max() <= 1e-9 * max(1.0, np.abs(A_ref).max())


def test_local_convection_skew_and_zero():
    ops = _square_ops(1)
    u0 = np.zeros((1, 2, 3))
    assert np.abs(forms.group_convection(ops, u0)[0]).max() == 0.0
    uc = rng.normal(size=(2, 3))
    M = forms.group_convection(ops, uc[None], "skew")[0]
    assert np.abs(M + M.T).max() <= 1e-15
    for _ in range(5):
        psi = rng.normal(size=4)
        assert abs(psi @ M @ psi) <= 1e-13


def test_local_convection_unit_value():
    # u=(1,0), phi=x, psi=1: one-sided form equals |E| = 1; skew = 1/2
    ops = _square_ops(1)
    uc = np.zeros((1, 2, 3)); uc[0, 0, 0] = 1.0
    C1 = forms.group_convection(ops, uc, "convective")[0]
    x = SQUARE[:, 0]
    ones = np.ones(4)
    assert abs(ones @ C1 @ x - 1.0) <= 1e-12
    Cs = forms.group_convection(ops, uc, "skew")[0]
    assert abs(ones @ Cs @ x - 0.5) <= 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_local_lps_annihilation(k):
    ops = _square_ops(k)
    spec = _square_spec(k)
    L1, L2, L3 = (L[0] for L in forms.group_lps_terms(ops, spec))
    D = ops.D[0]
    nk = poly_dim(k)
    cv = rng.normal(size=nk)
    cw = rng.normal(size=nk)
    dv = np.concatenate([D @ cv, D @ cw])
    assert abs(dv @ L1 @ dv) <= 1e-11 * max(1.0, dv @ dv)
    cp = np.zeros(nk)
    cp[:poly_dim(k - 1)] = rng.normal(size=poly_dim(k - 1))
    dp = D @ cp
    assert abs(dp @ L2 @ dp) <= 1e-11 * max(1.0, dp @ dp)
    for L in (L1, L2, L3):
        assert np.abs(L - L.T).max() <= 1e-13 * max(1.0, np.abs(L).max())
        assert np.linalg.eigvalsh(L).min() >= -1e-12 * max(1.0, np.abs(L).max())


def test_lps_tau_scaling_with_h():
    spec = _square_spec(1)
    small = SQUARE * 0.5
    ops1 = _square_ops(1)
    ops2 = one_cell_group(small, 1)
    t1a, t2a, t3a = spec.taus(float(ops1.diameter[0]))
    t1b, t2b, t3b = spec.taus(float(ops2.diameter[0]))
    assert t1a == t1b                       # tau1 constant
    assert abs(t2a / t2b - 4.0) <= 1e-12    # tau2 ~ h^2
    assert abs(t3a / t3b - 2.0) <= 1e-12    # tau3 ~ h


def test_local_loads_unit_and_zero():
    ops = _square_ops(1)
    mesh = generate_mesh("uniform_square", UNIT_SQUARE, 1.0)
    spec = _const_spec_for(mesh, 1, heat_source=lambda x, y: np.ones_like(x))
    rm, rh = (r[0] for r in forms.group_loads(ops, spec))
    assert np.abs(rm).max() == 0.0           # no fixed source
    assert abs(np.ones(4) @ rh - 1.0) <= 1e-12
    spec0 = _const_spec_for(mesh, 1)
    rm0, rh0 = (r[0] for r in forms.group_loads(ops, spec0))
    assert np.abs(rm0).max() == 0.0 and np.abs(rh0).max() == 0.0


def test_local_loads_nonfinite_source_error():
    ops = _square_ops(1)
    mesh = generate_mesh("uniform_square", UNIT_SQUARE, 1.0)
    spec = _const_spec_for(mesh, 1, heat_source=lambda x, y: np.where(x > 0.2, np.nan, 1.0))
    with pytest.raises(forms.ConfigurationError, match="near"):
        forms.group_loads(ops, spec)


# ---------------------------------------------------------------------------
# dense-oracle equivalence of the local matrices (criterion-2 style)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("coeffs", ["constant", "nonlinear"])
def test_local_matrices_match_dense_oracle(k, coeffs):
    mesh = generate_mesh("voronoi", UNIT_SQUARE, 1 / 5)
    if coeffs == "constant":
        # default quadrature: every integrand is polynomial and exact
        mops = eo.build_mesh_ops(mesh, k)
        spec = make_spec(mesh, k, viscosity=1.3,
                         conductivity=0.8)
    else:
        # nonlinear coefficients require matching over-integration on both sides
        mops = eo.build_mesh_ops(mesh, k, quad_degree=2 * k + 6)
        mu = forms.Coefficient(func=lambda r: 1.0 + 0.5 * np.sin(r), lower=0.4,
                               upper=1.6, temp_range=(-4, 4))
        spec = make_spec(mesh, k, viscosity=mu,
                         conductivity=forms.Coefficient(func=lambda r: np.exp(0.3 * r),
                                                        lower=0.3, upper=3.4,
                                                        temp_range=(-4, 4), scale=1.0))
    for ci in (0, mesh.n_cells // 2):
        pts = mesh.vertices[mesh.cells[ci]]
        g = one_cell_group(pts, k, quad_degree=None if coeffs == "constant" else 2 * k + 6)
        pc = 0.4 * rng.normal(size=poly_dim(k))
        uc = rng.normal(size=(2, poly_dim(k)))
        ref = oracle_local_matrices(pts, k, spec, pc, uc)
        got = _one_cell_matrices(g, spec, pc, uc)
        for name in got:
            a, b = got[name], ref[name]
            denom = max(np.linalg.norm(b), 1e-14)
            assert np.linalg.norm(a - b) / denom <= 1e-9, f"{name} k={k} cell={ci}"


# ---------------------------------------------------------------------------
# global assembly
# ---------------------------------------------------------------------------

def test_assembled_invariants(meshes_h5):
    mesh = meshes_h5["distorted_square"]
    mops = eo.build_mesh_ops(mesh, 1)
    spec = _const_spec_for(mesh, 1, heat_source=lambda x, y: np.ones_like(x))
    asm = forms.Assembler(mops, spec)
    N = mops.n_scalar
    for L, dim in ((asm.L1, 2 * N), (asm.L2, N), (asm.L3, N)):
        for _ in range(20):
            v = rng.normal(size=dim)
            q = v @ (L @ v)
            assert q >= -1e-12 * max(1.0, abs(L).max() * (v @ v))
    # skew-symmetry of the convection block for a random velocity iterate
    u = rng.normal(size=2 * N)
    C = asm.convection_block(u)
    nrm = abs(C).max()
    for _ in range(50):
        psi = rng.normal(size=N)
        assert abs(psi @ (C @ psi)) <= 1e-12 * max(1.0, nrm * (psi @ psi))


def test_global_polynomial_annihilation(meshes_h5):
    mesh = meshes_h5["voronoi"]
    for k in (1, 2):
        mops = eo.build_mesh_ops(mesh, k)
        spec = _const_spec_for(mesh, k)
        asm = forms.Assembler(mops, spec)
        # global polynomial fields: L1 kills [P_k]^2, L2 kills P_{k-1}, L3 kills P_k
        u1 = interpolate_scalar(mops, lambda x, y: 0.2 + x - 0.7 * y + (x * y if k > 1 else 0))
        u2 = interpolate_scalar(mops, lambda x, y: -0.1 + 0.4 * x + y)
        uv = np.concatenate([u1, u2])
        assert abs(uv @ (asm.L1 @ uv)) <= 1e-11 * max(1.0, uv @ uv)
        p = interpolate_scalar(mops, (lambda x, y: np.full_like(x, 0.37)) if k == 1
                                    else (lambda x, y: 0.3 + x - y))
        assert abs(p @ (asm.L2 @ p)) <= 1e-11 * max(1.0, p @ p)
        phi = interpolate_scalar(mops, lambda x, y: 1 + x + y + (x * x if k > 1 else 0))
        assert abs(phi @ (asm.L3 @ phi)) <= 1e-11 * max(1.0, phi @ phi)


def test_patch_level_momentum_consistency(meshes_h5):
    """Constant-mu Stokes residual vanishes on exact polynomial fields."""
    mesh = meshes_h5["distorted_square"]
    for k in (1, 2):
        mops = eo.build_mesh_ops(mesh, k)
        if k == 1:
            u1 = lambda x, y: 0.3 + 1.0 * x + 2.0 * y
            u2 = lambda x, y: -0.4 + 3.0 * x - 1.0 * y
            p_ex = lambda x, y: np.zeros_like(x)
            F = lambda x, y: np.stack([np.zeros_like(x), np.zeros_like(x)])
        else:
            u1 = lambda x, y: x ** 2 + x * y
            u2 = lambda x, y: -2.0 * x * y - 0.5 * y ** 2
            p_ex = lambda x, y: x + y - 1.0
            F = lambda x, y: np.stack([np.full_like(x, -1.0), np.full_like(x, 2.0)])
        bcs = {m: forms.BoundaryCondition(
            velocity=lambda x, y: np.stack([u1(x, y), u2(x, y)]), temperature=None)
            for m in mesh.boundary_markers}
        spec = make_spec(mesh, k, viscosity=2.0,
                         bcs=bcs, fixed_source=F)
        asm = forms.Assembler(mops, spec)
        st = asm.build_stokes(np.zeros(mops.n_scalar))
        uv = interpolate_vector(mops, u1, u2)
        pv = interpolate_scalar(mops, p_ex)
        res = st.A_uu @ uv - st.B.T @ pv - st.rhs_momentum
        free = st.dirichlet_u.free
        scale = max(np.linalg.norm(st.rhs_momentum), np.linalg.norm(st.A_uu @ uv), 1.0)
        assert np.linalg.norm(res[free]) / scale <= 1e-9


def test_stokes_dimension_formula(meshes_h5):
    mesh = meshes_h5["voronoi"]
    mops = eo.build_mesh_ops(mesh, 1)
    spec = _const_spec_for(mesh, 1)
    asm = forms.Assembler(mops, spec)
    n_bnd = len(mops.layout.marker_point_dofs(mesh.boundary_markers))
    n_free_v = mesh.n_vertices - n_bnd
    # velocity two components on free vertices + all pressures + pinned dof
    # handled inside the solver; the assembled free system dimension is:
    assert len(asm.dirichlet_u.free) == 2 * n_free_v
    assert asm.N == mesh.n_vertices


def test_constant_viscosity_stokes_system_built_once(meshes_h5, monkeypatch):
    """With constant mu the Stokes system does not depend on the iterate, so
    a Picard run builds it once, from phi = 0."""
    from lpsvem import solver
    mesh = meshes_h5["voronoi"]
    mops = eo.build_mesh_ops(mesh, 1)
    bcs = {m: forms.BoundaryCondition(velocity=zero_velocity,
                                      temperature=lambda x, y: x * (1.0 - y))
           for m in mesh.boundary_markers}
    spec = _const_spec_for(mesh, 1, mu=2.0, bcs=bcs,
                           heat_source=lambda x, y: np.ones_like(x))
    asm = forms.Assembler(mops, spec)
    gen = np.random.default_rng(3)
    first = asm.build_stokes(np.zeros(mops.n_scalar))
    other = asm.build_stokes(gen.normal(size=mops.n_scalar))
    assert (first.A_uu != other.A_uu).nnz == 0
    assert np.array_equal(first.rhs_momentum, other.rhs_momentum)
    builds, build_stokes = [], forms.Assembler.build_stokes
    monkeypatch.setattr(forms.Assembler, "build_stokes",
                        lambda self, phi: builds.append(phi) or build_stokes(self, phi))
    _, rep = solver.picard_solve(spec, mops)
    assert rep.converged and rep.iterations > 1
    assert len(builds) == 1 and not builds[0].any()


def test_nonconstant_viscosity_stokes_system_rebuilt(meshes_h5):
    mesh = meshes_h5["voronoi"]
    mops = eo.build_mesh_ops(mesh, 1)
    mu = forms.Coefficient(func=lambda r: 1.0 + 0.5 * np.sin(r), lower=0.4,
                           upper=1.6, temp_range=(-4, 4))
    asm = forms.Assembler(mops, make_spec(mesh, 1, viscosity=mu))
    phi = np.random.default_rng(3).normal(size=mops.n_scalar)
    a, b = asm.build_stokes(phi), asm.build_stokes(phi)
    assert a is not b
    assert abs(asm.build_stokes(2 * phi).A_uu - a.A_uu).max() > 0.0


def test_missing_bc_raises(meshes_h5):
    mesh = meshes_h5["uniform_square"]
    mops = eo.build_mesh_ops(mesh, 1)
    bcs = {"left": forms.BoundaryCondition(velocity=zero_velocity)}
    with pytest.raises(forms.ConfigurationError, match="missing"):
        forms.Assembler(mops, make_spec(mesh, 1, bcs=bcs))
    bcs = {m: forms.BoundaryCondition(velocity=zero_velocity)
           for m in list(mesh.boundary_markers) + ["bogus"]}
    with pytest.raises(forms.ConfigurationError, match="unknown marker"):
        forms.Assembler(mops, make_spec(mesh, 1, bcs=bcs))


def test_order_mismatch_raises(meshes_h5):
    mesh = meshes_h5["uniform_square"]
    mops = eo.build_mesh_ops(mesh, 1)
    with pytest.raises(forms.ConfigurationError):
        forms.Assembler(mops, _const_spec_for(mesh, 2))


def test_negative_stabilization_constant_rejected(meshes_h5):
    mesh = meshes_h5["uniform_square"]
    with pytest.raises(forms.ConfigurationError):
        _const_spec_for(mesh, 1, c2=-1.0)


# ---------------------------------------------------------------------------
# grouped assembly against the cell-by-cell reference
# ---------------------------------------------------------------------------

def _reference_spec(mesh, k, nonlinear, form):
    kw = dict(fixed_source=lambda x, y: np.stack([np.sin(3 * x) * y, np.cos(2 * y) + x]),
              heat_source=lambda x, y: np.exp(x * y), convection_form=form)
    if nonlinear:
        mu = forms.Coefficient(func=lambda r: 1.0 + 0.5 * np.sin(r), lower=0.4,
                               upper=1.6, temp_range=(-4, 4))
        kappa = forms.Coefficient(func=lambda r: np.exp(0.3 * r), lower=0.3, upper=3.4,
                                  temp_range=(-4, 4), scale=1.0)
        return make_spec(mesh, k, viscosity=mu, conductivity=kappa, **kw)
    return _const_spec_for(mesh, k, mu=1.3, kappa=0.8, **kw)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("fam", MESH_FAMILIES)
def test_grouped_assembly_matches_per_cell_reference(fam, k):
    """Every global block and right-hand side equals the cell-by-cell assembly
    to 1e-12 * max(1, max|ref|), sparsity included; voronoi meshes mix vertex
    counts, so this also covers summing shared entries group by group, in
    another order than the mesh-order reference.  A_uu keeps the union
    pattern of the element blocks, that of L1: where the reference's sparse
    sum viscous + L1 drops an entry that sums to exactly zero (uniform
    squares at k=2 and 3), A_uu stores that zero."""
    mesh = generate_mesh(fam, UNIT_SQUARE, 1 / 5)
    mops = eo.build_mesh_ops(mesh, k)
    gen = np.random.default_rng(5)
    N = mops.n_scalar
    for cfg in [(False, "skew"), (True, "convective"), (True, "skew"), (False, "convective")]:
        spec = _reference_spec(mesh, k, *cfg)
        u, phi = gen.normal(size=2 * N), gen.normal(size=N)
        asm = forms.Assembler(mops, spec)
        st, tr = asm.build_stokes(phi), asm.build_transport(u, phi)
        got = {"A_uu": st.A_uu, "B": st.B, "L1": asm.L1, "L2": st.L2, "L3": tr.L3,
               "A_TT": tr.A_TT, "C": tr.C, "mass0": mass0(asm),
               "h1_surrogate": asm.h1_surrogate, "mean_row": st.mean_row,
               "rhs_momentum": st.rhs_momentum, "rhs_heat": tr.rhs_heat}
        ref = reference_assembly(mops, spec, u, phi)
        assert set(got) == set(ref)
        for name, r in ref.items():
            g = got[name]
            if sp.issparse(r):
                union = ref["L1"] if name == "A_uu" else r
                assert np.array_equal(g.indptr, union.indptr), f"{name} {cfg}"
                assert np.array_equal(g.indices, union.indices), f"{name} {cfg}"
                rows = np.repeat(np.arange(g.shape[0]), np.diff(g.indptr))
                g, r = g.data, np.asarray(r[rows, g.indices]).ravel()
            tol = 1e-12 * max(1.0, float(np.abs(r).max(initial=0.0)))
            assert np.abs(g - r).max(initial=0.0) <= tol, f"{name} {cfg}"


@pytest.mark.parametrize("fam, k", [("triangular", 1), ("distorted_square", 2), ("voronoi", 1)])
def test_block_pattern_assembles_like_coo_tocsr(fam, k):
    """``_BlockPattern.assemble`` equals scipy's ``coo_matrix(...).tocsr()``
    bit for bit, signed zeros included, on the scalar, vector and
    pressure-velocity patterns: it sums the duplicates in the order scipy's
    sort leaves them, so a change of that order fails here.  A third of the
    local entries are zeros of either sign."""
    mesh = generate_mesh(fam, UNIT_SQUARE, 1 / 6)
    asm = forms.Assembler(eo.build_mesh_ops(mesh, k), _const_spec_for(mesh, k))
    gen = np.random.default_rng(4)
    for pattern, row_dofs, col_dofs in ((asm._scalar, asm._sdofs, asm._sdofs),
                                        (asm._vector, asm._vdofs, asm._vdofs),
                                        (asm._pv, asm._sdofs, asm._vdofs)):
        local = [gen.normal(size=(len(r), r.shape[1], c.shape[1]))
                 for r, c in zip(row_dofs, col_dofs)]
        for a in local:
            a[gen.random(a.shape) < 0.25] = -0.0
            a[gen.random(a.shape) < 0.1] = 0.0
        rows = np.concatenate([np.repeat(r, c.shape[1], axis=1).ravel()
                               for r, c in zip(row_dofs, col_dofs)])
        cols = np.concatenate([np.tile(c, (1, r.shape[1])).ravel()
                               for r, c in zip(row_dofs, col_dofs)])
        want = sp.coo_matrix((np.concatenate([a.ravel() for a in local]), (rows, cols)),
                             shape=pattern.shape).tocsr()
        got = pattern.assemble(local)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.signbit(want.data[want.data == 0.0]).any()
        assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


def _voronoi_k2():
    mesh = generate_mesh("voronoi", UNIT_SQUARE, 1 / 5)
    return mesh, eo.build_mesh_ops(mesh, 2)


def test_viscosity_bounds_error_names_lowest_cell():
    mesh, mops = _voronoi_k2()
    groups = mops.groups
    # a: not the first cell of a later group; b: a higher id in the first group;
    # c: a higher id in a's group
    g = next(g for g in groups[1:] if len(g.cell_ids) >= 3)
    a, c = int(g.cell_ids[1]), int(g.cell_ids[-1])
    b = next(int(ci) for ci in groups[0].cell_ids if ci > a)
    phi = np.zeros(mops.n_scalar)
    for ci in (a, b, c):
        phi[mops.layout.group_dofs([ci])[0][-1]] = 10.0   # the cell mean: touches one cell only
    mu = forms.Coefficient(func=lambda r: 1.0 + 0.01 * r, lower=0.5, upper=1.05)
    asm = forms.Assembler(mops, make_spec(mesh, 2, viscosity=mu))
    asm.build_stokes(np.zeros(mops.n_scalar))
    with pytest.raises(forms.ConfigurationError, match=rf"^cell {a}: viscosity value") as exc:
        asm.build_stokes(phi)
    assert exc.value.cell_id == a


def test_conductivity_bounds_error_names_lowest_cell():
    """The conductivity gets the viscosity's check: the error names the
    lowest cell where it leaves its declared bounds, across groups."""
    mesh, mops = _voronoi_k2()
    groups = mops.groups
    g = next(g for g in groups[1:] if len(g.cell_ids) >= 3)
    a, c = int(g.cell_ids[1]), int(g.cell_ids[-1])
    b = next(int(ci) for ci in groups[0].cell_ids if ci > a)
    phi = np.zeros(mops.n_scalar)
    for ci in (a, b, c):
        phi[mops.layout.group_dofs([ci])[0][-1]] = -10.0   # the cell mean of one cell
    kappa = forms.Coefficient(func=lambda r: 1.0 + 0.01 * r, lower=0.95, upper=2.0)
    asm = forms.Assembler(mops, make_spec(mesh, 2, conductivity=kappa))
    asm.diffusion_block(np.zeros(mops.n_scalar))
    with pytest.raises(forms.ConfigurationError,
                       match=rf"^cell {a}: conductivity value 0\.[0-8]\d* outside declared "
                             rf"bounds \[0\.95, 2\]$") as exc:
        asm.build_transport(np.zeros(2 * mops.n_scalar), phi)
    assert exc.value.cell_id == a


@pytest.mark.parametrize("field", ["heat_source", "fixed_source"])
def test_nonfinite_source_names_first_point_in_mesh_order(field):
    mesh, mops = _voronoi_k2()
    later = [g for g in mops.groups[1:]]
    # bad points around the centroids of two cells: one of a later group with a
    # lower id, one of the first group with a higher id
    a = int(later[0].cell_ids[1])
    b = next(int(ci) for ci in mops.groups[0].cell_ids if ci > a)
    geo = {ci: (grp.centroid[j], grp.diameter[j]) for grp in mesh.cell_groups
           for j, ci in enumerate(grp.cell_ids.tolist())}
    centres = [geo[ci][0] for ci in (b, a)]
    radius = 0.3 * min(geo[ci][1] for ci in (a, b))

    def bad(x, y):
        return np.any([np.hypot(x - c[0], y - c[1]) < radius for c in centres], axis=0)

    if field == "heat_source":
        f = lambda x, y: np.where(bad(x, y), np.nan, 1.0)
        what = "heat source"
    else:
        # only the second component is bad
        f = lambda x, y: np.stack([np.ones_like(x), np.where(bad(x, y), np.inf, 1.0)])
        what = "momentum source"
    pts = cell_views(mops)[a].qpts
    x0, y0 = pts[bad(pts[:, 0], pts[:, 1])][0]
    spec = _const_spec_for(mesh, 2, **{field: f})
    with pytest.raises(forms.ConfigurationError,
                       match=rf"^{what} is not finite near \({x0:.6g}, {y0:.6g}\)$") as exc:
        forms.Assembler(mops, spec).build_stokes(np.zeros(mops.n_scalar))
    assert exc.value.cell_id == a


def test_nonlinear_kappa_without_iterate_raises():
    mesh, mops = _voronoi_k2()
    cond = forms.Coefficient(func=lambda r: np.exp(r), lower=0.5, upper=10.0, scale=1.0)
    spec = make_spec(mesh, 2, conductivity=cond)
    with pytest.raises(forms.ConfigurationError, match="needs a temperature iterate"):
        forms.group_temperature(one_cell_group(mesh.vertices[mesh.cells[0]], 2), spec)
    with pytest.raises(forms.ConfigurationError, match="needs a temperature iterate"):
        forms.group_temperature(mops.groups[0], spec)
