import dataclasses

import numpy as np
import pytest

from conftest import one_cell_group
from lpsvem import element_ops as eo
from lpsvem.geometry import (MESH_FAMILIES, GeometryError, PolyMesh,
                             UNIT_SQUARE, generate_mesh)
from lpsvem.polybasis import ConditionWarning, grad_coeff_ref, poly_dim
from oracles import (FemRealizer, OracleElement, cell_views, interpolate_scalar,
                     reference_cell_ops)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
# asymmetric, with a reflex vertex at (0.5, 0.45)
NONCONVEX = np.array([[0.0, 0.0], [1.0, 0.1], [0.9, 1.0], [0.5, 0.45], [0.1, 0.8]])


@pytest.fixture
def rng():
    """A generator per test, so no result depends on which tests ran first."""
    return np.random.default_rng(7)


def assert_product_vanishes(R, d):
    """|R d| within rounding of the product: 32 ulp of ||R||_inf ||d||_inf.

    R d is zero only in exact arithmetic; for k=2 the entries of R carry
    1/h_E and reach the hundreds, so an absolute bound does not fit.
    """
    bound = 32 * np.finfo(float).eps * np.linalg.norm(R, np.inf) * np.abs(d).max()
    assert np.abs(R @ d).max() <= bound


@pytest.mark.parametrize("k", [1, 2])
def test_polynomial_reproduction_all_families(mops_h5, k, rng):
    for fam in ("voronoi", "distorted_square", "uniform_square", "nonconvex"):
        mops = mops_h5[(fam, k)]
        cells = cell_views(mops)
        for ops in cells[::max(1, len(cells) // 6)]:
            for _ in range(10):
                c = rng.normal(size=poly_dim(k))
                d = ops.D @ c
                assert np.abs(ops.P_nabla @ d - c).max() <= 1e-10
                assert np.abs(ops.P_zero @ d - c).max() <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pi_nabla_trivial_cases(k):
    g = one_cell_group(SQUARE, k)
    P, D = g.P_nabla[0], g.D[0]
    # dofs of the first-order monomial xi reproduce its coefficient vector
    c = np.zeros(poly_dim(k))
    c[1] = 1.0
    assert np.abs(P @ (D @ c) - c).max() <= 1e-12
    # constants rely on the boundary-mean constraint line
    c0 = np.zeros(poly_dim(k))
    c0[0] = 1.0
    assert np.abs(P @ (D @ c0) - c0).max() <= 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_pi_nabla_matches_dense_oracle(k, rng):
    g = one_cell_group(SQUARE, k)
    el = OracleElement(SQUARE, k)
    for _ in range(4):
        d = rng.normal(size=g.n_dof)
        assert np.abs(g.P_nabla[0] @ d - el.pi_nabla(d)).max() <= 1e-10


def test_idempotency(mops_h5):
    for k in (1, 2):
        mops = mops_h5[("distorted_square", k)]
        for ops in cell_views(mops)[:5]:
            P, D = ops.P_nabla, ops.D
            assert np.abs(P @ (D @ P) - P).max() <= 1e-11


def test_unisolvence_full_column_rank(mops_h5):
    for (fam, k), mops in mops_h5.items():
        cells = cell_views(mops)
        for ops in cells[::max(1, len(cells) // 5)]:
            s = np.linalg.svd(ops.D, compute_uv=False)
            assert s[-1] / s[0] > 1e-10, f"{fam} k={k}"


@pytest.mark.parametrize("k", [1, 2])
def test_pi_zero_polynomials(k, rng):
    g = one_cell_group(SQUARE, k)
    c = rng.normal(size=poly_dim(k))
    assert np.abs(g.P_zero[0] @ (g.D[0] @ c) - c).max() <= 1e-11


def test_pi_zero_hat_enhancement_identity():
    """The mean moment of the k=1 hat equals the moment of its energy
    projection (the defining enhancement constraint)."""
    g = one_cell_group(SQUARE, 1)
    hat = np.array([1.0, 0.0, 0.0, 0.0])
    mom_from_pzero = (g.H[0] @ (g.P_zero[0] @ hat))[0]
    mom_from_pinabla = (g.H[0] @ (g.P_nabla[0] @ hat))[0]
    assert abs(mom_from_pzero - mom_from_pinabla) <= 1e-13


def test_pi_zero_x_squared_data_on_k1_square():
    """Vertex data of x^2 on a k=1 square: the projection equals that of the
    bilinear interpolant and matches the dense oracle."""
    g = one_cell_group(SQUARE, 1)
    x = SQUARE[:, 0]
    d = x ** 2
    el = OracleElement(SQUARE, 1)
    assert np.abs(g.P_zero[0] @ d - el.pi_zero(d)).max() <= 1e-11


@pytest.mark.parametrize("k", [1, 2])
def test_pi_grad_polynomials_and_constants(k, rng):
    g = one_cell_group(SQUARE, k)
    D, (gx, gy) = g.D[0], (p[0] for p in g.P_grad)
    Dx, Dy = (Dc / g.diameter[0] for Dc in grad_coeff_ref(k))
    c = rng.normal(size=poly_dim(k))
    d = D @ c
    assert np.abs(gx @ d - Dx @ c).max() <= 1e-11
    assert np.abs(gy @ d - Dy @ c).max() <= 1e-11
    const = D @ np.eye(poly_dim(k))[0]
    assert np.abs(gx @ const).max() <= 1e-12
    assert np.abs(gy @ const).max() <= 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_pi_grad_matches_dense_oracle(k, rng):
    pts = np.array([[0.0, 0.0], [0.23, -0.02], [0.25, 0.21], [-0.03, 0.2]])
    g = one_cell_group(pts, k)
    el = OracleElement(pts, k)
    for _ in range(3):
        d = rng.normal(size=g.n_dof)
        og = el.pi_grad(d, k - 1)
        assert np.abs(g.P_grad[0][0] @ d - og[0]).max() <= 1e-11
        assert np.abs(g.P_grad[1][0] @ d - og[1]).max() <= 1e-11


@pytest.mark.parametrize("k", [1, 2])
def test_fluctuation_vanishes_on_polynomials(mops_h5, k, rng):
    mops = mops_h5[("nonconvex", k)]
    for ops in cell_views(mops)[:6]:
        c = rng.normal(size=poly_dim(k))
        d = ops.D @ c
        assert_product_vanishes(ops.R_grad[0], d)
        assert_product_vanishes(ops.R_grad[1], d)
        # vector polynomial: divergence fluctuation vanishes as well
        c2 = rng.normal(size=poly_dim(k))
        dv = np.concatenate([d, ops.D @ c2])
        assert_product_vanishes(ops.R_div, dv)


def test_fluctuation_single_vertex_dof_against_oracle():
    g = one_cell_group(SQUARE, 1)
    el = OracleElement(SQUARE, 1)
    d = np.array([1.0, 0.0, 0.0, 0.0])
    hi = el.pi_grad(d, 1)
    lo = el.pi_grad(d, 0)
    for comp in range(2):
        ref = hi[comp].copy()
        ref[: len(lo[comp])] -= lo[comp]
        assert np.abs(g.R_grad[comp][0] @ d - ref).max() <= 1e-11


@pytest.mark.parametrize("k", [1, 2])
def test_stabilizer_kernel_and_symmetry(k, rng):
    g = one_cell_group(SQUARE, k)
    S = g.S[0]
    c = rng.normal(size=poly_dim(k))
    d = g.D[0] @ c
    assert d @ S @ d <= 1e-12 * (d @ d)
    assert np.abs(S - S.T).max() == 0.0
    assert np.linalg.eigvalsh(S).min() >= -1e-12
    # the kernel is exactly the polynomial dof vectors
    assert np.linalg.matrix_rank(S, tol=1e-10) == g.n_dof - poly_dim(k)


def test_stabilizer_hat_within_window_of_h1_seminorm():
    g = one_cell_group(SQUARE, 1)
    fr = FemRealizer(SQUARE, 1, refine=3)
    hat = np.array([1.0, 0.0, 0.0, 0.0])
    s = float(hat @ g.S[0] @ hat)
    ref = fr.h1_seminorm_sq_nonpoly(hat, g.P_nabla[0] @ hat)
    assert 0.1 * ref <= s <= 10.0 * ref


@pytest.mark.parametrize("pts", [SQUARE, NONCONVEX], ids=["square", "nonconvex"])
@pytest.mark.parametrize("k", [1, 2])
def test_fem_realizer_reproduces_linears(k, pts):
    """The oracle of the spectral test realizes every P_1 dof vector as the
    linear itself; this fails if the boundary mean fixing the constant of
    its energy projection, or its hat-monomial moments, are inexact."""
    g = one_cell_group(pts, k)
    fr = FemRealizer(pts, k, refine=3)
    for c in np.eye(poly_dim(k))[:3]:
        err = np.abs(fr.realize(g.D[0] @ c) - fr.el.mono(fr.nodes) @ c).max()
        assert err <= 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_spectral_equivalence_on_families(meshes_h5, mops_h5, k, rng):
    """theta_* > 0.05 and theta^* < 20 against the FEM-realized seminorm."""
    lo, hi = np.inf, 0.0
    for fam in ("voronoi", "distorted_square", "uniform_square", "nonconvex"):
        mops = mops_h5[(fam, k)]
        mesh = meshes_h5[fam]
        cells = cell_views(mops)
        for ci in range(0, mesh.n_cells, max(1, mesh.n_cells // 3)):
            ops = cells[ci]
            fr = FemRealizer(mesh.vertices[mesh.cells[ci]], k, refine=3)
            for _ in range(12):
                v = rng.normal(size=ops.n_dof)
                s = float(v @ ops.S @ v)
                ref = fr.h1_seminorm_sq_nonpoly(v, ops.P_nabla @ v)
                if ref < 1e-12:
                    continue
                lo = min(lo, s / ref)
                hi = max(hi, s / ref)
    assert lo > 0.05
    assert hi < 20.0


def test_second_energy_projector_for_pressure_stabilizer():
    for k in (1, 2):
        g = one_cell_group(SQUARE, k)
        D, S_lo = g.D[0], g.S_lo[0]
        c = np.zeros(poly_dim(k))
        c[0] = 2.5   # constants lie in ker(I - Pi_nabla_{k-1})
        d = D @ c
        assert d @ S_lo @ d <= 1e-12 * (d @ d)
        if k == 2:
            c1 = np.zeros(poly_dim(k))
            c1[2] = 1.0  # eta is degree 1, also in the kernel
            d1 = D @ c1
            assert d1 @ S_lo @ d1 <= 1e-12 * (d1 @ d1)


def test_dof_layout_counts_and_edge_orientation():
    mesh = generate_mesh("voronoi", UNIT_SQUARE, 1 / 5)
    for k in (1, 2, 3):
        lay = eo.DofLayout(mesh, k)
        nk2 = poly_dim(k - 2)
        assert lay.n_scalar == mesh.n_vertices + mesh.n_edges * (k - 1) + mesh.n_cells * nk2
        for ci, cell in enumerate(mesh.cells):
            assert len(lay.group_dofs([ci])[0]) == len(cell) * k + nk2
    # interpolation of a global polynomial is reproduced cellwise (this fails
    # if shared edge dofs are ordered inconsistently between the two cells)
    mops = eo.build_mesh_ops(mesh, 2)
    f = lambda x, y: 0.3 + x - 2 * y + 0.5 * x * y
    d = interpolate_scalar(mops, f)
    for ops in cell_views(mops):
        loc = d[ops.dofs]
        vals = ops.Pq @ loc
        ref = f(ops.qpts[:, 0], ops.qpts[:, 1])
        assert np.abs(vals - ref).max() <= 1e-11


def _per_cell_dofs(mesh, lay, ci):
    """Global dofs of one cell, edge by edge: vertices, edge nodes in traversal
    order, internal moments."""
    cell = mesh.cells[ci]
    ids = [cell]
    for loc, eid in enumerate(mesh.cell_edges[ci]):
        ed = lay.edge_dofs(eid)
        ids.append(ed if mesh.edges[eid, 0] == cell[loc] else ed[::-1])
    base = lay.n_point + ci * lay.n_moment_per_cell
    ids.append(np.arange(base, base + lay.n_moment_per_cell))
    return np.concatenate(ids)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_group_dofs_match_per_cell_layout(k):
    mesh = generate_mesh("voronoi", UNIT_SQUARE, 1 / 5)
    mops = eo.build_mesh_ops(mesh, k)
    assert len(mops.groups) > 1
    for g in mops.groups:
        for j, ci in enumerate(g.cell_ids):
            ref = _per_cell_dofs(mesh, mops.layout, ci)
            assert np.array_equal(g.dofs[j], ref)
            assert np.array_equal(mops.layout.group_dofs([ci])[0], ref)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_interpolate_scalar_one_call_per_group(k):
    """f is called once for the point dofs and once per group; the moments
    equal the cell-by-cell formula bit for bit."""
    mesh = generate_mesh("voronoi", UNIT_SQUARE, 1 / 5)
    mops = eo.build_mesh_ops(mesh, k)
    calls = []

    def f(x, y):
        calls.append(len(x))
        return np.exp(x) * np.sin(3 * y)
    d = interpolate_scalar(mops, f)
    lay = mops.layout
    nmom = lay.n_moment_per_cell
    assert len(calls) == 1 + (len(mops.groups) if nmom else 0)
    pts = lay.point_dof_coords()
    assert np.array_equal(d[:lay.n_point], f(pts[:, 0], pts[:, 1]))
    for ops in cell_views(mops):
        if nmom:
            q = ops.qpts
            mom = (ops.qw * f(q[:, 0], q[:, 1])) @ ops.Phi[:, :nmom]
            assert np.array_equal(d[ops.dofs[-nmom:]], mom / ops.area)


def test_condition_warning_recorded_on_sliver():
    sliver = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2e-7], [0.0, 1e-7]])
    with pytest.warns(ConditionWarning,
                      match=r"^cell 0: mass matrix condition number > 1e12$"):
        one_cell_group(sliver, 2)


def test_unsupported_order():
    with pytest.raises(ValueError):
        one_cell_group(SQUARE, 4)


def _per_cell_fields(ops):
    """(name, array) for every field of a one-cell operator bundle; tuples
    give one entry per component."""
    out = []
    for f in dataclasses.fields(eo.GroupOps):
        if f.name in ("cell_ids", "dofs"):
            continue
        val = getattr(ops, f.name)
        if isinstance(val, tuple):
            out.extend((f"{f.name}[{c}]", np.asarray(v)) for c, v in enumerate(val))
        else:
            out.append((f.name, np.asarray(val)))
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("fam", MESH_FAMILIES)
def test_grouped_build_matches_per_cell_reference(fam, k):
    """Every field of every cell equals the cell-by-cell construction to
    1e-10 * max(1, max|ref|); voronoi meshes mix vertex counts, so this also
    covers the grouping and the dofs of each cell."""
    mesh = generate_mesh(fam, UNIT_SQUARE, 1 / 5)
    mops = eo.build_mesh_ops(mesh, k)
    views = cell_views(mops)
    seen = []
    for grp, geo in zip(mops.groups, mesh.cell_groups):
        assert np.array_equal(grp.cell_ids, geo.cell_ids)
        for j, ci in enumerate(grp.cell_ids.tolist()):
            seen.append(ci)
            ref = reference_cell_ops(mesh.vertices[mesh.cells[ci]], k, cell_id=ci)
            assert np.array_equal(geo.vertices[j], mesh.vertices[mesh.cells[ci]])
            for name in ("vertices", "area", "centroid", "diameter", "edge_lengths",
                         "edge_normals", "triangles"):
                g, r = getattr(geo, name)[j], getattr(ref.geom, name)[0]
                assert np.abs(g - r).max(initial=0.0) <= 1e-10 * max(
                    1.0, float(np.abs(r).max(initial=0.0))), f"cell {ci} {name}"
            assert (grp.n_dof, grp.k) == (ref.n_dof, ref.k)
            assert np.array_equal(grp.dofs[j], _per_cell_dofs(mesh, mops.layout, ci))
            got = dict(_per_cell_fields(views[ci]))
            want = _per_cell_fields(ref)
            assert set(got) == {name for name, _ in want}
            for name, r in want:
                g = got[name]
                assert g.shape == r.shape, f"cell {ci} {name}"
                tol = 1e-10 * max(1.0, float(np.abs(r).max(initial=0.0)))
                assert np.abs(g - r).max(initial=0.0) <= tol, f"cell {ci} {name}"
    assert sorted(seen) == list(range(mesh.n_cells))


def _strip_mesh(xs):
    """A row of quadrilaterals [xs[i], xs[i+1]] x [0, 1]."""
    n = len(xs)
    verts = np.array([(x, 0.0) for x in xs] + [(x, 1.0) for x in xs])
    cells = [np.array([i, i + 1, n + i + 1, n + i]) for i in range(n - 1)]
    return PolyMesh(verts, cells, {})


def test_condition_warning_names_only_the_sliver_cell():
    mesh = _strip_mesh([0.0, 1.0, 2.0, 2.0 + 2e-7, 3.0, 4.0])    # cell 2 is a sliver
    with pytest.warns(ConditionWarning) as rec:
        eo.build_mesh_ops(mesh, 2)
    msgs = [str(w.message) for w in rec if issubclass(w.category, ConditionWarning)]
    assert msgs == ["cell 2: mass matrix condition number > 1e12"]


def test_degenerate_cell_error_names_its_id():
    mesh = generate_mesh("voronoi", UNIT_SQUARE, 1 / 5)
    counts = np.array([len(c) for c in mesh.cells])
    # a cell behind at least one other cell of its vertex-count group
    ci = next(i for i in range(mesh.n_cells) if np.sum(counts[:i] == counts[i]) >= 2)
    cells = [c.copy() for c in mesh.cells]
    cells[ci] = cells[ci][::-1]                  # clockwise: non-positive area
    bad = PolyMesh(mesh.vertices, cells, {})
    with pytest.raises(GeometryError, match=rf"^cell {ci}: non-positive area"):
        eo.build_mesh_ops(bad, 1)


def test_singular_energy_system_names_its_cell():
    G = np.stack([np.eye(3), np.diag([1.0, 1.0, 0.0]), np.eye(3)])
    B = np.ones((3, 3, 4))
    with pytest.raises(eo.ElementError, match=r"^cell 17: energy projector rank-deficient"):
        eo._solve_energy(G, B, np.array([5, 17, 30]))
