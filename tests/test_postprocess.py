import math

import numpy as np
import pytest

from lpsvem import element_ops as eo
from lpsvem import postprocess as pp
from lpsvem.geometry import MESH_FAMILIES, UNIT_SQUARE, generate_mesh
from lpsvem.solver import CoupledState
from oracles import (cell_views, interpolate_scalar, interpolate_vector, observed_rates,
                     reference_errors)

rng = np.random.default_rng(13)


@pytest.fixture(scope="module")
def setup():
    mesh = generate_mesh("voronoi", UNIT_SQUARE, 1 / 5)
    mops = eo.build_mesh_ops(mesh, 2)
    return mesh, mops


def _poly_exact():
    u = lambda x, y: np.stack([x ** 2 + x * y, -2.0 * x * y - 0.5 * y ** 2])
    gu = lambda x, y: np.stack([
        np.stack([2 * x + y, x]),
        np.stack([-2.0 * y, -2.0 * x - y])])
    p = lambda x, y: x + y - 1.0
    phi = lambda x, y: x * y + 0.5 * x ** 2
    gphi = lambda x, y: np.stack([y + x, x])
    return pp.ExactFields(u=u, grad_u=gu, p=p, phi=phi, grad_phi=gphi)


def test_zero_errors_for_exact_polynomial_state(setup):
    mesh, mops = setup
    ex = _poly_exact()
    u = interpolate_vector(mops, lambda x, y: ex.u(x, y)[0], lambda x, y: ex.u(x, y)[1])
    p = interpolate_scalar(mops, ex.p)
    phi = interpolate_scalar(mops, ex.phi)
    st = CoupledState(u=u, p=p, phi=phi)
    e = pp.compute_errors(st, ex, mops)
    for val in (e.e_u_h1, e.e_u_l2, e.e_p_l2, e.e_phi_h1, e.e_phi_l2):
        assert val <= 1e-10
    assert abs(e.phi_dev_min) <= 1e-12 and abs(e.phi_dev_max) <= 1e-12


def test_errors_scale_linearly_against_zero_state(setup):
    mesh, mops = setup
    ex = _poly_exact()
    N = mops.n_scalar
    zero = CoupledState(u=np.zeros(2 * N), p=np.zeros(N), phi=np.zeros(N))
    e1 = pp.compute_errors(zero, ex, mops)
    two = pp.ExactFields(
        u=lambda x, y: 2 * ex.u(x, y), grad_u=lambda x, y: 2 * ex.grad_u(x, y),
        p=lambda x, y: 2 * ex.p(x, y), phi=lambda x, y: 2 * ex.phi(x, y),
        grad_phi=lambda x, y: 2 * ex.grad_phi(x, y))
    e2 = pp.compute_errors(zero, two, mops)
    for name in ("e_u_h1", "e_u_l2", "e_p_l2", "e_phi_h1", "e_phi_l2"):
        assert abs(getattr(e2, name) - 2 * getattr(e1, name)) <= 1e-10 * getattr(e1, name)


def test_divergence_violation_zero_for_divfree_polynomial(setup):
    mesh, mops = setup
    u = interpolate_vector(mops, lambda x, y: x ** 2 + y, lambda x, y: -2.0 * x * y)
    N = mops.n_scalar
    st = CoupledState(u=u, p=np.zeros(N), phi=np.zeros(N))
    e = pp.compute_errors(st, None, mops)
    assert e.div_violation <= 1e-11


def test_nonfinite_provider_raises(setup):
    mesh, mops = setup
    ex = _poly_exact()
    bad = pp.ExactFields(u=ex.u, grad_u=ex.grad_u,
                         p=lambda x, y: np.where(x > 0.5, np.nan, 0.0),
                         phi=ex.phi, grad_phi=ex.grad_phi)
    N = mops.n_scalar
    st = CoupledState(u=np.zeros(2 * N), p=np.zeros(N), phi=np.zeros(N))
    # the lowest cell with a quadrature point at x > 0.5, and its first such point
    first = next(ops for ops in cell_views(mops) if np.any(ops.qpts[:, 0] > 0.5))
    x0, y0 = first.qpts[first.qpts[:, 0] > 0.5][0]
    with pytest.raises(ValueError,
                       match=rf"^pressure is not finite near \({x0:.6g}, {y0:.6g}\)$") as exc:
        pp.compute_errors(st, bad, mops)
    assert exc.value.cell_id == first.cell_id
    # the first group has failing cells too, but the lowest id lies in a later one
    g0 = mops.groups[0]
    assert np.any(g0.qpts[..., 0] > 0.5) and first.cell_id not in g0.cell_ids


def _smooth_exact():
    """Non-polynomial fields with a pressure of nonzero mean."""
    u = lambda x, y: np.stack([np.sin(2 * x) * np.cos(y), np.exp(x - y)])
    gu = lambda x, y: np.stack([
        np.stack([2 * np.cos(2 * x) * np.cos(y), -np.sin(2 * x) * np.sin(y)]),
        np.stack([np.exp(x - y), -np.exp(x - y)])])
    p = lambda x, y: np.cos(3 * x * y) + 0.4
    phi = lambda x, y: np.exp(x * y)
    gphi = lambda x, y: np.stack([y * np.exp(x * y), x * np.exp(x * y)])
    return pp.ExactFields(u=u, grad_u=gu, p=p, phi=phi, grad_phi=gphi)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("fam", MESH_FAMILIES)
def test_grouped_errors_match_per_cell_reference(fam, k):
    """Every error norm and exported vertex field of the grouped
    ``compute_errors``/``_vertex_fields`` equals the cell-by-cell reference
    to 1e-12 relative; voronoi meshes mix vertex counts."""
    mesh = generate_mesh(fam, UNIT_SQUARE, 1 / 5)
    mops = eo.build_mesh_ops(mesh, k)
    gen = np.random.default_rng(3)
    N = mops.n_scalar
    st = CoupledState(u=gen.normal(size=2 * N), p=gen.normal(size=N),
                      phi=gen.normal(size=N))
    for exact, phi_reference in ((_smooth_exact(), None), (None, 0.5)):
        got = pp.compute_errors(st, exact, mops, phi_reference=phi_reference)
        ref, ref_fields = reference_errors(st, exact, mops, phi_reference=phi_reference)
        for name, r in ref.items():
            g = getattr(got, name)
            if r is None:
                assert g is None, name
            else:
                assert abs(g - r) <= 1e-12 * abs(r), f"{name}: {g!r} vs {r!r}"
    fields = pp._vertex_fields(st, mops)
    assert fields.shape == ref_fields.shape == (mesh.n_vertices, 4)
    for c in range(4):
        tol = 1e-12 * np.abs(ref_fields[:, c]).max()
        assert np.abs(fields[:, c] - ref_fields[:, c]).max() <= tol, f"column {c}"


def test_observed_rates():
    assert observed_rates([1 / 5, 1 / 10], [0.4, 0.1]) == [2.0]
    assert observed_rates([1 / 5, 1 / 10], [0.3, 0.3]) == [0.0]
    assert observed_rates([1 / 5, 1 / 10], [0.3, 0.0]) == [math.inf]
    rates = observed_rates([1 / 5, 1 / 10, 1 / 20], [8.0, 2.0, 0.5])
    assert np.allclose(rates, [2.0, 2.0])
    with pytest.raises(ValueError):
        observed_rates([1 / 5], [0.1])


def test_export_zero_state_and_determinism(setup, tmp_path):
    mesh, mops = setup
    N = mops.n_scalar
    zero = CoupledState(u=np.zeros(2 * N), p=np.zeros(N), phi=np.zeros(N))
    f1 = tmp_path / "a.vtk"
    f2 = tmp_path / "b.vtk"
    pp.export_fields(zero, mesh, mops, f1, "vtk_legacy")
    pp.export_fields(zero, mesh, mops, f2, "vtk_legacy")
    assert f1.read_bytes() == f2.read_bytes()
    body = f1.read_text()
    assert "0 0 0" in body  # zero velocity rows


def test_vtk_schema(setup, tmp_path):
    mesh, mops = setup
    N = mops.n_scalar
    st = CoupledState(u=rng.normal(size=2 * N), p=rng.normal(size=N),
                      phi=rng.normal(size=N))
    path = tmp_path / "f.vtk"
    pp.export_fields(st, mesh, mops, path, "vtk_legacy")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert "ASCII" in lines[2]
    assert lines[3] == "DATASET POLYDATA"
    ptline = [l for l in lines if l.startswith("POINTS")][0]
    assert int(ptline.split()[1]) == mesh.n_vertices
    polyline = [l for l in lines if l.startswith("POLYGONS")][0]
    ncells, size = int(polyline.split()[1]), int(polyline.split()[2])
    assert ncells == mesh.n_cells
    assert size == sum(len(c) + 1 for c in mesh.cells)
    start = lines.index(polyline) + 1
    for loc, c in enumerate(mesh.cells):
        row = [int(t) for t in lines[start + loc].split()]
        assert row[0] == len(c) and max(row[1:]) < mesh.n_vertices
    assert f"POINT_DATA {mesh.n_vertices}" in lines
    assert sum(1 for l in lines if l.startswith("SCALARS")) == 2
    assert any(l.startswith("VECTORS velocity") for l in lines)


def test_csv_schema(setup, tmp_path):
    mesh, mops = setup
    N = mops.n_scalar
    st = CoupledState(u=np.zeros(2 * N), p=np.zeros(N), phi=np.zeros(N))
    path = tmp_path / "f.csv"
    pp.export_fields(st, mesh, mops, path, "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,u1,u2,p,phi"
    assert len(lines) == mesh.n_vertices + 1


def test_export_unknown_format(setup, tmp_path):
    mesh, mops = setup
    N = mops.n_scalar
    st = CoupledState(u=np.zeros(2 * N), p=np.zeros(N), phi=np.zeros(N))
    with pytest.raises(ValueError):
        pp.export_fields(st, mesh, mops, tmp_path / "f.xyz", "xyz")


def test_projected_fields_consistent_at_vertices(setup, tmp_path):
    """Exported vertex values reproduce a global polynomial field."""
    mesh, mops = setup
    f1 = lambda x, y: 0.25 + x - 0.5 * y
    u = interpolate_vector(mops, f1, f1)
    p = interpolate_scalar(mops, f1)
    st = CoupledState(u=u, p=p, phi=p)
    path = tmp_path / "poly.csv"
    pp.export_fields(st, mesh, mops, path, "csv")
    rows = np.genfromtxt(path, delimiter=",", names=True)
    ref = f1(rows["x"], rows["y"])
    for col in ("u1", "u2", "p", "phi"):
        assert np.abs(rows[col] - ref).max() <= 1e-10
