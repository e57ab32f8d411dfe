import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import one_cell_group
from lpsvem.geometry import CellGroup
from lpsvem.polybasis import (ConditionWarning, build_quadrature, grad_coeff_ref,
                              monomial_exponents, monomial_gradients, monomial_values,
                              poly_dim, stiffness_matrix)
from oracles import alt_polygon_quadrature, polygon_monomial_integral

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
DART = np.array([[0.3, 0.3], [0.7, -0.3], [1.3, 1.3], [-0.3, 0.7]])


def _quadrature(pts, degree):
    """(points, weights, area) of the composite rule on the single cell ``pts``."""
    cell = CellGroup(np.array([0]), np.asarray(pts, dtype=float)[None])
    qp, qw = build_quadrature(cell.vertices, cell.triangles, degree, cell.cell_ids)
    return qp[0], qw[0], float(cell.area[0])


def _monomials(pts, degree, at):
    """(values, gradients) at the points ``at`` of the scaled monomials of the
    single cell ``pts``."""
    cell = CellGroup(np.array([0]), np.asarray(pts, dtype=float)[None])
    args = (np.atleast_2d(at)[None], cell.centroid, cell.diameter)
    return monomial_values(degree, *args)[0], monomial_gradients(degree, *args)[0]


def _stiffness(pts, degree, quad_degree):
    """``stiffness_matrix`` of the scaled monomials on the single cell
    ``pts`` with the composite rule of ``quad_degree``."""
    cell = CellGroup(np.array([0]), np.asarray(pts, dtype=float)[None])
    qp, qw = build_quadrature(cell.vertices, cell.triangles, quad_degree, cell.cell_ids)
    dphi = monomial_gradients(degree, qp, cell.centroid, cell.diameter)
    return stiffness_matrix(dphi, qw)[0]


def test_monomial_ordering_graded_lex():
    e = monomial_exponents(2)
    assert e.tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
    assert poly_dim(2) == 6 and poly_dim(-1) == 0


def test_quadrature_weights_sum_to_area():
    _, qw, _ = _quadrature(SQUARE, 0)
    assert abs(qw.sum() - 1.0) <= 1e-14
    assert np.all(qw > 0.0)


def test_quadrature_x_squared():
    qp, qw, _ = _quadrature(SQUARE, 2)
    assert abs((qw * qp[:, 0] ** 2).sum() - 1.0 / 3.0) <= 1e-13


def test_quadrature_pentagon_area():
    ang = np.linspace(0, 2 * np.pi, 6)[:-1] + np.pi / 2
    pent = np.column_stack([np.cos(ang), np.sin(ang)])
    _, qw, area = _quadrature(pent, 4)
    assert abs(qw.sum() - area) <= 1e-13


@pytest.mark.parametrize("pts", [SQUARE, DART], ids=["square", "dart"])
@pytest.mark.parametrize("degree", [2, 4, 6])
def test_quadrature_exactness_against_closed_form(pts, degree):
    qp, qw, _ = _quadrature(pts, degree)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            num = float((qw * qp[:, 0] ** a * qp[:, 1] ** b).sum())
            exact = polygon_monomial_integral(pts, a, b)
            assert abs(num - exact) <= 1e-12 * max(1.0, abs(exact))


def test_quadrature_rejects_negative_degree():
    with pytest.raises(ValueError):
        _quadrature(SQUARE, -1)


def test_mass_matrix_basics():
    H = one_cell_group(SQUARE, 1, quad_degree=4).H[0]
    assert abs(H[0, 0] - 1.0) <= 1e-14          # = |E| for the unit square
    assert np.array_equal(H, H.T)
    assert np.linalg.eigvalsh(H).min() > 0.0


def test_mass_matrix_entry_against_degree6_oracle():
    H = one_cell_group(SQUARE, 1, quad_degree=4).H[0]
    qp, qw = alt_polygon_quadrature(SQUARE, 6)
    phi, _ = _monomials(SQUARE, 1, qp)
    H_ref = phi.T @ (qw[:, None] * phi)
    assert np.abs(H - H_ref).max() <= 1e-13


def test_stiffness_matrix_properties():
    G = _stiffness(SQUARE, 2, quad_degree=4)
    assert np.abs(G[0, :]).max() == 0.0
    assert np.abs(G[:, 0]).max() == 0.0
    assert np.linalg.eigvalsh(G).min() >= -1e-12


def test_stiffness_matrix_against_oracle_quadrature():
    G = _stiffness(DART, 2, quad_degree=6)
    qp, qw = alt_polygon_quadrature(DART, 8)
    _, dphi = _monomials(DART, 2, qp)
    G_ref = np.einsum("qad,q,qbd->ab", dphi, qw, dphi)
    assert np.abs(G - G_ref).max() <= 1e-12


@given(scale=st.floats(0.01, 100.0), dx=st.floats(-5, 5), dy=st.floats(-5, 5))
@example(scale=0.01, dx=0.0, dy=2.0)   # small cell off the origin: centroid cancellation
@settings(max_examples=20, deadline=None)
def test_scaled_mass_matrix_translation_scale_invariance(scale, dx, dy):
    g1 = one_cell_group(SQUARE, 2, quad_degree=6)
    g2 = one_cell_group(SQUARE * scale + np.array([dx, dy]), 2, quad_degree=6)
    H1 = g1.H[0] / g1.area[0]
    H2 = g2.H[0] / g2.area[0]
    assert np.abs(H1 - H2).max() <= 1e-12


def test_condition_warning_on_sliver():
    sliver = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-7], [0.0, 1e-7]])
    with pytest.warns(ConditionWarning):
        one_cell_group(sliver, 2, quad_degree=6)


def test_gradient_coefficient_maps():
    h = float(CellGroup(np.array([0]), DART[None]).diameter[0])
    Dx, Dy = (D / h for D in grad_coeff_ref(2))
    pts = np.array([[0.31, 0.41], [0.7, 0.2]])
    rng = np.random.default_rng(0)
    c = rng.normal(size=poly_dim(2))
    grad = np.einsum("qad,a->qd", _monomials(DART, 2, pts)[1], c)
    low, _ = _monomials(DART, 1, pts)
    assert np.abs(low @ (Dx @ c) - grad[:, 0]).max() < 1e-13
    assert np.abs(low @ (Dy @ c) - grad[:, 1]).max() < 1e-13
