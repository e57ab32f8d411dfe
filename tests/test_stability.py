"""Stability and consistency of the equal-order pair as operator-level
properties, on every mesh family and order: the local projection term L2
gives the pressure Schur complement a positive smallest eigenvalue, uniform
in h, and without L2 that eigenvalue is zero; the momentum residual of the
interpolated exact fields falls as h^k; the temperature term L3 has the
kernel that its order predicts."""
import math

import numpy as np
import pytest

from oracles import momentum_consistency_residual, pressure_stability_spectrum
from lpsvem import benchmarks as bm
from lpsvem import element_ops as eo
from lpsvem import forms
from lpsvem.geometry import MESH_FAMILIES, generate_mesh

# smallest eigenvalue of (L2 + B A^-1 B^T) q = lambda M q on the pressures
# M-orthogonal to the constant, ex1 at phi = 0, mesh seed 1, h = 1/4 and 1/8
MEASURED = {
    "uniform_square": {1: (6.67e-3, 6.67e-3), 2: (6.31e-4, 6.31e-4), 3: (1.33e-5, 1.33e-5)},
    "distorted_square": {1: (7.70e-3, 7.46e-3), 2: (1.40e-3, 1.43e-3), 3: (9.39e-4, 1.01e-3)},
    "voronoi": {1: (3.83e-3, 3.26e-3), 2: (1.02e-3, 1.32e-3), 3: (6.26e-4, 9.61e-4)},
    "nonconvex": {1: (8.82e-3, 8.97e-3), 2: (3.23e-3, 3.55e-3), 3: (2.77e-3, 3.07e-3)},
    "triangular": {1: (2.80e-2, 2.85e-2), 2: (8.71e-3, 8.71e-3), 3: (1.04e-2, 1.04e-2)},
}

# without L2 the smallest eigenvalue is rounding: at most 1.6e-15 of the
# largest over these 30 cases
ZERO_REL = 1e-12


def _ex1_assembler(family, k, h):
    case = bm.make_case("ex1")
    mesh = generate_mesh(family, case.domain, h, seed=1)
    return forms.Assembler(eo.build_mesh_ops(mesh, k), case.problem_spec(mesh, k))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("family", MESH_FAMILIES)
def test_pressure_schur_complement_is_stable_with_L2_only(family, k):
    """At h = 1/4 and 1/8 the smallest eigenvalue with L2 is at least half
    the measured one and falls by at most 20% as h halves; without L2 it is
    zero to ``ZERO_REL`` of the largest."""
    smallest = []
    for h, measured in zip((1 / 4, 1 / 8), MEASURED[family][k]):
        asm = _ex1_assembler(family, k, h)
        smallest.append(pressure_stability_spectrum(asm)[0])
        assert smallest[-1] >= 0.5 * measured, (h, smallest[-1])
        plain = pressure_stability_spectrum(asm, with_L2=False)
        assert abs(plain[0]) <= ZERO_REL * plain[-1], (h, plain[0], plain[-1])
    assert smallest[1] >= 0.8 * smallest[0], smallest


# momentum residual of the interpolated ex1 fields in the discrete H^-1 norm
# at h = 1/4, 1/8, 1/16 (mesh seed 1), measured:
#   distorted squares  k=1: 5.873e-1, 2.643e-1, 1.300e-1
#                      k=2: 3.094e-1, 7.101e-2, 1.601e-2
#                      k=3: 7.084e-2, 9.024e-3, 1.081e-3
#   Voronoi            k=1: 1.259,    3.186e-1, 1.003e-1
#                      k=2: 5.190e-1, 1.349e-1, 3.558e-2
#                      k=3: 1.203e-1, 1.303e-2, 1.711e-3
# The last-step rates over the five families are at least 0.97, 1.97 and
# 2.91 at k = 1, 2, 3.


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("family", MESH_FAMILIES)
def test_momentum_residual_of_interpolant_falls_as_h_to_the_k(family, k):
    """The VEM forms are consistent: put the interpolants of the exact ex1
    fields in the Stokes system, and the momentum residual falls at least
    at rate k - 0.3 from h = 1/8 to 1/16, the rate taken on the realized
    mesh ratio sqrt(cells_fine / cells_coarse)."""
    exact = bm.make_case("ex1").fields.exact()
    res, cells = [], []
    for h in (1 / 4, 1 / 8, 1 / 16):
        asm = _ex1_assembler(family, k, h)
        res.append(momentum_consistency_residual(asm, exact))
        cells.append(asm.mops.mesh.n_cells)
    rate = math.log(res[1] / res[2]) / math.log(math.sqrt(cells[2] / cells[1]))
    assert rate >= k - 0.3, (res, cells, rate)


# the dimension of the kernel of L3 on the free temperature dofs at h = 1/10:
# at k=2 the continuous piecewise-P2 functions.  Voronoi at k=2 is left out:
# its smallest eigenvalues lie between 6e-11 and 3.3e-9 of the largest, so a
# count there would be decided by rounding.
L3_KERNEL = {1: dict.fromkeys(MESH_FAMILIES, 0),
             2: {"uniform_square": 81, "distorted_square": 253, "nonconvex": 61,
                 "triangular": 361}}


@pytest.mark.parametrize("k, family", [(k, f) for k in L3_KERNEL for f in L3_KERNEL[k]])
def test_L3_kernel_dimension(family, k):
    """The eigenvalues of L3 at or below 1e-10 of the largest number the
    measured kernel (empty at k=1), and a gap separates them from the rest:
    the kernel's values are at most 1e-12 of the largest (measured at most
    7.7e-16) and the next is at least 1e-7 (measured at least 4.3e-6, and at
    least 4.5e-5 at k=1)."""
    asm = _ex1_assembler(family, k, 1 / 10)
    free = asm.dirichlet_phi.free
    L3 = asm.L3[free][:, free].toarray()
    ev = np.linalg.eigvalsh(0.5 * (L3 + L3.T))
    rel = ev / ev[-1]
    n0 = int(np.sum(rel <= 1e-10))
    assert n0 == L3_KERNEL[k][family]
    assert np.all(np.abs(rel[:n0]) <= 1e-12) and rel[n0] >= 1e-7, (rel[:n0], rel[n0])
