"""Inf-sup stability of the equal-order pair as an operator-level property:
the local projection term L2 gives the pressure Schur complement a positive
smallest eigenvalue, uniform in h, on every mesh family and order, and
without L2 that eigenvalue is zero."""
import numpy as np
import pytest

from oracles import pressure_stability_spectrum
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
