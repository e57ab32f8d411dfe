import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lpsvem import element_ops as eo
from lpsvem import forms
from lpsvem.geometry import UNIT_SQUARE, PolyMesh, generate_mesh

FAMILIES = ("voronoi", "distorted_square", "uniform_square", "nonconvex")


@pytest.fixture(scope="session")
def meshes_h5():
    """The four unit-square families at h = 1/5."""
    return {fam: generate_mesh(fam, UNIT_SQUARE, 1 / 5) for fam in FAMILIES}


@pytest.fixture(scope="session")
def mops_h5(meshes_h5):
    """Element operators for every family at h = 1/5, orders 1 and 2."""
    return {(fam, k): eo.build_mesh_ops(mesh, k)
            for fam, mesh in meshes_h5.items() for k in (1, 2)}


def one_cell_group(pts, k, quad_degree=None):
    """Operators of the single counter-clockwise cell ``pts`` (cell id 0), built
    by ``build_mesh_ops`` on a one-cell mesh: a ``GroupOps`` of one cell."""
    pts = np.asarray(pts, dtype=float)
    return eo.build_mesh_ops(PolyMesh(pts, [np.arange(len(pts))], {}), k, quad_degree).groups[0]


def zero_velocity(x, y):
    return np.stack([np.zeros_like(x), np.zeros_like(x)])


def make_spec(mesh, k, *, viscosity=1.0, conductivity=1.0, bcs=None,
              heat_source=None, fixed_source=None, c1=0.1, c2=0.002, c3=1.0,
              convection_form="skew"):
    """Small helper to assemble a ProblemSpec with velocity BCs everywhere; a
    float viscosity or conductivity is the constant coefficient of that value."""
    viscosity, conductivity = (
        c if isinstance(c, forms.Coefficient) else forms.Coefficient.constant(c)
        for c in (viscosity, conductivity))
    if bcs is None:
        bcs = {m: forms.BoundaryCondition(velocity=zero_velocity, temperature=None)
               for m in mesh.boundary_markers}
    return forms.ProblemSpec(
        k=k, viscosity=viscosity, conductivity=conductivity, bcs=bcs,
        fixed_source=fixed_source, heat_source=heat_source, c1=c1, c2=c2, c3=c3,
        convection_form=convection_form)
