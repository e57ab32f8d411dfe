"""Benchmark problems and convergence-study driver.

Manufactured cases (``ex1``-``ex3``) take their analytic fields and sources
from ``manufactured``, which is imported only when such a case is made and
derives the sources with jets on numpy arrays; the physically driven channel
(``ex4_*``) is defined here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .element_ops import build_mesh_ops
from .forms import BoundaryCondition, Coefficient, ConfigurationError, ProblemSpec
from .geometry import L_SHAPE, UNIT_SQUARE, generate_mesh
from .postprocess import ErrorBundle, compute_errors
from .solver import picard_solve

if TYPE_CHECKING:
    from .manufactured import ManufacturedFields

CASE_IDS = ("ex1", "ex2_diffusive", "ex2_convective", "ex3", "ex4_mild", "ex4_strong")

@dataclass
class BenchmarkCase:
    name: str
    domain: object
    fields: ManufacturedFields | None
    viscosity: Coefficient
    conductivity: Coefficient
    mesh_families: list[str]
    orders: list[int]
    h_list: list[float]
    convection_form: str = "skew"
    phi_reference: object | None = None    # for dof-point extremes (ex4: 1.0)
    bc_builder: object | None = None       # mesh -> {marker: BoundaryCondition}

    def problem_spec(self, mesh, k: int, c1=0.1, c2=0.002, c3=1.0) -> ProblemSpec:
        if self.bc_builder is not None:
            bcs = self.bc_builder(mesh)
        else:
            ex = self.fields.exact()
            bcs = {m: BoundaryCondition(velocity=ex.u, temperature=ex.phi)
                   for m in mesh.boundary_markers}
        F, g = self.fields.sources() if self.fields is not None else (None, None)
        return ProblemSpec(
            k=k, viscosity=self.viscosity, conductivity=self.conductivity,
            bcs=bcs, fixed_source=F, heat_source=g,
            c1=c1, c2=c2, c3=c3, convection_form=self.convection_form)


_EX_HS = [1 / 5, 1 / 10, 1 / 20, 1 / 40]

# mesh families and convection form of the manufactured cases (orders 1, 2 on
# _EX_HS); ex2 uses the one-sided convective form, which avoids the skew
# variant's spurious coupling of the divergence defect with the large 600 offset
_MANUFACTURED_STUDY = {
    "ex1": (["voronoi", "distorted_square"], "skew"),
    "ex2_diffusive": (["uniform_square", "nonconvex"], "convective"),
    "ex2_convective": (["uniform_square", "nonconvex"], "convective"),
    "ex3": (["distorted_square"], "skew"),
}


def make_case(case_id: str, kappa: float | None = None) -> BenchmarkCase:
    """Construct a benchmark case; ``kappa`` overrides the conductivity scale
    and must be positive and finite.

    Manufactured cases import ``manufactured`` here, so that ``ex4_*`` runs
    never load it; no case does symbolic algebra.
    """
    if kappa is not None and not 0.0 < kappa < math.inf:
        raise ConfigurationError(f"kappa must be positive and finite, got {kappa!r}")
    if case_id in _MANUFACTURED_STUDY:
        from .manufactured import manufactured_case
        fields, viscosity, conductivity = manufactured_case(case_id, kappa)
        families, convection_form = _MANUFACTURED_STUDY[case_id]
        return BenchmarkCase(
            name=case_id, domain=UNIT_SQUARE, fields=fields, viscosity=viscosity,
            conductivity=conductivity, mesh_families=list(families), orders=[1, 2],
            h_list=list(_EX_HS), convection_form=convection_form)
    if case_id in ("ex4_mild", "ex4_strong"):
        mild = case_id == "ex4_mild"
        mu_c = 1e-2 if mild else 1e-4
        kap_c = (1e-6 if mild else 1e-9) if kappa is None else float(kappa)

        def bc_builder(mesh):
            def inflow(xv, yv):
                return np.stack([0.5 * yv * (2.0 - yv), np.zeros_like(xv)])

            def outflow(xv, yv):
                return np.stack([4.0 * (yv - 1.0) * (2.0 - yv), np.zeros_like(xv)])

            def wall(xv, yv):
                return np.stack([np.zeros_like(xv), np.zeros_like(xv)])

            def one(xv, yv):
                return np.ones_like(xv)
            # (velocity, temperature) by marker; no slip and zero flux on the walls
            roles = {"left": (inflow, one), "right": (outflow, None)}
            return {m: BoundaryCondition(*roles.get(m, (wall, None)))
                    for m in mesh.boundary_markers}

        return BenchmarkCase(
            name=case_id, domain=L_SHAPE, fields=None,
            viscosity=Coefficient.constant(mu_c), conductivity=Coefficient.constant(kap_c),
            mesh_families=["triangular"], orders=[1] if mild else [2],
            h_list=[1 / 4, 1 / 8, 1 / 16, 1 / 32] if mild else [1 / 4, 1 / 8, 1 / 16],
            convection_form="convective", phi_reference=1.0, bc_builder=bc_builder)
    raise ConfigurationError(f"unknown case {case_id!r} (one of {CASE_IDS})")


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceRecord:
    case: str
    family: str
    k: int
    h: float                       # nominal mesh size of the study point
    errors: ErrorBundle
    iterations: int
    converged: bool
    n_cells: int | None = None     # cells of the mesh actually generated
    stokes_factorizations: int = 0
    heat_factorizations: int = 0


def run_point(case: BenchmarkCase, family: str, k: int, h: float, *,
              c1=0.1, c2=0.002, c3=1.0, tol=1e-7, max_iter=50,
              seed=42) -> tuple[ConvergenceRecord, object, object]:
    """Solve one (family, k, h) study point; returns (record, state, mops)."""
    mesh = generate_mesh(family, case.domain, h, seed=seed)
    mops = build_mesh_ops(mesh, k)
    spec = case.problem_spec(mesh, k, c1=c1, c2=c2, c3=c3)
    state, report = picard_solve(spec, mops, tol=tol, max_iter=max_iter)
    exact = case.fields.exact() if case.fields is not None else None
    errors = compute_errors(state, exact, mops, phi_reference=case.phi_reference)
    rec = ConvergenceRecord(
        case=case.name, family=family, k=k, h=h, errors=errors,
        iterations=report.iterations, converged=report.converged, n_cells=mesh.n_cells,
        stokes_factorizations=report.stokes_factorizations,
        heat_factorizations=report.heat_factorizations)
    return rec, state, mops


# the overrides of a study and the type of their values (the grid keys orders,
# mesh_families and h_list take a list of them)
_OVERRIDES = {"orders": int, "mesh_families": str, "h_list": float, "kappa": float,
              "c1": float, "c2": float, "c3": float, "no_stab": bool, "tol": float,
              "max_iter": int, "seed": int}


def _typed(key: str, value):
    """``value`` as the type of override ``key``; a value of another JSON type
    is an error that names the key (an integer is a number, a bool is neither)."""
    kind = _OVERRIDES[key]
    if (not isinstance(value, (int, float) if kind is float else kind)
            or isinstance(value, bool) != (kind is bool)):
        raise ConfigurationError(f"override {key!r} takes {kind.__name__} values, got {value!r}")
    return kind(value)


def plan_study(case_id: str, overrides: dict | None = None, single: bool = False):
    """Resolve a study: returns the case, its (family, k) ladders, the mesh
    sizes from coarse to fine and the ``run_point`` keywords.  ``orders``,
    ``mesh_families`` and ``h_list`` (none of them empty) replace the case's
    grid, ``kappa`` its conductivity scale, ``no_stab`` sets c1 = c2 = c3 =
    0, and the other overrides are ``run_point`` keywords (``tol`` positive
    and finite, ``max_iter`` at least 1).  With ``single`` the plan is one
    point, by default the case's first family and order and coarsest h."""
    ov = dict(overrides or {})
    unknown = sorted(set(ov) - set(_OVERRIDES))
    if unknown:
        raise ConfigurationError(f"unknown overrides {unknown}")
    grid = ("orders", "mesh_families", "h_list")
    for key, value in ov.items():
        if key not in grid:
            ov[key] = _typed(key, value)
        elif not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"override {key!r} takes a list, got {value!r}")
        elif single and len(value) != 1:
            raise ConfigurationError(f"one point takes one entry of {key!r}, got {len(value)}")
        elif not value:
            raise ConfigurationError(f"override {key!r} is empty; a study takes at least one entry")
        else:
            ov[key] = [_typed(key, v) for v in value]
    if not 0.0 < ov.get("tol", 1.0) < math.inf:
        raise ConfigurationError(f"tol must be positive and finite, got {ov['tol']!r}")
    if ov.get("max_iter", 1) < 1:
        raise ConfigurationError(f"max_iter must be at least 1, got {ov['max_iter']!r}")
    case = make_case(case_id, kappa=ov.pop("kappa", None))
    orders, families, h_list = (ov.pop(key, getattr(case, key)[:1 if single else None])
                                for key in grid)
    if ov.pop("no_stab", False):
        ov.update(c1=0.0, c2=0.0, c3=0.0)
    ladders = [(family, k) for family in families for k in orders]
    return case, ladders, sorted(h_list, reverse=True), ov


def run_ladder(case: BenchmarkCase, family: str, k: int, h_list, **point_kw
               ) -> list[ConvergenceRecord]:
    """Run the points (family, k, h) of one ladder from coarse to fine, h in
    ``h_list``, distinct and descending; returns their records.  The ladder is
    the unit that ``lpsvem study --threads`` runs side by side, and within it
    a point runs after the coarser ones, so that it could start from them."""
    if any(fine >= coarse for coarse, fine in zip(h_list, h_list[1:])):
        raise ConfigurationError(
            f"a ladder takes distinct mesh sizes from coarse to fine, got {list(h_list)}")
    return [run_point(case, family, k, h, **point_kw)[0] for h in h_list]


def run_case(case_id: str, overrides: dict | None = None) -> list[ConvergenceRecord]:
    """Run the study grid of a case (overrides as in ``plan_study``); returns
    one record per (family, k, h), ladder by ladder."""
    case, ladders, h_list, point_kw = plan_study(case_id, overrides)
    return [rec for family, k in ladders
            for rec in run_ladder(case, family, k, h_list, **point_kw)]


CSV_HEADER = ["h", "E_u_H1", "rate", "E_u_L2", "rate", "E_p_L2", "rate",
              "E_phi_H1", "rate", "E_phi_L2", "rate"]


def _refinement_ratio(coarse: ConvergenceRecord, fine: ConvergenceRecord) -> float:
    """Ratio of the mesh sizes of two study points.

    With both cell counts known this is the realized ratio sqrt(n_fine /
    n_coarse): a generator may round the cells a side (``distorted_square``
    puts 14 and 29 on a side at h=1/8 and 1/16), so the nominal ratio can be
    off.  Otherwise it is the ratio of the nominal h.
    """
    if coarse.n_cells and fine.n_cells:
        return math.sqrt(fine.n_cells / coarse.n_cells)
    return coarse.h / fine.h


def records_to_csv(records: list[ConvergenceRecord]) -> str:
    """Convergence table in the usual error/rate layout (nominal h descending);
    rates use the realized refinement ratio (``_refinement_ratio``)."""
    recs = sorted(records, key=lambda r: -r.h)
    lines = [",".join(CSV_HEADER)]
    prev = None
    for rec in recs:
        e = rec.errors
        cells = [f"{rec.h:.6g}"]
        for name in ("e_u_h1", "e_u_l2", "e_p_l2", "e_phi_h1", "e_phi_l2"):
            val = getattr(e, name)
            if val is None:
                cells.extend(["--", "--"])
                continue
            if prev is None or getattr(prev.errors, name) in (None, 0.0):
                rate = "--"
            else:
                ratio = _refinement_ratio(prev, rec)
                rate = f"{np.log(getattr(prev.errors, name) / val) / np.log(ratio):.2f}"
            cells.extend([f"{val:.4e}", rate])
        lines.append(",".join(cells))
        prev = rec
    return "\n".join(lines) + "\n"
