"""Benchmark problems and convergence-study driver.

Manufactured cases carry analytic velocity/pressure/temperature fields; the
momentum source is the fixed field F = -div(mu(phi) eps(u)) + grad p and the
heat source is g = -div(kappa(phi) grad phi) + u . grad phi, both derived
symbolically and compiled to vectorized callables.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import sympy as sp

from .element_ops import build_mesh_ops
from .forms import (BoundaryCondition, Conductivity, ConfigurationError,
                    ProblemSpec, Viscosity)
from .geometry import CutoutRectangle, Rectangle, UNIT_SQUARE, generate_mesh
from .postprocess import ErrorBundle, ExactFields, compute_errors
from .solver import picard_solve

_X, _Y, _R = sp.symbols("x y r")

CASE_IDS = ("ex1", "ex2_diffusive", "ex2_convective", "ex3", "ex4_mild", "ex4_strong")

# short tags for the four unit-square mesh families
FAMILY_TAGS = {
    "voronoi": "Omega1",
    "distorted_square": "Omega2",
    "uniform_square": "Omega3",
    "nonconvex": "Omega4",
    "triangular": "triangular",
}


def _lambdify(expr):
    f = sp.lambdify((_X, _Y), expr, modules="numpy")

    def g(xv, yv):
        out = f(np.asarray(xv, dtype=float), np.asarray(yv, dtype=float))
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(xv)).copy()
    return g


def _lambdify_vec(e1, e2):
    f1, f2 = _lambdify(e1), _lambdify(e2)

    def g(xv, yv):
        return np.stack([f1(xv, yv), f2(xv, yv)])
    return g


def _lambdify_r(expr):
    f = sp.lambdify(_R, expr, modules="numpy")

    def g(rv):
        rv = np.asarray(rv, dtype=float)
        return np.broadcast_to(np.asarray(f(rv), dtype=float), rv.shape).copy()
    return g


@dataclass
class ManufacturedFields:
    """Symbolic exact solution plus compiled sources for one benchmark."""
    u1: sp.Expr
    u2: sp.Expr
    p: sp.Expr
    phi: sp.Expr
    mu_expr: sp.Expr                       # in the symbol r (temperature)
    kappa_expr: sp.Expr | float            # in r, or a constant
    F1: sp.Expr = field(init=False)
    F2: sp.Expr = field(init=False)
    g: sp.Expr = field(init=False)

    def __post_init__(self):
        x, y = _X, _Y
        u1, u2, phi = self.u1, self.u2, self.phi
        mu = self.mu_expr.subs(_R, phi)
        e11 = sp.diff(u1, x)
        e22 = sp.diff(u2, y)
        e12 = (sp.diff(u1, y) + sp.diff(u2, x)) / 2
        self.F1 = -(sp.diff(mu * e11, x) + sp.diff(mu * e12, y)) + sp.diff(self.p, x)
        self.F2 = -(sp.diff(mu * e12, x) + sp.diff(mu * e22, y)) + sp.diff(self.p, y)
        kap = self.kappa_expr.subs(_R, phi) if isinstance(self.kappa_expr, sp.Expr) \
            else sp.Float(self.kappa_expr)
        self.g = (-(sp.diff(kap * sp.diff(phi, x), x) + sp.diff(kap * sp.diff(phi, y), y))
                  + u1 * sp.diff(phi, x) + u2 * sp.diff(phi, y))

    def exact(self) -> ExactFields:
        x, y = _X, _Y
        gu = _lambdify_vec(sp.diff(self.u1, x), sp.diff(self.u1, y))
        gv = _lambdify_vec(sp.diff(self.u2, x), sp.diff(self.u2, y))

        def grad_u(xv, yv):
            return np.stack([gu(xv, yv), gv(xv, yv)])
        return ExactFields(
            u=_lambdify_vec(self.u1, self.u2), grad_u=grad_u,
            p=_lambdify(self.p), phi=_lambdify(self.phi),
            grad_phi=_lambdify_vec(sp.diff(self.phi, x), sp.diff(self.phi, y)))

    def sources(self):
        return _lambdify_vec(self.F1, self.F2), _lambdify(self.g)


@dataclass
class BenchmarkCase:
    name: str
    domain: object
    fields: ManufacturedFields | None
    viscosity: Viscosity
    conductivity: float | Conductivity
    mesh_families: list[str]
    orders: list[int]
    h_list: list[float]
    alpha: float = 1.0
    convection_form: str = "skew"
    initial: str = "zero"
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
            bcs=bcs, alpha=0.0, buoyancy=None, fixed_source=F, heat_source=g,
            c1=c1, c2=c2, c3=c3, convection_form=self.convection_form)


def _shift_zero_mean(p_expr, domain: Rectangle):
    mean = sp.integrate(sp.integrate(p_expr, (_X, domain.x0, domain.x1)),
                        (_Y, domain.y0, domain.y1)) / sp.Float(domain.area)
    return sp.simplify(p_expr - mean)


def _viscosity_from_expr(mu_expr, temp_range, margin=1.05):
    f = _lambdify_r(mu_expr)
    xs = np.linspace(temp_range[0], temp_range[1], 2049)
    vals = f(xs)
    dmu = _lambdify_r(sp.diff(mu_expr, _R))
    lip = float(np.abs(dmu(xs)).max())
    return Viscosity(func=f, mu_min=float(vals.min()) / margin,
                     mu_max=float(vals.max()) * margin,
                     temp_range=temp_range, lipschitz=lip)


_EX_HS = [1 / 5, 1 / 10, 1 / 20, 1 / 40]


def make_case(case_id: str, kappa: float | None = None) -> BenchmarkCase:
    """Construct a benchmark case; ``kappa`` overrides the conductivity scale."""
    x, y, r = _X, _Y, _R
    if case_id == "ex1":
        mu = 1 / (1 - sp.Rational(1, 2) * r) ** 2
        fields = ManufacturedFields(
            u1=sp.sin(2 * sp.pi * x) * sp.cos(2 * sp.pi * y),
            u2=-sp.cos(2 * sp.pi * x) * sp.sin(2 * sp.pi * y),
            p=sp.sin(2 * sp.pi * x) * sp.sin(2 * sp.pi * y),
            phi=15 - 15 * sp.exp(-x * y * (x - 1) * (y - 1)),
            mu_expr=mu, kappa_expr=1.0 if kappa is None else float(kappa))
        return BenchmarkCase(
            name="ex1", domain=UNIT_SQUARE, fields=fields,
            viscosity=_viscosity_from_expr(mu, (-0.5, 1.5)),
            conductivity=1.0 if kappa is None else float(kappa),
            mesh_families=["voronoi", "distorted_square"], orders=[1, 2],
            h_list=list(_EX_HS))
    if case_id in ("ex2_diffusive", "ex2_convective"):
        kap = (1.0 if case_id == "ex2_diffusive" else 1e-6) if kappa is None else float(kappa)
        mu = 1 + r + sp.sin(r) ** 2
        fields = ManufacturedFields(
            u1=x ** 2 * y * (1 - x) * (1 - y),
            u2=-(2 * x - 3 * x ** 2) * (y ** 2 / 2 - y ** 3 / 3),
            p=-100 * x ** 2 + sp.Rational(100, 3),
            phi=x ** 2 * y * (1 - x) * (1 - y) + 600,
            mu_expr=mu, kappa_expr=kap)
        # the one-sided convective form avoids the skew variant's spurious
        # coupling of the divergence defect with the large 600 offset
        return BenchmarkCase(
            name=case_id, domain=UNIT_SQUARE, fields=fields,
            viscosity=_viscosity_from_expr(mu, (580.0, 620.0)),
            conductivity=kap,
            mesh_families=["uniform_square", "nonconvex"], orders=[1, 2],
            h_list=list(_EX_HS), convection_form="convective")
    if case_id == "ex3":
        kap_c = 1e-3 if kappa is None else float(kappa)
        mu = sp.exp(-r)
        kappa_expr = kap_c * sp.exp(r)
        fields = ManufacturedFields(
            u1=2 * x ** 2 * y * (2 * y - 1) * (y - 1) * (x - 1) ** 2,
            u2=-2 * x * y ** 2 * (y - 1) ** 2 * (2 * x - 1) * (x - 1),
            p=_shift_zero_mean(sp.exp(y) * (x - sp.Rational(1, 2)) ** 3, UNIT_SQUARE),
            phi=x ** 2 + y ** 4,
            mu_expr=mu, kappa_expr=kappa_expr)
        cond = Conductivity(func=_lambdify_r(kappa_expr), kappa_ref=kap_c,
                            temp_range=(-0.5, 2.5))
        return BenchmarkCase(
            name="ex3", domain=UNIT_SQUARE, fields=fields,
            viscosity=_viscosity_from_expr(mu, (-0.5, 2.5)),
            conductivity=cond, mesh_families=["distorted_square"], orders=[1, 2],
            h_list=list(_EX_HS))
    if case_id in ("ex4_mild", "ex4_strong"):
        mild = case_id == "ex4_mild"
        mu_c = 1e-2 if mild else 1e-4
        kap_c = (1e-6 if mild else 1e-9) if kappa is None else float(kappa)
        dom = CutoutRectangle(0.0, 0.0, 4.0, 2.0, 2.0, 1.0)

        def bc_builder(mesh):
            def inflow(xv, yv):
                return np.stack([0.5 * yv * (2.0 - yv), np.zeros_like(xv)])

            def outflow(xv, yv):
                return np.stack([4.0 * (yv - 1.0) * (2.0 - yv), np.zeros_like(xv)])

            def wall(xv, yv):
                return np.stack([np.zeros_like(xv), np.zeros_like(xv)])

            def one(xv, yv):
                return np.ones_like(xv)
            bcs = {}
            for m in mesh.boundary_markers:
                if m == "left":
                    bcs[m] = BoundaryCondition(velocity=inflow, temperature=one)
                elif m == "right":
                    bcs[m] = BoundaryCondition(velocity=outflow, temperature=None)
                else:
                    bcs[m] = BoundaryCondition(velocity=wall, temperature=None)
            return bcs

        return BenchmarkCase(
            name=case_id, domain=dom, fields=None,
            viscosity=Viscosity.constant(mu_c), conductivity=kap_c,
            mesh_families=["triangular"], orders=[1] if mild else [2],
            h_list=[1 / 4, 1 / 8, 1 / 16, 1 / 32] if mild else [1 / 4, 1 / 8, 1 / 16],
            convection_form="convective", initial="stokes_first",
            phi_reference=1.0, bc_builder=bc_builder)
    raise ConfigurationError(f"unknown case {case_id!r} (one of {CASE_IDS})")


def make_sources(case: BenchmarkCase):
    """(F, g) callables; the zero functions for the physically-driven case."""
    if case.fields is None:
        zero2 = lambda xv, yv: np.stack([np.zeros_like(xv), np.zeros_like(xv)])
        zero1 = lambda xv, yv: np.zeros_like(np.asarray(xv, dtype=float))
        return zero2, zero1
    return case.fields.sources()


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
    wall_time: float
    n_cells: int | None = None     # cells of the mesh actually generated


def run_point(case: BenchmarkCase, family: str, k: int, h: float, *,
              c1=0.1, c2=0.002, c3=1.0, tol=1e-7, max_iter=50,
              seed=42) -> tuple[ConvergenceRecord, object, object]:
    """Solve one (family, k, h) study point; returns (record, state, mops)."""
    t0 = time.perf_counter()
    mesh = generate_mesh(family, case.domain, h, seed=seed)
    mops = build_mesh_ops(mesh, k)
    spec = case.problem_spec(mesh, k, c1=c1, c2=c2, c3=c3)
    state, report = picard_solve(spec, mesh, tol=tol, max_iter=max_iter,
                                 initial=case.initial, mops=mops)
    exact = case.fields.exact() if case.fields is not None else None
    errors = compute_errors(state, exact, mops, phi_reference=case.phi_reference)
    rec = ConvergenceRecord(
        case=case.name, family=family, k=k, h=h, errors=errors,
        iterations=report.iterations, converged=report.converged,
        wall_time=time.perf_counter() - t0, n_cells=mesh.n_cells)
    return rec, state, mops


def run_case(case_id: str, overrides: dict | None = None) -> list[ConvergenceRecord]:
    """Run the full study grid of a case; returns one record per (family, k, h).

    Recognized overrides: orders, mesh_families, h_list, kappa, c1, c2, c3,
    tol, max_iter, seed, no_stab, convection_form.
    """
    ov = dict(overrides or {})
    case = make_case(case_id, kappa=ov.pop("kappa", None))
    orders = ov.pop("orders", case.orders)
    families = ov.pop("mesh_families", case.mesh_families)
    h_list = sorted(ov.pop("h_list", case.h_list), reverse=True)
    if ov.pop("no_stab", False):
        ov["c1"] = ov["c2"] = ov["c3"] = 0.0
    if "convection_form" in ov:
        case.convection_form = ov.pop("convection_form")
    point_kw = {k: ov.pop(k) for k in ("c1", "c2", "c3", "tol", "max_iter", "seed")
                if k in ov}
    if ov:
        raise ConfigurationError(f"unknown overrides {sorted(ov)}")
    records = []
    for family in families:
        for k in orders:
            for h in h_list:
                rec, _, _ = run_point(case, family, k, h, **point_kw)
                records.append(rec)
    return records


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
