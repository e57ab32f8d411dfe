"""Manufactured solutions of the benchmark cases; the one module that imports sympy.

Each manufactured case carries analytic velocity/pressure/temperature fields;
the momentum source is the fixed field F = -div(mu(phi) eps(u)) + grad p and
the heat source is g = -div(kappa(phi) grad phi) + u . grad phi, both derived
symbolically and compiled to vectorized callables at their first use.
``benchmarks.make_case`` imports this module only for a manufactured case, so
the physically driven channel (``ex4_*``) never pays the sympy import.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import sympy as sp

from .forms import Conductivity, Viscosity
from .geometry import UNIT_SQUARE, Rectangle
from .postprocess import ExactFields

_X, _Y, _R = sp.symbols("x y r")


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
    """Symbolic exact solution plus compiled sources for one benchmark.

    ``exact()`` and ``sources()`` compile at their first call and return the
    same callables from then on.
    """
    u1: sp.Expr
    u2: sp.Expr
    p: sp.Expr
    phi: sp.Expr
    mu_expr: sp.Expr                       # in the symbol r (temperature)
    kappa_expr: sp.Expr | float            # in r, or a constant
    F1: sp.Expr = field(init=False)
    F2: sp.Expr = field(init=False)
    g: sp.Expr = field(init=False)
    _exact: ExactFields | None = field(default=None, init=False, repr=False,
                                       compare=False)
    _sources: tuple | None = field(default=None, init=False, repr=False,
                                   compare=False)

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
        if self._exact is None:
            x, y = _X, _Y
            gu = _lambdify_vec(sp.diff(self.u1, x), sp.diff(self.u1, y))
            gv = _lambdify_vec(sp.diff(self.u2, x), sp.diff(self.u2, y))

            def grad_u(xv, yv):
                return np.stack([gu(xv, yv), gv(xv, yv)])
            self._exact = ExactFields(
                u=_lambdify_vec(self.u1, self.u2), grad_u=grad_u,
                p=_lambdify(self.p), phi=_lambdify(self.phi),
                grad_phi=_lambdify_vec(sp.diff(self.phi, x), sp.diff(self.phi, y)))
        return self._exact

    def sources(self):
        if self._sources is None:
            self._sources = _lambdify_vec(self.F1, self.F2), _lambdify(self.g)
        return self._sources


def _shift_zero_mean(p_expr, domain: Rectangle):
    mean = sp.integrate(sp.integrate(p_expr, (_X, domain.x0, domain.x1)),
                        (_Y, domain.y0, domain.y1)) / sp.Float(domain.area)
    return sp.simplify(p_expr - mean)


def _viscosity_from_expr(mu_expr, temp_range, margin=1.05):
    f = _lambdify_r(mu_expr)
    xs = np.linspace(temp_range[0], temp_range[1], 2049)
    vals = f(xs)
    return Viscosity(func=f, mu_min=float(vals.min()) / margin,
                     mu_max=float(vals.max()) * margin, temp_range=temp_range)


def manufactured_case(case_id: str, kappa: float | None = None
                      ) -> tuple[ManufacturedFields, Viscosity, float | Conductivity]:
    """(fields, viscosity, conductivity) of a manufactured case on the unit
    square; ``kappa`` overrides the conductivity scale."""
    x, y, r = _X, _Y, _R
    if case_id == "ex1":
        kap = 1.0 if kappa is None else float(kappa)
        mu = 1 / (1 - sp.Rational(1, 2) * r) ** 2
        fields = ManufacturedFields(
            u1=sp.sin(2 * sp.pi * x) * sp.cos(2 * sp.pi * y),
            u2=-sp.cos(2 * sp.pi * x) * sp.sin(2 * sp.pi * y),
            p=sp.sin(2 * sp.pi * x) * sp.sin(2 * sp.pi * y),
            phi=15 - 15 * sp.exp(-x * y * (x - 1) * (y - 1)),
            mu_expr=mu, kappa_expr=kap)
        return fields, _viscosity_from_expr(mu, (-0.5, 1.5)), kap
    if case_id in ("ex2_diffusive", "ex2_convective"):
        kap = (1.0 if case_id == "ex2_diffusive" else 1e-6) if kappa is None else float(kappa)
        mu = 1 + r + sp.sin(r) ** 2
        fields = ManufacturedFields(
            u1=x ** 2 * y * (1 - x) * (1 - y),
            u2=-(2 * x - 3 * x ** 2) * (y ** 2 / 2 - y ** 3 / 3),
            p=-100 * x ** 2 + sp.Rational(100, 3),
            phi=x ** 2 * y * (1 - x) * (1 - y) + 600,
            mu_expr=mu, kappa_expr=kap)
        return fields, _viscosity_from_expr(mu, (580.0, 620.0)), kap
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
        return fields, _viscosity_from_expr(mu, (-0.5, 2.5)), cond
    raise ValueError(f"not a manufactured case: {case_id!r}")
