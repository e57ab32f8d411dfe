"""Manufactured solutions of the benchmark cases, differentiated by jets.

Each manufactured case writes its velocity ``u1, u2``, pressure ``p`` and
temperature ``phi`` once, as plain functions ``f(x, y, m)`` of the point and
a math namespace ``m`` (``exp``, ``sin``, ``cos``, ``pi``), and its viscosity
``mu`` and conductivity ``kappa`` as functions ``f(r, m)`` of the
temperature.  With ``m = numpy`` they give values; with ``m = JETS`` on the
jets of ``x`` and ``y`` they give exact first and second derivatives, from
which the momentum source F = -div(mu(phi) eps(u)) + grad p and the heat
source g = -div(kappa(phi) grad phi) + u . grad phi follow.  Every
manufactured pressure has zero mean on the unit square as written.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .forms import Coefficient
from .postprocess import ExactFields


class Jet:
    """Second-order Taylor jet in (x, y): a value, its first derivatives
    ``dx, dy`` and its second derivatives ``dxx, dxy, dyy``.  Components are
    numpy arrays or floats that broadcast against each other."""
    __slots__ = ("v", "dx", "dy", "dxx", "dxy", "dyy")

    def __init__(self, v, dx=0.0, dy=0.0, dxx=0.0, dxy=0.0, dyy=0.0):
        self.v, self.dx, self.dy = v, dx, dy
        self.dxx, self.dxy, self.dyy = dxx, dxy, dyy

    def chain(self, f, f1, f2) -> "Jet":
        """The jet of ``h(self)`` from h, h' and h'' at ``self.v``."""
        return Jet(f, f1 * self.dx, f1 * self.dy,
                   f1 * self.dxx + f2 * self.dx * self.dx,
                   f1 * self.dxy + f2 * self.dx * self.dy,
                   f1 * self.dyy + f2 * self.dy * self.dy)

    def __add__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.v + o, self.dx, self.dy, self.dxx, self.dxy, self.dyy)
        return Jet(self.v + o.v, self.dx + o.dx, self.dy + o.dy,
                   self.dxx + o.dxx, self.dxy + o.dxy, self.dyy + o.dyy)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.v, -self.dx, -self.dy, -self.dxx, -self.dxy, -self.dyy)

    def __sub__(self, o):
        return self + (-o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.v * o, self.dx * o, self.dy * o,
                       self.dxx * o, self.dxy * o, self.dyy * o)
        return Jet(self.v * o.v,
                   self.dx * o.v + self.v * o.dx,
                   self.dy * o.v + self.v * o.dy,
                   self.dxx * o.v + 2 * self.dx * o.dx + self.v * o.dxx,
                   self.dxy * o.v + self.dx * o.dy + self.dy * o.dx + self.v * o.dxy,
                   self.dyy * o.v + 2 * self.dy * o.dy + self.v * o.dyy)

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        inv = 1.0 / self.v
        return self.chain(inv, -inv * inv, 2 * inv * inv * inv)

    def __truediv__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.v / o, self.dx / o, self.dy / o,
                       self.dxx / o, self.dxy / o, self.dyy / o)
        return self * o.reciprocal()

    def __rtruediv__(self, o):
        return self.reciprocal() * o

    def __pow__(self, n: int):
        if not (isinstance(n, int) and n >= 2):
            raise TypeError("a jet takes integer powers n >= 2 only")
        return self.chain(self.v ** n, n * self.v ** (n - 1), n * (n - 1) * self.v ** (n - 2))


def _exp(a):
    if not isinstance(a, Jet):
        return np.exp(a)
    e = np.exp(a.v)
    return a.chain(e, e, e)


def _sin(a):
    if not isinstance(a, Jet):
        return np.sin(a)
    s, c = np.sin(a.v), np.cos(a.v)
    return a.chain(s, c, -s)


def _cos(a):
    if not isinstance(a, Jet):
        return np.cos(a)
    s, c = np.sin(a.v), np.cos(a.v)
    return a.chain(c, -s, -c)


# the math namespace of jets: field functions called with it differentiate
JETS = SimpleNamespace(exp=_exp, sin=_sin, cos=_cos, pi=np.pi)


def _full(a, shape) -> np.ndarray:
    """``a`` as a new float array of ``shape`` (constants broadcast)."""
    return np.broadcast_to(np.asarray(a, dtype=float), shape).copy()


def _as_jet(a) -> Jet:
    return a if isinstance(a, Jet) else Jet(a)


FieldFn = Callable[..., object]   # f(x, y, m) of a point, or f(r, m) of a temperature


@dataclass(frozen=True)
class ManufacturedFields:
    """Closed-form exact solution of one benchmark, with its sources."""
    u1: FieldFn
    u2: FieldFn
    p: FieldFn
    phi: FieldFn
    mu: FieldFn                 # mu(r, m)
    kappa: FieldFn              # kappa(r, m); a constant may ignore r

    def exact(self) -> ExactFields:
        def u(xv, yv):
            return np.stack([_values(self.u1, xv, yv), _values(self.u2, xv, yv)])

        def grad_u(xv, yv):
            return np.stack([_gradient(self.u1, xv, yv), _gradient(self.u2, xv, yv)])
        return ExactFields(u=u, grad_u=grad_u,
                           p=lambda xv, yv: _values(self.p, xv, yv),
                           phi=lambda xv, yv: _values(self.phi, xv, yv),
                           grad_phi=lambda xv, yv: _gradient(self.phi, xv, yv))

    def sources(self):
        """(F, g): the momentum and heat sources as vectorized callables."""
        def F(xv, yv):
            u1, u2, p, phi = (_jet(f, xv, yv) for f in (self.u1, self.u2, self.p, self.phi))
            mu = _as_jet(self.mu(phi, JETS))
            e11, e22 = u1.dx, u2.dy
            e12 = (u1.dy + u2.dx) / 2
            F1 = -(mu.v * (u1.dxx + (u1.dyy + u2.dxy) / 2) + mu.dx * e11 + mu.dy * e12) + p.dx
            F2 = -(mu.v * ((u1.dxy + u2.dxx) / 2 + u2.dyy) + mu.dx * e12 + mu.dy * e22) + p.dy
            return np.stack([_full(F1, np.shape(xv)), _full(F2, np.shape(xv))])

        def g(xv, yv):
            u1, u2, phi = (_jet(f, xv, yv) for f in (self.u1, self.u2, self.phi))
            kap = _as_jet(self.kappa(phi, JETS))
            div = kap.v * (phi.dxx + phi.dyy) + kap.dx * phi.dx + kap.dy * phi.dy
            return _full(-div + u1.v * phi.dx + u2.v * phi.dy, np.shape(xv))
        return F, g


def _values(f, xv, yv) -> np.ndarray:
    return _full(f(np.asarray(xv, dtype=float), np.asarray(yv, dtype=float), np),
                 np.shape(xv))


def _jet(f, xv, yv) -> Jet:
    """The jet of the field ``f`` at the points (xv, yv)."""
    x = Jet(np.asarray(xv, dtype=float), 1.0, 0.0)
    y = Jet(np.asarray(yv, dtype=float), 0.0, 1.0)
    return _as_jet(f(x, y, JETS))


def _gradient(f, xv, yv) -> np.ndarray:
    j = _jet(f, xv, yv)
    return np.stack([_full(j.dx, np.shape(xv)), _full(j.dy, np.shape(xv))])


def _on_arrays(f):
    """A temperature function ``f(r, m)`` as a vectorized callable of r."""
    def g(rv):
        rv = np.asarray(rv, dtype=float)
        return _full(f(rv, np), rv.shape)
    return g


def _coefficient(f, temp_range, scale=None, margin=1.05) -> Coefficient:
    """The coefficient ``f(r, m)`` on ``temp_range``, its bounds the sampled
    extremes widened by ``margin``."""
    func = _on_arrays(f)
    vals = func(np.linspace(temp_range[0], temp_range[1], 2049))
    return Coefficient(func=func, lower=float(vals.min()) / margin,
                       upper=float(vals.max()) * margin, temp_range=temp_range, scale=scale)


def manufactured_case(case_id: str, kappa: float | None = None
                      ) -> tuple[ManufacturedFields, Coefficient, Coefficient]:
    """(fields, viscosity, conductivity) of a manufactured case on the unit
    square; ``kappa`` overrides the conductivity scale."""
    if case_id == "ex1":
        kap = 1.0 if kappa is None else float(kappa)
        fields = ManufacturedFields(
            u1=lambda x, y, m: m.sin(2 * m.pi * x) * m.cos(2 * m.pi * y),
            u2=lambda x, y, m: -m.cos(2 * m.pi * x) * m.sin(2 * m.pi * y),
            p=lambda x, y, m: m.sin(2 * m.pi * x) * m.sin(2 * m.pi * y),
            phi=lambda x, y, m: 15 - 15 * m.exp(-x * y * (x - 1) * (y - 1)),
            mu=lambda r, m: 1 / (1 - 0.5 * r) ** 2,
            kappa=lambda r, m: kap)
        return fields, _coefficient(fields.mu, (-0.5, 1.5)), Coefficient.constant(kap)
    if case_id in ("ex2_diffusive", "ex2_convective"):
        kap = (1.0 if case_id == "ex2_diffusive" else 1e-6) if kappa is None else float(kappa)
        fields = ManufacturedFields(
            u1=lambda x, y, m: x ** 2 * y * (1 - x) * (1 - y),
            u2=lambda x, y, m: -(2 * x - 3 * x ** 2) * (y ** 2 / 2 - y ** 3 / 3),
            p=lambda x, y, m: -100 * x ** 2 + 100 / 3,
            phi=lambda x, y, m: x ** 2 * y * (1 - x) * (1 - y) + 600,
            mu=lambda r, m: 1 + r + m.sin(r) ** 2,
            kappa=lambda r, m: kap)
        return fields, _coefficient(fields.mu, (580.0, 620.0)), Coefficient.constant(kap)
    if case_id == "ex3":
        kap_c = 1e-3 if kappa is None else float(kappa)
        fields = ManufacturedFields(
            u1=lambda x, y, m: 2 * x ** 2 * y * (2 * y - 1) * (y - 1) * (x - 1) ** 2,
            u2=lambda x, y, m: -2 * x * y ** 2 * (y - 1) ** 2 * (2 * x - 1) * (x - 1),
            # odd in x - 1/2, so of zero mean on the unit square
            p=lambda x, y, m: m.exp(y) * (x - 0.5) ** 3,
            phi=lambda x, y, m: x ** 2 + y ** 4,
            mu=lambda r, m: m.exp(-r),
            kappa=lambda r, m: kap_c * m.exp(r))
        return (fields, _coefficient(fields.mu, (-0.5, 2.5)),
                _coefficient(fields.kappa, (-0.5, 2.5), scale=kap_c))
    raise ValueError(f"not a manufactured case: {case_id!r}")
