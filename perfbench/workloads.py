"""Workload definitions and their correctness checks.

A workload is a fixed list of study points (one ``run_point`` call each) on
one benchmark case, mesh family and order; why each exists is written in
``BENCHMARK.json`` and ``README.md``.  Each point is one operation; a
workload with a rate check adds it as one more operation.  An operation fails
when it raises, when its Picard loop does not converge, or when its check
does not hold.

This module imports nothing from ``lpsvem``: the worker times the package
import as part of set-up.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

NORMS = ("e_u_h1", "e_u_l2", "e_p_l2", "e_phi_h1", "e_phi_l2")

# ex4 keeps the temperature at the constant 1: the Dirichlet data are 1, the
# source is 0, and every stabilizer and the convective form vanish on
# constants, so phi_h - 1 is zero up to rounding (4.4e-14 at h=1/16).  The
# bound sits far above rounding and far below any discretization error.
PHI_CONST_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    case: str
    family: str
    k: int
    h_inv: tuple[int, ...]        # mesh sizes h = 1/n of the full run
    h_inv_tiny: tuple[int, ...]   # mesh sizes of the smoke-test run
    rate_norms: tuple[str, ...]   # norms whose final-step rate is checked

    def hs(self, size: str) -> list[float]:
        return [1.0 / n for n in (self.h_inv if size == "full" else self.h_inv_tiny)]

    def n_ops(self, size: str) -> int:
        return len(self.hs(size)) + bool(self.rate_norms)


# Rates use the nominal h of each point.  distorted_square puts round(1.8/h)
# cells on a side, so h=1/9 and 1/18 give 16 and 32 cells: the grid doubles
# exactly, as it does not at 1/8 and 1/16 (14 and 29 cells).  picard_k2
# checks the four norms of acceptance criterion 6; the pressure rate of ex3 at
# k=2 is still pre-asymptotic on these meshes (1.70-1.90).
WORKLOADS = {w.name: w for w in (
    Workload("channel_k1", "ex4_mild", "triangular", 1, (16,), (4,), ()),
    Workload("picard_k2", "ex3", "distorted_square", 2, (9, 18), (4, 8),
             ("e_u_h1", "e_u_l2", "e_phi_h1", "e_phi_l2")),
    Workload("ladder_k1", "ex1", "voronoi", 1, (5, 10, 20), (5, 10), NORMS),
)}


def rates(recs, name: str) -> list[float]:
    es = [getattr(r.errors, name) for r in recs]
    return [math.log(es[i] / es[i + 1]) / math.log(recs[i].h / recs[i + 1].h)
            for i in range(len(es) - 1)]


def check_point(w: Workload, rec) -> str | None:
    """None when the point is correct, else a one-line reason."""
    where = f"{w.name} h={rec.h:.6g}"
    if not rec.converged:
        return f"{where}: Picard did not converge in {rec.iterations} sweeps"
    if w.case.startswith("ex4"):
        dev = rec.errors.phi_dev_absmax
        if not dev <= PHI_CONST_TOL:
            return f"{where}: max |phi_h - 1| = {dev:.3e} > {PHI_CONST_TOL:g}"
        return None
    for name in NORMS:
        e = getattr(rec.errors, name)
        if not (e is not None and math.isfinite(e) and e > 0.0):
            return f"{where}: {name} = {e}"
    return None


def check_rates(w: Workload, recs) -> str | None:
    """Final-step rates of the round's points (h descending) against the
    optimal orders, with the thresholds of acceptance criterion 4: at least
    k - 0.15 for the H1 norms and the pressure, k + 0.5 for the L2 norms."""
    bad = []
    for name in w.rate_norms:
        r = rates(recs, name)[-1]
        floor = w.k + 0.5 if name in ("e_u_l2", "e_phi_l2") else w.k - 0.15
        if not r >= floor:
            bad.append(f"{name}={r:.3f}<{floor:g}")
    return f"{w.name} rates off: " + " ".join(bad) if bad else None
