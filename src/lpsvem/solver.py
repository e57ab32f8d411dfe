"""Sparse direct solves and the Picard fixed-point loop for the coupling.

One Picard sweep freezes the temperature, solves the stabilized Stokes saddle
problem (with a scalar multiplier enforcing the zero pressure mean), then
solves the stabilized transport equation with the new velocity.  Sweeps stop
when the energy-surrogate norm of the combined increment drops below ``tol``.
With constant viscosity the Stokes system does not depend on the iterate: the
first sweep solves it, and every later sweep reuses that solution.

The discrete solution is the fixed point of a contraction, so only the
sweep the loop stops on needs an exact Stokes solve.  When the Stokes system
changes from sweep to sweep (temperature-dependent viscosity), a sweep may be
*lagged*: it keeps the previous sweep's factorization and, from the previous
solution, takes ``LAG_STEPS`` correction steps ``x += LU_old \\ (b - K_new x)``
against the new matrix.  The lagged solve is accepted when its residual is
at most ``LAG_CONTRACTION`` times the starting one and at most
``LAG_RESIDUAL`` times ``|b|``; otherwise the old factorization is dropped
before the new system is factored.  An exact solve takes the same correction
steps with a fresh factorization (iterative refinement).  The loop never
stops on a lagged sweep: the sweep after one whose increment meets ``tol``,
or after one whose contraction predicts that the next increment will, solves
Stokes exactly, and so does the last sweep ``max_iter`` allows.  Only
symmetric-mode factorizations are kept: neither a COLAMD factorization (the
plain unstabilized saddle) nor the temperature system is ever reused.

Each solve returns what it did: ``solve_stokes`` hands back the Stokes part
of the sweep's ``SweepRecord``, and the loop's ``PicardReport`` derives its
totals from the records.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .element_ops import MeshOps
from .forms import Assembler, DirichletData, ProblemSpec


class SolverError(RuntimeError):
    """Singular factorization or non-finite iterates."""


@dataclass
class CoupledState:
    u: np.ndarray
    p: np.ndarray
    phi: np.ndarray


@dataclass
class SweepRecord:
    """One Picard sweep.  ``stokes_lu`` says how its Stokes system was solved:
    "factored", "lagged", "refactored" (a lagged solve was rejected),
    "regularized" (the plain system failed, in its factorization or in its
    solve, and the regularized one was factored) or "reused" (constant
    viscosity: the first sweep's solution); ``correction_steps`` counts the
    lagged steps taken and ``stokes_factorizations`` the Stokes factorizations
    made (a "regularized" sweep makes 2 when the plain system was factored and
    its solve failed, 1 when its factorization failed).  ``increment`` is None
    for the Stokes-first sweep that precedes the counted ones."""
    stokes_lu: str
    correction_steps: int
    stokes_factorizations: int
    stokes_residual: float
    heat_residual: float
    increment: float | None = None


@dataclass
class PicardReport:
    """``stokes_residual`` and ``heat_residual`` are those of the last sweep,
    ``stokes_factorizations`` the sum over the sweeps; all read 0 when no
    sweep ran."""
    iterations: int
    residual_history: list[float]
    converged: bool
    pressure_mean_rel: float
    sweeps: list[SweepRecord]

    @property
    def stokes_residual(self) -> float:
        return self.sweeps[-1].stokes_residual if self.sweeps else 0.0

    @property
    def heat_residual(self) -> float:
        return self.sweeps[-1].heat_residual if self.sweeps else 0.0

    @property
    def stokes_factorizations(self) -> int:
        return sum(s.stokes_factorizations for s in self.sweeps)


# A solve whose final relative residual lies above this floor has failed: a
# factorization of a numerically singular matrix can return garbage without
# raising (relative residual 4.8 on an unstabilized k=2 saddle), while healthy
# solves stay at or below 1.5e-11.
RESIDUAL_FLOOR = 1e-8

# Iterative refinement stops once the relative residual is at or below this
# value (at least one refinement pass is always taken).
REFINE_TOL = 1e-15

# A lagged Stokes solve takes LAG_STEPS correction steps with the previous
# sweep's factorization and is accepted when they bring its relative residual
# to at most LAG_CONTRACTION times the starting one and at most LAG_RESIDUAL.
LAG_STEPS = 2
LAG_CONTRACTION = 0.3
LAG_RESIDUAL = 1e-3


# The symmetric-mode LU does not pivot, so a diagonal entry at or below this
# fraction of max|K_ff| (the zero pressure block of an unstabilized saddle)
# sends the factorization to COLAMD with partial pivoting: factored without
# pivoting, that saddle meets the residual floor (3.6e-9) with pivots near
# 1e-42, a pressure of 1e12 and a velocity off by 1.35%.
SMALL_DIAGONAL = 1e-12


def _norm(r: np.ndarray) -> float:
    # einsum, not np.linalg.norm: a BLAS level-1 call on a multi-threaded
    # OpenBLAS costs about 1 ms per solver-sized vector
    return float(np.sqrt(np.einsum("i,i->", r, r)))


class _EliminatedSolve:
    """Direct solve of K x = b for the dofs ``free``; the others are held at
    their values in ``xfix`` (zero on the free dofs).  The constructor only
    prepares the free-free block; ``factor`` factors it.

    ``symmetric_mode`` marks a matrix with a symmetric pattern and a positive
    semi-definite symmetric part (the Stokes saddle systems): it is factored
    with a minimum-degree ordering of A + A^T and no row pivoting unless its
    diagonal has an entry at or below ``SMALL_DIAGONAL * max|K_ff|`` or that
    factorization finds an exactly zero pivot.  Every other matrix is factored
    with SuperLU's default COLAMD ordering and partial pivoting.  ``ordering``
    records which of the two ("symmetric" or "colamd") was used.
    """

    def __init__(self, K: sp.spmatrix, free: np.ndarray, xfix: np.ndarray,
                 system: str, symmetric_mode: bool = False):
        K = K.tocsr()
        self.system = system
        self.symmetric_mode = symmetric_mode
        self.free = free
        self.xfix = xfix
        self.shift = K @ xfix
        # the free-free block, factorized once and reused by every refinement
        self.Kff = K[free][:, free]
        self.lu = self.ordering = None

    def factor(self) -> "_EliminatedSolve":
        """Factor ``Kff``; returns ``self``."""
        Kc = self.Kff.tocsc()
        full_diagonal = self.symmetric_mode and (np.abs(Kc.diagonal()).min()
                                                 > SMALL_DIAGONAL * np.abs(Kc.data).max())
        self.ordering = "symmetric" if full_diagonal else "colamd"
        if self.ordering == "symmetric":
            try:
                self.lu = splu(Kc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                               options=dict(SymmetricMode=True))
            except RuntimeError:  # an exactly zero pivot
                self.ordering = "colamd"
        if self.ordering == "colamd":
            try:
                self.lu = splu(Kc)
            except RuntimeError as exc:
                raise SolverError(f"{self.system} system: singular factorization: {exc}") from exc
        return self

    def correct(self, lu, rhs: np.ndarray, x0: np.ndarray | None, steps: int,
                tol: float | None = None):
        """Correction steps ``x += lu \\ (b - Kff x)`` on the free dofs, from
        ``x0`` or, when it is None, from ``lu \\ b``.  ``lu`` factors ``Kff``
        (iterative refinement) or an earlier matrix of the same pattern (a
        lagged solve).  Takes ``steps`` steps, or stops before a later one
        once the relative residual is at most ``tol``.

        Returns (x, |b|, residual norm before the first step, after the last).
        """
        b = (rhs - self.shift)[self.free]
        Kff = self.Kff
        x = lu.solve(b) if x0 is None else x0[self.free]
        nb = _norm(b)
        r = b - Kff @ x
        r0 = rn = _norm(r)
        for step in range(steps):
            if tol is not None and step > 0 and (rn / nb if nb > 0 else 0.0) <= tol:
                break
            x += lu.solve(r)
            r = b - Kff @ x
            rn = _norm(r)
        full = self.xfix.copy()
        full[self.free] = x
        return full, nb, r0, rn

    def solve(self, rhs: np.ndarray):
        """LU solve with iterative refinement down to the conditioning floor.

        Raises SolverError when the result is non-finite or its relative
        residual stays above ``RESIDUAL_FLOOR``.
        """
        # at least one refinement pass; it sharpens the forward error even
        # when the first residual already looks small
        full, nb, _, rn = self.correct(self.lu, rhs, None, 4, REFINE_TOL)
        res = rn / nb if nb > 0 else 0.0
        if not np.all(np.isfinite(full)):
            raise SolverError(f"{self.system} system: non-finite values in the linear solve")
        if not res <= RESIDUAL_FLOOR:
            raise SolverError(f"{self.system} system: relative residual {res:.3e} "
                              f"above the floor {RESIDUAL_FLOOR:g}")
        return full, res


class _StokesSweeps:
    """The Stokes solves of one Picard loop, or of one standalone solve.

    Holds what carries over from sweep to sweep: the free dofs (the velocity
    dofs without Dirichlet data and every pressure dof but the pinned dof 0),
    whether a sweep fell back to the regularized system (later sweeps then
    build it directly), the last symmetric-mode factorization and the last
    solution, from which the next system may be solved lagged.
    """

    def __init__(self, dirichlet_u: DirichletData, N: int):
        self.free = np.concatenate([dirichlet_u.free, np.arange(2 * N + 1, 3 * N)])
        self.xfix = np.zeros(3 * N)
        self.xfix[dirichlet_u.fixed] = dirichlet_u.values[dirichlet_u.fixed]
        self.regularize = False
        self.lu = None
        self.x = None

    def prepare(self, system) -> _EliminatedSolve:
        """The pinned system of ``system``, regularized after a fallback."""
        K = sp.bmat([[system.A_uu, -system.B.T], [system.B, system.L2]], format="csr")
        if self.regularize:
            # without pressure stabilization the equal-order saddle matrix has
            # spurious pressure modes (B^T z = 0): regularize only the pressure
            # block to pick a representative; the velocity is unaffected
            N = len(system.mean_row)
            eps = 1e-10 * max(1.0, abs(system.A_uu).max())
            pressure = np.arange(2 * N, 3 * N)
            K = K + sp.csr_matrix((np.full(N, eps), (pressure, pressure)), shape=K.shape)
        return _EliminatedSolve(K, self.free, self.xfix,
                                "regularized Stokes" if self.regularize else "Stokes",
                                symmetric_mode=True)

    def solve(self, system, rhs: np.ndarray, exact: bool):
        """(x, relative residual, the Stokes part of a ``SweepRecord``) of the
        pinned system of ``system``; lagged when a factorization is kept and
        ``exact`` is not set."""
        elim = self.prepare(system)
        action, steps, factorizations = "factored", 0, 0
        if self.lu is not None and not exact:
            steps = LAG_STEPS
            x, nb, r0, rn = elim.correct(self.lu, rhs, self.x, LAG_STEPS)
            # a non-finite iterate never reaches the acceptance residual
            if rn <= min(LAG_CONTRACTION * r0, LAG_RESIDUAL * nb):
                self.x = x
                return x, (rn / nb if nb > 0 else 0.0), ("lagged", steps, 0)
            action = "refactored"
        # no reference to the old factorization may outlive this point: a new
        # one made while it is alive raises the peak memory by its size
        self.lu = None
        while True:
            try:
                elim.factor()
                factorizations += 1
                x, res = elim.solve(rhs)
                break
            except SolverError:
                if self.regularize:
                    raise
            # the failed factorization dies before the regularized one is
            # made, outside the except block, whose traceback would keep it
            elim = None
            self.regularize = True
            action = "regularized"
            warnings.warn("singular unstabilized saddle system; pressure block "
                          "regularized to obtain a representative solution")
            elim = self.prepare(system)
        if elim.ordering == "symmetric":
            self.lu = elim.lu
        self.x = x
        return x, res, (action, steps, factorizations)


def solve_stokes(system, sweeps: _StokesSweeps | None = None, exact: bool = True):
    """Solve the stabilized saddle problem for (u, p).

    The zero-mean constraint is enforced through its Lagrange multiplier,
    whose value lambda = delta/|Omega| is forced by summing the continuity
    rows (delta is the boundary-data incompatibility).  Substituting it back
    yields a consistent, fully sparse system: one pressure dof is pinned for
    the factorization and the pressure is shifted to exact zero mean, which
    reproduces the bordered multiplier solution without the dense row.
    A singular factorization or a failed solve falls back to the
    pressure-regularized system; a failure there raises SolverError.
    ``sweeps`` carries the state of a Picard loop, which solves the system
    lagged unless ``exact`` is set; without it the solve is exact.
    Returns (u, p, (stokes_lu, correction_steps, stokes_factorizations),
    relative residual), the third being the Stokes part of a ``SweepRecord``.
    """
    N = len(system.mean_row)
    omega = float(system.mean_row.sum())   # = sum of cell areas
    rhs = np.concatenate([system.rhs_momentum, np.zeros(N)])
    # continuity rhs after elimination sums to -inflow/outflow imbalance
    du = system.dirichlet_u
    delta = -float(np.sum(system.B[:, du.fixed] @ du.values[du.fixed]))
    lam = delta / omega
    rhs[2 * N:] -= lam * system.mean_row
    if sweeps is None:
        sweeps = _StokesSweeps(du, N)
    x, res, record = sweeps.solve(system, rhs, exact)
    u = x[:2 * N]
    p = x[2 * N:]
    p = p - (float(system.mean_row @ p) / omega)
    return u, p, record, res


def solve_temperature(system):
    """Solve the stabilized transport equation for the temperature.

    The velocity iterate enters through the convection block of ``system``.
    """
    K = (system.A_TT + system.C + system.L3).tocsr()
    dphi = system.dirichlet_phi
    elim = _EliminatedSolve(K, dphi.free, dphi.values, "temperature").factor()
    phi, res = elim.solve(system.rhs_heat)
    return phi, res


def velocity_norm(asm: Assembler, u: np.ndarray) -> float:
    """Energy-surrogate H1 seminorm of a velocity."""
    N, S = asm.N, asm.h1_surrogate
    return np.sqrt(float(u[:N] @ (S @ u[:N])) + float(u[N:] @ (S @ u[N:])))


def temperature_norm(asm: Assembler, phi: np.ndarray) -> float:
    """Energy-surrogate norm of a temperature: kappa_ref |phi|_1^2 + L3."""
    v = (asm.spec.kappa_ref * float(phi @ (asm.h1_surrogate @ phi))
         + float(phi @ (asm.L3 @ phi)))
    return np.sqrt(max(v, 0.0))


def picard_solve(spec: ProblemSpec, mops: MeshOps, tol: float = 1e-7, max_iter: int = 50,
                 initial: str = "zero"):
    """Fixed-point iteration on the decoupled Stokes/temperature solves.

    Returns (CoupledState, PicardReport).  Reaching ``max_iter`` yields a
    non-converged report rather than an exception; non-finite iterates raise
    SolverError immediately.  Intermediate Stokes solves may be lagged (see
    the module docstring); ``PicardReport.sweeps`` records each sweep.
    """
    if initial not in ("zero", "stokes_first"):
        raise ValueError(f"unknown initial mode {initial!r}")
    asm = Assembler(mops, spec)
    N = asm.N
    u, p, phi = np.zeros(2 * N), np.zeros(N), np.zeros(N)
    stokes = _StokesSweeps(asm.dirichlet_u, N)
    # with constant viscosity the Stokes system, its right-hand side and its
    # Dirichlet data do not depend on the iterate: solved once, on the first
    # sweep (phi = 0), and reused by every later one
    constant_viscosity = spec.viscosity.mu_min == spec.viscosity.mu_max
    reused = None
    history: list[float] = []
    records: list[SweepRecord] = []
    pmean_rel = 0.0
    converged = exact = False
    it = 0
    # sweep 0, the "stokes_first" start, precedes the counted sweeps
    for it in range(0 if initial == "stokes_first" else 1, max_iter + 1):
        if reused is None:
            # a system rebuilt every sweep is freed before the transport solve;
            # only its factorization is kept, for a lagged solve of the next one
            u_new, p_new, stokes_lu, res_s = solve_stokes(
                asm.build_stokes(phi), stokes, exact or it == max_iter)
            if constant_viscosity:
                reused = u_new, p_new, ("reused", 0, 0), res_s
        else:
            u_new, p_new, stokes_lu, res_s = reused
        # transport sees the freshly computed velocity
        phi_new, res_h = solve_temperature(asm.build_transport(u_new, phi))
        pn = max(_norm(p_new), 1e-12)  # guard the zero-pressure case
        pmean_rel = max(pmean_rel, abs(float(asm.mean_row @ p_new)) / pn)
        delta = None
        if it > 0:
            delta = float(temperature_norm(asm, phi_new - phi) + velocity_norm(asm, u_new - u))
            if not np.isfinite(delta):
                raise SolverError("non-finite Picard increment")
            history.append(delta)
        records.append(SweepRecord(*stokes_lu, res_s, res_h, delta))
        u, p, phi = u_new, p_new, phi_new
        if delta is None:
            continue
        if delta <= tol and stokes_lu[0] != "lagged":
            converged = True
            break
        # the loop never stops on a lagged sweep: the next sweep is exact once
        # this one met tol, or once the last contraction predicts it will
        exact = delta <= tol or (it > 1 and delta * delta <= tol * history[-2])

    report = PicardReport(iterations=it, residual_history=history, converged=converged,
                          pressure_mean_rel=pmean_rel, sweeps=records)
    return CoupledState(u=u, p=p, phi=phi), report
