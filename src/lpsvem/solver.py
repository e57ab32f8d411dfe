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
against the new matrix.  The lagged solve is accepted when its relative
residual is at most ``LAG_CONTRACTION`` times the starting one and at most
``LAG_RESIDUAL``; otherwise the old factorization is dropped before the new
system is factored.  The loop never stops on a lagged sweep: the sweep after
one whose increment meets ``tol``, or after one whose contraction predicts
that the next increment will, solves Stokes exactly, and so does the last
sweep ``max_iter`` allows.  Only symmetric-mode factorizations are kept:
neither a COLAMD factorization (the plain unstabilized saddle) nor the
temperature system is ever reused.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .element_ops import MeshOps, build_mesh_ops
from .forms import Assembler, DirichletData, ProblemSpec


class SolverError(RuntimeError):
    """Singular factorization or non-finite iterates."""


@dataclass
class CoupledState:
    u: np.ndarray
    p: np.ndarray
    phi: np.ndarray
    mean_multiplier: float = 0.0


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
    iterations: int
    residual_history: list[float]
    converged: bool
    final_tolerance: float
    pressure_mean_rel: float = 0.0
    stokes_residual: float = 0.0
    heat_residual: float = 0.0
    sweeps: list[SweepRecord] = field(default_factory=list)
    stokes_factorizations: int = 0


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

    def solve(self, rhs: np.ndarray):
        """LU solve with iterative refinement down to the conditioning floor.

        Raises SolverError when the result is non-finite or its relative
        residual stays above ``RESIDUAL_FLOOR``.
        """
        b = (rhs - self.shift)[self.free]
        Kff = self.Kff
        x = self.lu.solve(b)
        nb = _norm(b)
        res = _norm(b - Kff @ x) / nb if nb > 0 else 0.0
        for step in range(4):
            # at least one refinement pass; it sharpens the forward error even
            # when the first residual already looks small
            if step > 0 and res <= REFINE_TOL:
                break
            x += self.lu.solve(b - Kff @ x)
            res = _norm(b - Kff @ x) / nb if nb > 0 else 0.0
        full = self.xfix.copy()
        full[self.free] = x
        if not np.all(np.isfinite(full)):
            raise SolverError(f"{self.system} system: non-finite values in the linear solve")
        if not res <= RESIDUAL_FLOOR:
            raise SolverError(f"{self.system} system: relative residual {res:.3e} "
                              f"above the floor {RESIDUAL_FLOOR:g}")
        return full, res

    def lagged_solve(self, lu, rhs: np.ndarray, x0: np.ndarray):
        """``LAG_STEPS`` correction steps from ``x0`` with ``lu``, a
        symmetric-mode factorization of an earlier matrix of the same pattern.

        Returns (x, relative residual), or None when the steps do not reach
        the acceptance residual; a non-finite iterate never does.
        """
        b = (rhs - self.shift)[self.free]
        Kff = self.Kff
        x = x0[self.free]
        r = b - Kff @ x
        r0 = _norm(r)
        for _ in range(LAG_STEPS):
            x += lu.solve(r)
            r = b - Kff @ x
        nb, rn = _norm(b), _norm(r)
        if not rn <= min(LAG_CONTRACTION * r0, LAG_RESIDUAL * nb):
            return None
        full = self.xfix.copy()
        full[self.free] = x
        return full, (rn / nb if nb > 0 else 0.0)


def _stokes_matrix(system) -> sp.csr_matrix:
    return sp.bmat([
        [system.A_uu, -system.B.T],
        [system.B, system.L2],
    ], format="csr")


class _StokesSweeps:
    """The Stokes solves of one Picard loop, or of one standalone solve.

    Holds what carries over from sweep to sweep: the free dofs (the velocity
    dofs without Dirichlet data and every pressure dof but the pinned dof 0),
    whether a sweep fell back to the regularized system (later sweeps then
    build it directly), the last symmetric-mode factorization and the last
    solution, from which the next system may be solved lagged unless
    ``exact`` is set.  ``action``, ``steps`` and ``factorizations`` describe
    the last solve as a ``SweepRecord`` does.
    """

    def __init__(self, dirichlet_u: DirichletData, N: int):
        self.free = np.concatenate([dirichlet_u.free, np.arange(2 * N + 1, 3 * N)])
        self.xfix = np.zeros(3 * N)
        self.xfix[dirichlet_u.fixed] = dirichlet_u.values[dirichlet_u.fixed]
        self.N = N
        self.regularize = False
        self.exact = False
        self.lu = None
        self.x = None
        self.action, self.steps, self.factorizations = "", 0, 0

    def prepare(self, system) -> _EliminatedSolve:
        """The pinned system of ``system``, regularized after a fallback."""
        K = _stokes_matrix(system)
        if self.regularize:
            # without pressure stabilization the equal-order saddle matrix has
            # spurious pressure modes (B^T z = 0): regularize only the pressure
            # block to pick a representative; the velocity is unaffected
            N = self.N
            eps = 1e-10 * max(1.0, abs(system.A_uu).max())
            K = K + sp.bmat([[sp.csr_matrix((2 * N, 2 * N)), None],
                             [None, sp.identity(N, format="csr") * eps]], format="csr")
        return _EliminatedSolve(K, self.free, self.xfix,
                                "regularized Stokes" if self.regularize else "Stokes",
                                symmetric_mode=True)

    def solve(self, system, rhs: np.ndarray):
        """(x, relative residual) of the pinned system of ``system``."""
        elim = self.prepare(system)
        self.action, self.steps, self.factorizations = "factored", 0, 0
        if self.lu is not None and not self.exact:
            self.steps = LAG_STEPS
            lagged = elim.lagged_solve(self.lu, rhs, self.x)
            if lagged is not None:
                self.action = "lagged"
                self.x = lagged[0]
                return lagged
            self.action = "refactored"
        # no reference to the old factorization may outlive this point: a new
        # one made while it is alive raises the peak memory by its size
        self.lu = None
        while True:
            try:
                elim.factor()
                self.factorizations += 1
                x, res = elim.solve(rhs)
                break
            except SolverError:
                if self.regularize:
                    raise
            # the failed factorization dies before the regularized one is
            # made, outside the except block, whose traceback would keep it
            elim = None
            self.regularize = True
            self.action = "regularized"
            warnings.warn("singular unstabilized saddle system; pressure block "
                          "regularized to obtain a representative solution")
            elim = self.prepare(system)
        if elim.ordering == "symmetric":
            self.lu = elim.lu
        self.x = x
        return x, res


def solve_stokes(system, N: int, sweeps: _StokesSweeps | None = None):
    """Solve the stabilized saddle problem for (u, p, multiplier).

    The zero-mean constraint is enforced through its Lagrange multiplier,
    whose value lambda = delta/|Omega| is forced by summing the continuity
    rows (delta is the boundary-data incompatibility).  Substituting it back
    yields a consistent, fully sparse system: one pressure dof is pinned for
    the factorization and the pressure is shifted to exact zero mean, which
    reproduces the bordered multiplier solution without the dense row.
    A singular factorization or a failed solve falls back to the
    pressure-regularized system; a failure there raises SolverError.
    ``sweeps`` carries the state of a Picard loop, which may solve the system
    lagged; without it the solve is exact.
    Returns (u, p, lam, relative residual).
    """
    omega = float(system.mean_row.sum())   # = sum of cell areas
    rhs = np.concatenate([system.rhs_momentum, np.zeros(N)])
    # continuity rhs after elimination sums to -inflow/outflow imbalance
    du = system.dirichlet_u
    delta = -float(np.sum(system.B[:, du.fixed] @ du.values[du.fixed]))
    lam = delta / omega
    rhs[2 * N:] -= lam * system.mean_row
    if sweeps is None:
        sweeps = _StokesSweeps(du, N)
    x, res = sweeps.solve(system, rhs)
    u = x[:2 * N]
    p = x[2 * N:]
    p = p - (float(system.mean_row @ p) / omega)
    return u, p, lam, res


def solve_temperature(system):
    """Solve the stabilized transport equation for the temperature.

    The velocity iterate enters through the convection block of ``system``.
    """
    K = (system.A_TT + system.C + system.L3).tocsr()
    dphi = system.dirichlet_phi
    elim = _EliminatedSolve(K, dphi.free, dphi.values, "temperature").factor()
    phi, res = elim.solve(system.rhs_heat)
    return phi, res


@dataclass
class _Norms:
    """Energy-surrogate norms built from the assembler's static blocks."""
    asm: Assembler

    def h1_sq(self, w: np.ndarray) -> float:
        return float(w @ (self.asm.h1_surrogate @ w))

    def h1_vec(self, u: np.ndarray) -> float:
        N = self.asm.N
        return np.sqrt(self.h1_sq(u[:N]) + self.h1_sq(u[N:]))

    def sigma(self, phi: np.ndarray) -> float:
        v = self.asm.spec.kappa_ref * self.h1_sq(phi) + float(phi @ (self.asm.L3 @ phi))
        return np.sqrt(max(v, 0.0))


def picard_solve(spec: ProblemSpec, mesh, tol: float = 1e-7, max_iter: int = 50,
                 initial: str = "zero", mops: MeshOps | None = None):
    """Fixed-point iteration on the decoupled Stokes/temperature solves.

    Returns (CoupledState, PicardReport).  Reaching ``max_iter`` yields a
    non-converged report rather than an exception; non-finite iterates raise
    SolverError immediately.  Intermediate Stokes solves may be lagged (see
    the module docstring); ``PicardReport.sweeps`` records each sweep.
    """
    if initial not in ("zero", "stokes_first"):
        raise ValueError(f"unknown initial mode {initial!r}")
    if mops is None:
        mops = build_mesh_ops(mesh, spec.k)
    asm = Assembler(mops, spec)
    N = asm.N
    norms = _Norms(asm)

    u_prev = np.zeros(2 * N)
    phi_prev = np.zeros(N)
    lam = 0.0
    p = np.zeros(N)
    last_stokes_res = last_heat_res = 0.0
    pmean_rel = 0.0
    stokes = _StokesSweeps(asm.dirichlet_u, N)
    # with constant viscosity the Stokes system, its right-hand side and its
    # Dirichlet data do not depend on the iterate: solved once, on the first
    # sweep (phi = 0), and reused by every later one
    constant_viscosity = spec.viscosity.mu_min == spec.viscosity.mu_max
    stokes_solution = None
    records: list[SweepRecord] = []

    def sweep(u_in, phi_in, exact):
        nonlocal last_stokes_res, last_heat_res, pmean_rel, stokes_solution
        if stokes_solution is not None:
            u_new, p_new, lam_new, res_s = stokes_solution
            action, steps, factorizations = "reused", 0, 0
        else:
            stokes.exact = exact
            # a system rebuilt every sweep is freed before the transport solve;
            # only its factorization is kept, for a lagged solve of the next one
            u_new, p_new, lam_new, res_s = solve_stokes(asm.build_stokes(phi_in), N, stokes)
            action, steps, factorizations = stokes.action, stokes.steps, stokes.factorizations
            if constant_viscosity:
                stokes_solution = u_new, p_new, lam_new, res_s
        # transport sees the freshly computed velocity
        transport = asm.build_transport(u_new, phi_in)
        phi_new, res_h = solve_temperature(transport)
        records.append(SweepRecord(action, steps, factorizations, res_s, res_h))
        last_stokes_res, last_heat_res = res_s, res_h
        pn = max(_norm(p_new), 1e-12)  # guard the zero-pressure case
        pmean_rel = max(pmean_rel, abs(float(asm.mean_row @ p_new)) / pn)
        return u_new, p_new, lam_new, phi_new

    if initial == "stokes_first":
        u_prev, p, lam, phi_prev = sweep(u_prev, phi_prev, False)

    history: list[float] = []
    converged = False
    exact = False
    it = 0
    for it in range(1, max_iter + 1):
        u_new, p_new, lam_new, phi_new = sweep(u_prev, phi_prev, exact or it == max_iter)
        delta = float(norms.sigma(phi_new - phi_prev) + norms.h1_vec(u_new - u_prev))
        if not np.isfinite(delta):
            raise SolverError("non-finite Picard increment")
        history.append(delta)
        records[-1].increment = delta
        u_prev, phi_prev, p, lam = u_new, phi_new, p_new, lam_new
        if delta <= tol and records[-1].stokes_lu != "lagged":
            converged = True
            break
        # the loop never stops on a lagged sweep: the next sweep is exact once
        # this one met tol, or once the last contraction predicts it will
        exact = delta <= tol or (it > 1 and delta * delta <= tol * history[-2])

    state = CoupledState(u=u_prev, p=p, phi=phi_prev, mean_multiplier=lam)
    report = PicardReport(iterations=it, residual_history=history,
                          converged=converged, final_tolerance=tol,
                          pressure_mean_rel=pmean_rel,
                          stokes_residual=last_stokes_res,
                          heat_residual=last_heat_res,
                          sweeps=records,
                          stokes_factorizations=sum(r.stokes_factorizations for r in records))
    return state, report
