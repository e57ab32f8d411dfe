"""Sparse direct solves and the Picard fixed-point loop for the coupling.

One Picard sweep freezes the temperature, solves the stabilized Stokes saddle
problem (with a scalar multiplier enforcing the zero pressure mean), then
solves the stabilized transport equation with the new velocity.  Sweeps stop
when the energy-surrogate norm of the combined increment drops below ``tol``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .element_ops import MeshOps, build_mesh_ops
from .forms import Assembler, ProblemSpec


class SolverError(RuntimeError):
    """Singular factorization or non-finite iterates."""


@dataclass
class CoupledState:
    u: np.ndarray
    p: np.ndarray
    phi: np.ndarray
    mean_multiplier: float = 0.0


@dataclass
class PicardReport:
    iterations: int
    residual_history: list[float]
    converged: bool
    final_tolerance: float
    pressure_mean_rel: float = 0.0
    stokes_residual: float = 0.0
    heat_residual: float = 0.0


# A solve whose final relative residual lies above this floor has failed: a
# factorization of a numerically singular matrix can return garbage without
# raising (relative residual 4.8 on an unstabilized k=2 saddle), while healthy
# solves stay at or below 1.5e-11.
RESIDUAL_FLOOR = 1e-8


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
    """Direct solve of K x = b with prescribed values on `fixed` dofs.

    ``symmetric_mode`` marks a matrix with a symmetric pattern and a positive
    semi-definite symmetric part (the Stokes saddle systems): it is factored
    with a minimum-degree ordering of A + A^T and no row pivoting unless its
    diagonal has an entry at or below ``SMALL_DIAGONAL * max|K_ff|`` or that
    factorization finds an exactly zero pivot.  Every other matrix is factored
    with SuperLU's default COLAMD ordering and partial pivoting.  ``ordering``
    records which of the two ("symmetric" or "colamd") was used.
    """

    def __init__(self, K: sp.spmatrix, fixed: np.ndarray, values: np.ndarray,
                 system: str, symmetric_mode: bool = False):
        K = K.tocsr()
        self.system = system
        self.n = K.shape[0]
        self.fixed = fixed
        self.free = np.setdiff1d(np.arange(self.n), fixed)
        self.xfix = np.zeros(self.n)
        self.xfix[fixed] = values[fixed] if len(values) == self.n else values
        self.shift = K @ self.xfix
        # the free-free block, factorized once and reused by every refinement
        self.Kff = K[self.free][:, self.free]
        Kc = self.Kff.tocsc()
        full_diagonal = symmetric_mode and (np.abs(Kc.diagonal()).min()
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
                raise SolverError(f"{system} system: singular factorization: {exc}") from exc

    def solve(self, rhs: np.ndarray, refine_tol: float = 1e-15):
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
            if step > 0 and res <= refine_tol:
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


def _stokes_matrix(system) -> sp.csr_matrix:
    return sp.bmat([
        [system.A_uu, -system.B.T],
        [system.B, system.L2],
    ], format="csr")


def _stokes_solver(system, N: int, regularize: bool) -> _EliminatedSolve:
    K = _stokes_matrix(system)
    if regularize:
        # without pressure stabilization the equal-order saddle matrix has
        # spurious pressure modes (B^T z = 0): regularize only the pressure
        # block to pick a representative; the velocity is unaffected
        eps = 1e-10 * max(1.0, abs(system.A_uu).max())
        K = K + sp.bmat([[sp.csr_matrix((2 * N, 2 * N)), None],
                         [None, sp.identity(N, format="csr") * eps]], format="csr")
        warnings.warn("singular unstabilized saddle system; pressure block "
                      "regularized to obtain a representative solution")
    du = system.dirichlet_u
    fixed = np.concatenate([du.fixed, [2 * N]])  # pin pressure dof 0
    vals = np.zeros(K.shape[0])
    vals[du.fixed] = du.values[du.fixed]
    return _EliminatedSolve(K, fixed, vals,
                            "regularized Stokes" if regularize else "Stokes",
                            symmetric_mode=True)


def solve_stokes(system, N: int):
    """Solve the stabilized saddle problem for (u, p, multiplier).

    The zero-mean constraint is enforced through its Lagrange multiplier,
    whose value lambda = delta/|Omega| is forced by summing the continuity
    rows (delta is the boundary-data incompatibility).  Substituting it back
    yields a consistent, fully sparse system: one pressure dof is pinned for
    the factorization and the pressure is shifted to exact zero mean, which
    reproduces the bordered multiplier solution without the dense row.
    A singular factorization or a failed solve falls back to the
    pressure-regularized system; a failure there raises SolverError.  The
    factorization is kept in ``system.factorization`` and reused by every
    later solve of the same object.
    Returns (u, p, lam, relative residual).
    """
    omega = float(system.mean_row.sum())   # = sum of cell areas
    rhs = np.concatenate([system.rhs_momentum, np.zeros(N)])
    # continuity rhs after elimination sums to -inflow/outflow imbalance
    du = system.dirichlet_u
    delta = -float(np.sum(system.B[:, du.fixed] @ du.values[du.fixed]))
    lam = delta / omega
    rhs[2 * N:] -= lam * system.mean_row
    elim = system.factorization
    if elim is not None:
        x, res = elim.solve(rhs)
    else:
        try:
            elim = _stokes_solver(system, N, regularize=False)
            x, res = elim.solve(rhs)
        except SolverError:
            elim = _stokes_solver(system, N, regularize=True)
            x, res = elim.solve(rhs)
        system.factorization = elim
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
    elim = _EliminatedSolve(K, dphi.fixed, dphi.values, "temperature")
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

    def triple_up(self, u: np.ndarray, p: np.ndarray) -> float:
        N = self.asm.N
        v = (self.asm.spec.viscosity.mu_min * (self.h1_sq(u[:N]) + self.h1_sq(u[N:]))
             + float(p @ (self.asm.mass0 @ p))
             + float(u @ (self.asm.L1 @ u)) + float(p @ (self.asm.L2 @ p)))
        return np.sqrt(max(v, 0.0))


def picard_solve(spec: ProblemSpec, mesh, tol: float = 1e-7, max_iter: int = 50,
                 initial: str = "zero", mops: MeshOps | None = None,
                 asm: Assembler | None = None):
    """Fixed-point iteration on the decoupled Stokes/temperature solves.

    Returns (CoupledState, PicardReport).  Reaching ``max_iter`` yields a
    non-converged report rather than an exception; non-finite iterates raise
    SolverError immediately.
    """
    if initial not in ("zero", "stokes_first"):
        raise ValueError(f"unknown initial mode {initial!r}")
    if mops is None:
        mops = build_mesh_ops(mesh, spec.k)
    if asm is None:
        asm = Assembler(mops, spec)
    N = asm.N
    norms = _Norms(asm)

    u_prev = np.zeros(2 * N)
    phi_prev = np.zeros(N)
    lam = 0.0
    p = np.zeros(N)
    last_stokes_res = last_heat_res = 0.0
    pmean_rel = 0.0

    def sweep(u_in, phi_in):
        nonlocal last_stokes_res, last_heat_res, pmean_rel
        # a system rebuilt every sweep is freed, with its factorization,
        # before the transport solve
        u_new, p_new, lam_new, res_s = solve_stokes(asm.build_stokes(phi_in), N)
        # transport sees the freshly computed velocity
        transport = asm.build_transport(u_new, phi_in)
        phi_new, res_h = solve_temperature(transport)
        last_stokes_res, last_heat_res = res_s, res_h
        pn = max(_norm(p_new), 1e-12)  # guard the zero-pressure case
        pmean_rel = max(pmean_rel, abs(float(asm.mean_row @ p_new)) / pn)
        return u_new, p_new, lam_new, phi_new

    if initial == "stokes_first":
        u_prev, p, lam, phi_prev = sweep(u_prev, phi_prev)

    history: list[float] = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        u_new, p_new, lam_new, phi_new = sweep(u_prev, phi_prev)
        delta = norms.sigma(phi_new - phi_prev) + norms.h1_vec(u_new - u_prev)
        if not np.isfinite(delta):
            raise SolverError("non-finite Picard increment")
        history.append(float(delta))
        u_prev, phi_prev, p, lam = u_new, phi_new, p_new, lam_new
        if delta <= tol:
            converged = True
            break

    state = CoupledState(u=u_prev, p=p, phi=phi_prev, mean_multiplier=lam)
    report = PicardReport(iterations=it, residual_history=history,
                          converged=converged, final_tolerance=tol,
                          pressure_mean_rel=pmean_rel,
                          stokes_residual=last_stokes_res,
                          heat_residual=last_heat_res)
    return state, report
