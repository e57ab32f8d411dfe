"""Sparse direct solves and the Picard fixed-point loop for the coupling.

One Picard sweep freezes the temperature, solves the stabilized Stokes saddle
problem (with a scalar multiplier enforcing the zero pressure mean), then
solves the stabilized transport equation with the new velocity.  The first
sweep starts from zero fields, every sweep is counted, and sweeps stop when
the energy-surrogate norm of the combined increment drops below ``tol``.
With constant viscosity the Stokes system does not depend on the iterate: the
first sweep solves it, and every later sweep reuses that solution; with a
constant conductivity as well, the transport system is then the same too,
and its solution is reused with the velocity.

Each of the two linear systems of a loop is one ``_Sweeps`` object, built
from the ``Assembler`` before the first sweep: it holds the right-hand side,
and the Stokes one also the blocks B and L2, which do not change.  The
sparsity of its free-free block never changes either, so a sweep gathers
only the blocks that change straight into it: the velocity block A_uu of
``build_stokes``, or the transport matrix (A_TT + C) + L3 of
``build_transport``.  It keeps its last factorization and solution.  The
discrete solution is the fixed point of a
contraction, so only the sweep the loop stops on needs exact solves.  Every
other sweep may solve either system *lagged*: from the previous solution it
takes correction steps ``x += LU_old \\ (b - K_new x)`` with the kept
factorization, while each step shrinks the residual by at least the factor
``LAG_CONTRACTION``, up to ``LAG_STEPS`` steps.  The lagged solve is accepted
when its residual ends at most ``LAG_CONTRACTION`` times the starting one and
its relative residual at most the system's acceptance residual
(``LAG_RESIDUAL`` for Stokes, ``HEAT_LAG_RESIDUAL`` for the temperature);
otherwise the old factorization is dropped before the new system is
factored.  An exact solve takes the same correction steps with a fresh
factorization (iterative refinement).  The loop never stops on a lagged
sweep: the sweep after one whose increment meets ``tol``, or after one whose
contraction predicts that the next increment will, solves both systems
exactly, and so does the last sweep ``max_iter`` allows.  A symmetric-mode
Stokes factorization and a COLAMD temperature factorization are kept; the
COLAMD factorization of a plain unstabilized saddle is never reused.  Before
a Stokes factorization the kept temperature factorization is dropped too, so
at most one factorization of each system is alive when either is made.

Each solve returns what it did, a ``SolveRecord``; the sweep's
``SweepRecord`` holds the two and its increment, and the loop's
``PicardReport`` is the list of sweeps that its counts are read off.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .element_ops import MeshOps
from .forms import Assembler, ProblemSpec, StokesSystem


class SolverError(RuntimeError):
    """Singular factorization or non-finite iterates."""


@dataclass
class CoupledState:
    u: np.ndarray
    p: np.ndarray
    phi: np.ndarray


@dataclass(frozen=True)
class SolveRecord:
    """What one solve of a linear system did.  ``action``: "factored",
    "lagged", "refactored" (a lagged solve was rejected), "regularized" (the
    plain Stokes system failed, in its factorization or in its solve, and the
    regularized one was factored) or "reused" (the previous sweep's solution
    of an identical system); ``steps`` counts the lagged correction steps
    taken and ``factorizations`` the factorizations made (a "regularized"
    solve makes 2 when the plain system was factored and its solve failed, 1
    when its factorization failed); ``factor_s`` is their time, which takes
    no part in comparisons or the repr."""
    action: str
    steps: int
    factorizations: int
    residual: float
    factor_s: float = field(default=0.0, compare=False, repr=False)


@dataclass
class SweepRecord:
    """One Picard sweep: how its Stokes and its temperature systems were
    solved, the energy-surrogate norm of its increment, and the time it spent
    assembling (``build_stokes`` and ``build_transport``), which takes no
    part in comparisons or the repr."""
    stokes: SolveRecord
    heat: SolveRecord
    increment: float
    assemble_s: float = field(default=0.0, compare=False, repr=False)

    @property
    def factor_s(self) -> float:
        return self.stokes.factor_s + self.heat.factor_s


@dataclass
class PicardReport:
    """The sweeps of a Picard loop; ``iterations`` and the factorization
    sums are read off them."""
    converged: bool
    pressure_mean_rel: float
    sweeps: list[SweepRecord]

    @property
    def iterations(self) -> int:
        return len(self.sweeps)

    @property
    def stokes_factorizations(self) -> int:
        return sum(s.stokes.factorizations for s in self.sweeps)

    @property
    def heat_factorizations(self) -> int:
        return sum(s.heat.factorizations for s in self.sweeps)


# A solve whose final relative residual lies above this floor has failed: a
# factorization of a numerically singular matrix can return garbage without
# raising (relative residual 4.8 on an unstabilized k=2 saddle), while healthy
# solves stay at or below 1.5e-11.
RESIDUAL_FLOOR = 1e-8

# Iterative refinement stops once the relative residual is at or below this
# value (at least one refinement pass is always taken).
REFINE_TOL = 1e-15

# A lagged solve takes correction steps with the previous sweep's
# factorization while each brings the residual to at most LAG_CONTRACTION
# times the one before, up to LAG_STEPS steps.  It is accepted when they
# bring the residual to at most LAG_CONTRACTION times the starting one and
# the relative residual to at most the system's acceptance residual.  Stokes
# accepts at LAG_RESIDUAL.  A temperature accepted there too leaves the fields
# of ex3 (k=2, distorted squares, h=1/9 and 1/18) up to 2.3e-8 of their size
# from those of exact solves on every sweep; at HEAT_LAG_RESIDUAL they stay
# within 4.6e-11.  With LAG_STEPS = 3 in place of 6 the same sweeps factor,
# but the fields move 3.8e-10 from the exact ones.
LAG_STEPS = 6
LAG_CONTRACTION = 0.3
LAG_RESIDUAL = 1e-3
HEAT_LAG_RESIDUAL = 1e-8


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


def _relative(rn: float, nb: float) -> float:
    """rn / nb; for a zero right-hand side, 0 when the residual is zero and
    inf otherwise."""
    if nb > 0:
        return rn / nb
    return 0.0 if rn == 0 else np.inf


class _Sweeps:
    """One linear system of a Picard loop, or of one standalone solve, on its
    fixed pattern: K x = ``rhs`` for the dofs ``free``, the others held at
    their values in ``xfix`` (zero on the free dofs).

    A sweep's matrix K is given by its source data, one flat array whose
    entry e sits at (rows[e], cols[e]) of K; the positions are fixed for the
    loop and hold no duplicates.  Built once: the CSC pattern of the
    free-free block ``Kff``, the CSR pattern of the free-fixed block, whose
    product with the fixed values is the Dirichlet shift, and int32 maps from
    the source data to the ``data`` of both.  Kept from sweep to sweep: the
    last factorization ``lu`` and the last solution ``x`` on the free dofs.
    A lagged solve is accepted at the relative residual ``accept``;
    ``release`` names another system whose kept factorization is dropped
    before this one factors.

    ``symmetric_mode`` marks a matrix with a symmetric pattern and a positive
    semi-definite symmetric part (the Stokes saddle systems): it is factored
    with a minimum-degree ordering of A + A^T and no row pivoting unless its
    diagonal has an entry at or below ``SMALL_DIAGONAL * max|K_ff|`` or that
    factorization finds an exactly zero pivot.  Every other matrix is factored
    with SuperLU's default COLAMD ordering and partial pivoting.  ``ordering``
    records which of the two ("symmetric" or "colamd") the last factorization
    used; a factorization is kept for a lagged solve unless a symmetric-mode
    matrix fell back to COLAMD.
    """

    def __init__(self, name: str, rows: np.ndarray, cols: np.ndarray, free: np.ndarray,
                 xfix: np.ndarray, rhs: np.ndarray, accept: float,
                 symmetric_mode: bool = False):
        n = len(xfix)
        self.name = name
        self.rhs = rhs
        self.accept = accept
        self.symmetric_mode = symmetric_mode
        self.free = free
        self.xfix = xfix
        fixed = np.setdiff1d(np.arange(n), free)
        self._xfixed = xfix[fixed]
        # the entry ids as the data of K; slicing and conversion move them
        # to the places their values take
        ids = sp.csr_matrix((np.arange(len(rows)), (rows, cols)), shape=(n, n))[free]
        Kff = ids[:, free].tocsc()
        Kfx = ids[:, fixed]
        self._n_src = len(rows)
        self._map_ff = Kff.data.astype(np.int32)
        self._map_fx = Kfx.data.astype(np.int32)
        self.Kff = sp.csc_matrix((np.zeros(Kff.nnz), Kff.indices, Kff.indptr), shape=Kff.shape)
        self._Kfx = sp.csr_matrix((np.zeros(Kfx.nnz), Kfx.indices, Kfx.indptr), shape=Kfx.shape)
        self.Kff.has_canonical_format = self._Kfx.has_canonical_format = True
        self.lu = self.ordering = self.x = self.release = None

    def fill(self, src: np.ndarray) -> None:
        """Put the source data of a sweep's matrix into ``Kff`` and the shift."""
        if len(src) != self._n_src:
            raise ValueError(f"{self.name} system: {len(src)} source entries, "
                             f"the pattern has {self._n_src}")
        # mode="clip" writes straight into ``out``; "raise" would buffer
        np.take(src, self._map_ff, out=self.Kff.data, mode="clip")
        np.take(src, self._map_fx, out=self._Kfx.data, mode="clip")

    def shift(self) -> np.ndarray:
        """The Dirichlet shift on the free dofs: the free-fixed block times the
        fixed values."""
        return self._Kfx @ self._xfixed

    def full(self, x: np.ndarray) -> np.ndarray:
        """The solution on every dof from its free part."""
        out = self.xfix.copy()
        out[self.free] = x
        return out

    def factor(self):
        """A factorization of ``Kff``; sets ``ordering``."""
        Kff = self.Kff
        full_diagonal = self.symmetric_mode and (
            np.abs(Kff.diagonal()).min()
            > SMALL_DIAGONAL * max(Kff.data.max(), -Kff.data.min()))
        self.ordering = "symmetric" if full_diagonal else "colamd"
        if self.ordering == "symmetric":
            try:
                return splu(Kff, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                            options=dict(SymmetricMode=True))
            except RuntimeError:  # an exactly zero pivot
                self.ordering = "colamd"
        try:
            return splu(Kff)
        except RuntimeError as exc:
            raise SolverError(f"{self.name} system: singular factorization: {exc}") from exc

    def correct(self, lu, b: np.ndarray, x: np.ndarray, steps: int, tol: float,
                contraction: float | None = None):
        """Correction steps ``x += lu \\ (b - Kff x)`` on the free dofs, in
        place.  ``lu`` factors ``Kff`` (iterative refinement) or an earlier
        matrix of the same pattern (a lagged solve).  Takes at least one step
        and at most ``steps``; stops once the relative residual is at most
        ``tol``, or after a step that does not bring the residual to at most
        ``contraction`` times the one before.

        Returns (|b|, steps taken, residual norm before the first step, after
        the last).
        """
        nb = _norm(b)
        r = b - self.Kff @ x
        r0 = rn = _norm(r)
        for step in range(1, steps + 1):
            x += lu.solve(r)
            r = b - self.Kff @ x
            prev, rn = rn, _norm(r)
            if _relative(rn, nb) <= tol or (contraction is not None
                                            and not rn <= contraction * prev):
                break
        return nb, step, r0, rn

    def fall_back(self) -> bool:
        """Switch to a fallback system after a failed factorization or solve;
        False when there is none."""
        return False

    def solve_exact(self, lu, b: np.ndarray):
        """LU solve with iterative refinement down to the conditioning floor:
        (x on the free dofs, relative residual).

        Raises SolverError when the result is non-finite or its relative
        residual stays above ``RESIDUAL_FLOOR``.
        """
        x = lu.solve(b)
        # at least one refinement pass; it sharpens the forward error even
        # when the first residual already looks small
        nb, _, _, rn = self.correct(lu, b, x, 4, REFINE_TOL)
        res = _relative(rn, nb)
        if not np.all(np.isfinite(x)):
            raise SolverError(f"{self.name} system: non-finite values in the linear solve")
        if not res <= RESIDUAL_FLOOR:
            raise SolverError(f"{self.name} system: relative residual {res:.3e} "
                              f"above the floor {RESIDUAL_FLOOR:g}")
        return x, res

    def solve(self, exact: bool):
        """(x on every dof, ``SolveRecord``) of the filled system; lagged when
        a factorization is kept and ``exact`` is not set.

        Raises SolverError when an exact solve is non-finite or its relative
        residual stays above ``RESIDUAL_FLOOR``, and no fallback is left.
        """
        b = self.rhs[self.free] - self.shift()
        action, steps, factorizations, factor_s = "factored", 0, 0, 0.0
        if self.lu is not None and not exact:
            x = self.x.copy()
            nb, steps, r0, rn = self.correct(self.lu, b, x, LAG_STEPS, 0.0, LAG_CONTRACTION)
            # a non-finite iterate never reaches the acceptance residual
            if rn <= LAG_CONTRACTION * r0 and _relative(rn, nb) <= self.accept:
                self.x = x
                return self.full(x), SolveRecord("lagged", steps, 0, _relative(rn, nb))
            action = "refactored"
        # no reference to an old factorization may outlive this point: a new
        # one made while it is alive raises the peak memory by its size
        if self.release is not None:
            self.release.lu = None
        self.lu = None
        while True:
            try:
                t = time.perf_counter()
                try:
                    lu = self.factor()
                finally:
                    factor_s += time.perf_counter() - t
                factorizations += 1
                x, res = self.solve_exact(lu, b)
                break
            except SolverError:
                # adding to Kff makes no factorization: the failed one, which
                # the traceback keeps, dies before the next is made
                if not self.fall_back():
                    raise
            lu = None
            action = "regularized"
        if self.ordering == ("symmetric" if self.symmetric_mode else "colamd"):
            self.lu = lu
        self.x = x
        return self.full(x), SolveRecord(action, steps, factorizations, res, factor_s)


def _csr_entries(A: sp.csr_matrix):
    """(rows, cols) of the stored entries of ``A``, in the order of its data."""
    return np.repeat(np.arange(A.shape[0]), np.diff(A.indptr)), A.indices


class _StokesSweeps(_Sweeps):
    """The pinned saddle system [[A_uu, -B^T], [B, L2]] of a Picard loop.

    The free dofs are the velocity dofs without Dirichlet data and every
    pressure dof but the pinned dof 0.  The source data are those of A_uu
    (on the pattern of L1), -B, B and L2, in this order; all but A_uu's are
    written once, as are the right-hand side and |Omega|.  After a fallback
    to the regularized system (``regularize``), every later sweep builds it
    directly.
    """

    def __init__(self, asm: Assembler):
        B, L2, N = asm.B, asm.L2, asm.N
        du = asm.dirichlet_u
        xfix = np.zeros(3 * N)
        xfix[du.fixed] = du.values[du.fixed]
        (ra, ca), (rb, cb), (rl, cl) = _csr_entries(asm.L1), _csr_entries(B), _csr_entries(L2)
        rows = np.concatenate([ra, cb, rb + 2 * N, rl + 2 * N])
        cols = np.concatenate([ca, rb + 2 * N, cb, cl + 2 * N])
        # the zero-mean multiplier lambda = delta/|Omega|: delta, the
        # boundary-data incompatibility, is what the continuity rows leave
        # when summed with the weights of the constant pressure
        self.mean_row, self.const = asm.mean_row, asm.const
        self.omega = float(asm.mean_row.sum())   # = sum of cell areas
        delta = -float(np.sum(asm.const * (B[:, du.fixed] @ du.values[du.fixed])))
        rhs = np.concatenate([asm.rhs_momentum, np.zeros(N)])
        rhs[2 * N:] -= (delta / self.omega) * asm.mean_row
        super().__init__("Stokes", rows, cols,
                         np.concatenate([du.free, np.arange(2 * N + 1, 3 * N)]), xfix, rhs,
                         LAG_RESIDUAL, symmetric_mode=True)
        # positions of the free pressure dofs' diagonal in Kff.data
        Kff, nv = self.Kff, len(du.free)
        col = np.repeat(np.arange(Kff.shape[1]), np.diff(Kff.indptr))
        self._pressure_diagonal = np.flatnonzero((Kff.indices == col) & (col >= nv))
        self._eps = 0.0
        self.regularize = False
        # the source data; a sweep rewrites the A_uu part in place: a
        # temporary of this size, made while the kept factorizations are
        # alive, would raise the peak memory of the next factorization
        na, nb = len(ra), len(rb)
        self._src = np.empty(len(rows))
        np.negative(B.data, out=self._src[na:na + nb])
        self._src[na + nb:na + 2 * nb] = B.data
        self._src[na + 2 * nb:] = L2.data

    def fill_viscous(self, A_uu: sp.csr_matrix) -> None:
        """``Kff`` and the shift for the velocity block ``A_uu``, regularized
        after a fallback."""
        a = A_uu.data
        self._src[:len(a)] = a
        self.fill(self._src)
        self._eps = 1e-10 * max(1.0, a.max(initial=0.0), -a.min(initial=0.0))
        if self.regularize:
            self._regularize()

    def _regularize(self) -> None:
        # without pressure stabilization the equal-order saddle matrix has
        # spurious pressure modes (B^T z = 0): regularize only the pressure
        # block to pick a representative; the velocity is unaffected
        self.name = "regularized Stokes"
        self.Kff.data[self._pressure_diagonal] += self._eps

    def fall_back(self) -> bool:
        if self.regularize:
            return False
        self.regularize = True
        warnings.warn("singular unstabilized saddle system; pressure block "
                      "regularized to obtain a representative solution")
        self._regularize()
        return True


def _transport_sweeps(asm: Assembler) -> _Sweeps:
    """The transport system (A_TT + C) + L3 of a Picard loop, on the scalar
    pattern, that of L3."""
    dphi = asm.dirichlet_phi
    return _Sweeps("temperature", *_csr_entries(asm.L3), dphi.free, dphi.values, asm.rhs_heat,
                   HEAT_LAG_RESIDUAL)


def solve_stokes(system: StokesSystem, sweeps: _StokesSweeps, exact: bool = True):
    """Solve the stabilized saddle problem for (u, p).

    The zero-mean constraint is enforced through its Lagrange multiplier,
    whose value lambda = delta/|Omega| is forced by summing the continuity
    rows with the weights of the constant pressure, the dof vector
    ``Assembler.const`` (delta is the boundary-data incompatibility).
    Substituting it back yields a consistent, fully sparse system: one
    pressure dof is pinned for the factorization and the pressure is shifted
    by a constant to exact zero mean, which reproduces the bordered
    multiplier solution without the dense row.
    A singular factorization or a failed solve falls back to the
    pressure-regularized system; a failure there raises SolverError.
    ``sweeps`` holds the static blocks and the state of a Picard loop, and
    takes only ``system.A_uu`` from ``system``; it solves the system lagged
    when it keeps a factorization and ``exact`` is not set, so a fresh one
    solves exactly.  Returns (u, p, SolveRecord).
    """
    sweeps.fill_viscous(system.A_uu)
    x, record = sweeps.solve(exact)
    N = len(sweeps.mean_row)
    u = x[:2 * N]
    p = x[2 * N:]
    p = p - (float(sweeps.mean_row @ p) / sweeps.omega) * sweeps.const
    return u, p, record


def solve_temperature(K: sp.csr_matrix, sweeps: _Sweeps, exact: bool = True):
    """Solve the stabilized transport equation for the temperature.

    ``K`` is the transport matrix of ``Assembler.build_transport``, on the
    pattern of ``sweeps``, which holds the right-hand side and the state of a
    Picard loop; it solves the system lagged when it keeps a factorization
    and ``exact`` is not set, so a fresh one solves exactly.
    Returns (phi, SolveRecord).
    """
    sweeps.fill(K.data)
    return sweeps.solve(exact)


def velocity_norm(asm: Assembler, u: np.ndarray) -> float:
    """Energy-surrogate H1 seminorm of a velocity."""
    N, S = asm.N, asm.h1_surrogate
    return np.sqrt(float(u[:N] @ (S @ u[:N])) + float(u[N:] @ (S @ u[N:])))


def temperature_norm(asm: Assembler, phi: np.ndarray) -> float:
    """Energy-surrogate norm of a temperature: kappa.scale |phi|_1^2 + L3."""
    v = (asm.spec.conductivity.scale * float(phi @ (asm.h1_surrogate @ phi))
         + float(phi @ (asm.L3 @ phi)))
    return np.sqrt(max(v, 0.0))


def picard_solve(spec: ProblemSpec, mops: MeshOps, tol: float = 1e-7, max_iter: int = 50):
    """Fixed-point iteration on the decoupled Stokes/temperature solves,
    started from zero fields.

    Returns (CoupledState, PicardReport).  Reaching ``max_iter`` yields a
    non-converged report rather than an exception; non-finite iterates raise
    SolverError immediately.  Intermediate solves may be lagged (see the
    module docstring); ``PicardReport.sweeps`` records each sweep.
    """
    asm = Assembler(mops, spec)
    N = asm.N
    u, p, phi = np.zeros(2 * N), np.zeros(N), np.zeros(N)
    stokes = _StokesSweeps(asm)
    heat = stokes.release = _transport_sweeps(asm)
    # with constant viscosity the Stokes system, its right-hand side and its
    # Dirichlet data do not depend on the iterate: once a sweep has run, u and
    # p are reused; with a constant conductivity too, the transport system
    # depends on that velocity alone, and phi is reused as well
    reuse_up = spec.viscosity.is_constant
    reuse_phi = reuse_up and spec.conductivity.is_constant
    records: list[SweepRecord] = []
    pmean_rel = 0.0
    converged = exact = False
    for it in range(1, max_iter + 1):
        exact_sweep = exact or it == max_iter
        assemble_s = 0.0
        if reuse_up and it > 1:
            u_new, p_new = u, p
            s = SolveRecord("reused", 0, 0, records[-1].stokes.residual)
        else:
            t = time.perf_counter()
            system = asm.build_stokes(phi)
            assemble_s += time.perf_counter() - t
            u_new, p_new, s = solve_stokes(system, stokes, exact_sweep)
            # a system rebuilt every sweep is freed before the transport
            # solve; only its factorization is kept
            system = None
        if reuse_phi and it > 1:
            phi_new, h = phi, SolveRecord("reused", 0, 0, records[-1].heat.residual)
        else:
            # transport sees the freshly computed velocity
            t = time.perf_counter()
            transport = asm.build_transport(u_new, phi)
            assemble_s += time.perf_counter() - t
            phi_new, h = solve_temperature(transport, heat, exact_sweep)
            transport = None
        pn = max(_norm(p_new), 1e-12)  # guard the zero-pressure case
        pmean_rel = max(pmean_rel, abs(float(asm.mean_row @ p_new)) / pn)
        delta = float(temperature_norm(asm, phi_new - phi) + velocity_norm(asm, u_new - u))
        if not np.isfinite(delta):
            raise SolverError("non-finite Picard increment")
        records.append(SweepRecord(s, h, delta, assemble_s))
        u, p, phi = u_new, p_new, phi_new
        if delta <= tol and "lagged" not in (s.action, h.action):
            converged = True
            break
        # the loop never stops on a lagged sweep: the next sweep is exact once
        # this one met tol, or once the last contraction predicts it will
        exact = delta <= tol or (it > 1 and delta * delta <= tol * records[-2].increment)

    report = PicardReport(converged=converged, pressure_mean_rel=pmean_rel, sweeps=records)
    return CoupledState(u=u, p=p, phi=phi), report
