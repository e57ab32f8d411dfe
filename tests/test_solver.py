import dataclasses

import numpy as np
import pytest

from conftest import make_spec, zero_velocity
from oracles import energy_norms, interpolate_scalar, reference_eliminated, reference_picard
from lpsvem import benchmarks as bm
from lpsvem import element_ops as eo
from lpsvem import forms, solver
from lpsvem.geometry import UNIT_SQUARE, generate_mesh

rng = np.random.default_rng(5)


@pytest.fixture(scope="module")
def mesh5():
    return generate_mesh("distorted_square", UNIT_SQUARE, 1 / 5)


@pytest.fixture(scope="module")
def mops5(mesh5):
    return eo.build_mesh_ops(mesh5, 1)


def _cold_walls(mesh):
    """No-slip walls held at temperature 0."""
    zero = lambda x, y: np.zeros_like(x)
    return {m: forms.BoundaryCondition(velocity=zero_velocity, temperature=zero)
            for m in mesh.boundary_markers}


def test_zero_data_zero_solution(mesh5, mops5):
    spec = make_spec(mesh5, 1)
    state, rep = solver.picard_solve(spec, mops5)
    assert np.abs(state.u).max() == 0.0
    assert np.abs(state.p).max() <= 1e-12
    assert np.abs(state.phi).max() == 0.0
    assert rep.converged


def test_dirichlet_rows_exact(mesh5, mops5):
    lid = lambda x, y: np.stack([np.where(np.abs(y - 1) < 1e-12, 1.0, 0.0),
                                 np.zeros_like(x)])
    bcs = {m: forms.BoundaryCondition(velocity=lid, temperature=None)
           for m in mesh5.boundary_markers}
    spec = make_spec(mesh5, 1, bcs=bcs)
    state, rep = solver.picard_solve(spec, mops5)
    asm = forms.Assembler(mops5, spec)
    du = asm.dirichlet_u
    assert np.array_equal(state.u[du.fixed], du.values[du.fixed])
    assert rep.sweeps[-1].stokes.residual <= 1e-10
    assert rep.pressure_mean_rel <= 1e-9


def test_temperature_constants_reproduced(mesh5, mops5):
    one = lambda x, y: np.ones_like(x)
    bcs = {m: forms.BoundaryCondition(velocity=zero_velocity, temperature=one)
           for m in mesh5.boundary_markers}
    spec = make_spec(mesh5, 1, bcs=bcs)
    state, _ = solver.picard_solve(spec, mops5)
    assert np.abs(state.phi - 1.0).max() <= 1e-12


def test_temperature_homogeneous_zero(mesh5, mops5):
    zero = lambda x, y: np.zeros_like(x)
    bcs = {m: forms.BoundaryCondition(velocity=zero_velocity, temperature=zero)
           for m in mesh5.boundary_markers}
    spec = make_spec(mesh5, 1, bcs=bcs)
    state, _ = solver.picard_solve(spec, mops5)
    assert np.abs(state.phi).max() <= 1e-13


def test_linear_problem_one_iteration_beyond_initial(mesh5, mops5):
    """Constant viscosity, no buoyancy: the fixed-point map is constant."""
    src = lambda x, y: np.stack([np.sin(np.pi * x), np.cos(np.pi * y)])
    g = lambda x, y: x * y
    phi_bc = lambda x, y: x + y
    bcs = {m: forms.BoundaryCondition(velocity=zero_velocity, temperature=phi_bc)
           for m in mesh5.boundary_markers}
    spec = make_spec(mesh5, 1, bcs=bcs, fixed_source=src, heat_source=g)
    state, rep = solver.picard_solve(spec, mops5)
    assert rep.converged
    assert rep.iterations == 2        # first solve + one confirming sweep
    assert rep.sweeps[-1].increment <= 1e-12


def test_infinite_tolerance_returns_after_first_iteration(mesh5, mops5):
    spec = make_spec(mesh5, 1, fixed_source=lambda x, y: np.stack([x, y]))
    state, rep = solver.picard_solve(spec, mops5, tol=np.inf)
    assert rep.converged and rep.iterations == 1


def test_max_iter_reached_reports_not_raises(mesh5, mops5):
    mu = forms.Coefficient(func=lambda r: 1.0 + 0.9 * np.tanh(r), lower=0.05,
                           upper=2.0, temp_range=(-3, 3))
    g = lambda x, y: np.ones_like(x)
    spec = make_spec(mesh5, 1, viscosity=mu, heat_source=g, bcs=_cold_walls(mesh5),
                     fixed_source=lambda x, y: np.stack([np.ones_like(x), x]))
    # an unreachable tolerance exercises the max_iter path
    state, rep = solver.picard_solve(spec, mops5, tol=-1.0, max_iter=3)
    assert not rep.converged
    assert rep.iterations == 3
    assert len(rep.sweeps) == 3
    # no run ends on a lagged Stokes solve, a non-converged one neither
    assert [s.stokes.action for s in rep.sweeps] == ["factored", "lagged", "factored"]


def test_report_without_sweeps_reads_zero(mesh5, mops5):
    _, rep = solver.picard_solve(make_spec(mesh5, 1), mops5, max_iter=0)
    assert not rep.converged and rep.iterations == 0 and rep.sweeps == []
    assert (rep.stokes_factorizations, rep.heat_factorizations) == (0, 0)


def test_nan_source_raises(mesh5, mops5):
    bad = lambda x, y: np.full_like(x, np.nan)
    spec = make_spec(mesh5, 1, heat_source=bad)
    with pytest.raises((forms.ConfigurationError, solver.SolverError)):
        solver.picard_solve(spec, mops5)


def test_determinism_bitwise(mesh5, mops5):
    spec = make_spec(mesh5, 1, fixed_source=lambda x, y: np.stack([y, -x]),
                     heat_source=lambda x, y: x, bcs=_cold_walls(mesh5))
    s1, r1 = solver.picard_solve(spec, mops5)
    s2, r2 = solver.picard_solve(spec, mops5)
    assert np.array_equal(s1.u, s2.u)
    assert np.array_equal(s1.p, s2.p)
    assert np.array_equal(s1.phi, s2.phi)
    assert [s.increment for s in r1.sweeps] == [s.increment for s in r2.sweeps]


def test_heat_source_without_temperature_data_raises(mesh5, mops5):
    """Without Dirichlet temperature data a heat source with nonzero mean has
    no solution: the temperature system is nearly singular (condition number
    4.5e10), and its solve leaves a relative residual of 2.8e-6 with
    |phi| = 4e7."""
    spec = make_spec(mesh5, 1, fixed_source=lambda x, y: np.stack([y, -x]),
                     heat_source=lambda x, y: x)
    with pytest.raises(solver.SolverError, match=r"^temperature system: relative residual"):
        solver.picard_solve(spec, mops5)


def test_energy_norms_zero_and_homogeneous(mesh5, mops5):
    spec = make_spec(mesh5, 1)
    asm = forms.Assembler(mops5, spec)
    N = asm.N
    zero = solver.CoupledState(u=np.zeros(2 * N), p=np.zeros(N), phi=np.zeros(N))
    assert energy_norms(zero, asm) == (0.0, 0.0)
    st = solver.CoupledState(u=rng.normal(size=2 * N), p=rng.normal(size=N),
                             phi=rng.normal(size=N))
    n1 = energy_norms(st, asm)
    st3 = solver.CoupledState(u=3 * st.u, p=3 * st.p, phi=3 * st.phi)
    n3 = energy_norms(st3, asm)
    assert abs(n3[0] - 3 * n1[0]) <= 1e-10 * n1[0]
    assert abs(n3[1] - 3 * n1[1]) <= 1e-10 * n1[1]


def test_energy_norm_polynomial_against_oracle(mesh5, mops5):
    """For a global polynomial field the surrogate equals the analytic value."""
    spec = make_spec(mesh5, 1)
    asm = forms.Assembler(mops5, spec)
    N = asm.N
    u1 = interpolate_scalar(mops5, lambda x, y: 2.0 * x)       # grad = (2,0)
    u2 = interpolate_scalar(mops5, lambda x, y: -y)            # grad = (0,-1)
    p = interpolate_scalar(mops5, lambda x, y: np.full_like(x, 0.0))
    st = solver.CoupledState(u=np.concatenate([u1, u2]), p=p, phi=u1)
    up, ph = energy_norms(st, asm)
    # viscosity lower bound 1: |u|_{H1}^2 = 4 + 1 = 5 over the unit square; L1 vanishes on P1
    assert abs(up - np.sqrt(5.0)) <= 1e-9
    # conductivity scale 1, |phi|_{H1}^2 = 4, L3 vanishes on P1
    assert abs(ph - 2.0) <= 1e-9


def test_picard_residual_monotone_tail():
    """Benchmark-style run: residual at n+1 stays below the first residual."""
    from lpsvem import benchmarks as bm
    case = bm.make_case("ex1")
    mesh = generate_mesh("distorted_square", UNIT_SQUARE, 1 / 10)
    mops = eo.build_mesh_ops(mesh, 1)
    spec = case.problem_spec(mesh, 1)
    state, rep = solver.picard_solve(spec, mops)
    assert rep.converged and rep.iterations <= 30
    hist = [s.increment for s in rep.sweeps]
    assert all(h <= hist[0] for h in hist[3:])


@pytest.fixture(scope="module")
def unstabilized_saddle():
    """First-sweep Stokes system of ex2_convective without stabilization on
    Voronoi cells, k=2, h=1/8: SuperLU factors its saddle matrix without
    complaint, and the solve comes back with a relative residual of 0.35."""
    from lpsvem import benchmarks as bm
    case = bm.make_case("ex2_convective")
    mesh = generate_mesh("voronoi", case.domain, 1 / 8, seed=42)
    spec = case.problem_spec(mesh, 2, c1=0.0, c2=0.0, c3=0.0)
    asm = forms.Assembler(eo.build_mesh_ops(mesh, 2), spec)
    return asm, asm.build_stokes(np.zeros(asm.N))


def _stokes_solver(asm, system, regularize):
    """A standalone Stokes solver of ``system``, plain or regularized, and its
    factorization."""
    stokes = solver._StokesSweeps(asm)
    stokes.regularize = regularize
    stokes.fill_viscous(system.A_uu)
    return stokes, stokes.factor()


def test_failed_stokes_solve_falls_back_to_regularized_system(unstabilized_saddle):
    asm, system = unstabilized_saddle
    rhs = np.concatenate([asm.rhs_momentum, np.zeros(asm.N)])
    plain, lu = _stokes_solver(asm, system, regularize=False)
    with pytest.raises(solver.SolverError, match=r"^Stokes system: relative residual"):
        plain.solve_exact(lu, rhs[plain.free] - plain.shift())
    with pytest.warns(UserWarning, match="pressure block regularized"):
        u, p, rec = solver.solve_stokes(system, solver._StokesSweeps(asm))
    assert rec.action == "regularized" and rec.residual <= solver.RESIDUAL_FLOOR
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(p))


def test_failed_regularized_stokes_solve_raises(unstabilized_saddle, monkeypatch):
    asm, system = unstabilized_saddle
    monkeypatch.setattr(solver, "RESIDUAL_FLOOR", 0.0)
    with pytest.warns(UserWarning, match="pressure block regularized"):
        with pytest.raises(solver.SolverError,
                           match=r"^regularized Stokes system: relative residual \S+ above"):
            solver.solve_stokes(system, solver._StokesSweeps(asm))


def test_unstabilized_run_no_longer_fails_silently():
    """The same configuration end to end. Accepting the failed solves
    (relative residual up to 4.8) keeps Picard from converging in 50 sweeps;
    with the fallback it converges."""
    from lpsvem import benchmarks as bm
    case = bm.make_case("ex2_convective")
    with pytest.warns(UserWarning, match="pressure block regularized"):
        rec, state, mops = bm.run_point(case, "voronoi", 2, 1 / 8, c1=0.0, c2=0.0, c3=0.0)
    assert rec.converged
    assert np.isfinite(rec.errors.div_violation)


def test_constant_viscosity_channel_factors_stokes_once(monkeypatch):
    """ex4_mild (constant mu and kappa), triangles, k=1, h=1/8: the first
    sweep builds and factors the Stokes system, and every later sweep reuses
    its solution; the transport system, which then depends on that velocity
    alone, is factored on the first sweep too, and its solution is reused with
    the velocity.  The fields and the increments equal, bit for bit, those of
    the reference loop, which solves both systems on every sweep."""
    from lpsvem import benchmarks as bm
    orderings, splu = [], solver.splu
    builds, build_stokes = [], forms.Assembler.build_stokes

    def counting(*args, **kwargs):
        orderings.append(kwargs.get("permc_spec", "COLAMD"))
        return splu(*args, **kwargs)
    monkeypatch.setattr(solver, "splu", counting)
    monkeypatch.setattr(forms.Assembler, "build_stokes",
                        lambda self, phi: builds.append(phi) or build_stokes(self, phi))
    case = bm.make_case("ex4_mild")
    mesh = generate_mesh("triangular", case.domain, 1 / 8)
    mops = eo.build_mesh_ops(mesh, 1)
    spec = case.problem_spec(mesh, 1)
    state, rep = solver.picard_solve(spec, mops)
    assert rep.converged
    assert len(builds) == 1 and not builds[0].any()
    assert orderings.count("MMD_AT_PLUS_A") == rep.stokes_factorizations == 1
    assert orderings.count("COLAMD") == rep.heat_factorizations == 1
    assert len(rep.sweeps) == rep.iterations
    for lus in ([s.stokes.action for s in rep.sweeps], [s.heat.action for s in rep.sweeps]):
        assert lus == ["factored"] + ["reused"] * (rep.iterations - 1)
    ref, history = reference_picard(spec, mops)
    assert [s.increment for s in rep.sweeps] == history
    for name in ("u", "p", "phi"):
        assert np.array_equal(getattr(state, name), getattr(ref, name)), name


def test_stokes_system_factored_in_symmetric_mode_with_less_fill():
    """ex3, distorted squares, k=2, h=1/9: the minimum-degree ordering of
    A + A^T without pivoting fills about a third of what COLAMD does."""
    from scipy.sparse.linalg import splu
    from lpsvem import benchmarks as bm
    case = bm.make_case("ex3")
    mesh = generate_mesh("distorted_square", case.domain, 1 / 9)
    asm = forms.Assembler(eo.build_mesh_ops(mesh, 2), case.problem_spec(mesh, 2))
    stokes, lu = _stokes_solver(asm, asm.build_stokes(np.zeros(asm.N)), regularize=False)
    assert stokes.ordering == "symmetric"
    colamd = splu(stokes.Kff)
    assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz


def test_zero_pressure_block_takes_colamd_and_regularized_answer(unstabilized_saddle):
    """Without pivoting, the singular saddle factors with pivots near 1e-42
    and its solve meets the residual floor with a pressure of 1e12 and a
    velocity 1.35% off.  The zero diagonal sends it to COLAMD, whose solve
    fails the floor, and the regularized system answers."""
    from scipy.sparse.linalg import splu
    asm, system = unstabilized_saddle
    N = asm.N
    assert _stokes_solver(asm, system, regularize=False)[0].ordering == "colamd"
    with pytest.warns(UserWarning, match="pressure block regularized"):
        u, p, _ = solver.solve_stokes(system, solver._StokesSweeps(asm))
    reg, _ = _stokes_solver(asm, system, regularize=True)
    assert np.abs(p).max() < 1e3
    # the regularized system's velocity from a COLAMD factorization, with the
    # zero-mean multiplier substituted into the continuity rows
    du = asm.dirichlet_u
    lam = (-float(np.sum(system.B[:, du.fixed] @ du.values[du.fixed]))
           / float(asm.mean_row.sum()))
    rhs = np.concatenate([asm.rhs_momentum, -lam * asm.mean_row])
    ref = reg.full(splu(reg.Kff).solve(rhs[reg.free] - reg.shift()))
    assert np.abs(u - ref[:2 * N]).max() <= 1e-10 * np.abs(ref[:2 * N]).max()


def test_singular_unstabilized_channel_reaches_symmetric_regularized_system():
    """ex4_mild without stabilization: the plain saddle matrix is exactly
    singular, and the regularized one has a full diagonal."""
    from lpsvem import benchmarks as bm
    case = bm.make_case("ex4_mild")
    mesh = generate_mesh("triangular", case.domain, 1 / 8)
    spec = case.problem_spec(mesh, 1, c1=0.0, c2=0.0, c3=0.0)
    asm = forms.Assembler(eo.build_mesh_ops(mesh, 1), spec)
    system = asm.build_stokes(np.zeros(asm.N))
    with pytest.raises(solver.SolverError, match=r"^Stokes system: singular factorization"):
        _stokes_solver(asm, system, regularize=False)
    stokes = solver._StokesSweeps(asm)
    with pytest.warns(UserWarning, match="pressure block regularized"):
        _, _, rec = solver.solve_stokes(system, stokes)
    assert stokes.regularize and rec.action == "regularized"
    # only a symmetric-mode factorization is kept; the singular plain one,
    # which raised, is not counted
    assert stokes.lu is not None and rec.factorizations == 1


@pytest.mark.parametrize("exact", [True, False])
def test_fresh_sweeps_factor_and_solve_exactly(exact):
    """A fresh ``_StokesSweeps(asm)`` and fresh transport sweeps keep no
    factorization, so each first solve factors and is exact whatever
    ``exact`` asks (ex3, distorted squares, k=2, h=1/4, a random
    temperature iterate)."""
    case = bm.make_case("ex3")
    mesh = generate_mesh("distorted_square", case.domain, 1 / 4, seed=1)
    asm = forms.Assembler(eo.build_mesh_ops(mesh, 2), case.problem_spec(mesh, 2))
    phi = np.random.default_rng(12).normal(size=asm.N)
    u, _, s = solver.solve_stokes(asm.build_stokes(phi), solver._StokesSweeps(asm), exact)
    _, h = solver.solve_temperature(asm.build_transport(u, phi), solver._transport_sweeps(asm),
                                    exact)
    for rec in (s, h):
        assert (rec.action, rec.steps, rec.factorizations) == ("factored", 0, 1)
        assert rec.residual <= 1e-12


def _ex1_assembler(family, k):
    mesh = generate_mesh(family, UNIT_SQUARE, 1 / 4, seed=1)
    mops = eo.build_mesh_ops(mesh, k)
    return forms.Assembler(mops, bm.make_case("ex1").problem_spec(mesh, k))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("family", ["distorted_square", "voronoi"])
def test_constant_pressure_dof_vector(family, k):
    """The dof vector of the constant 1 is 1 on the point dofs and the cell
    means, and 0 on the moments of degree 1 (k=3): L2 annihilates it, and so
    does the transposed divergence on the free velocity dofs."""
    asm = _ex1_assembler(family, k)
    const, lay = asm.const, asm.mops.layout
    assert np.array_equal(const, lay.constant())
    moments = const[lay.n_point:].reshape(asm.mops.mesh.n_cells, lay.n_moment_per_cell)
    assert np.all(const[:lay.n_point] == 1.0) and np.all(moments[:, :1] == 1.0)
    assert np.all(moments[:, 1:] == 0.0) and moments.shape[1] == (3 if k == 3 else k - 1)
    assert np.abs(asm.L2 @ const).max() <= 1e-13 * abs(asm.L2).max()
    free = asm.dirichlet_u.free
    assert np.abs(const @ asm.B[:, free]).max() <= 1e-13 * abs(asm.B).max()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("family", ["distorted_square", "voronoi"])
def test_pressure_is_shifted_by_a_constant_to_zero_mean(family, k, monkeypatch):
    """``solve_stokes`` returns a pressure of zero mean that differs from the
    solved one by a multiple of the constant's dof vector: the moments of
    degree 1 are left as solved."""
    asm = _ex1_assembler(family, k)
    solved = {}
    solve = solver._StokesSweeps.solve

    def spy(self, exact):
        x, record = solve(self, exact)
        solved["p"] = x[2 * asm.N:].copy()
        return x, record
    monkeypatch.setattr(solver._StokesSweeps, "solve", spy)
    system = asm.build_stokes(interpolate_scalar(asm.mops, lambda x, y: x * y))
    _, p, _ = solver.solve_stokes(system, solver._StokesSweeps(asm))
    assert abs(asm.mean_row @ p) <= 1e-13 * np.abs(p).max()
    shift, lay = solved["p"] - p, asm.mops.layout
    moments = shift[lay.n_point:].reshape(asm.mops.mesh.n_cells, lay.n_moment_per_cell)
    assert np.all(moments[:, 1:] == 0.0)
    rest = np.concatenate([shift[:lay.n_point], moments[:, :1].ravel()])
    assert np.ptp(rest) <= 1e-13 * np.abs(solved["p"]).max() and rest[0] != 0.0


def _assert_filled_like(Kff, shift, asm, blocks, regularize=False):
    """``Kff`` and ``shift`` equal the sparse-sum reference bit for bit, signed
    zeros included; the entries the reference drops, which sum to exactly
    zero, hold zero."""
    ref, ref_shift = reference_eliminated(asm, blocks, regularize)
    assert np.array_equal(shift.view(np.int64), ref_shift.view(np.int64))

    def keys(A):   # (column, row) of each stored entry, as one sorted key
        return np.repeat(np.arange(A.shape[1]), np.diff(A.indptr)) * A.shape[0] + A.indices
    got, want = keys(Kff), keys(ref)
    at = np.searchsorted(got, want)
    assert np.array_equal(got[at], want)
    assert np.array_equal(Kff.data[at].view(np.int64), ref.data.view(np.int64))
    assert not np.delete(Kff.data, at).any()


@pytest.mark.parametrize("case_id, family, k, stab", [
    ("ex3", "distorted_square", 2, True), ("ex1", "voronoi", 1, True),
    ("ex4_mild", "triangular", 1, False), ("ex2_convective", "uniform_square", 2, False)])
def test_filled_systems_match_sparse_sum_reference(case_id, family, k, stab):
    """The Stokes (plain and regularized) and transport matrices the solver
    fills on their fixed patterns, for a random iterate."""
    from lpsvem import benchmarks as bm
    case = bm.make_case(case_id)
    mesh = generate_mesh(family, case.domain, 1 / 5)
    spec = case.problem_spec(mesh, k, **({} if stab else dict(c1=0.0, c2=0.0, c3=0.0)))
    asm = forms.Assembler(eo.build_mesh_ops(mesh, k), spec)
    gen = np.random.default_rng(7)
    phi, u = gen.normal(size=asm.N), gen.normal(size=2 * asm.N)
    system = asm.build_stokes(phi)
    stokes = solver._StokesSweeps(asm)
    for regularize in (False, True):
        stokes.regularize = regularize
        stokes.fill_viscous(system.A_uu)
        _assert_filled_like(stokes.Kff, stokes.shift(), asm, system, regularize)
    heat = solver._transport_sweeps(asm)
    heat.fill(asm.build_transport(u, phi).data)
    _assert_filled_like(heat.Kff, heat.shift(), asm,
                        (asm.diffusion_block(phi), asm.convection_block(u), asm.L3))


def test_exactly_singular_symmetric_factorization_names_the_system():
    stokes = solver._Sweeps("Stokes", np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
                            np.arange(2), np.zeros(2), np.zeros(2), solver.LAG_RESIDUAL,
                            symmetric_mode=True)
    stokes.fill(np.ones(4))
    with pytest.raises(solver.SolverError, match=r"^Stokes system: singular factorization"):
        stokes.factor()


def _standalone_sweeps(K, rhs):
    """Standalone transport sweeps of ``K`` with no Dirichlet dofs."""
    n = K.shape[0]
    return solver._Sweeps("temperature", *solver._csr_entries(K), np.arange(n), np.zeros(n),
                          rhs, solver.HEAT_LAG_RESIDUAL)


def test_temperature_solve_failures_name_the_system(monkeypatch):
    import scipy.sparse as sps
    # a subnormal pivot: the factorization succeeds, the solution overflows
    tiny = sps.diags([1e-320, 1.0]).tocsr()
    with pytest.raises(solver.SolverError, match=r"^temperature system: non-finite"), \
            np.errstate(all="ignore"):
        solver.solve_temperature(tiny, _standalone_sweeps(tiny, np.ones(2)))
    healthy = sps.diags([2.0, 3.0]).tocsr() + sps.csr_matrix(np.ones((2, 2)))
    rhs = np.array([1.0, 0.3])
    phi, rec = solver.solve_temperature(healthy, _standalone_sweeps(healthy, rhs))
    assert rec.action == "factored" and rec.residual <= solver.RESIDUAL_FLOOR
    monkeypatch.setattr(solver, "RESIDUAL_FLOOR", -1.0)
    with pytest.raises(solver.SolverError, match=r"^temperature system: relative residual"):
        solver.solve_temperature(healthy, _standalone_sweeps(healthy, rhs))


@pytest.fixture(scope="module")
def ex3_coarse():
    """ex3, distorted squares, k=2, h=1/9, mesh seed 1 (the coarse picard_k2
    point), with the exact-every-sweep reference loop's answer."""
    from lpsvem import benchmarks as bm
    case = bm.make_case("ex3")
    mesh = generate_mesh("distorted_square", case.domain, 1 / 9, seed=1)
    mops = eo.build_mesh_ops(mesh, 2)
    spec = case.problem_spec(mesh, 2)
    return case, mesh, mops, spec, reference_picard(spec, mops)


def test_lagged_picard_matches_exact_reference(ex3_coarse):
    """Lagged sweeps: 4 Stokes and 5 temperature factorizations over 11
    sweeps, the last one factored.  Measured against the reference loop:
    fields within 2.1e-11 of their largest value, error norms within 1.1e-8
    relative (e_phi_l2); the bounds are 1e-9 and 1e-6."""
    from lpsvem.postprocess import compute_errors
    case, mesh, mops, spec, (ref, ref_history) = ex3_coarse
    state, rep = solver.picard_solve(spec, mops)
    assert rep.converged and len(rep.sweeps) == rep.iterations
    assert rep.stokes_factorizations < rep.iterations
    assert rep.heat_factorizations < rep.iterations
    assert any(s.stokes.action == "lagged" for s in rep.sweeps)
    assert any(s.heat.action == "lagged" for s in rep.sweeps)
    assert rep.sweeps[-1].stokes.action in ("factored", "refactored")
    assert rep.sweeps[-1].heat.action in ("factored", "refactored")
    assert rep.sweeps[-1].stokes.residual <= 1e-12
    for name in ("u", "p", "phi"):
        got, want = getattr(state, name), getattr(ref, name)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), name
    exact = case.fields.exact()
    got, want = compute_errors(state, exact, mops), compute_errors(ref, exact, mops)
    for name in ("e_u_h1", "e_u_l2", "e_p_l2", "e_phi_h1", "e_phi_l2"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-6 * getattr(want, name), name


def test_sweep_records_time_assembly_and_factorization(ex3_coarse):
    """Each sweep records its assembly time and the time of the factorizations
    it made; the times take no part in comparisons or the repr."""
    case, mesh, mops, spec, _ = ex3_coarse
    _, rep = solver.picard_solve(spec, mops, max_iter=5)
    for s in rep.sweeps:
        assert s.assemble_s > 0.0
        assert (s.factor_s > 0.0) == (s.stokes.factorizations + s.heat.factorizations > 0)
    timed = rep.sweeps[0]
    untimed = dataclasses.replace(
        timed, stokes=dataclasses.replace(timed.stokes, factor_s=0.0),
        heat=dataclasses.replace(timed.heat, factor_s=0.0), assemble_s=0.0)
    assert timed.factor_s > 0.0 and untimed.factor_s == 0.0
    assert untimed == timed and repr(untimed) == repr(timed)


def test_lagged_temperature_with_constant_viscosity_matches_reference(mesh5, mops5):
    """Constant viscosity and a temperature-dependent conductivity: Stokes is
    solved once and reused, the temperature system changes every sweep and is
    solved lagged in between.  The fields match the reference loop, which
    solves it exactly on every sweep."""
    kappa = forms.Coefficient(func=lambda r: 1.0 + 0.5 * np.tanh(r), lower=0.5, upper=1.5,
                              scale=1.0)
    spec = make_spec(mesh5, 1, conductivity=kappa, bcs=_cold_walls(mesh5),
                     heat_source=lambda x, y: 8.0 * np.ones_like(x),
                     fixed_source=lambda x, y: np.stack([y - 0.5, 0.5 - x]))
    state, rep = solver.picard_solve(spec, mops5)
    ref, history = reference_picard(spec, mops5)
    assert rep.converged and rep.stokes_factorizations == 1
    assert any(s.heat.action == "lagged" for s in rep.sweeps)
    assert rep.heat_factorizations < rep.iterations
    assert rep.sweeps[-1].heat.action in ("factored", "refactored")
    for name in ("u", "p", "phi"):
        got, want = getattr(state, name), getattr(ref, name)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), name


def test_rejected_lag_refactors(ex3_coarse, monkeypatch):
    """With a contraction no lagged solve can reach, every sweep after the
    first ends its Stokes correction after one step, drops the kept LUs and
    factors its own systems, which reproduces the reference loop bit for bit.
    The temperature never lags: each Stokes factorization drops its LU."""
    case, mesh, mops, spec, (ref, ref_history) = ex3_coarse
    monkeypatch.setattr(solver, "LAG_CONTRACTION", 0.0)
    state, rep = solver.picard_solve(spec, mops)
    lus = [s.stokes.action for s in rep.sweeps]
    # the last sweep, predicted to converge, factors without trying a lag
    assert lus == ["factored"] + ["refactored"] * (rep.iterations - 2) + ["factored"]
    steps = [s.stokes.steps for s in rep.sweeps]
    assert steps == [0] + [1] * (rep.iterations - 2) + [0]
    assert [(s.heat.action, s.heat.steps) for s in rep.sweeps] == [("factored", 0)] * rep.iterations
    assert rep.stokes_factorizations == rep.heat_factorizations == rep.iterations
    assert [s.increment for s in rep.sweeps] == ref_history
    for name in ("u", "p", "phi"):
        assert np.array_equal(getattr(state, name), getattr(ref, name)), name


def test_non_finite_lagged_correction_refactors(ex3_coarse, monkeypatch):
    """A non-finite iterate never reaches the acceptance residual.  Every LU
    solves NaN once the sweep that made it is over (the next sweep starts
    with ``build_stokes``), so every lagged correction comes back NaN: each
    such sweep must record "refactored", and the run must equal, bit for bit,
    one in which every lag is rejected."""
    case, mesh, mops, spec, _ = ex3_coarse
    with monkeypatch.context() as m:
        m.setattr(solver, "LAG_CONTRACTION", 0.0)
        rejected, rejected_rep = solver.picard_solve(spec, mops)
    real, made = solver.splu, []
    build_stokes = forms.Assembler.build_stokes

    class Proxy:
        def __init__(self, lu):
            self.lu, self.stale = lu, False

        def solve(self, b):
            x = self.lu.solve(b)
            return np.full_like(x, np.nan) if self.stale else x

    def proxy_splu(A, **kwargs):
        made.append(Proxy(real(A, **kwargs)))
        return made[-1]

    def next_sweep(self, phi):
        for lu in made:
            lu.stale = True
        return build_stokes(self, phi)
    monkeypatch.setattr(solver, "splu", proxy_splu)
    monkeypatch.setattr(forms.Assembler, "build_stokes", next_sweep)
    state, rep = solver.picard_solve(spec, mops)
    lus = [s.stokes.action for s in rep.sweeps] + [s.heat.action for s in rep.sweeps]
    assert "refactored" in lus and "lagged" not in lus
    assert rep.sweeps == rejected_rep.sweeps
    for name in ("u", "p", "phi"):
        assert np.array_equal(getattr(state, name), getattr(rejected, name)), name


def test_no_earlier_stokes_factorization_alive_when_factoring(ex3_coarse, monkeypatch):
    """Peak memory stays flat only if the loop drops its old LUs before it
    factors again: no earlier Stokes or temperature LU may be alive when
    Stokes factors, and no earlier temperature LU when the temperature
    factors.  SuperLU objects take no weak references, so splu hands out
    proxies, and each factorization counts the earlier proxies still alive:
    there must be none."""
    import weakref
    case, mesh, mops, spec, _ = ex3_coarse
    real, made, alive = solver.splu, {"stokes": [], "heat": []}, []

    class Proxy:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            return self.lu.solve(b)

    def proxy_splu(A, **kwargs):
        system = "stokes" if kwargs.get("permc_spec") == "MMD_AT_PLUS_A" else "heat"
        watched = made["heat"] + (made["stokes"] if system == "stokes" else [])
        alive.append(sum(ref() is not None for ref in watched))
        lu = Proxy(real(A, **kwargs))
        made[system].append(weakref.ref(lu))
        return lu
    monkeypatch.setattr(solver, "splu", proxy_splu)
    _, rep = solver.picard_solve(spec, mops)
    assert any(s.stokes.action == "refactored" for s in rep.sweeps)
    assert any(s.heat.action == "lagged" for s in rep.sweeps)
    assert len(made["stokes"]) == rep.stokes_factorizations > 2
    assert len(made["heat"]) == rep.heat_factorizations > 2
    assert alive == [0] * len(alive)


def test_lagged_solve_with_zero_rhs_is_not_taken_as_converged():
    """A zero right-hand side and a nonzero start: the lagged correction
    leaves a small nonzero residual, which is no relative residual at or
    below the acceptance one, so the system is factored again and solved
    exactly (x = 0)."""
    heat = solver._Sweeps("temperature", np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
                          np.arange(2), np.zeros(2), np.zeros(2), solver.HEAT_LAG_RESIDUAL)
    heat.fill(np.array([2.0, 1.0, 1.0, 3.0]))
    x, rec = heat.solve(exact=True)
    assert rec.action == "factored" and not x.any() and heat.lu is not None
    heat.x = np.array([1.0, -1.0])
    heat.fill(np.array([2.2, 1.0, 1.0, 3.0]))
    x, rec = heat.solve(exact=False)
    assert (rec.action, rec.steps) == ("refactored", solver.LAG_STEPS)
    assert not x.any() and rec.residual == 0.0


def test_unstabilized_nonconstant_run_warns_once():
    """ex2_convective without stabilization on Voronoi cells, k=2, h=1/8: the
    first sweep's plain saddle fails and falls back to the regularized one,
    and its record says so.  Later sweeps build the regularized system
    directly: one warning per run, in place of one per sweep, and at most one
    factorization per sweep."""
    import warnings
    from lpsvem import benchmarks as bm
    case = bm.make_case("ex2_convective")
    mesh = generate_mesh("voronoi", case.domain, 1 / 8, seed=42)
    mops = eo.build_mesh_ops(mesh, 2)
    spec = case.problem_spec(mesh, 2, c1=0.0, c2=0.0, c3=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, rep = solver.picard_solve(spec, mops)
    assert rep.converged
    assert ["pressure block regularized" in str(w.message) for w in caught] == [True]
    lus = [s.stokes.action for s in rep.sweeps]
    assert lus[0] == "regularized" and "regularized" not in lus[1:]
    # the plain COLAMD factorization succeeded and its solve failed: the
    # regularized sweep made two factorizations
    assert rep.sweeps[0].stokes.factorizations == 2
    assert rep.stokes_factorizations == sum(s.stokes.factorizations for s in rep.sweeps)
    assert rep.stokes_factorizations <= len(rep.sweeps) + 1


def test_colamd_stokes_factorization_is_never_kept(monkeypatch):
    """ex2_convective without stabilization, distorted squares, k=1, h=1/8:
    the zero pressure block sends every plain saddle to COLAMD, whose solve
    succeeds.  That factorization is not kept, so no sweep may solve Stokes
    lagged: all three sweeps factor.  (A loop that kept it would run
    factored, lagged, lagged, factored.)"""
    import warnings
    from lpsvem import benchmarks as bm
    orderings, splu = [], solver.splu

    def counting(*args, **kwargs):
        orderings.append(kwargs.get("permc_spec", "COLAMD"))
        return splu(*args, **kwargs)
    monkeypatch.setattr(solver, "splu", counting)
    case = bm.make_case("ex2_convective")
    mesh = generate_mesh("distorted_square", case.domain, 1 / 8)
    spec = case.problem_spec(mesh, 1, c1=0.0, c2=0.0, c3=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, rep = solver.picard_solve(spec, eo.build_mesh_ops(mesh, 1))
    assert rep.converged and rep.iterations == len(rep.sweeps) == 3
    assert orderings == ["COLAMD"] * len(orderings)
    assert [(s.stokes.action, s.stokes.factorizations) for s in rep.sweeps] == [("factored", 1)] * 3


def test_regularized_sweep_counts_a_failed_factorization_as_none():
    """ex4_mild without stabilization, triangles, k=1, h=1/16: the plain
    saddle's COLAMD factorization fails, so the regularized first sweep made
    one factorization, and the later sweeps reuse its solution."""
    import warnings
    from lpsvem import benchmarks as bm
    case = bm.make_case("ex4_mild")
    mesh = generate_mesh("triangular", case.domain, 1 / 16)
    spec = case.problem_spec(mesh, 1, c1=0.0, c2=0.0, c3=0.0)
    mops = eo.build_mesh_ops(mesh, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, rep = solver.picard_solve(spec, mops)
    assert [(s.stokes.action, s.stokes.factorizations) for s in rep.sweeps] == (
        [("regularized", 1)] + [("reused", 0)] * (rep.iterations - 1))
    assert rep.stokes_factorizations == 1
