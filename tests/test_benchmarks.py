import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from lpsvem import benchmarks as bm
from lpsvem.forms import ConfigurationError
from oracles import manufactured_reference, strong_residual_mp

rng = np.random.default_rng(17)


def test_case_registry():
    for cid in bm.CASE_IDS:
        case = bm.make_case(cid)
        assert case.name == cid
    with pytest.raises(ConfigurationError):
        bm.make_case("ex99")


@pytest.mark.parametrize("cid", ["ex1", "ex2_diffusive", "ex3"])
def test_exact_velocity_divergence_free(cid):
    import sympy as sp
    ref = manufactured_reference(cid)
    assert sp.simplify(sp.diff(ref.u1, ref.x) + sp.diff(ref.u2, ref.y)) == 0


@pytest.mark.parametrize("cid", ["ex1", "ex2_diffusive", "ex3"])
def test_exact_pressure_zero_mean(cid):
    import sympy as sp
    ref = manufactured_reference(cid)
    mean = sp.integrate(sp.integrate(ref.p, (ref.x, 0, 1)), (ref.y, 0, 1))
    assert abs(float(mean)) <= 1e-12


@pytest.mark.parametrize("cid", ["ex1", "ex2_diffusive", "ex2_convective", "ex3"])
def test_manufactured_fields_match_sympy_reference(cid):
    """The values, gradients and sources of a case agree with its symbolic
    reference at random points, to 1e-13 relative in the max norm of each
    component."""
    import sympy as sp
    ref = manufactured_reference(cid)
    f = bm.make_case(cid).fields
    ex, (F, g) = f.exact(), f.sources()
    xv, yv = np.random.default_rng(23).uniform(0.0, 1.0, size=(2, 200))
    d = sp.diff
    pairs = {
        "u": (ex.u(xv, yv), [ref.u1, ref.u2]),
        "grad_u": (ex.grad_u(xv, yv).reshape(4, -1),
                   [d(ref.u1, ref.x), d(ref.u1, ref.y), d(ref.u2, ref.x), d(ref.u2, ref.y)]),
        "p": (ex.p(xv, yv)[None], [ref.p]),
        "phi": (ex.phi(xv, yv)[None], [ref.phi]),
        "grad_phi": (ex.grad_phi(xv, yv), [d(ref.phi, ref.x), d(ref.phi, ref.y)]),
        "F": (F(xv, yv), [ref.F1, ref.F2]),
        "g": (g(xv, yv)[None], [ref.g]),
    }
    for name, (got, exprs) in pairs.items():
        assert got.shape == (len(exprs), xv.size), name
        for c, e in enumerate(exprs):
            want = np.broadcast_to(
                sp.lambdify((ref.x, ref.y), e, modules="numpy")(xv, yv), xv.shape)
            err = np.abs(got[c] - want).max() / np.abs(want).max()
            assert err <= 1e-13, f"{name}[{c}]: relative difference {err:.3e}"


@pytest.mark.parametrize("cid", ["ex1", "ex2_diffusive", "ex2_convective", "ex3"])
def test_manufactured_sources_strong_residual(cid):
    """Independent high-precision numerical differentiation of the exact
    fields must satisfy the strong equations with the generated sources."""
    case = bm.make_case(cid)
    pts = rng.uniform(0.1, 0.9, size=(6, 2))
    for x, y in pts:
        rm, rh = strong_residual_mp(case, float(x), float(y))
        assert rm <= 1e-10, f"momentum residual {rm} at ({x}, {y})"
        assert rh <= 1e-10, f"heat residual {rh} at ({x}, {y})"


def test_ex2_heat_source_value_at_center():
    case = bm.make_case("ex2_diffusive")
    _, g = case.fields.sources()
    _, rh = strong_residual_mp(case, 0.5, 0.5)
    assert rh <= 1e-10
    assert np.isfinite(float(g(np.array([0.5]), np.array([0.5]))[0]))


def test_ex4_sources_identically_zero():
    """The channel is driven by its boundary data alone: its problem has no
    source terms."""
    from lpsvem.geometry import generate_mesh
    for cid in ("ex4_mild", "ex4_strong"):
        case = bm.make_case(cid)
        mesh = generate_mesh("triangular", case.domain, 1 / 4)
        spec = case.problem_spec(mesh, case.orders[0])
        assert spec.fixed_source is None and spec.heat_source is None


def test_channel_case_loads_neither_sympy_nor_scipy_optimize():
    """The package import plus the ex4 cases and their triangular mesh stay off
    sympy, scipy.optimize and scipy.spatial (about 0.3 s, 0.1 s and 0.1 s of
    import time); no case loads sympy, not even to evaluate its exact fields
    and sources."""
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import lpsvem.benchmarks as bm
        import lpsvem.cli
        from lpsvem.geometry import generate_mesh
        case = bm.make_case("ex4_mild")
        bm.make_case("ex4_strong")
        generate_mesh("triangular", case.domain, 1 / 4)
        print([m for m in ("sympy", "scipy.optimize", "scipy.spatial") if m in sys.modules])
        xy = np.array([0.3, 0.6]), np.array([0.7, 0.2])
        for cid in bm.CASE_IDS:
            f = bm.make_case(cid).fields
            if f is not None:
                ex, (F, g) = f.exact(), f.sources()
                for fn in (ex.u, ex.grad_u, ex.p, ex.phi, ex.grad_phi, F, g):
                    assert np.isfinite(fn(*xy)).all(), cid
            print(cid, "sympy" in sys.modules)
    """)
    src = str(Path(bm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"] + [f"{cid} False" for cid in bm.CASE_IDS]


def test_run_case_single_record():
    recs = bm.run_case("ex1", {"h_list": [1 / 5], "orders": [1],
                               "mesh_families": ["distorted_square"]})
    assert len(recs) == 1
    assert recs[0].converged


def test_run_case_unknown_override():
    with pytest.raises(ConfigurationError):
        bm.run_case("ex1", {"volume": 11})


def test_records_to_csv_layout():
    recs = bm.run_case("ex1", {"h_list": [1 / 5, 1 / 10], "orders": [1],
                               "mesh_families": ["distorted_square"]})
    table = bm.records_to_csv(recs)
    lines = table.strip().splitlines()
    assert lines[0] == "h,E_u_H1,rate,E_u_L2,rate,E_p_L2,rate,E_phi_H1,rate,E_phi_L2,rate"
    first = lines[1].split(",")
    assert len(first) == 11
    assert first[2] == "--"               # no rate at the coarsest level
    second = lines[2].split(",")
    assert float(second[2]) != 0.0        # realised rate in the second row


def test_records_to_csv_rates_use_realized_refinement():
    """distorted_square puts round(1.8/h) cells on a side: 14 and 29 at h=1/8
    and 1/16, so the rate divides by log(29/14), not log 2."""
    recs = bm.run_case("ex1", {"h_list": [1 / 8, 1 / 16], "orders": [1],
                               "mesh_families": ["distorted_square"]})
    assert [r.n_cells for r in recs] == [14 ** 2, 29 ** 2]
    assert [r.h for r in recs] == [1 / 8, 1 / 16]
    lines = bm.records_to_csv(recs).strip().splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.125, 0.0625]
    second = lines[2].split(",")
    for col, name in enumerate(("e_u_h1", "e_u_l2", "e_p_l2", "e_phi_h1", "e_phi_l2")):
        e1, e2 = (getattr(r.errors, name) for r in recs)
        assert second[2 + 2 * col] == f"{math.log(e1 / e2) / math.log(29 / 14):.2f}", name
    # records without a cell count fall back to the nominal h
    for r in recs:
        r.n_cells = None
    e1, e2 = (r.errors.e_u_h1 for r in recs)
    assert bm.records_to_csv(recs).splitlines()[2].split(",")[2] == \
        f"{math.log(e1 / e2) / math.log(2):.2f}"


def test_viscosity_metadata():
    """The declared bounds of a manufactured coefficient hold on its range:
    the viscosity of ex1 and the conductivity of ex3, whose scale is kappa."""
    ex3 = bm.make_case("ex3", kappa=2e-3)
    assert ex3.conductivity.scale == 2e-3
    for v in (bm.make_case("ex1").viscosity, ex3.conductivity):
        assert 0 < v.lower <= v.upper
        lo, hi = v.temp_range
        xs = np.linspace(lo, hi, 101)
        vals = v(xs)
        assert vals.min() >= v.lower * (1 - 1e-9)
        assert vals.max() <= v.upper * (1 + 1e-9)


def test_ex4_bc_roles():
    case = bm.make_case("ex4_mild")
    from lpsvem.geometry import generate_mesh
    mesh = generate_mesh("triangular", case.domain, 1 / 4)
    bcs = case.bc_builder(mesh)
    y = np.array([1.0])
    u_in = bcs["left"].velocity(np.array([0.0]), y)
    assert abs(u_in[0, 0] - 0.5 * 1.0 * (2 - 1.0)) <= 1e-15
    assert bcs["left"].temperature is not None
    assert bcs["right"].temperature is None
    for wall in ("top", "bottom", "notch_v", "notch_h"):
        assert np.abs(bcs[wall].velocity(np.array([1.0]), np.array([0.0]))).max() == 0.0
        assert bcs[wall].temperature is None


@pytest.mark.parametrize("h_list", [[1 / 10, 1 / 5], [1 / 5, 1 / 5]])
def test_run_ladder_takes_distinct_sizes_coarse_to_fine(monkeypatch, h_list):
    """A ladder runs from coarse to fine over distinct sizes: anything else
    is refused before a point is solved."""
    monkeypatch.setattr(bm, "run_point", lambda *a, **kw: pytest.fail("a point was solved"))
    with pytest.raises(ConfigurationError, match="distinct mesh sizes from coarse to fine"):
        bm.run_ladder(bm.make_case("ex1"), "distorted_square", 1, h_list)


@pytest.mark.parametrize("case_id, kappa", [
    ("ex1", -1.0), ("ex3", -1e-3), ("ex4_mild", 0.0), ("ex1", math.nan), ("ex3", math.inf)])
def test_kappa_override_must_be_positive_and_finite(monkeypatch, case_id, kappa):
    """A conductivity scale that is not positive and finite is an error that
    names kappa, raised before any point is solved."""
    monkeypatch.setattr(bm, "run_point", lambda *a, **kw: pytest.fail("a point was solved"))
    with pytest.raises(ConfigurationError, match=r"^kappa must be positive and finite, got "):
        bm.run_case(case_id, {"kappa": kappa})


@pytest.mark.parametrize("case_id, family, norms", [
    ("ex1", "distorted_square", ("e_u_h1", "e_p_l2")),
    ("ex1", "voronoi", ("e_u_h1", "e_p_l2")),
    ("ex3", "distorted_square", ("e_p_l2",)),
])
def test_order_3_converges_on_general_cells(case_id, family, norms):
    """k=3 at h = 1/4, 1/8, 1/16 (mesh seed 1): every step rate, on the
    realized refinement ratio, is at least 2.7; the measured ones are at
    least 2.92."""
    recs = bm.run_ladder(bm.make_case(case_id), family, 3, [1 / 4, 1 / 8, 1 / 16], seed=1)
    for name in norms:
        rates = [math.log(getattr(a.errors, name) / getattr(b.errors, name))
                 / math.log(math.sqrt(b.n_cells / a.n_cells)) for a, b in zip(recs, recs[1:])]
        assert min(rates) >= 2.7, (name, rates)


@pytest.mark.parametrize("key", ["orders", "mesh_families", "h_list"])
def test_run_case_rejects_an_empty_grid(monkeypatch, key):
    """An empty grid entry would solve nothing and return no record; it is an
    error that names the key, raised before any point is solved."""
    monkeypatch.setattr(bm, "run_point", lambda *a, **kw: pytest.fail("a point was solved"))
    with pytest.raises(ConfigurationError, match=rf"^override '{key}' is empty"):
        bm.run_case("ex4_mild", {key: []})
