import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from lpsvem import benchmarks as bm
from lpsvem import manufactured as mf
from lpsvem.forms import ConfigurationError
from oracles import strong_residual_mp

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
    case = bm.make_case(cid)
    f = case.fields
    div = sp.simplify(sp.diff(f.u1, mf._X) + sp.diff(f.u2, mf._Y))
    fn = sp.lambdify((mf._X, mf._Y), div, modules="numpy")
    pts = rng.uniform(0.05, 0.95, size=(20, 2))
    vals = np.array([float(fn(x, y)) for x, y in pts])
    assert np.abs(vals).max() <= 1e-12


@pytest.mark.parametrize("cid", ["ex1", "ex2_diffusive", "ex3"])
def test_exact_pressure_zero_mean(cid):
    import sympy as sp
    case = bm.make_case(cid)
    mean = sp.integrate(sp.integrate(case.fields.p, (mf._X, 0, 1)), (mf._Y, 0, 1))
    assert abs(float(mean)) <= 1e-12


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
    import time); a manufactured case still works."""
    code = textwrap.dedent("""
        import sys
        import lpsvem.benchmarks as bm
        import lpsvem.cli
        from lpsvem.geometry import generate_mesh
        case = bm.make_case("ex4_mild")
        bm.make_case("ex4_strong")
        generate_mesh("triangular", case.domain, 1 / 4)
        print([m for m in ("sympy", "scipy.optimize", "scipy.spatial") if m in sys.modules])
        case = bm.make_case("ex3")
        print(case.fields is not None, "sympy" in sys.modules)
    """)
    src = str(Path(bm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True True"]


def test_manufactured_fields_compile_once():
    f = bm.make_case("ex1").fields
    assert f._exact is None and f._sources is None    # nothing compiled in make_case
    exact, sources = f.exact(), f.sources()
    assert f.exact() is exact and f.sources() is sources
    assert bm.make_case("ex1").fields.sources() is not sources   # one cache per case


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
    case = bm.make_case("ex1")
    v = case.viscosity
    assert 0 < v.mu_min <= v.mu_max
    lo, hi = v.temp_range
    xs = np.linspace(lo, hi, 101)
    vals = v(xs)
    assert vals.min() >= v.mu_min * (1 - 1e-9)
    assert vals.max() <= v.mu_max * (1 + 1e-9)


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


def test_family_tags_cover_families():
    assert bm.FAMILY_TAGS["voronoi"] == "Omega1"
    assert bm.FAMILY_TAGS["distorted_square"] == "Omega2"
    assert bm.FAMILY_TAGS["uniform_square"] == "Omega3"
    assert bm.FAMILY_TAGS["nonconvex"] == "Omega4"
