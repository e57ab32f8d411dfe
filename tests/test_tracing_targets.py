"""Every function the benchmark tracer wraps must exist, so that a rename
fails here instead of making a per-layer metric read 0."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return _tracing().TARGETS


def test_every_traced_target_resolves():
    missing = set()
    for modname, attr, _ in _targets():
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.add((modname, attr))
    assert not missing, sorted(missing)


@pytest.fixture
def tracer(monkeypatch):
    """The benchmark tracer, installed for one test."""
    tracing = _tracing()
    for modname, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(modname)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if hasattr(owner, leaf):
            # monkeypatch puts the unwrapped function back after the test
            monkeypatch.setattr(owner, leaf, getattr(owner, leaf))
    tracer = tracing.Tracer()
    tracer.install()
    return tracer


def test_traced_factorizations_match_solver_counts(tracer):
    """A wrapper that stopped seeing ``splu`` would make
    ``solver.factorizations`` read low.  On a small Picard point with a
    temperature-dependent viscosity (ex3, k=2, h=1/4, where both systems
    are lagged on some sweeps), the tracer must count the Stokes and the
    temperature factorizations the sweep records report."""
    from lpsvem import benchmarks as bm
    rec, _, _ = bm.run_point(bm.make_case("ex3"), "distorted_square", 2, 1 / 4)
    assert rec.converged and 0 < rec.stokes_factorizations < rec.iterations
    assert 0 < rec.heat_factorizations < rec.iterations
    counts = tracer.layer_metrics()
    assert counts["solver.picard_iterations"] == rec.iterations
    assert counts["solver.factorizations"] == rec.stokes_factorizations + rec.heat_factorizations


def test_traced_constant_viscosity_point(tracer):
    """ex4_mild (constant mu and kappa, triangles, k=1, h=1/4): both systems
    are built and factored on the first sweep, and every later sweep reuses
    their solutions."""
    from lpsvem import benchmarks as bm
    rec, _, _ = bm.run_point(bm.make_case("ex4_mild"), "triangular", 1, 1 / 4)
    assert rec.converged and rec.stokes_factorizations == rec.heat_factorizations == 1
    counts = tracer.layer_metrics()
    assert counts["solver.picard_iterations"] == rec.iterations
    assert counts["solver.factorizations"] == rec.stokes_factorizations + rec.heat_factorizations
    assert counts["forms.stokes_nnz"] > 0
    assert counts["solver.stokes_solve_s"] > 0.0
    assert counts["polybasis.quadrature_s"] > 0.0 and counts["polybasis.matrices_s"] > 0.0
