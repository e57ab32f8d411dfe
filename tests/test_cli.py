import dataclasses
import json
import math
import re

import numpy as np
import pytest

from lpsvem import benchmarks as bench
from lpsvem.cli import main
from lpsvem.forms import Coefficient
from lpsvem.geometry import read_mesh


def test_mesh_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "mesh.json"
    code = main(["mesh", "gen", "--family", "voronoi", "--h", "1/5", "--out", str(out)])
    assert code == 0
    mesh = read_mesh(out)
    assert mesh.n_cells > 10


@pytest.mark.parametrize("h, message", [
    ("1/0", "invalid mesh size '1/0'"),
    ("inf", "h_target must be positive and finite, got inf"),
    ("nan", "h_target must be positive and finite, got nan")])
@pytest.mark.parametrize("command", ["mesh", "solve"])
def test_bad_mesh_size_exits_2(tmp_path, capsys, command, h, message):
    out = tmp_path / "mesh.json"
    args = (["mesh", "gen", "--family", "voronoi", "--out", str(out)] if command == "mesh"
            else ["solve", "--case", "ex4_mild"])
    assert main(args + ["--h", h]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_study_stdout_csv(tmp_path, capsys):
    code = main(["study", "--case", "ex1", "--order", "1",
                 "--mesh-family", "distorted_square", "--h-list", "1/5,1/10",
                 "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "h,E_u_H1,rate,E_u_L2,rate,E_p_L2,rate,E_phi_H1,rate,E_phi_L2,rate" in out
    assert re.search(r"^# picard_iterations=\d+,\d+ stokes_factorizations=\d+,\d+ "
                     r"heat_factorizations=\d+,\d+ converged=",
                     out, re.M)
    saved = tmp_path / "ex1_distorted_square_k1.csv"
    assert saved.exists()
    assert saved.read_text() in out


def test_study_deterministic_bytes(tmp_path):
    args = ["study", "--case", "ex1", "--order", "1", "--mesh-family",
            "distorted_square", "--h-list", "1/5"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(args + ["--out-dir", str(a)])
    main(args + ["--out-dir", str(b)])
    fa = a / "ex1_distorted_square_k1.csv"
    fb = b / "ex1_distorted_square_k1.csv"
    assert fa.read_bytes() == fb.read_bytes()


def test_unknown_flag_exits_2(capsys):
    assert main(["study", "--case", "ex1", "--frobnicate"]) == 2


def test_unknown_case_exits_2(capsys):
    assert main(["study", "--case", "ex9"]) == 2


def test_default_tolerance_honored():
    from lpsvem.cli import _overrides_from_args, build_parser
    ns = build_parser().parse_args(["study", "--case", "ex1"])
    assert _overrides_from_args(ns)["tol"] == 1e-7


def test_solve_and_export(tmp_path, capsys):
    code = main(["solve", "--case", "ex4_mild", "--h", "1/4", "--order", "1",
                 "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "div_violation" in out
    # constant viscosity and conductivity: one Stokes and one transport
    # system, each factored once
    assert " stokes_factorizations=1 heat_factorizations=1 " in out
    assert (tmp_path / "fields.vtk").exists()
    assert (tmp_path / "fields.csv").exists()
    vtk = tmp_path / "out.vtk"
    code = main(["export", "--case", "ex4_mild", "--h", "1/4", "--order", "1",
                 "--format", "vtk_legacy", "--out", str(vtk)])
    assert code == 0
    assert vtk.read_text().startswith("# vtk DataFile")


def test_no_stab_flag_zeroes_taus(tmp_path, capsys):
    code = main(["solve", "--case", "ex4_mild", "--h", "1/4", "--order", "1",
                 "--no-stab"])
    assert code == 0
    out = capsys.readouterr().out
    assert "div_violation" in out


def test_study_no_stab_flag_zeroes_taus(monkeypatch, capsys):
    seen = []
    run_point = bench.run_point
    monkeypatch.setattr(bench, "run_point",
                        lambda *a, **kw: seen.append(kw) or run_point(*a, **kw))
    code = main(["study", "--case", "ex4_mild", "--order", "1", "--h-list", "1/4",
                 "--tau2", "0.5", "--no-stab"])
    assert code == 0
    assert seen == [dict(c1=0.0, c2=0.0, c3=0.0, tol=1e-7, max_iter=50, seed=42)]
    assert "# case=ex4_mild family=triangular k=1" in capsys.readouterr().out


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "order": 1, "mesh_family": "distorted_square", "h_list": [0.2],
        "c2": 0.01, "tol": 1e-6}))
    code = main(["study", "--case", "ex1", "--config", str(cfg)])
    assert code == 0
    out = capsys.readouterr().out
    assert "k=1" in out


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    """A misspelt key is an error that names it, not a silently ignored
    option: ``max_iters`` must not run ex3 to convergence."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iters": 1, "order": 1, "mesh_family": "distorted_square",
                               "h_list": [0.2]}))
    assert main(["study", "--case", "ex3", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "'max_iters'" in captured.err
    assert captured.out == ""


def test_config_file_malformed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{nope")
    assert main(["study", "--case", "ex1", "--config", str(cfg)]) == 2


def test_nonconverged_study_exit_3(capsys):
    code = main(["study", "--case", "ex3", "--order", "1", "--mesh-family",
                 "distorted_square", "--h-list", "1/5", "--max-iter", "1"])
    assert code == 3


def test_config_file_point_keys_honored(tmp_path, capsys):
    """The ``tol``, ``max_iter`` and ``seed`` keys of a config file apply when
    their flags are not given, and a flag still overrides its key."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iter": 1}))
    args = ["study", "--case", "ex3", "--order", "1", "--mesh-family",
            "distorted_square", "--h-list", "1/5", "--config", str(cfg)]
    assert main(args) == 3
    assert main(args + ["--max-iter", "50"]) == 0


def test_config_file_point_keys_reach_run_point(tmp_path, monkeypatch, capsys):
    seen = []
    run_point = bench.run_point
    monkeypatch.setattr(bench, "run_point",
                        lambda *a, **kw: seen.append(kw) or run_point(*a, **kw))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 0.5, "max_iter": 3, "seed": 7}))
    main(["study", "--case", "ex4_mild", "--order", "1", "--h-list", "1/4",
          "--config", str(cfg)])
    main(["study", "--case", "ex4_mild", "--order", "1", "--h-list", "1/4",
          "--config", str(cfg), "--tol", "1e-6", "--max-iter", "20", "--seed", "5"])
    assert seen == [dict(tol=0.5, max_iter=3, seed=7), dict(tol=1e-6, max_iter=20, seed=5)]


def test_threads_flag_deterministic(tmp_path):
    args = ["study", "--case", "ex1", "--order", "1", "--mesh-family",
            "distorted_square", "--h-list", "1/5"]
    a, b = tmp_path / "a", tmp_path / "b"
    main(args + ["--out-dir", str(a), "--threads", "1"])
    main(args + ["--out-dir", str(b), "--threads", "2"])
    assert (a / "ex1_distorted_square_k1.csv").read_bytes() == \
        (b / "ex1_distorted_square_k1.csv").read_bytes()


@pytest.mark.parametrize("field, message", [
    ("heat_source", r"heat source is not finite near \("),
    ("viscosity", r"viscosity value 2 outside declared bounds"),
])
def test_configuration_error_names_the_cell(monkeypatch, capsys, field, message):
    """A non-finite source or an out-of-bounds viscosity is reported on the
    cell it was found on, once, whether or not the message names it."""
    bad = {"heat_source": lambda x, y: np.where(x > 3.5, np.nan, 0.0),
           "viscosity": Coefficient(func=lambda r: np.full_like(r, 2.0),
                                    lower=0.5, upper=1.0)}[field]
    problem_spec = bench.BenchmarkCase.problem_spec
    monkeypatch.setattr(bench.BenchmarkCase, "problem_spec",
                        lambda self, *a, **kw: dataclasses.replace(
                            problem_spec(self, *a, **kw), **{field: bad}))
    code = main(["solve", "--case", "ex4_mild", "--h", "1/4", "--order", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert re.match(rf"error: cell \d+: {message}", err), err
    assert err.count("cell ") == 1


def _no_point(monkeypatch):
    """Make any solve fail the test: an error must be raised before the work."""
    def run_point(*a, **kw):
        raise AssertionError("a point was solved")
    monkeypatch.setattr(bench, "run_point", run_point)


@pytest.mark.parametrize("key, value, named", [
    ("h_list", 0.2, "'h_list'"), ("h_list", ["1/5"], "'h_list'"), ("tol", [1], "'tol'"),
    ("order", "1", "'orders'"), ("order", 1.0, "'orders'"), ("mesh_family", 3, "'mesh_families'"),
    ("c1", "0.1", "'c1'"), ("kappa", None, "'kappa'"), ("max_iter", 2.5, "'max_iter'"),
    ("seed", True, "'seed'"), ("no_stab", "yes", "'no_stab'")])
@pytest.mark.parametrize("command", ["solve", "study"])
def test_config_value_of_wrong_type_exits_2(tmp_path, monkeypatch, capsys, command, key,
                                             value, named):
    """A config value of the wrong JSON type is a configuration error that
    names the key, raised before any point is solved."""
    _no_point(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main([command, "--case", "ex4_mild", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: override {named} takes "), captured.err
    assert captured.out == ""


@pytest.mark.parametrize("case_id, source, value, shown", [
    ("ex1", "flag", "-1", "-1.0"), ("ex3", "config", -1e-3, "-0.001"),
    ("ex1", "flag", "nan", "nan"), ("ex3", "config", float("inf"), "inf")])
def test_kappa_not_positive_and_finite_exits_2(tmp_path, monkeypatch, capsys, case_id, source,
                                               value, shown):
    """``--kappa`` and a config ``kappa`` must be positive and finite; any
    other value exits 2 naming kappa, before any point is solved."""
    _no_point(monkeypatch)
    args = ["solve", "--case", case_id, "--h", "1/4"]
    if source == "flag":
        args.append(f"--kappa={value}")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kappa": value}))
        args += ["--config", str(cfg)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: kappa must be positive and finite, got {shown}\n"
    assert captured.out == ""


@pytest.mark.parametrize("key, value", [
    ("tol", math.inf), ("tol", math.nan), ("tol", 0.0), ("max_iter", -2), ("max_iter", 0)])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["solve", "study"])
def test_tolerance_and_iteration_cap_checked_before_work(tmp_path, monkeypatch, capsys, command,
                                                         source, key, value):
    """``tol`` must be positive and finite and ``max_iter`` at least 1, from a
    flag or a config file; any other value exits 2 naming it, before any
    point is solved (``--tol=inf`` once stopped on the first sweep with exit
    0, ``--tol=nan`` ran 50 sweeps, ``--max-iter=-2`` ran none)."""
    _no_point(monkeypatch)
    args = [command, "--case", "ex3", "--order", "1"]
    if source == "flag":
        args.append(f"--{key.replace('_', '-')}={value}")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        args += ["--config", str(cfg)]
    assert main(args) == 2
    captured = capsys.readouterr()
    rule = "must be positive and finite" if key == "tol" else "must be at least 1"
    assert captured.err == f"error: {key} {rule}, got {value!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_study_needs_at_least_one_thread(monkeypatch, capsys, threads):
    """``--threads`` below 1 exits 2 before any ladder runs; it once ran the
    study sequentially and exited 0."""
    _no_point(monkeypatch)
    code = main(["study", "--case", "ex1", "--order", "1", "--mesh-family",
                 "distorted_square", "--h-list", "1/4", f"--threads={threads}"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --threads must be at least 1, got {threads}\n"
    assert captured.out == ""


_SCRIPT_BAD_H = {"1/0": "invalid mesh size '1/0'", "abc": "invalid mesh size 'abc'",
                 "0": "h_target must be positive and finite, got 0.0",
                 "inf": "h_target must be positive and finite, got inf",
                 "-1": "h_target must be positive and finite, got -1.0"}


@pytest.mark.parametrize("h", list(_SCRIPT_BAD_H))
def test_stabilization_script_bad_mesh_size_is_a_usage_error(monkeypatch, capsys, h):
    """``scripts/stabilization_effect.py`` and ``scripts/kappa_sweep.py``
    parse ``--h`` with the CLI's mesh size parser: a bad value exits 2 with
    the message ``lpsvem`` prints, not a traceback, before any mesh is
    solved on.  Both scripts once ended ``--h 0`` in a traceback, and the
    kappa sweep refused ``--h 1/20``."""
    import runpy
    from pathlib import Path

    def build_mesh_ops(*a, **kw):
        raise AssertionError("a mesh was solved on")
    monkeypatch.setattr(bench, "build_mesh_ops", build_mesh_ops)
    for name in ("stabilization_effect.py", "kappa_sweep.py"):
        script = Path(__file__).resolve().parents[1] / "scripts" / name
        monkeypatch.setattr("sys.argv", [str(script), "--h", h])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(script), run_name="__main__")
        assert exc.value.code == 2, name
        assert capsys.readouterr() == ("", f"error: {_SCRIPT_BAD_H[h]}\n"), name


def test_study_repeated_mesh_size_exits_2(monkeypatch, capsys):
    _no_point(monkeypatch)
    code = main(["study", "--case", "ex1", "--order", "1", "--mesh-family",
                 "distorted_square", "--h-list", "1/5,1/5"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: a ladder takes distinct mesh sizes from coarse to fine, "
                            "got [0.2, 0.2]\n")
    assert captured.out == ""


@pytest.mark.parametrize("source", ["flag", "config"])
def test_study_empty_mesh_size_list_exits_2(tmp_path, monkeypatch, capsys, source):
    _no_point(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h_list": []}))
    args = ["study", "--case", "ex4_mild"]
    args += ["--h-list", ""] if source == "flag" else ["--config", str(cfg)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: override 'h_list' is empty; a study takes at least one entry\n"
    assert captured.out == ""


@pytest.mark.parametrize("command, flag", [
    ("solve", ["--threads", "2"]), ("export", ["--threads", "2"]), ("export", ["--out-dir", "d"])])
def test_flags_a_command_does_not_read_exit_2(tmp_path, monkeypatch, capsys, command, flag):
    """``--threads`` belongs to ``study`` and ``--out-dir`` to ``solve`` and
    ``study``; another command refuses them instead of ignoring them."""
    _no_point(monkeypatch)
    monkeypatch.chdir(tmp_path)
    args = [command, "--case", "ex4_mild", "--h", "1/4", *flag]
    if command == "export":
        args += ["--out", "x.vtk"]
    assert main(args) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["solve", "export"])
def test_one_point_commands_reject_two_mesh_sizes(tmp_path, monkeypatch, capsys, command):
    """``solve`` and ``export`` run one point: a config ``h_list`` of two sizes
    is an error that names the count, not a solve of the first size."""
    _no_point(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h_list": [0.25, 0.125]}))
    args = [command, "--case", "ex4_mild", "--config", str(cfg)]
    if command == "export":
        args += ["--out", str(tmp_path / "f.vtk")]
    assert main(args) == 2
    assert capsys.readouterr().err == "error: one point takes one entry of 'h_list', got 2\n"


@pytest.mark.parametrize("command", ["mesh", "export"])
def test_output_file_in_missing_directory_is_made(tmp_path, capsys, command):
    out = tmp_path / "missing" / "deeper" / "out.file"
    args = (["mesh", "gen", "--family", "uniform_square", "--h", "1/4"] if command == "mesh"
            else ["export", "--case", "ex4_mild", "--h", "1/4", "--order", "1"])
    assert main(args + ["--out", str(out)]) == 0
    assert out.stat().st_size > 0


@pytest.mark.parametrize("command", ["mesh", "export"])
def test_unwritable_output_file_exits_2(tmp_path, capsys, command):
    """A write that fails (here: the path is a directory) is a usage error
    that names the path, not a traceback."""
    out = tmp_path / "taken"
    out.mkdir()
    args = (["mesh", "gen", "--family", "uniform_square", "--h", "1/4"] if command == "mesh"
            else ["export", "--case", "ex4_mild", "--h", "1/4", "--order", "1"])
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err, err


@pytest.fixture
def ladder_calls(monkeypatch):
    """Each call of ``bench.run_ladder``: its (family, k) and the h of the
    records it returned, in order."""
    calls = []
    run_ladder = bench.run_ladder

    def counting(case, family, k, h_list, **kw):
        recs = run_ladder(case, family, k, h_list, **kw)
        calls.append((family, k, [r.h for r in recs]))
        return recs
    monkeypatch.setattr(bench, "run_ladder", counting)
    return calls


@pytest.mark.parametrize("threads", ["1", "2"])
def test_study_runs_through_run_ladder(ladder_calls, capsys, threads):
    code = main(["study", "--case", "ex1", "--order", "1", "--mesh-family",
                 "distorted_square", "--h-list", "1/10,1/5", "--threads", threads])
    assert code == 0
    assert ladder_calls == [("distorted_square", 1, [0.2, 0.1])]


def test_run_case_runs_through_run_ladder(ladder_calls):
    recs = bench.run_case("ex1", {"orders": [1], "mesh_families": ["distorted_square"],
                                  "h_list": [1 / 10, 1 / 5]})
    assert ladder_calls == [("distorted_square", 1, [0.2, 0.1])]
    assert [r.h for r in recs] == [0.2, 0.1]
