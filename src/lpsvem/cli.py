"""Command-line driver: mesh generation, single solves, studies, field export.

Exit codes: 0 success; 2 configuration or usage error, including an output
path that cannot be written; 3 a solve, export or study whose fixed-point
iteration did not converge, or any solver failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import benchmarks as bench
from .forms import ConfigurationError
from .geometry import (GeometryError, L_SHAPE, MESH_FAMILIES, UNIT_SQUARE,
                       generate_mesh, write_mesh)
from .postprocess import export_fields
from .solver import SolverError

_DOMAINS = {
    "unit_square": UNIT_SQUARE,
    "lshape": L_SHAPE,
}


def _parse_h(text: str) -> float:
    """A mesh size given as a number or a fraction; ValueError names ``text``."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return float(num) / float(den)
        return float(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid mesh size {text!r}") from None


def _parse_h_list(text: str) -> list[float]:
    return [_parse_h(t) for t in text.replace(";", ",").split(",") if t.strip()]


def _add_common(p):
    p.add_argument("--case", choices=bench.CASE_IDS, required=True)
    p.add_argument("--order", type=int, default=None, help="VEM order k")
    p.add_argument("--mesh-family", choices=MESH_FAMILIES, default=None)
    p.add_argument("--tau1", dest="c1", type=float, help="constant c1 in tau1 = c1")
    p.add_argument("--tau2", dest="c2", type=float, help="constant c2 in tau2 = c2*h_E^2")
    p.add_argument("--tau3", dest="c3", type=float, help="constant c3 in tau3 = c3*h_E")
    p.add_argument("--no-stab", action="store_true", default=None,
                   help="set all stabilization parameters to zero (comparison runs)")
    p.add_argument("--tol", type=float, default=None, help="fixed-point stopping tolerance")
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--kappa", type=float, default=None, help="override the conductivity scale")
    p.add_argument("--config", type=Path, default=None, help="JSON file with these options")
    p.add_argument("--seed", type=int, default=None,
                   help="mesh seed (default 42); only distorted_square reads it")


# the keys a --config file may hold, each the destination of its flag; order
# and mesh_family give the one entry of a study override
_CONFIG_KEYS = frozenset(("order", "mesh_family", "h_list", "c1", "c2", "c3", "no_stab",
                          "kappa", "tol", "max_iter", "seed"))
_ONE_ENTRY = {"order": "orders", "mesh_family": "mesh_families"}


def _overrides_from_args(args) -> dict:
    """The flags of a command over its ``--config`` keys over the defaults, as
    the overrides that ``benchmarks.plan_study`` checks and resolves."""
    cfg = {}
    if args.config is not None:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigurationError("config file must hold a JSON object")
        unknown = sorted(set(cfg) - _CONFIG_KEYS)
        if unknown:
            raise ConfigurationError(f"unknown config key(s) {', '.join(map(repr, unknown))} "
                                     f"(known: {', '.join(sorted(_CONFIG_KEYS))})")
    flags = {key: getattr(args, key) for key in _CONFIG_KEYS}
    if args.h_list is not None:
        flags["h_list"] = _parse_h_list(args.h_list)
    options = {"tol": 1e-7, "max_iter": 50, "seed": 42, **cfg,
               **{key: val for key, val in flags.items() if val is not None}}
    return {_ONE_ENTRY.get(key, key): [val] if key in _ONE_ENTRY else val
            for key, val in options.items()}


def _cmd_mesh_gen(args) -> int:
    args.out.parent.mkdir(parents=True, exist_ok=True)
    domain = _DOMAINS[args.domain]
    mesh = generate_mesh(args.family, domain, _parse_h(args.h), seed=args.seed)
    write_mesh(mesh, args.out)
    print(f"wrote {args.out}: {mesh.n_cells} cells, {mesh.n_vertices} vertices, "
          f"h = {mesh.h:.6g}")
    return 0


def _solve_point(args):
    """``run_point`` on the one point that ``solve`` and ``export`` name."""
    case, [(family, k)], [h], kw = bench.plan_study(
        args.case, _overrides_from_args(args), single=True)
    return bench.run_point(case, family, k, h, **kw)


def _cmd_solve(args) -> int:
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
    rec, state, mops = _solve_point(args)
    e = rec.errors
    print(f"case={rec.case} family={rec.family} k={rec.k} h={rec.h:.6g} "
          f"iterations={rec.iterations} stokes_factorizations={rec.stokes_factorizations} "
          f"heat_factorizations={rec.heat_factorizations} converged={rec.converged}")
    print(f"div_violation={e.div_violation:.6e} "
          f"phi_dev=[{e.phi_dev_min:.3e}, {e.phi_dev_max:.3e}]")
    if e.e_u_h1 is not None:
        print(f"E_u_H1={e.e_u_h1:.6e} E_u_L2={e.e_u_l2:.6e} E_p_L2={e.e_p_l2:.6e} "
              f"E_phi_H1={e.e_phi_h1:.6e} E_phi_L2={e.e_phi_l2:.6e}")
    if args.out_dir is not None:
        export_fields(state, mops.mesh, mops, args.out_dir / "fields.vtk", "vtk_legacy")
        export_fields(state, mops.mesh, mops, args.out_dir / "fields.csv", "csv")
        print(f"fields written to {args.out_dir}")
    return 0 if rec.converged else 3


def _cmd_study(args) -> int:
    case, ladders, h_list, kw = bench.plan_study(args.case, _overrides_from_args(args))
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)

    def ladder(fk):
        return bench.run_ladder(case, *fk, h_list, **kw)

    if args.threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(ladder, ladders))
    else:
        results = list(map(ladder, ladders))

    all_ok = True
    for (family, k), recs in zip(ladders, results):
        table = bench.records_to_csv(recs)
        print(f"# case={args.case} family={family} k={k}")
        print(table, end="")
        iters = ",".join(str(r.iterations) for r in recs)
        facts = ",".join(str(r.stokes_factorizations) for r in recs)
        heat = ",".join(str(r.heat_factorizations) for r in recs)
        print(f"# picard_iterations={iters} stokes_factorizations={facts} "
              f"heat_factorizations={heat} converged="
              f"{','.join(str(r.converged) for r in recs)}")
        all_ok &= all(r.converged for r in recs)
        if args.out_dir is not None:
            (args.out_dir / f"{args.case}_{family}_k{k}.csv").write_text(table)
    return 0 if all_ok else 3


def _cmd_export(args) -> int:
    args.out.parent.mkdir(parents=True, exist_ok=True)
    rec, state, mops = _solve_point(args)
    export_fields(state, mops.mesh, mops, args.out, args.format)
    print(f"wrote {args.out} (converged={rec.converged})")
    return 0 if rec.converged else 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lpsvem",
        description="Equal-order stabilized virtual element solver for coupled "
                    "Stokes-temperature flow on polygonal meshes")
    sub = p.add_subparsers(dest="command", required=True)

    mesh = sub.add_parser("mesh", help="mesh utilities")
    msub = mesh.add_subparsers(dest="mesh_command", required=True)
    gen = msub.add_parser("gen", help="generate a mesh file")
    gen.add_argument("--family", choices=MESH_FAMILIES, required=True)
    gen.add_argument("--domain", choices=sorted(_DOMAINS), default="unit_square")
    gen.add_argument("--h", required=True, help="target mesh size (e.g. 0.1 or 1/10)")
    gen.add_argument("--seed", type=int, default=42,
                     help="mesh seed; only distorted_square reads it")
    gen.add_argument("--out", type=Path, required=True)
    gen.set_defaults(func=_cmd_mesh_gen)

    solve = sub.add_parser("solve", help="solve one benchmark configuration")
    _add_common(solve)
    solve.add_argument("--h", dest="h_list", default=None,
                       help="mesh size for the single solve")
    solve.add_argument("--out-dir", type=Path, default=None)
    solve.set_defaults(func=_cmd_solve)

    study = sub.add_parser("study", help="run a convergence study and emit CSV tables")
    _add_common(study)
    study.add_argument("--h-list", dest="h_list", default=None,
                       help="comma-separated mesh sizes, e.g. 1/5,1/10,1/20")
    study.add_argument("--out-dir", type=Path, default=None)
    study.add_argument("--threads", type=int, default=1,
                       help="worker threads; each runs whole (family, k) ladders")
    study.set_defaults(func=_cmd_study)

    export = sub.add_parser("export", help="solve and export fields")
    _add_common(export)
    export.add_argument("--h", dest="h_list", default=None)
    export.add_argument("--format", choices=("vtk_legacy", "csv"), default="vtk_legacy")
    export.add_argument("--out", type=Path, required=True)
    export.set_defaults(func=_cmd_export)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigurationError, GeometryError, ValueError, OSError) as exc:
        msg, cell = str(exc), getattr(exc, "cell_id", None)
        if cell is not None and not msg.startswith(f"cell {cell}:"):
            msg = f"cell {cell}: {msg}"
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
