#!/usr/bin/env python3
"""Print a digest of the solver's output on eight fixed runs, one line each.

Each line holds the sha256 of the fields ``u``, ``p`` and ``phi``, every
Picard sweep, the iteration count, the Stokes and temperature factorizations
and the number of warnings the run issued.  A sweep is printed as plain
values, not as the repr of its record: for the Stokes and then the
temperature system the action, the correction steps, the factorizations and
the relative residual, then the increment; a change to the record classes
leaves the lines as they are.  Two trees that print the same lines produce
the same fields bit for bit and take the same Picard sweeps.

The runs, all at mesh seed 1: every point of the ``channel_k1``,
``picard_k2`` and ``ladder_k1`` benchmark workloads, ``ex4_mild`` on
triangles (k=1, h=1/16) and ``ex2_convective`` on Voronoi cells (k=2,
h=1/8), the last two without stabilization (c1 = c2 = c3 = 0).  Each run goes
through ``benchmarks.run_point``; the Picard report is taken from a wrapper
around ``benchmarks.picard_solve``.

With ``--compare FILE`` the lines are also checked against a digest saved
earlier (the output of a plain run): every run whose line differs, or is
missing from the file, is named on standard error, and the exit code is 1.

    PYTHONPATH=src python scripts/field_digest.py > digest.txt
    PYTHONPATH=src python scripts/field_digest.py --compare digest.txt
"""
import argparse
import hashlib
import sys
import warnings

import numpy as np

from lpsvem import benchmarks as bm

NO_STAB = dict(c1=0.0, c2=0.0, c3=0.0)
RUNS = (
    ("channel_k1", "ex4_mild", "triangular", 1, 16, {}),
    ("picard_k2", "ex3", "distorted_square", 2, 9, {}),
    ("picard_k2", "ex3", "distorted_square", 2, 18, {}),
    ("ladder_k1", "ex1", "voronoi", 1, 5, {}),
    ("ladder_k1", "ex1", "voronoi", 1, 10, {}),
    ("ladder_k1", "ex1", "voronoi", 1, 20, {}),
    ("no_stab", "ex4_mild", "triangular", 1, 16, NO_STAB),
    ("no_stab", "ex2_convective", "voronoi", 2, 8, NO_STAB),
)


def sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def solve_text(r) -> str:
    return f"{r.action}/{r.steps}/{r.factorizations}/{r.residual!r}"


def sweep_text(s) -> str:
    return f"stokes={solve_text(s.stokes)} heat={solve_text(s.heat)} increment={s.increment!r}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", metavar="FILE", help="saved digest to check the lines against")
    args = ap.parse_args(argv)
    saved = {}
    if args.compare:
        with open(args.compare) as f:
            saved = {line.split(":")[0]: line.rstrip("\n") for line in f if ":" in line}
    reports, differ = [], []
    picard_solve = bm.picard_solve

    def capture(*args, **kwargs):
        out = picard_solve(*args, **kwargs)
        reports.append(out[1])
        return out
    bm.picard_solve = capture
    for label, case, family, k, n, kw in RUNS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, state, _ = bm.run_point(bm.make_case(case), family, k, 1 / n, seed=1, **kw)
        rep = reports.pop()
        run = f"{label} {case} {family} k={k} h=1/{n}"
        line = (f"{run}: u={sha(state.u)} p={sha(state.p)} phi={sha(state.phi)} "
                f"sweeps=[{'; '.join(map(sweep_text, rep.sweeps))}] iterations={rep.iterations} "
                f"stokes_factorizations={rep.stokes_factorizations} "
                f"heat_factorizations={rep.heat_factorizations} warnings={len(caught)}")
        print(line, flush=True)
        if args.compare and saved.get(run) != line:
            differ.append(run)
    for run in differ:
        print(f"differs from {args.compare}: {run}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
