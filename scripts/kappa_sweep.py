#!/usr/bin/env python3
"""Sweep the conductivity scale of the nonlinear-conductivity benchmark.

Reproduces the robustness experiment: errors at a fixed mesh size while
kappa drops from 1 to 1e-9.  A bad option value exits 2 with
``error: ...``, as ``lpsvem`` does.
"""
import argparse
import sys

from lpsvem import benchmarks as bm
from lpsvem.cli import _parse_h
from lpsvem.forms import ConfigurationError
from lpsvem.geometry import GeometryError


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=1)
    ap.add_argument("--h", default="1/20",
                    help="mesh size, a number or a fraction such as 1/20")
    ap.add_argument("--tau3", type=float, default=5.0,
                    help="transport stabilization constant used for the sweep")
    args = ap.parse_args(argv)

    kappas = [10.0 ** (-e) for e in range(0, 10)]
    try:
        h = _parse_h(args.h)
        rows = [(kap, bm.run_case("ex3", {"orders": [args.order], "h_list": [h],
                                          "kappa": kap, "c3": args.tau3})[0])
                for kap in kappas]
    except (ConfigurationError, GeometryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"k={args.order}, h={h:g}, c3={args.tau3}")
    print(f"{'kappa':>8} {'E_u_H1':>11} {'E_u_L2':>11} {'E_p_L2':>11} "
          f"{'E_phi_H1':>11} {'E_phi_L2':>11} {'it':>3}")
    for kap, r in rows:
        e = r.errors
        print(f"{kap:8.0e} {e.e_u_h1:11.4e} {e.e_u_l2:11.4e} {e.e_p_l2:11.4e} "
              f"{e.e_phi_h1:11.4e} {e.e_phi_l2:11.4e} {r.iterations:3d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
