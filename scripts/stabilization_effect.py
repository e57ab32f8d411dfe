#!/usr/bin/env python3
"""Compare the stabilized and unstabilized solves on the channel benchmark.

Reports the divergence violation and the deviation of the discrete
temperature from the exact constant, with and without the local projection
stabilization terms (tau1 = tau2 = tau3 = 0 in the comparison run).  A bad
option value exits 2 with ``error: ...``, as ``lpsvem`` does.
"""
import argparse
import sys
import warnings

from lpsvem import benchmarks as bm
from lpsvem.cli import _parse_h
from lpsvem.forms import ConfigurationError
from lpsvem.geometry import GeometryError


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h", default="1/16",
                    help="mesh size, a number or a fraction such as 1/16")
    ap.add_argument("--order", type=int, default=1)
    ap.add_argument("--case", default="ex4_mild",
                    choices=["ex4_mild", "ex4_strong"])
    args = ap.parse_args(argv)

    try:
        h = _parse_h(args.h)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = [(label, bm.run_case(args.case, dict(overrides, h_list=[h],
                                                        orders=[args.order]))[0])
                    for label, overrides in (("stabilized", {}), ("no-stab", {"no_stab": True}))]
    except (ConfigurationError, GeometryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.case}, k={args.order}, h={h:.6g}")
    print(f"{'run':>10} {'div violation':>15} {'max|phi-1|':>12} {'picard':>7}")
    for label, r in rows:
        print(f"{label:>10} {r.errors.div_violation:15.6e} "
              f"{r.errors.phi_dev_absmax:12.3e} {r.iterations:7d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
