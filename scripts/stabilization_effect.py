#!/usr/bin/env python3
"""Compare the stabilized and unstabilized solves on the channel benchmark.

Reports the divergence violation and the deviation of the discrete
temperature from the exact constant, with and without the local projection
stabilization terms (tau1 = tau2 = tau3 = 0 in the comparison run).
"""
import argparse
import warnings

from lpsvem import benchmarks as bm
from lpsvem.cli import _parse_h


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h", type=_parse_h, default="1/16",
                    help="mesh size, a number or a fraction such as 1/16")
    ap.add_argument("--order", type=int, default=1)
    ap.add_argument("--case", default="ex4_mild",
                    choices=["ex4_mild", "ex4_strong"])
    args = ap.parse_args()

    print(f"{args.case}, k={args.order}, h={args.h:.6g}")
    print(f"{'run':>10} {'div violation':>15} {'max|phi-1|':>12} {'picard':>7}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for label, overrides in (("stabilized", {}), ("no-stab", {"no_stab": True})):
            recs = bm.run_case(args.case, dict(overrides, h_list=[args.h],
                                               orders=[args.order]))
            r = recs[0]
            print(f"{label:>10} {r.errors.div_violation:15.6e} "
                  f"{r.errors.phi_dev_absmax:12.3e} {r.iterations:7d}")


if __name__ == "__main__":
    main()
