"""One round of a workload in a fresh process; prints one JSON line.

Set-up (importing ``lpsvem`` and ``make_case``) is timed first, then every
study point of the workload in turn, then the rate check.  With
``--setup-only`` the round stops after set-up.  With ``--trace 1`` the
layers are wrapped (see ``tracing.py``) and the per-layer figures and the
spans are printed as well.

    PYTHONPATH=src python3 perfbench/worker.py --workload channel_k1 --seed 1
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

from workloads import WORKLOADS, check_point, check_rates


def run_round(w, seed: int, size: str, trace: bool, setup_only: bool) -> dict:
    t0 = time.perf_counter()
    from lpsvem import benchmarks as bm
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    case = bm.make_case(w.case)
    out = {"setup_s": time.perf_counter() - t0}
    if setup_only:
        return out

    # failed: operations that raised or whose check did not hold;
    # wrong: the checks among them that did not hold
    failed, wrong, errors, recs, solve_s = 0, 0, [], [], 0.0
    for h in w.hs(size):
        t = time.perf_counter()
        try:
            rec, state, mops = bm.run_point(case, w.family, w.k, h, seed=seed)
        except Exception:
            solve_s += time.perf_counter() - t
            failed += 1
            errors.append(traceback.format_exc(limit=3))
            continue
        solve_s += time.perf_counter() - t
        del state, mops     # one point's operators and fields alive at a time
        bad = check_point(w, rec)
        if bad is None:
            recs.append(rec)
        else:
            failed += 1
            wrong += 1
            errors.append(bad)
    if w.rate_norms:
        if len(recs) < len(w.hs(size)):
            # a failed point leaves no rates to check, which fails the check too
            failed += 1
            errors.append(f"{w.name}: rate check skipped, a point failed")
        elif (bad := check_rates(w, recs)) is not None:
            failed += 1
            wrong += 1
            errors.append(bad)

    out.update(solve_s=solve_s, attempted=w.n_ops(size), failed=failed, wrong=wrong,
               errors=errors,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               iterations=[r.iterations for r in recs])
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["spans"] = [[n, p, round(a - t0, 7), round(b - t0, 7)]
                        for n, p, a, b in tracer.spans]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    out = run_round(WORKLOADS[args.workload], args.seed, args.size,
                    bool(args.trace), args.setup_only)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
