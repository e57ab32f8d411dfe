"""Solver benchmark: runs one workload and prints its metrics as JSON.

    python3 perfbench/run.py --workload channel_k1 --seed 1 --seconds 25 --trace 0

Every round runs in a fresh single process (``worker.py``) with the BLAS and
OpenMP thread pools capped at the number of usable cores.  Rounds repeat
until ``--seconds`` have passed; each round runs all study points of the
workload, so every run attempts whole rounds of the same operations.  The
untraced run (``--trace 0``) reports the end-to-end metrics, the medians
over rounds (and over extra set-up-only processes for ``setup_s``); the
traced run (``--trace 1``) reports the per-layer medians and writes the
spans to ``perfbench/out/``.  The last line of standard output is the result
object.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 2          # set-up-only processes per untraced run
DEADLINE_S = 170.0      # a run ends within this many seconds
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


def _layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def _layer_median(name: str, values) -> float:
    # a count repeats exactly from round to round; keep it a whole number
    return (statistics.median if _layer_unit(name) == "s" else statistics.median_low)(values)


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    nproc = str(len(os.sched_getaffinity(0)))
    env.update({v: nproc for v in THREAD_VARS})
    return env


def _run_worker(args: list[str], timeout: float) -> dict:
    """Run one worker process to its end; raises on a crash or a timeout."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, env=_worker_env(), cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads((stdout.strip().splitlines() or [""])[-1])


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    w = WORKLOADS[workload]
    t_start = time.perf_counter()
    deadline = t_start + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--size", size,
            "--trace", str(int(trace))]
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS if size == "full" else 1):
            setups.append(_run_worker(base + ["--setup-only"],
                                      deadline - time.perf_counter())["setup_s"])

    rounds, attempted, failed, errors = [], 0, 0, []
    t_measure = time.perf_counter()
    while not rounds or time.perf_counter() - t_measure < seconds:
        try:
            r = _run_worker(base, deadline - time.perf_counter())
        except (subprocess.TimeoutExpired, RuntimeError, ValueError) as exc:
            attempted += w.n_ops(size)
            failed += w.n_ops(size)
            errors.append(f"round {len(rounds)}: {type(exc).__name__}: {exc}")
            break
        rounds.append(r)
        attempted += r["attempted"]
        failed += r["failed"]
        errors.extend(r["errors"])
        setups.append(r["setup_s"])
        print(f"round {len(rounds)}: setup {r['setup_s']:.3f} s, solve {r['solve_s']:.3f} s, "
              f"peak rss {r['peak_rss_mb']:.1f} MB, picard sweeps {r['iterations']}")
    for e in errors:
        print(e, file=sys.stderr)
    if not rounds:
        raise RuntimeError("no round of the workload completed")

    if trace:
        metrics = {m: {"value": _layer_median(m, [r["layers"][m] for r in rounds]),
                       "unit": _layer_unit(m)} for m in rounds[0]["layers"]}
    else:
        values = {"setup_s": statistics.median(setups),
                  "solve_s": statistics.median(r["solve_s"] for r in rounds),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds)}
        metrics = {m: {"value": v, "unit": END_TO_END[m]} for m, v in values.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}_seed{seed}_{size}"
    if trace:
        with open(OUT / f"trace_{stem}.json", "w") as f:
            json.dump({"workload": workload, "seed": seed,
                       "span_fields": ["name", "parent", "start_s", "end_s"],
                       "rounds": [r.pop("spans") for r in rounds]}, f)
    result = {"correct": not any(r["wrong"] for r in rounds),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT / f"result_{stem}_trace{int(trace)}.json", "w") as f:
        json.dump({**result, "setup_samples": setups, "rounds": rounds,
                   "wall_s": time.perf_counter() - t_start}, f, indent=1)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="mesh seed for generate_mesh")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke-test meshes of test_perfbench.py")
    args = ap.parse_args(argv)
    if not (SRC / "lpsvem" / "__init__.py").is_file():
        print(f"lpsvem sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
