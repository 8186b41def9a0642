#!/usr/bin/env python3
"""Benchmark of rampagg, run from the root of a source checkout.

    python3 perfbench/run.py --workload round-wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads: round-wide, sweep-deep, privacy-exhaustive; ``all`` runs each in
a fresh process, one after another.  With ``--trace 0`` the end-to-end
metrics are reported, with ``--trace 1`` the per-layer ones.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Exit code 0: every output checked correct; 1: a check
failed; 2: the program's sources are missing or the arguments are wrong.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("round-wide", "sweep-deep", "privacy-exhaustive")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads() -> None:
    """Cap BLAS/OpenMP threads at the CPU count; must run before numpy loads."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def run_all(args) -> int:
    """Each workload in its own fresh process; prints a summary at the end."""
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        code = max(code, proc.returncode)
    print(json.dumps({
        "correct": code == 0,
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "workloads": results,
    }))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up the first task, print 'ready' and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rampagg" / "__init__.py").is_file():
        print(f"error: no rampagg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    cap_threads()
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import bench

    if args.setup_probe:
        bench.prepare(bench.WORKLOADS[args.workload], args.seed)
        print("ready", flush=True)
        return 0
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
