#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, for a before/after claim.

    python3 tools/pair_runs.py PARENT_DIR CHANGE_DIR --workload round-wide,sweep-deep --pairs 10

Each tree is copied (without .git and build leftovers) into two scratch
directories whose names differ in length, since how glibc trims the heap of
a run can depend on the length of its checkout's path.  For each workload W
of the comma-separated --workload list, in turn, pair i runs
``perfbench/run.py --workload W --seed SEED+i --trace 0`` once on each side,
the parent first in even pairs and the change first in odd ones, from the
short names in even pairs and the long ones in odd pairs.  Every run's
metrics are printed as they come; after a workload's pairs, for each
metric, each side's median and quartiles, the pairs each side won (lower
is better for every end-to-end metric) and a verdict (:func:`verdict`)
against the metric's relative ``bound`` in CHANGE_DIR's BENCHMARK.json,
which is only read; the workload's output ends with one JSON line of the
same figures (:func:`summary`).  Standard library only; the copies are
removed at exit unless --keep is given.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")
SIDES = ("parent", "change")


def copies(trees: dict, root: Path) -> dict:
    """(side, variant) -> a copy of that side's tree; variant 0 has a short
    name, variant 1 a long one."""
    out = {}
    for side, tree in trees.items():
        for variant, name in enumerate((side[0], f"{side}_checkout_with_a_longer_name")):
            out[side, variant] = root / name
            shutil.copytree(tree, out[side, variant], ignore=IGNORE)
    return out


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one benchmark run in ``tree``, by name."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: run.py exited {proc.returncode}")
    result = json.loads(lines[-1])
    if result["failed"]:
        raise SystemExit(f"{tree}: {result['failed']} of {result['attempted']} tasks failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list) -> tuple:
    """(q1, median, q3) of ``values``; one value is counted twice, since
    statistics.quantiles needs two."""
    return tuple(statistics.quantiles(values * (2 if len(values) == 1 else 1), n=4))


def verdict(parent: list, change: list, bound=None) -> str:
    """How the change's runs of a lower-is-better metric compare with the
    parent's, pair i against pair i, given the metric's relative ``bound``
    (None when it has none):

    - "gain": the change is lower in at least 9 of 10 pairs, and the
      medians differ by more than the parent's IQR;
    - "worse": the change's median exceeds the parent's by more than
      ``bound`` times the parent's;
    - "unresolved": the parent's IQR is wider than ``bound`` times its
      median;
    - "no worse": otherwise.
    """
    q1, median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    lower = sum(b < a for a, b in zip(parent, change))
    if 10 * lower >= 9 * len(parent) and median - change_median > q3 - q1:
        return "gain"
    if bound is not None and change_median > median * (1 + bound):
        return "worse"
    if bound is not None and q3 - q1 > bound * median:
        return "unresolved"
    return "no worse"


def summary(runs: dict, pairs: int, bounds=None) -> dict:
    """Print the median, quartiles and pairs won per side, and the
    :func:`verdict`, for each metric; ``bounds`` maps a metric to its
    relative bound.  Returns the same figures by metric, as {"parent":
    {"median", "iqr", "won"}, "change": {...}, "verdict"}."""
    figures = {}
    for metric in runs["parent"][0]:
        print(f"{metric}:")
        values = {side: [r[metric] for r in runs[side]] for side in SIDES}
        wins = {side: 0 for side in SIDES}
        for a, b in zip(values["parent"], values["change"]):
            if a != b:
                wins["parent" if a < b else "change"] += 1
        figures[metric] = {}
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            print(f"  {side:6s} median {median:.6g}  quartiles {q1:.6g} .. {q3:.6g}  "
                  f"IQR {q3 - q1:.3g}  lower in {wins[side]} of {pairs} pairs")
            figures[metric][side] = {"median": median, "iqr": q3 - q1, "won": wins[side]}
        parent, change = statistics.median(values["parent"]), statistics.median(values["change"])
        print(f"  change / parent median {change / parent:.4f}")
        bound = (bounds or {}).get(metric)
        figures[metric]["verdict"] = verdict(values["parent"], values["change"], bound)
        print(f"  verdict: {figures[metric]['verdict']}")
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, help="one name, or several joined by commas")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair i uses SEED+i")
    parser.add_argument("--keep", action="store_true", help="keep the copies")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")

    declared = args.change / "BENCHMARK.json"
    bounds = {}
    if declared.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(declared.read_text())["end_to_end"]}
    root = Path(tempfile.mkdtemp(prefix="pair_runs_"))
    try:
        trees = copies({"parent": args.parent, "change": args.change}, root)
        for workload in args.workload.split(","):
            runs = {side: [] for side in SIDES}
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    tree = trees[side, i % 2]
                    metrics = run_once(tree, workload, args.seed + i, args.seconds)
                    runs[side].append(metrics)
                    shown = "  ".join(f"{k}={v:.6g}" for k, v in metrics.items())
                    print(f"{workload} pair {i} seed {args.seed + i} {side:6s} {tree.name}: "
                          f"{shown}", flush=True)
            print(f"== {workload}, {args.pairs} pairs")
            figures = summary(runs, args.pairs, bounds)
            line = {"workload": workload, "pairs": args.pairs, "metrics": figures}
            print(json.dumps(line), flush=True)
    finally:
        if args.keep:
            print(f"copies kept under {root}")
        else:
            shutil.rmtree(root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
