"""Command-line entry point.

Subcommands:
    run <config.json>    simulate one configuration, write the JSON report
    sweep <sweep.json>   vary the partition count, write a CSV of load metrics,
                         each row counted from its round's message pattern
    verify <suite>       run a named verification suite (--json: the checks
                         as one JSON array on stdout)

Exit codes: 0 success, 1 verification failure, 2 invalid configuration.

``--seed`` (``run`` only) and ``--out`` override the ``RAMPAGG_SEED`` /
``RAMPAGG_OUT`` environment variables, which in turn override values from
the config file.  ``sweep`` takes no seed: none of its columns depends on it.
"""

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from contextlib import contextmanager

from .errors import ConfigInvalid, RampAggError, TooManyDropouts
from .harness import RunConfig, measure, simulate
from .protocol import lane_bits, sum_rows
from .verify import SUITES, run_suite

ENV_SEED = "RAMPAGG_SEED"
ENV_OUT = "RAMPAGG_OUT"


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config file: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigInvalid("config file: top level must be a JSON object")
    return data


def _resolve_seed(flag_seed, config_seed: int) -> int:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigInvalid(f"{ENV_SEED}: not an integer: {env!r}") from None
    return config_seed


def _resolve_out(flag_out) -> str:
    if flag_out is not None:
        return flag_out
    return os.environ.get(ENV_OUT, ".")


@contextmanager
def _unwritable(name: str):
    """Turn a failure to create or write an output into ConfigInvalid
    naming the option or field that chose the path."""
    try:
        yield
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigInvalid(f"{name}: cannot write output: {exc}") from exc


@contextmanager
def _in_memory(config: RunConfig, row: bool = False):
    """Turn a MemoryError while ``config`` runs or its outputs are written
    into ConfigInvalid naming the fields that size what it holds: a round
    its two row buffers of drawn users, models and noise each in its own
    lane width, their two sums, the (K, S) model sum and the (T, S) noise
    sum, and the last group's arrivals at the server; a sweep ``row`` only
    the two (N,) masks of its message pattern."""
    try:
        yield
    except MemoryError:
        if row:
            raise ConfigInvalid(
                f"n_users={config.n_users}: out of memory for a sweep row that holds "
                f"the two ({config.n_users},) masks of its message pattern"
            ) from None
        params, _, ctx = config.resolve()
        rows, seg_len = sum_rows(params, ctx.p), params.seg_len
        lanes = lane_bits(params.entry_bound), lane_bits(ctx.p)
        buffers = (rows, params.model_len), (rows, params.t_max, seg_len)
        shapes = (params.k_parts, seg_len), (params.t_max, seg_len), (params.group_size, seg_len)
        nbytes = sum(math.prod(shape) * bits // 8 for shape, bits in zip(buffers, lanes))
        nbytes += 8 * sum(map(math.prod, shapes))
        raise ConfigInvalid(
            f"n_users={config.n_users}, model_len={config.model_len}: out of memory "
            f"for a round that holds a {buffers[0]} row buffer of {lanes[0]}-bit model "
            f"lanes, a {buffers[1]} one of {lanes[1]}-bit noise lanes, a {shapes[0]} "
            f"model sum, a {shapes[1]} noise sum and {shapes[2]} server arrivals "
            f"({nbytes} bytes)"
        ) from None


def _print_summary(report) -> None:
    loads = report.loads
    print(f"users={report.config.n_users} prime={report.prime}")
    print(f"aggregate length={len(report.aggregate)}")
    print(f"r_server={loads.r_server} ({float(loads.r_server):.6g} of model length)")
    print(f"r_user_max={loads.r_user_max} r_user_avg={loads.r_user_avg}")
    print(
        f"edges={report.total_edges} silent={report.silent_edges} "
        f"delay={report.delay}"
    )


def cmd_run(args) -> int:
    data = _load_json(args.config)
    config = RunConfig.from_dict(data)
    config = config.replace(master_seed=_resolve_seed(args.seed, config.master_seed))
    out_dir = _resolve_out(args.out)
    report_path = os.path.join(out_dir, "report.json")
    transcript_path = os.path.join(out_dir, "transcript.csv")
    # writing allocates too: the transcript's text is made as it is written
    with _in_memory(config):
        report, result = simulate(config)
        with _unwritable("--out"):
            os.makedirs(out_dir, exist_ok=True)
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
            with open(transcript_path, "w", encoding="utf-8", newline="") as fh:
                result.transcript.to_csv(fh)
    _print_summary(report)
    print(f"report: {report_path}")
    print(f"transcript: {transcript_path}")
    return 0


def _sweep_task(config: RunConfig, resolved: tuple):
    """One row of the sweep: a round's loads, edges and delay depend on its
    message pattern alone, not on the seed, so no round runs."""
    with _in_memory(config, row=True):
        report = measure(config, resolved)
    return {
        "k_parts": config.k_parts,
        "r_server": float(report.loads.r_server),
        "r_user_max": float(report.loads.r_user_max),
        "edges": report.total_edges,
        "delay": report.delay,
    }


def cmd_sweep(args) -> int:
    data = _load_json(args.sweep)
    for key in ("base", "k_values"):
        if key not in data:
            raise ConfigInvalid(f"sweep spec: missing field {key!r}")
    unknown = set(data) - {"base", "k_values", "out_csv"}
    if unknown:
        raise ConfigInvalid(f"sweep spec: unknown fields {sorted(unknown)}")
    base = RunConfig.from_dict(data["base"])
    k_values = data["k_values"]
    if not isinstance(k_values, list) or not all(
        isinstance(k, int) and not isinstance(k, bool) for k in k_values
    ):
        raise ConfigInvalid("sweep spec: k_values must be a list of integers")
    if not k_values:
        raise ConfigInvalid("sweep spec: k_values must name at least one partition count")
    out_csv = data.get("out_csv", "sweep.csv")
    if not isinstance(out_csv, str) or not out_csv:
        raise ConfigInvalid("sweep spec: out_csv must be a non-empty path")

    runs, skipped = [], []
    for k in k_values:
        run = base.replace(k_parts=k)
        try:
            runs.append((run, run.resolve()))
        except ConfigInvalid as exc:
            skipped.append((k, exc))
    if not runs:  # no k_parts mends the base: fail with the first k's fault
        raise skipped[0][1]
    for k, exc in skipped:
        print(f"skipping k_parts={k}: {exc}", file=sys.stderr)

    out_dir = _resolve_out(args.out)
    path = out_csv if os.path.isabs(out_csv) else os.path.join(out_dir, out_csv)
    # create and open the output first, so a bad path fails before any task runs
    with _unwritable("--out"):
        os.makedirs(out_dir, exist_ok=True)
    with _unwritable("out_csv"):
        fh = open(path, "w", encoding="utf-8", newline="")
    with fh:
        rows = [_sweep_task(run, resolved) for run, resolved in runs]
        fields = ["k_parts", "r_server", "r_user_max", "edges", "delay"]
        with _unwritable("out_csv"):
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
    print(f"{len(rows)} rows -> {path}")
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failures = sum(not check.passed for check in results)
    if args.json:
        print(json.dumps([dataclasses.asdict(check) for check in results]))
    else:
        for check in results:
            status = "PASS" if check.passed else "FAIL"
            print(f"{status} {check.name} ({check.elapsed:.2f}s): {check.detail}")
    if failures:
        print(f"{failures} of {len(results)} checks failed", file=sys.stderr)
    elif not args.json:
        print(f"all {len(results)} checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rampagg",
        description="Grouped secret-sharing aggregation simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one configuration")
    p_run.add_argument("config", help="path to a RunConfig JSON file")
    p_run.add_argument("--seed", type=int, help="override the master seed")
    p_run.add_argument("--out", help="output directory (default: current)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep partition counts")
    p_sweep.add_argument("sweep", help="path to a sweep spec JSON file")
    p_sweep.add_argument("--out", help="output directory (default: current)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument(
        "--json",
        action="store_true",
        help="print the checks (name, passed, detail, elapsed) as one JSON array",
    )
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooManyDropouts as exc:
        print(f"error: unrecoverable dropout pattern: {exc}", file=sys.stderr)
        return 2
    except RampAggError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
