"""Workloads, output gate and metrics of the rampagg benchmark.

Each workload is a stream of tasks made from the benchmark seed.  A round
task is ``simulate(config)``, then ``report.to_json()``, then
``transcript.to_csv()`` into memory: the ``rampagg run`` path without the
disk writes.  A privacy task is one exhaustive uniform-noise case followed by
its constant-noise negative control.  Only the task itself is timed; the
output gate that checks it runs outside the timer.
"""

import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import rampagg
from rampagg import harness, privacy
from rampagg.harness import RunConfig
from rampagg.privacy import NOISE_CONSTANT, PrivacyCase

import hostspeed
import tracing

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 9

# name, unit: the end-to-end metrics of an untraced run.
END_TO_END_UNITS = {
    "setup_s": "s",
    "task_s.p50.norm": "s",
    "peak_rss_mb": "MB",
}

# name, unit: the per-layer metrics of a traced run.
PER_LAYER_UNITS = {
    **{m: "s" for m in tracing.LAYER_TIMES},
    **{m: "count" for m in tracing.LAYER_CALLS},
    **{m: "count" for m in tracing.PROTOCOL_COUNTS},
    "trace.overhead_s": "s",
}


def task_seed(seed: int, workload: str, index: int) -> int:
    """The master seed of task ``index``: a fresh 63-bit value per task."""
    digest = hashlib.sha256(f"{seed}:{workload}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---- rounds -----------------------------------------------------------------


@dataclass
class RoundOutput:
    report_json: str
    transcript_csv: str


def run_round(config: RunConfig) -> RoundOutput:
    report, result = harness.simulate(config)
    report_json = report.to_json()
    buf = io.StringIO()
    result.transcript.to_csv(buf)
    return RoundOutput(report_json, buf.getvalue())


def included_users(config: RunConfig) -> list[int]:
    """Users whose model is in the sum: all but the ``pre_intra`` dropouts."""
    pre = set(config.dropped) if config.dropout_timing == "pre_intra" else set()
    return [u for u in range(config.n_users) if u not in pre]


def check_round(config: RunConfig, report: dict, csv_rows: int, loads=None) -> list[str]:
    """Output gate of one round.  ``report`` is the parsed report.json and
    ``csv_rows`` the number of data rows of transcript.csv.  ``loads`` is the
    expected (r_server, r_user_max), or None where the closed forms do not
    apply.  Returns one message per failed check."""
    failures = []
    models = harness.generate_models(config)
    included = included_users(config)
    entries = np.array([m.entries for m in models], dtype=np.int64)
    expected = entries[included].sum(axis=0).tolist()
    if report["aggregate"] != expected:
        wrong = sum(a != b for a, b in zip(report["aggregate"], expected))
        failures.append(
            f"aggregate differs from the plain integer sum in {wrong} of "
            f"{len(expected)} entries"
        )
    if report["included_users"] != included:
        failures.append("included_users differs from the users not dropped pre_intra")
    size = config.k_parts + config.t_max + config.d_max
    edges = Fraction(config.n_users * (size + 1), 2)
    if report["total_edges"] != edges:
        failures.append(f"total_edges {report['total_edges']} != N(K+T+D+1)/2 = {edges}")
    if loads is not None:
        got = (Fraction(report["r_server"]), Fraction(report["r_user_max"]))
        if got != loads:
            failures.append(
                f"loads (r_server, r_user_max) = {tuple(map(str, got))}, "
                f"expected {tuple(map(str, loads))}"
            )
    messages = sum(bucket["messages"] for bucket in report["phase_counts"].values())
    if csv_rows != messages:
        failures.append(f"transcript.csv has {csv_rows} rows, phase_counts {messages}")
    return failures


def gate_round(config: RunConfig, out: RoundOutput, loads=None) -> list[str]:
    report = json.loads(out.report_json)
    csv_rows = out.transcript_csv.count("\n") - 1
    return check_round(config, report, csv_rows, loads)


def round_digests(out: RoundOutput) -> dict:
    return {
        "report_json": sha256(out.report_json),
        "transcript_csv": sha256(out.transcript_csv),
    }


def round_work(config: RunConfig) -> int:
    """Model entries aggregated: included users x model length."""
    return len(included_users(config)) * config.model_len


def round_wide_config(seed: int, index: int) -> RunConfig:
    return RunConfig(
        n_users=120, t_max=2, d_max=1, k_parts=9, model_len=999,
        entry_bound=256, tree_shape="chain", dropped=(2,),
        dropout_timing="pre_intra",
        master_seed=task_seed(seed, "round-wide", index),
    )


SWEEP = [(k, shape) for k in (1, 2, 4) for shape in ("chain", "star")]


def sweep_deep_config(seed: int, index: int) -> RunConfig:
    k, shape = SWEEP[index % len(SWEEP)]
    return RunConfig(
        n_users=2400, t_max=1, d_max=1, k_parts=k, model_len=12,
        entry_bound=256, tree_shape=shape, dropped=(1200,),
        dropout_timing="between_rounds",
        master_seed=task_seed(seed, "sweep-deep", index),
    )


# K divides L and one slot drops out: r_server = (K+T)/K, r_user_max = (K+T+D)/K.
ROUND_WIDE_LOADS = (Fraction(11, 9), Fraction(4, 3))


# ---- privacy ----------------------------------------------------------------


@dataclass
class PrivacyOutput:
    uniform: object
    control: object


def privacy_cases(seed: int, index: int) -> tuple[PrivacyCase, PrivacyCase]:
    """The 6-user, K=2, p=5 case with leaf colluder 0, and its control.

    The colluder's own model and noise symbols come from the seed; the
    guarantee holds for any value of them, and the work does not depend on
    them.
    """
    s = task_seed(seed, "privacy-exhaustive", index)
    uniform = PrivacyCase(
        n_users=6, t_max=1, d_max=0, k_parts=2, prime=5, adversaries=(0,),
        tree_shape="chain", model_bound=2,
        adversary_model_value=s % 5, adversary_noise_value=(s // 5) % 5,
    )
    return uniform, dataclasses.replace(uniform, noise_mode=NOISE_CONSTANT)


def run_privacy(cases) -> PrivacyOutput:
    uniform, control = cases
    return PrivacyOutput(
        privacy.privacy_bruteforce(uniform), privacy.privacy_bruteforce(control)
    )


def case_points(case: PrivacyCase) -> int:
    """Enumerated (model, noise) points: bound^(K*#honest) x p^(T*#honest)."""
    honest = case.n_users - len(set(case.adversaries) | set(case.dropped))
    bound = case.prime if case.model_bound is None else case.model_bound
    noise = case.prime ** (case.t_max * honest) if case.noise_mode != NOISE_CONSTANT else 1
    return bound ** (case.k_parts * honest) * noise


def case_cells(case: PrivacyCase) -> int:
    """Distinct honest-sum cells: each of the K coordinates of the honest
    sum takes every value from 0 to #honest x (bound-1), reduced mod p."""
    honest = case.n_users - len(set(case.adversaries) | set(case.dropped))
    bound = case.prime if case.model_bound is None else case.model_bound
    sums = {s % case.prime for s in range(honest * (bound - 1) + 1)}
    return len(sums) ** case.k_parts


# mi_bits of the privacy-exhaustive control, recorded from the program when
# the benchmark was defined; it is the same for all 25 colluder values.
CONTROL_MI_BITS = 2.6913986688405442


def check_privacy(cases, out: PrivacyOutput, control_mi=None) -> list[str]:
    """Output gate of one privacy task: the uniform case leaks exactly
    nothing, the control leaks (``control_mi`` bits, when given), and both
    enumerated every point and reached every honest-sum cell."""
    failures = []
    if not (out.uniform.exact_zero and out.uniform.mi_bits == 0):
        failures.append(f"uniform case not exact_zero (mi_bits={out.uniform.mi_bits})")
    if out.control.exact_zero or not out.control.mi_bits > 0:
        failures.append(
            f"control case shows no leakage (exact_zero={out.control.exact_zero}, "
            f"mi_bits={out.control.mi_bits})"
        )
    elif control_mi is not None and not math.isclose(out.control.mi_bits, control_mi, rel_tol=1e-9):
        failures.append(f"control case mi_bits {out.control.mi_bits}, expected {control_mi}")
    for case, result in zip(cases, (out.uniform, out.control)):
        if result.n_points != case_points(case):
            failures.append(
                f"{case.noise_mode} case enumerated {result.n_points} points, "
                f"expected {case_points(case)}"
            )
        if result.n_cells != case_cells(case):
            failures.append(
                f"{case.noise_mode} case reached {result.n_cells} honest-sum cells, "
                f"expected {case_cells(case)}"
            )
    return failures


def privacy_digests(out: PrivacyOutput) -> dict:
    return {
        name: sha256(json.dumps(dataclasses.asdict(r), sort_keys=True))
        for name, r in (("uniform", out.uniform), ("control", out.control))
    }


# ---- workloads --------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int  # tasks per full cycle of input shapes
    make: Callable  # (seed, index) -> task input
    prepare: Callable  # task input -> None: everything before the first task
    run: Callable  # task input -> output; the timed part
    gate: Callable  # (task input, output) -> failure messages
    digests: Callable  # output -> {name: sha256}
    work: Callable  # task input -> work units
    work_unit: str
    # The hostspeed loop that does the kind of work the tasks spend most
    # time on, and its passes before each task: more for long tasks, so the
    # reference covers enough of the host's speed phases.
    reference: str
    reference_passes: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "round-wide", 1, round_wide_config, RunConfig.resolve, run_round,
            lambda c, out: gate_round(c, out, ROUND_WIDE_LOADS), round_digests,
            round_work, "entries", "arithmetic",
        ),
        Workload(
            "sweep-deep", len(SWEEP), sweep_deep_config, RunConfig.resolve,
            run_round, gate_round, round_digests, round_work, "entries", "bookkeeping",
        ),
        Workload(
            "privacy-exhaustive", 1, privacy_cases, lambda cases: None,
            run_privacy, lambda cases, out: check_privacy(cases, out, CONTROL_MI_BITS),
            privacy_digests,
            lambda cases: sum(case_points(c) for c in cases), "points", "arrays", 2,
        ),
    )
}


def prepare(workload: Workload, seed: int):
    """Set-up up to the first task being ready; returns its input."""
    first = workload.make(seed, 0)
    workload.prepare(first)
    return first


# ---- measurement ------------------------------------------------------------


@dataclass
class Sample:
    index: int
    traced: bool
    seconds: float | None  # None when the task raised
    work: int
    failures: list
    digests: dict
    reference_s: float  # seconds per pass of the reference loop, just before


def measure(
    workload: Workload, seed: int, seconds: float, tracer=None, setup=None
) -> list[Sample]:
    """Run whole cycles of tasks until ``seconds`` of wall time have passed.

    With a tracer, cycles alternate traced and untraced, starting traced,
    and an even number of them (at least two) is run, so both halves hold
    the same mix of inputs.  A ``SetupProbe`` takes its timings between
    tasks, spread over the same window.
    """
    step = 2 if tracer is not None else 1
    samples = []
    start = time.perf_counter()
    index = 0
    while True:
        cycle, pos = divmod(index, workload.cycle)
        if (
            pos == 0
            and cycle >= step
            and cycle % step == 0
            and time.perf_counter() - start >= seconds
        ):
            break
        if setup is not None:
            setup.due(time.perf_counter() - start)
        traced = tracer is not None and cycle % 2 == 0
        reference_s = hostspeed.time_reference(workload.reference, workload.reference_passes)
        task = workload.make(seed, index)
        dt, out, failures = None, None, []
        if traced:
            tracer.begin_task(index)
        try:
            t0 = time.perf_counter()
            out = workload.run(task)
            dt = time.perf_counter() - t0
        except Exception as exc:  # a crashing task is a failed task, not a crashed benchmark
            failures = [f"raised {type(exc).__name__}: {exc}"]
        finally:
            if traced:
                tracer.end_task(dt)
        digests = {}
        if out is not None:
            digests = workload.digests(out)
            try:
                failures = workload.gate(task, out)
            except Exception as exc:  # output too malformed to check
                failures = [f"gate raised {type(exc).__name__}: {exc}"]
        del out
        samples.append(
            Sample(index, traced, dt, workload.work(task), failures, digests, reference_s)
        )
        index += 1
    if setup is not None:
        setup.due(float("inf"))
    return samples


class SetupProbe:
    """Seconds from starting a fresh interpreter to its first task being
    ready, timed ``repeats`` times at even intervals over a ``seconds``-long
    window, so the median sees the same host conditions as the tasks.  Just
    before each probe an interpreter that only imports numpy is run, as the
    host-speed reference for that probe.  Each process runs alone and is
    waited for."""

    def __init__(self, workload: str, seed: int, seconds: float, repeats: int = SETUP_REPEATS):
        self.cmd = [sys.executable, str(RUN_PY), "--workload", workload,
                    "--seed", str(seed), "--setup-probe"]
        self.interval = seconds / repeats
        self.repeats = repeats
        self.times: list[float] = []
        self.reference: list[float] = []  # hostspeed.time_interpreter_start() before each probe

    def due(self, elapsed: float) -> None:
        """Take every probe scheduled at or before ``elapsed`` seconds."""
        while len(self.times) < self.repeats and elapsed >= len(self.times) * self.interval:
            self.reference.append(hostspeed.time_interpreter_start())
            self.times.append(self._once())

    def scaled(self) -> list[float]:
        """Each probe's seconds at the host speed at which the reference
        interpreter runs in ``hostspeed.INTERPRETER_START_S``."""
        return [
            t * hostspeed.INTERPRETER_START_S / ref for t, ref in zip(self.times, self.reference)
        ]

    def _once(self) -> float:
        t0 = time.perf_counter()
        with subprocess.Popen(
            self.cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
        return elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def fastest_cycle(samples: list[Sample], cycle: int) -> list[Sample]:
    """The fastest whole cycle of checked tasks, or [] when none passed.
    The per-layer metrics summarise the spans of one such cycle, so that
    every input shape is in them once."""
    cycles = [samples[i : i + cycle] for i in range(0, len(samples), cycle)]
    clean = [
        c for c in cycles
        if len(c) == cycle and all(s.seconds is not None and not s.failures for s in c)
    ]
    return min(clean, key=lambda c: sum(s.seconds for s in c), default=[])


def per_shape(
    samples: list[Sample], cycle: int, stat=statistics.median, reference_s=None
) -> float:
    """``stat`` of the checked task times of each of the cycle's input
    shapes, averaged over the shapes; 0 when some shape has no checked task.
    With ``reference_s``, each task is measured in passes of the reference
    loop timed just before it, times ``reference_s``: seconds at the host
    speed at which a pass takes ``reference_s``."""
    times = [[] for _ in range(cycle)]
    for s in samples:
        if s.seconds is not None and not s.failures:
            scale = reference_s / s.reference_s if reference_s else 1.0
            times[s.index % cycle].append(s.seconds * scale)
    if not all(times):
        return 0.0
    return sum(stat(t) for t in times) / cycle


def end_to_end(samples: list[Sample], setup: list[float], workload: Workload) -> dict:
    _, reference_s = hostspeed.LOOPS[workload.reference]
    return {
        "setup_s": statistics.median(setup),
        "task_s.p50.norm": per_shape(samples, workload.cycle, reference_s=reference_s),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(samples: list[Sample], tracer, cycle: int, span_cost: float) -> dict:
    """Per-layer metrics of the fastest traced cycle, plus tracing overhead
    per task: spans x ``span_cost`` (the wrapper's measured cost per call)
    plus the time of the count hooks, which run in spans of their own."""
    traced = fastest_cycle([s for s in samples if s.traced], cycle)
    metrics = tracer.summary([s.index for s in traced])
    metrics["_untraced_task_s.min"] = per_shape([s for s in samples if not s.traced], cycle, min)
    metrics["_span_cost_s"] = span_cost
    metrics["trace.overhead_s"] = metrics["_spans"] * span_cost + metrics["_hook_s"]
    return metrics


# ---- environment ------------------------------------------------------------


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the program's sources, to tie results to code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rampagg": rampagg.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "thread_caps": {
            v: os.environ.get(v)
            for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


# ---- entry point ------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload in this process, print its metrics and write the
    full result under perfbench/out.  Returns the exit code."""
    workload = WORKLOADS[name]
    prepare(workload, seed)
    tracer = tracing.Tracer() if trace else None
    probe = None if trace else SetupProbe(name, seed, seconds)
    samples = measure(workload, seed, seconds, tracer, probe)
    setup = probe.scaled() if probe else []

    failed = [s for s in samples if s.failures]
    if trace:
        layer = per_layer(samples, tracer, workload.cycle, tracing.span_cost())
        reported = {m: layer[m] for m in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        reported = end_to_end(samples, setup, workload)
        units = END_TO_END_UNITS
    metrics = {m: {"value": v, "unit": units[m]} for m, v in reported.items()}
    task_s = per_shape(samples, workload.cycle)
    cycle_work = sum(workload.work(workload.make(seed, i)) for i in range(workload.cycle))
    work_per_s = cycle_work / (task_s * workload.cycle) if task_s else 0.0
    _, reference_s = hostspeed.LOOPS[workload.reference]
    scale = reference_s / statistics.median(s.reference_s for s in samples)

    env = environment(seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": name, "seconds": seconds, "trace": trace, "env": env,
        "setup_s": setup, "setup_s.wall": probe.times if probe else [],
        "metrics": metrics, "task_s.p50": task_s,
        "work_per_s": work_per_s, "host_speed": scale,
        "fail_ratio": len(failed) / len(samples),
        "samples": [dataclasses.asdict(s) for s in samples],
    }
    if trace:
        record["layer_detail"] = layer
        record["absent_wraps"] = tracer.absent
        record["hook_errors"] = tracer.hook_errors
        tracer.save(f"{stem}.spans.npz")
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"rampagg benchmark: workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "thread_caps"))
    for m, entry in metrics.items():
        print(f"  {m:40s} {entry['value']:>16.6g} {entry['unit']}")
    timed = [s.seconds for s in samples if s.seconds is not None]
    print(f"  {'tasks (samples)':40s} {len(samples):>16d}")
    if probe:
        print(f"  {'setup_s wall, not scaled (median)':40s} "
              f"{statistics.median(probe.times):>16.6g} s")
    print(f"  {'task_s.p50 (wall, not scaled)':40s} {task_s:>16.6g} s")
    print(f"  {'work per second at task_s.p50':40s} {work_per_s:>16.6g} {workload.work_unit}/s")
    print(f"  {'host speed (reference / median loop)':40s} {scale:>16.6g} "
          f"({workload.reference}: {reference_s} s / {reference_s / scale:.4f} s)")
    print(f"  {'fail_ratio':40s} {len(failed) / len(samples):>16.6g} ({len(failed)}/{len(samples)})")
    if timed:
        print(f"  {'task seconds min/median/max':40s} {min(timed):.4f} / "
              f"{statistics.median(timed):.4f} / {max(timed):.4f}")
    if trace:
        print(f"  task_s traced {layer['_task_s']:.4f} s = layer self times "
              f"{layer['_accounted_s']:.4f} s + count hooks {layer['_hook_s']:.4f} s + rest; "
              f"untraced task_s.min {layer['_untraced_task_s.min']:.4f} s")
        print(f"  tracing overhead {layer['trace.overhead_s']:.4f} s per task: "
              f"{layer['_spans']:.0f} spans x {layer['_span_cost_s'] * 1e6:.2f} us + count hooks")
        if tracer.absent:
            print("  absent wrap targets: " + ", ".join(tracer.absent))
        if tracer.hook_errors:
            print(f"  count hook errors: {len(tracer.hook_errors)} (first: {tracer.hook_errors[0]})")
    for s in failed:
        print(f"  FAILED task {s.index}: " + "; ".join(s.failures), file=sys.stderr)
    print(f"  full result: {stem.relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 1 if failed else 0

