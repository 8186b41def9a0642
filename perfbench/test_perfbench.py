"""Self-tests of the benchmark at tiny scale.

    PYTHONPATH=src python -m pytest -q perfbench

They show that every gate check can fail, that the tracer survives a
missing wrap target and restores the program's functions, and that the
benchmark refuses to run without the program's sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
from rampagg import RunConfig, protocol  # noqa: E402
from rampagg.privacy import PrivacyCase  # noqa: E402

# K=3 divides L=9 and one slot drops: loads (K+T)/K = 5/3, (K+T+D)/K = 2.
TINY = RunConfig(
    n_users=12, t_max=2, d_max=1, k_parts=3, model_len=9, entry_bound=8,
    dropped=(2,), master_seed=7,
)
TINY_LOADS = (Fraction(5, 3), Fraction(2))
TINY_CASES = (
    PrivacyCase(n_users=4, t_max=1, d_max=0, k_parts=1, prime=5, adversaries=(1,)),
    PrivacyCase(n_users=4, t_max=1, d_max=0, k_parts=1, prime=5, adversaries=(1,),
                noise_mode="constant"),
)


@pytest.fixture(scope="module")
def tiny_round():
    out = bench.run_round(TINY)
    return json.loads(out.report_json), out.transcript_csv.count("\n") - 1


@pytest.fixture(scope="module")
def tiny_privacy():
    return bench.run_privacy(TINY_CASES)


def test_gate_passes_correct_round(tiny_round):
    report, rows = tiny_round
    assert bench.check_round(TINY, report, rows, TINY_LOADS) == []


@pytest.mark.parametrize(
    "tamper, expect",
    [
        (lambda r: r["aggregate"].__setitem__(0, r["aggregate"][0] + 1), "aggregate"),
        (lambda r: r["included_users"].append(2), "included_users"),
        (lambda r: r.__setitem__("total_edges", r["total_edges"] - 1), "total_edges"),
        (lambda r: r.__setitem__("r_server", "2"), "loads"),
        (lambda r: r["phase_counts"]["inter"].__setitem__("messages", 0), "transcript.csv"),
    ],
)
def test_gate_catches_tampered_round(tiny_round, tamper, expect):
    report, rows = tiny_round
    report = json.loads(json.dumps(report))
    tamper(report)
    failures = bench.check_round(TINY, report, rows, TINY_LOADS)
    assert len(failures) == 1 and expect in failures[0]


def test_gate_catches_wrong_expected_load(tiny_round):
    report, rows = tiny_round
    failures = bench.check_round(TINY, report, rows, bench.ROUND_WIDE_LOADS)
    assert len(failures) == 1 and "loads" in failures[0]


def test_gate_includes_between_rounds_dropouts():
    config = TINY.replace(dropout_timing="between_rounds")
    assert bench.included_users(config) == list(range(12))
    assert bench.gate_round(config, bench.run_round(config)) == []


def test_gate_passes_correct_privacy(tiny_privacy):
    assert bench.check_privacy(TINY_CASES, tiny_privacy) == []


@pytest.mark.parametrize(
    "flip, expect",
    [
        (lambda o: dataclasses.replace(
            o, uniform=dataclasses.replace(o.uniform, exact_zero=False, mi_bits=0.5)),
         "uniform"),
        (lambda o: dataclasses.replace(
            o, control=dataclasses.replace(o.control, exact_zero=True, mi_bits=0.0)),
         "control"),
        (lambda o: dataclasses.replace(
            o, uniform=dataclasses.replace(o.uniform, n_noise_assignments=1)),
         "points"),
        (lambda o: dataclasses.replace(
            o, control=dataclasses.replace(o.control, n_cells=o.control.n_cells - 1)),
         "cells"),
    ],
)
def test_gate_catches_flipped_verdict(tiny_privacy, flip, expect):
    failures = bench.check_privacy(TINY_CASES, flip(tiny_privacy))
    assert len(failures) == 1 and expect in failures[0]


def test_gate_pins_control_leakage(tiny_privacy):
    control_mi = tiny_privacy.control.mi_bits
    assert bench.check_privacy(TINY_CASES, tiny_privacy, control_mi) == []
    failures = bench.check_privacy(TINY_CASES, tiny_privacy, control_mi + 0.01)
    assert len(failures) == 1 and "mi_bits" in failures[0]


def test_case_points_and_cells_formulas():
    uniform, control = bench.privacy_cases(1, 0)
    assert bench.case_points(uniform) == 1024 * 3125
    assert bench.case_points(control) == 1024
    # Five honest users with entries 0 or 1: each coordinate sums to 0..5,
    # and 5 = 0 mod 5.
    assert bench.case_cells(uniform) == bench.case_cells(control) == 5 * 5


def test_seed_fixes_inputs():
    assert bench.round_wide_config(3, 5) == bench.round_wide_config(3, 5)
    assert bench.round_wide_config(3, 5) != bench.round_wide_config(4, 5)
    assert bench.sweep_deep_config(3, 0).k_parts == bench.sweep_deep_config(3, 6).k_parts


def test_missing_wrap_target_is_reported_not_fatal():
    original = protocol.share_at
    tracer = tracing.Tracer(
        wraps=[
            ("rampagg.protocol", "no_such_function", "gone.fn", None),
            ("rampagg.no_such_module", "fn", "gone.module", None),
            ("rampagg.protocol", "Transcript.no_such_method", "gone.method", None),
            ("rampagg.protocol", "share_at", "sharing.share_at", None),
        ]
    )
    assert tracer.absent == [
        "rampagg.protocol:no_such_function",
        "rampagg.no_such_module:fn",
        "rampagg.protocol:Transcript.no_such_method",
    ]
    tracer.begin_task(0)
    assert protocol.share_at is not original
    bench.run_round(TINY)
    tracer.end_task(1.0)
    assert protocol.share_at is original
    metrics = tracer.summary([0])
    assert metrics["sharing.share_at.calls"] == 11 * 6
    assert metrics["protocol.intra_round.self_s"] == 0.0


def test_traced_self_times_account_for_task():
    tracer = tracing.Tracer()
    originals = {(o, a): v for o, a, v, _, _ in tracer._targets}
    tracer.begin_task(0)
    t0 = time.perf_counter()
    bench.run_round(TINY)
    tracer.end_task(time.perf_counter() - t0)
    for (owner, attr), value in originals.items():
        assert getattr(owner, attr) is value
    metrics = tracer.summary([0])
    duration, own = tracer.self_times()
    _, parent, *_ = tracer._arrays()
    assert (own >= 0).all()
    assert own.sum() == pytest.approx(duration[parent < 0].sum())
    assert metrics["_accounted_s"] + metrics["_hook_s"] <= metrics["_task_s"]
    assert metrics["sharing.mul_adds"] == 11 * 6 * 3 * 5
    assert metrics["protocol.transcript.records"] == sum(
        b["messages"] for b in json.loads(bench.run_round(TINY).report_json)["phase_counts"].values()
    )
    assert tracer.absent == [] and tracer.hook_errors == []


def test_count_hook_is_not_charged_to_its_caller():
    def slow_hook(*args):
        time.sleep(0.05)
        return {"sharing.mul_adds": 1}

    tracer = tracing.Tracer(
        wraps=[
            ("rampagg.harness", "simulate", "harness.simulate", None),
            ("rampagg.harness", "run_protocol", "protocol.run_protocol", slow_hook),
        ]
    )
    tracer.begin_task(0)
    t0 = time.perf_counter()
    bench.run_round(TINY)
    tracer.end_task(time.perf_counter() - t0)
    metrics = tracer.summary([0])
    assert metrics["_hook_s"] >= 0.05
    assert metrics["harness.simulate.self_s"] < 0.05
    assert metrics["sharing.mul_adds"] == 1 and metrics["_spans"] == 2


@pytest.mark.parametrize("loop", sorted(hostspeed.LOOPS))
def test_reference_loops_are_fixed_work(loop):
    run, _ = hostspeed.LOOPS[loop]
    assert run() == run()
    assert 0 < hostspeed.time_reference(loop, passes=2) < 30


def test_every_workload_names_a_reference_loop():
    assert {w.reference for w in bench.WORKLOADS.values()} <= set(hostspeed.LOOPS)


def test_span_cost_is_small_and_positive():
    assert 0 < tracing.span_cost(calls=2000, repeats=3) < 1e-3


def test_crashing_task_counts_as_failed():
    def boom(_):
        raise RuntimeError("boom")

    workload = dataclasses.replace(bench.WORKLOADS["sweep-deep"], run=boom)
    samples = bench.measure(workload, seed=1, seconds=0)
    assert len(samples) == workload.cycle
    assert all(s.seconds is None and "boom" in s.failures[0] for s in samples)


def test_traced_measure_alternates_whole_cycles():
    workload = dataclasses.replace(
        bench.WORKLOADS["round-wide"], make=lambda seed, i: TINY.replace(master_seed=i),
        gate=lambda c, out: bench.gate_round(c, out, TINY_LOADS),
    )
    tracer = tracing.Tracer()
    samples = bench.measure(workload, seed=1, seconds=0, tracer=tracer)
    assert [s.traced for s in samples] == [True, False]
    assert all(not s.failures for s in samples)
    layer = bench.per_layer(samples, tracer, workload.cycle, span_cost=1e-6)
    assert set(bench.PER_LAYER_UNITS) <= set(layer)
    assert layer["trace.overhead_s"] == pytest.approx(layer["_spans"] * 1e-6 + layer["_hook_s"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "round-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_end_to_end_scales_each_task_by_host_speed():
    workload = dataclasses.replace(bench.WORKLOADS["round-wide"], cycle=2)
    _, reference = hostspeed.LOOPS[workload.reference]

    def sample(index, seconds, failures=(), reference_s=2 * reference):
        return bench.Sample(index, False, seconds, 10, list(failures), {}, reference_s)

    samples = [sample(0, 2.0), sample(1, 2.0), sample(2, 0.5), sample(3, 0.5, ["bad"]),
               sample(4, 1.0, reference_s=4 * reference), sample(5, None, ["raised"]),
               sample(6, 1.5), sample(7, 1.5)]
    metrics = bench.end_to_end(samples, [0.3, 0.1, 0.2], workload)
    assert metrics["setup_s"] == 0.2
    # The reference loop took twice its reference time before every task but
    # task 4, where it took four times: each task time is divided by that.
    # Shape 0: 1.0, 0.25, 0.25, 0.75 (median 0.5); shape 1: only tasks 1 and
    # 7 passed, 1.0 and 0.75 (median 0.875).
    assert metrics["task_s.p50.norm"] == pytest.approx((0.5 + 0.875) / 2)
    assert bench.per_shape(samples, cycle=2, stat=min) == (0.5 + 1.5) / 2
    assert bench.per_shape(samples[:1], cycle=2) == 0.0


def test_setup_probes_spread_over_the_window(monkeypatch):
    monkeypatch.setattr(hostspeed, "time_interpreter_start", lambda: 0.2)
    probe = bench.SetupProbe("sweep-deep", seed=1, seconds=10, repeats=5)
    probe._once = lambda: 0.1
    probe.due(0)
    assert len(probe.times) == 1
    probe.due(4.9)
    assert len(probe.times) == 3
    probe.due(float("inf"))
    assert probe.times == [0.1] * 5
    # The reference interpreter ran in 0.2 s: the host ran at
    # INTERPRETER_START_S / 0.2 of the reference speed.
    assert probe.scaled() == pytest.approx([0.1 * hostspeed.INTERPRETER_START_S / 0.2] * 5)


def test_setup_probe_times_a_fresh_interpreter():
    probe = bench.SetupProbe("sweep-deep", seed=1, seconds=0, repeats=1)
    probe.due(0)
    assert len(probe.times) == 1 and 0 < probe.times[0] < 60
    assert 0 < probe.reference[0] < 60


def test_benchmark_json_names_the_reported_metrics_and_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
