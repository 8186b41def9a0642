"""CLI behavior: subcommands, exit codes, env overrides, determinism."""

import csv
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rampagg import cli, harness, protocol
from rampagg.cli import main
from rampagg.protocol import Transcript
from rampagg.verify import CheckResult

from oracles import JSON_VALUES, ROOT, child_env

BASE_CONFIG = {
    "n_users": 12,
    "t_max": 2,
    "d_max": 1,
    "k_parts": 3,
    "model_len": 9,
    "entry_bound": 8,
    "dropped": [2],
    "master_seed": 2024,
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return path


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("RAMPAGG_SEED", raising=False)
    monkeypatch.delenv("RAMPAGG_OUT", raising=False)


# ---- run ----


def test_run_writes_report_and_transcript(tmp_path, config_file, capsys):
    out = tmp_path / "out"
    assert main(["run", str(config_file), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["r_server"] == "5/3"
    assert report["silent_edges"] == 7
    rows = list(csv.DictReader((out / "transcript.csv").open()))
    assert len(rows) == 66 + 5 + 6  # intra + inter + server
    stdout = capsys.readouterr().out
    assert "r_server=5/3" in stdout
    assert "edges=42" in stdout


def test_run_output_is_byte_identical(tmp_path, config_file):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(config_file), "--out", str(out_a)]) == 0
    assert main(["run", str(config_file), "--out", str(out_b)]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (
        out_a / "transcript.csv"
    ).read_bytes() == (out_b / "transcript.csv").read_bytes()


def test_run_rejects_unknown_field_with_exit_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**BASE_CONFIG, "shard_count": 4}))
    assert main(["run", str(path)]) == 2
    assert "shard_count" in capsys.readouterr().err


def test_run_rejects_invalid_partition_with_exit_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**BASE_CONFIG, "k_parts": 4}))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "params" in err and "divide" in err


def test_run_rejects_composite_prime_override(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**BASE_CONFIG, "prime_override": 91}))
    assert main(["run", str(path)]) == 2
    assert "prime_override" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value", [("entry_bound", 2**63 + 1), ("prime_override", 2**64 + 13)]
)
def test_run_rejects_bounds_above_int64_with_exit_2(tmp_path, capsys, field, value):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**BASE_CONFIG, "prime_override": 1009, field: value}))
    assert main(["run", str(path)]) == 2
    assert f"error: {field}: " in capsys.readouterr().err


def test_run_refuses_a_coefficient_array_past_numpys_limit(tmp_path, capsys):
    # (12, 5, ceil(10**18 / 3)) int64 entries: refused before anything is allocated
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**BASE_CONFIG, "model_len": 10**18}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "error: model_len: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _out_of_memory(*args):
    raise MemoryError


def test_run_turns_memory_error_into_exit_2(tmp_path, config_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "simulate", _out_of_memory)
    assert main(["run", str(config_file), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "n_users=12, model_len=9" in err
    # a row buffer of the whole round for models and one for noise, their
    # two sums, 6 server arrivals
    assert (
        "a (12, 9) row buffer of 8-bit model lanes, a (12, 2, 3) one of 8-bit noise "
        "lanes, a (3, 3) model sum, a (2, 3) noise sum and (6, 3) server arrivals "
        "(444 bytes)"
    ) in err


def test_run_turns_memory_error_while_writing_into_exit_2(
    tmp_path, config_file, monkeypatch, capsys
):
    # the transcript's text is made as it is written, so writing can run out too
    def out_of_memory(self, fp):
        raise MemoryError

    monkeypatch.setattr(Transcript, "to_csv", out_of_memory)
    assert main(["run", str(config_file), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "n_users=12, model_len=9" in err
    # a row buffer of the whole round for models and one for noise, their
    # two sums, 6 server arrivals
    assert (
        "a (12, 9) row buffer of 8-bit model lanes, a (12, 2, 3) one of 8-bit noise "
        "lanes, a (3, 3) model sum, a (2, 3) noise sum and (6, 3) server arrivals "
        "(444 bytes)"
    ) in err
    assert "Traceback" not in err


def test_sweep_turns_memory_error_into_exit_2(tmp_path, sweep_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "measure", _out_of_memory)
    assert main(["sweep", str(sweep_file), "--out", str(tmp_path / "out")]) == 2
    # a row runs no round: it holds only its message pattern
    err = capsys.readouterr().err
    assert "n_users=12: out of memory for a sweep row that holds the two (12,) masks" in err
    assert "Traceback" not in err


def test_run_refuses_formula_assertions_on_tiny_prime(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps(
            {**BASE_CONFIG, "prime_override": 1009, "assert_formula_loads": True}
        )
    )
    assert main(["run", str(path)]) == 2
    assert "non-conforming" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_users", "12"),
        ("dropped", 2),
        ("dropped", [2.0]),
        ("model_len", 9.0),
        ("delta_inter", "x"),
        ("adversaries", "ab"),
        ("tree_shape", {"0": "x", "1": "server"}),
        ("master_seed", True),
    ],
)
def test_run_rejects_ill_typed_field_with_exit_2(tmp_path, capsys, field, value):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**BASE_CONFIG, field: value}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "shape,needle",
    [
        # "1" and "01" name one group: neither parent may silently win
        ({"0": 3, "1": 3, "01": 2, "2": 3, "3": "server"}, "key '01' names group 1 again"),
        ({"0": 1, " 2": 3, "1": 3, "3": "server"}, "key ' 2' is not a group index"),
    ],
    ids=["colliding-keys", "key-not-an-index"],
)
def test_run_rejects_tree_shape_keys_naming_the_key(tmp_path, capsys, shape, needle):
    # four groups of 6
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**BASE_CONFIG, "n_users": 24, "tree_shape": shape}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"error: tree_shape: {needle}" in err
    assert "Traceback" not in err


def test_an_ill_typed_dropout_is_refused_after_its_integer_twin_ran(tmp_path, capsys):
    # 1.0 == 1, so a cache keyed on the config would hand back dropped=(1,)'s
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({**BASE_CONFIG, "dropped": [1]}))
    bad.write_text(json.dumps({**BASE_CONFIG, "dropped": [1.0]}))
    assert main(["run", str(good), "--out", str(tmp_path / "good")]) == 0
    capsys.readouterr()
    assert main(["run", str(bad), "--out", str(tmp_path / "bad")]) == 2
    assert "error: dropped: " in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_run_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_run_rejects_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


# ---- seed and output overrides ----


def _seed_of(out_dir) -> int:
    return json.loads((out_dir / "report.json").read_text())["config"]["master_seed"]


def test_seed_precedence_flag_over_env_over_file(
    tmp_path, config_file, monkeypatch
):
    out = tmp_path / "o1"
    main(["run", str(config_file), "--out", str(out)])
    assert _seed_of(out) == 2024  # file value

    monkeypatch.setenv("RAMPAGG_SEED", "7")
    out = tmp_path / "o2"
    main(["run", str(config_file), "--out", str(out)])
    assert _seed_of(out) == 7  # env beats file

    out = tmp_path / "o3"
    main(["run", str(config_file), "--out", str(out), "--seed", "99"])
    assert _seed_of(out) == 99  # flag beats env


def test_out_env_var(tmp_path, config_file, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("RAMPAGG_OUT", str(target))
    assert main(["run", str(config_file)]) == 0
    assert (target / "report.json").exists()


def test_bad_seed_env_is_a_config_error(tmp_path, config_file, monkeypatch, capsys):
    monkeypatch.setenv("RAMPAGG_SEED", "not-a-number")
    assert main(["run", str(config_file), "--out", str(tmp_path)]) == 2
    assert "RAMPAGG_SEED" in capsys.readouterr().err


# ---- sweep ----


@pytest.fixture
def sweep_file(tmp_path):
    spec = {
        "base": {**BASE_CONFIG, "k_parts": 9},
        "k_values": [1, 2, 3, 9],
        "out_csv": "sweep.csv",
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    return path


def test_sweep_rows_and_skips(tmp_path, sweep_file, capsys):
    out = tmp_path / "out"
    assert main(["sweep", str(sweep_file), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "skipping k_parts=2" in captured.err
    rows = list(csv.DictReader((out / "sweep.csv").open()))
    assert [r["k_parts"] for r in rows] == ["1", "3", "9"]
    assert "repetition" not in rows[0]
    by_k = {r["k_parts"]: r for r in rows}
    assert float(by_k["1"]["r_server"]) == 3.0
    assert float(by_k["3"]["r_server"]) == pytest.approx(5 / 3)
    assert float(by_k["9"]["r_server"]) == pytest.approx(11 / 9)
    assert [by_k[k]["edges"] for k in ("1", "3", "9")] == ["30", "42", "78"]
    assert float(by_k["1"]["r_user_max"]) == 4.0
    assert [by_k[k]["delay"] for k in ("1", "3", "9")] == ["4", "3", "2"]


def test_sweep_csv_is_byte_stable(tmp_path, sweep_file):
    out = tmp_path / "out"
    assert main(["sweep", str(sweep_file), "--out", str(out)]) == 0
    assert (out / "sweep.csv").read_bytes() == (
        b"k_parts,r_server,r_user_max,edges,delay\r\n"
        b"1,3.0,4.0,30,4\r\n"
        b"3,1.6666666666666667,2.0,42,3\r\n"
        b"9,1.2222222222222223,1.3333333333333333,78,2\r\n"
    )


def _refuse(*args, **kwargs):
    raise AssertionError("a round ran")


def test_sweep_and_formulas_run_no_round(tmp_path, sweep_file, monkeypatch, capsys):
    # their rows and checks are counted from the message pattern alone
    for module in protocol, harness:
        monkeypatch.setattr(module, "run_protocol", _refuse)
    for name in "write_blocks", "input_total":
        monkeypatch.setattr(protocol, name, _refuse)
    monkeypatch.setattr(protocol.UniformStream, "fill", _refuse)
    assert main(["sweep", str(sweep_file), "--out", str(tmp_path)]) == 0
    assert main(["verify", "formulas"]) == 0
    assert "all 4 checks passed" in capsys.readouterr().out


def test_sweep_has_no_jobs_option(tmp_path, sweep_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(sweep_file), "--out", str(tmp_path), "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_sweep_rejects_malformed_spec(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"base": BASE_CONFIG}))
    assert main(["sweep", str(path)]) == 2
    assert "k_values" in capsys.readouterr().err

    # one row per k_parts: repetitions are gone, and an unknown field
    path.write_text(
        json.dumps({"base": BASE_CONFIG, "k_values": [3], "repetitions": 2})
    )
    assert main(["sweep", str(path)]) == 2
    assert "unknown fields ['repetitions']" in capsys.readouterr().err

    path.write_text(
        json.dumps({"base": BASE_CONFIG, "k_values": "three"})
    )
    assert main(["sweep", str(path)]) == 2


@pytest.mark.parametrize(
    "command,spec,out,needle",
    [
        ("run", {"n_users": 12, "t_max": 2}, "out", "missing config field"),
        (  # the canonical prime, 2**63 + 29, exceeds the int64 noise draw
            "run",
            {**BASE_CONFIG, "n_users": 2, "t_max": 0, "d_max": 0, "k_parts": 2,
             "model_len": 2, "dropped": [], "entry_bound": 2**62 + 1},
            "out",
            "entry_bound",
        ),
        ("run", BASE_CONFIG, "a-file", "--out"),
        (  # each delay is finite, their total is not
            "run",
            {"n_users": 24, "t_max": 2, "d_max": 1, "k_parts": 9, "model_len": 9,
             "entry_bound": 8, "delta_inter": 1e308, "delta_intra": 1e308},
            "out",
            "delta_inter, delta_intra",
        ),
        ("sweep", {"base": {"n_users": 12}, "k_values": [3]}, "out", "missing config field"),
        ("sweep", {"base": BASE_CONFIG, "k_values": [3], "out_csv": "nope/sub/x.csv"},
         "out", "out_csv"),
        ("sweep", {"base": BASE_CONFIG, "k_values": [3], "out_csv": "."}, "out", "out_csv"),
    ],
    ids=[
        "run-missing-fields", "run-prime-above-int64", "run-out-is-a-file",
        "run-total-delay-not-finite",
        "sweep-base-missing-fields", "sweep-out-csv-no-dir", "sweep-out-csv-is-a-dir",
    ],
)
def test_bad_input_or_output_exits_2_naming_the_field(
    tmp_path, capsys, monkeypatch, command, spec, out, needle
):
    def task(*args):
        raise AssertionError("a sweep task ran on bad input")

    monkeypatch.setattr(cli, "_sweep_task", task)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(spec))
    (tmp_path / "a-file").write_text("")
    assert main([*command.split(), str(path), "--out", str(tmp_path / out)]) == 2
    assert f"error: {needle}" in capsys.readouterr().err


SWEEP_SPEC = {"base": BASE_CONFIG, "k_values": [1, 3], "out_csv": "s.csv"}


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(field=st.sampled_from(sorted(SWEEP_SPEC)), value=JSON_VALUES)
def test_any_json_value_in_any_sweep_field_exits_0_or_2(field, value):
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "sweep.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**SWEEP_SPEC, field: value}, fh)
        assert main(["sweep", path, "--out", out]) in (0, 2)


@pytest.mark.parametrize(
    "out,out_csv,needle",
    [("a-file", "s.csv", "--out"), ("out", "nope/s.csv", "out_csv")],
    ids=["out-is-a-file", "out-csv-no-dir"],
)
def test_sweep_checks_outputs_before_any_task_runs(
    tmp_path, capsys, monkeypatch, out, out_csv, needle
):
    def task(*args):
        raise AssertionError("a sweep task ran before the outputs were checked")

    monkeypatch.setattr(cli, "_sweep_task", task)
    (tmp_path / "a-file").write_text("")
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({**SWEEP_SPEC, "out_csv": out_csv}))
    assert main(["sweep", str(path), "--out", str(tmp_path / out)]) == 2
    assert f"error: {needle}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value,needle",
    [
        pytest.param("entry_bound", "x", "entry_bound: ", id="entry_bound-x"),
        pytest.param("master_seed", True, "master_seed: ", id="master_seed-True"),
        pytest.param("dropped", [99], "dropped: ", id="dropped-value2"),
        # make_params' faults that no k_parts mends
        pytest.param("d_max", -1, "params: t_max and d_max must be >= 0", id="d_max--1"),
        pytest.param("n_users", 0, "params: n_users must be >= 1", id="n_users-0"),
        pytest.param("model_len", 0, "params: model_len must be >= 1", id="model_len-0"),
        pytest.param("entry_bound", 1, "params: entry_bound must be >= 2", id="entry_bound-1"),
        pytest.param("t_max", 11, "params: t_max=11 must be < n_users - d_max", id="t_max-11"),
        # no partition count at all
        pytest.param("k_values", [], "sweep spec: k_values", id="k_values-empty"),
    ],
)
def test_sweep_refuses_a_base_no_k_can_mend(
    tmp_path, capsys, monkeypatch, field, value, needle
):
    def task(*args):
        raise AssertionError("a sweep task ran on an invalid base")

    monkeypatch.setattr(cli, "_sweep_task", task)
    path = tmp_path / "sweep.json"
    spec = {**SWEEP_SPEC, "base": {**BASE_CONFIG, field: value}, "k_values": [1, 3, 9]}
    if field == "k_values":
        spec = {**SWEEP_SPEC, "k_values": value}
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {needle}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_refuses_when_every_k_fails_for_its_own_reason(
    tmp_path, capsys, monkeypatch
):
    def task(*args):
        raise AssertionError("a sweep task ran with no valid k_parts")

    monkeypatch.setattr(cli, "_sweep_task", task)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({**SWEEP_SPEC, "k_values": [2, 5]}))
    assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 2
    # the first k's fault: group sizes 5 and 8 do not divide n_users=12
    err = capsys.readouterr().err
    assert "error: params: group size 5 does not divide n_users=12" in err
    assert not (tmp_path / "out").exists()


def test_sweep_has_no_seed_flag(tmp_path, sweep_file, capsys):
    # no column of sweep.csv depends on the seed, so there is none to set
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(sweep_file), "--out", str(tmp_path), "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


# ---- verify ----


def test_verify_prints_each_check_and_the_total(monkeypatch, capsys):
    monkeypatch.setattr(
        cli,
        "run_suite",
        lambda name: [
            CheckResult(f"{name}-a", True, "fine", 0.01),
            CheckResult(f"{name}-b", True, "also fine", 0.5),
        ],
    )
    assert main(["verify", "formulas"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS formulas-a (0.01s): fine",
        "PASS formulas-b (0.50s): also fine",
        "all 2 checks passed",
    ]


def test_verify_json_prints_the_checks_as_one_array(capsys):
    assert main(["verify", "privacy", "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)
    assert checks and all(
        sorted(check) == ["detail", "elapsed", "name", "passed"] and check["passed"] is True
        for check in checks
    )


def test_verify_json_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "run_suite", lambda name: [CheckResult("doomed", False, "synthetic", 0.25)]
    )
    assert main(["verify", "examples", "--json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == [
        {"name": "doomed", "passed": False, "detail": "synthetic", "elapsed": 0.25}
    ]
    assert "1 of 1" in captured.err


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "vibes"])
    assert exc.value.code == 2


def test_verify_failure_exits_1(monkeypatch, capsys):
    import rampagg.cli as cli

    monkeypatch.setattr(
        cli,
        "run_suite",
        lambda name: [CheckResult("doomed", False, "synthetic failure", 0.01)],
    )
    assert main(["verify", "examples"]) == 1
    captured = capsys.readouterr()
    assert "FAIL doomed" in captured.out
    assert "1 of 1" in captured.err


# ---- entry points ----


def test_installed_script_smoke(tmp_path, config_file):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "rampagg.cli", "run", str(config_file), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.json").exists()


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "rampagg", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: rampagg ")


def test_plain_pytest_finds_the_package_without_pythonpath():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--collect-only", "tests/test_field.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
