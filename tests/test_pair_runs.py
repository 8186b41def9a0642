"""tools/pair_runs.py's summary of paired benchmark runs, on fixed numbers."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pair_runs.py"
_SPEC = importlib.util.spec_from_file_location("pair_runs", _PATH)
pair_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pair_runs)


def test_summary_gives_medians_quartiles_and_pairs_won(capsys):
    # task_s, sorted: parent 2 3 4 5, change 1 2 3 6; the change is lower in
    # three pairs.  rss ties twice, and the parent is lower in the other two
    runs = {
        "parent": [{"task_s": 2.0, "rss": 40.0}, {"task_s": 4.0, "rss": 40.0},
                   {"task_s": 3.0, "rss": 41.0}, {"task_s": 5.0, "rss": 40.0}],
        "change": [{"task_s": 1.0, "rss": 40.0}, {"task_s": 3.0, "rss": 41.0},
                   {"task_s": 2.0, "rss": 42.0}, {"task_s": 6.0, "rss": 40.0}],
    }  # fmt: skip
    pair_runs.summary(runs, 4)
    assert capsys.readouterr().out.splitlines() == [
        "task_s:",
        "  parent median 3.5  quartiles 2.25 .. 4.75  IQR 2.5  lower in 1 of 4 pairs",
        "  change median 2.5  quartiles 1.25 .. 5.25  IQR 4  lower in 3 of 4 pairs",
        "  change / parent median 0.7143",
        "  verdict: no worse",
        "rss:",
        "  parent median 40  quartiles 40 .. 40.75  IQR 0.75  lower in 2 of 4 pairs",
        "  change median 40.5  quartiles 40 .. 41.75  IQR 1.75  lower in 0 of 4 pairs",
        "  change / parent median 1.0125",
        "  verdict: no worse",
    ]


def test_summary_of_one_pair(capsys):
    # statistics.quantiles needs two values: one run is counted twice
    pair_runs.summary({"parent": [{"x": 2.0}], "change": [{"x": 1.0}]}, 1)
    assert capsys.readouterr().out.splitlines() == [
        "x:",
        "  parent median 2  quartiles 2 .. 2  IQR 0  lower in 0 of 1 pairs",
        "  change median 1  quartiles 1 .. 1  IQR 0  lower in 1 of 1 pairs",
        "  change / parent median 0.5000",
        "  verdict: gain",
    ]


# ten pairs: the parent's median is 9, its quartiles 8 and 10, its IQR 2
PARENT = [8, 9, 10, 8, 9, 10, 8, 9, 10, 9]


def test_a_gain_is_lower_in_nine_of_ten_pairs_by_more_than_the_iqr():
    minus_3 = [v - 3 for v in PARENT]  # median 6: 3 below the parent's
    assert pair_runs.verdict(PARENT, minus_3, 0.25) == "gain"
    assert pair_runs.verdict(PARENT, [20] + minus_3[1:], 0.25) == "gain"  # 9 of 10
    # 8 of 10 lower, median 6.5
    assert pair_runs.verdict(PARENT, [20, 20] + minus_3[2:], 0.25) == "no worse"
    # lower in every pair, but the medians differ by the IQR, not more
    assert pair_runs.verdict(PARENT, [v - 2 for v in PARENT], 0.25) == "no worse"
    assert pair_runs.verdict(PARENT, minus_3, None) == "gain"


def test_worse_is_a_median_past_the_bound():
    # 9 * (1 + 0.25) = 11.25
    assert pair_runs.verdict(PARENT, [12] * 10, 0.25) == "worse"
    assert pair_runs.verdict(PARENT, [11.25] * 10, 0.25) == "no worse"
    assert pair_runs.verdict(PARENT, [100] * 10, None) == "no worse"


def test_unresolved_is_a_parent_iqr_wider_than_the_bound():
    # an IQR of 2 against 0.2 * 9 = 1.8 and 0.25 * 9 = 2.25
    assert pair_runs.verdict(PARENT, PARENT, 0.2) == "unresolved"
    assert pair_runs.verdict(PARENT, PARENT, 0.25) == "no worse"
    assert pair_runs.verdict(PARENT, [12] * 10, 0.2) == "worse"


def test_summary_takes_each_metric_bound_by_name(capsys):
    runs = {
        "parent": [{"a": v, "b": v} for v in PARENT],
        "change": [{"a": 12, "b": 12}] * 10,
    }
    pair_runs.summary(runs, 10, {"a": 0.25})
    verdicts = [line for line in capsys.readouterr().out.splitlines() if "verdict" in line]
    assert verdicts == ["  verdict: worse", "  verdict: no worse"]


def test_summary_returns_its_figures_by_metric(capsys):
    # quartiles of two runs, 2 and 4: 1.5 and 4.5, an IQR of 3, wider than
    # 0.25 of the median 3
    runs = {"parent": [{"x": 2.0}, {"x": 4.0}], "change": [{"x": 1.0}, {"x": 3.0}]}
    figures = pair_runs.summary(runs, 2, {"x": 0.25})
    capsys.readouterr()
    assert figures == {
        "x": {
            "parent": {"median": 3.0, "iqr": 3.0, "won": 0},
            "change": {"median": 2.0, "iqr": 3.0, "won": 2},
            "verdict": "unresolved",
        }
    }


def test_each_workload_ends_with_one_json_line(tmp_path, monkeypatch, capsys):
    # two workloads of three pairs; run_once hands out fixed metrics, the
    # change's task_s a tenth below the parent's in every pair
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "task_s", "bound": 0.2}]})
    )

    def run_once(tree, workload, seed, seconds):
        return {"task_s": 9.0 if tree.name.startswith("c") else 10.0, "rss": 40.0}

    monkeypatch.setattr(pair_runs, "run_once", run_once)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "a,b",
            "--pairs", "3", "--seed", "10"]  # fmt: skip
    assert pair_runs.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    ends = [i for i, line in enumerate(lines) if line.startswith("{")]
    assert [lines[i - 1] for i in ends] == ["  verdict: no worse"] * 2  # rss's
    assert ends[-1] == len(lines) - 1  # the output ends with the last one
    first, second = (json.loads(lines[i]) for i in ends)
    assert first["workload"] == "a" and second["workload"] == "b"
    assert first == {**second, "workload": "a"}
    assert first == {
        "workload": "a",
        "pairs": 3,
        "metrics": {
            "task_s": {
                "parent": {"median": 10.0, "iqr": 0.0, "won": 0},
                "change": {"median": 9.0, "iqr": 0.0, "won": 3},
                "verdict": "gain",
            },
            "rss": {
                "parent": {"median": 40.0, "iqr": 0.0, "won": 0},
                "change": {"median": 40.0, "iqr": 0.0, "won": 0},
                "verdict": "no worse",
            },
        },
    }
