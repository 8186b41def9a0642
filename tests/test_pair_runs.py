"""tools/pair_runs.py's summary of paired benchmark runs, on fixed numbers."""

import importlib.util
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
        "rss:",
        "  parent median 40  quartiles 40 .. 40.75  IQR 0.75  lower in 2 of 4 pairs",
        "  change median 40.5  quartiles 40 .. 41.75  IQR 1.75  lower in 0 of 4 pairs",
        "  change / parent median 1.0125",
    ]


def test_summary_of_one_pair(capsys):
    # statistics.quantiles needs two values: one run is counted twice
    pair_runs.summary({"parent": [{"x": 2.0}], "change": [{"x": 1.0}]}, 1)
    assert capsys.readouterr().out.splitlines() == [
        "x:",
        "  parent median 2  quartiles 2 .. 2  IQR 0  lower in 0 of 1 pairs",
        "  change median 1  quartiles 1 .. 1  IQR 0  lower in 1 of 1 pairs",
        "  change / parent median 0.5000",
    ]
