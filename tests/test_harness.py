"""Config validation, load measurement, reporting, adversary views, oracle."""

import dataclasses
import gc
import inspect
import io
import json
import math
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampagg import field, harness, protocol
from rampagg.errors import ConfigInvalid, NonConformingField
from rampagg.harness import (
    SCHEMA_VERSION,
    RunConfig,
    RunReport,
    collect_adversary_view,
    correctness_oracle,
    generate_models,
    measure,
    plain_sum,
    simulate,
)
from rampagg.field import FieldContext, field_dtype
from rampagg.protocol import (
    BETWEEN_ROUNDS,
    PRE_INTRA,
    DropoutPlan,
    Transcript,
    draw_models,
    eval_point_for_slot,
    run_protocol,
)
from rampagg.sharing import evaluate
from rampagg.topology import build_tree, make_params

from oracles import JSON_VALUES, adversary_view_naive, child_env, rounds, view_from_blocks


def example1() -> RunConfig:
    return RunConfig(
        n_users=12, t_max=2, d_max=1, k_parts=9, model_len=9, entry_bound=8,
        dropped=(2,), master_seed=2024,
    )


def example2() -> RunConfig:
    return example1().replace(k_parts=3)


# ---- config (de)serialization and validation ----


def test_config_round_trips_through_dict():
    config = example2().replace(adversaries=(0, 6), delta_intra=2.5)
    assert RunConfig.from_dict(config.to_dict()) == config


def test_config_round_trips_explicit_tree():
    shape = {0: 2, 1: 2, 2: "server"}
    config = RunConfig(
        n_users=12, t_max=1, d_max=1, k_parts=2, model_len=4, entry_bound=8,
        tree_shape=shape,
    )
    # JSON stringifies dict keys; from_dict must bring them back as ints
    rehydrated = RunConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert rehydrated.tree_shape == shape
    rehydrated.resolve()


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigInvalid, match="group_count"):
        RunConfig.from_dict({"n_users": 4, "group_count": 2})


def test_config_rejects_missing_fields():
    with pytest.raises(ConfigInvalid, match="'d_max', 'k_parts', 'model_len', 'entry_bound'"):
        RunConfig.from_dict({"n_users": 12, "t_max": 2})


SMALL_CONFIG = {
    "n_users": 6, "t_max": 2, "d_max": 1, "k_parts": 3, "model_len": 3,
    "entry_bound": 8, "tree_shape": "chain", "dropped": [1],
    "dropout_timing": "pre_intra", "adversaries": [0], "master_seed": 7,
    "prime_override": None, "assert_formula_loads": False,
    "delta_inter": 1, "delta_intra": 1,
}

@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from(sorted(SMALL_CONFIG)),
    value=JSON_VALUES,
    missing=st.sets(st.sampled_from(sorted(SMALL_CONFIG)), max_size=3),
)
def test_any_json_value_in_any_field_runs_or_is_config_invalid(field, value, missing):
    raw = {**SMALL_CONFIG, field: value}
    for name in missing:
        raw.pop(name, None)
    raw = json.loads(json.dumps(raw))  # as read from a file
    try:
        simulate(RunConfig.from_dict(raw))
    except ConfigInvalid:
        pass


SINGLE_USER = dict(n_users=1, t_max=0, d_max=0, k_parts=1, dropped=())


@pytest.mark.parametrize(
    "changes,needle",
    [
        (dict(k_parts=4), "params"),
        (dict(tree_shape="ring"), "tree_shape"),
        (dict(dropped=(14,)), "dropped"),
        (dict(dropped=(1, 1)), "dropped"),
        (dict(dropped=(1, 3)), "dropped"),  # over d_max=1
        (dict(dropout_timing="mid_flight"), "dropout_timing"),
        (dict(adversaries=(0, 1, 5)), "adversaries"),  # over t_max=2
        (dict(adversaries=(-1,)), "adversaries"),
        (dict(delta_inter=-1), "delta_inter"),
        (dict(prime_override=91), "prime_override"),  # 7 * 13
        (dict(prime_override=11), "prime_override"),  # <= group size 12
        # models and noise are int64 draws
        (dict(entry_bound=2**63 + 1, prime_override=1009), "entry_bound"),
        (dict(prime_override=2**64 + 13), "prime_override"),
        # the canonical prime must fit the int64 noise draw, and no prime
        # lies in (N*(entry_bound-1), 2**63] once N*(entry_bound-1) >= 2**63-25
        (dict(entry_bound=2**60), "entry_bound"),
        (SINGLE_USER | dict(entry_bound=2**63 - 23), "entry_bound"),
        # each finite, their total not: report.json would hold Infinity; the
        # second has two chained groups, so its total is twice delta_inter
        (dict(delta_inter=1e308, delta_intra=1e308), "delta_inter, delta_intra"),
        (dict(k_parts=3, delta_inter=1.7e308, delta_intra=0), "delta_inter, delta_intra"),
    ],
)
def test_resolve_names_the_offending_field(changes, needle):
    config = example1().replace(**changes)
    with pytest.raises(ConfigInvalid, match=needle):
        config.resolve()


def test_resolve_picks_canonical_prime():
    params, tree, ctx = example1().resolve()
    assert ctx.p == 89  # smallest prime in (84, 168]
    assert ctx.conforming
    assert params.num_groups == 1
    assert tree.num_groups == 1


def test_second_resolve_selects_no_prime(monkeypatch):
    # the context is kept per (n_users, entry_bound): a repeat tests no
    # candidate, not even the prime it keeps
    calls, is_prime = [], field.is_prime

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(field, "is_prime", counted)
    config = example1().replace(entry_bound=10**6 + 7)
    field.select_prime.cache_clear()
    _, _, ctx = config.resolve()
    assert calls and calls[-1] == ctx.p
    calls.clear()
    assert config.resolve()[2] is ctx
    assert calls == []


def test_prime_override_tagged_non_conforming():
    config = example2().replace(prime_override=1009)
    _, _, ctx = config.resolve()
    assert ctx.p == 1009
    assert not ctx.conforming


def test_assert_formula_loads_refuses_non_conforming_prime():
    config = example2().replace(prime_override=1009, assert_formula_loads=True)
    with pytest.raises(NonConformingField):
        config.resolve()
    # NonConformingField is still a ConfigInvalid
    with pytest.raises(ConfigInvalid):
        config.resolve()


# ---- load measurement ----


def test_loads_single_group_example():
    config = example1()
    report, result = simulate(config)
    loads = report.loads
    assert loads.r_server == Fraction(11, 9)
    assert loads.r_user_max == Fraction(4, 3)
    assert loads.r_user_avg == Fraction(11, 9)  # 11 survivors * 12 symbols / 108
    assert loads.sent[2] == 0
    assert loads.sent[0] == 12  # 4/3 of the 9 entries


def test_loads_two_group_example():
    report, result = simulate(example2())
    loads = report.loads
    assert loads.r_server == Fraction(5, 3)
    assert loads.r_user_max == Fraction(2)
    assert loads.sent[2] == 0
    assert loads.sent[8] == 15  # 5/3 of 9; silenced: intra sends only
    assert report.total_edges == 78 - 36  # 42
    assert report.silent_edges == 7
    assert report.delay == 3  # two chained groups, unit deltas


def test_measure_loads_ignores_dropped_in_max():
    report, result = simulate(example1())
    loads = result.transcript.loads
    assert loads.r_user_max == Fraction(4, 3)
    # the dropped user sent nothing, and the average still counts it
    assert loads.sent[list(example1().dropped)].tolist() == [0]
    assert loads.r_user_avg == Fraction(int(loads.sent.sum()), 12 * 9)


def test_measure_loads_is_kept_per_transcript():
    # rounds of one pattern share one summary, so its counts are read-only
    report, result = simulate(example1())
    again, _ = simulate(example1())
    assert result.transcript.loads is result.transcript.loads
    assert result.transcript.loads is report.loads is again.loads
    with pytest.raises(ValueError, match="read-only"):
        report.loads.sent[0] = 99
    fresh = Transcript(result.params, result.tree, result.took_part, result.status)
    assert fresh.loads is not report.loads
    assert fresh.loads.sent.tolist() == report.loads.sent.tolist()


ROUND_WIDE = RunConfig(
    n_users=120, t_max=2, d_max=1, k_parts=9, model_len=999, entry_bound=256, dropped=(2,)
)


@pytest.mark.parametrize(
    "config",
    [
        ROUND_WIDE,
        ROUND_WIDE.replace(k_parts=3, model_len=999, assert_formula_loads=True),
        *(
            RunConfig(
                n_users=2400, t_max=2, d_max=1, k_parts=k, model_len=12, entry_bound=16,
                tree_shape=shape, dropped=(17,), dropout_timing="between_rounds",
            )
            for k, shape in ((1, "chain"), (2, "star"))
        ),
        RunConfig(
            n_users=24, t_max=2, d_max=2, k_parts=2, model_len=5, entry_bound=4,
            tree_shape={0: 3, 1: 3, 2: 3, 3: "server"}, dropped=(1, 9),
            dropout_timing="between_rounds",
        ),
    ],
    ids=["round-wide", "formula-loads", "sweep-deep-chain", "sweep-deep-star", "explicit-map"],
)
def test_measure_is_simulate_without_the_aggregate(monkeypatch, config):
    report, result = simulate(config)
    protocol.message_pattern.cache_clear()  # a pattern made anew, not the round's

    def refuse(*args, **kwargs):
        raise AssertionError("measure ran a round")

    for name in "write_blocks", "input_total":
        monkeypatch.setattr(protocol, name, refuse)
    monkeypatch.setattr(protocol.UniformStream, "fill", refuse)
    monkeypatch.setattr(harness, "run_protocol", refuse)
    counted = measure(config)
    assert counted.aggregate is None and report.aggregate is not None
    assert counted.loads is not report.loads
    for name in ("r_server", "r_user_max", "r_user_avg"):
        assert getattr(counted.loads, name) == getattr(report.loads, name)
    assert np.array_equal(counted.loads.sent, report.loads.sent)
    assert counted.transcript is not result.transcript
    assert np.array_equal(counted.transcript.included_users, result.transcript.included_users)
    for field in dataclasses.fields(RunReport):
        if field.name not in ("aggregate", "loads", "transcript"):
            assert getattr(counted, field.name) == getattr(report, field.name), field.name
    assert counted.included_users == report.included_users
    assert (counted.formula_check is not None) == config.assert_formula_loads
    assert json.loads(counted.to_json()) == {**json.loads(report.to_json()), "aggregate": None}


def test_a_transcript_lives_only_as_long_as_its_pattern_is_kept():
    # what a transcript makes is kept on it, and nowhere else, so clearing
    # the pattern cache frees it once its round is gone
    config = example2()
    protocol.message_pattern.cache_clear()
    report, result = simulate(config)
    result.transcript.to_csv(io.StringIO())
    assert measure(config).loads is report.loads
    kept = weakref.ref(result.transcript)
    del report, result
    gc.collect()
    assert kept() is not None  # the cache still holds it
    protocol.message_pattern.cache_clear()
    gc.collect()
    assert kept() is None


# ---- report ----


def test_report_json_is_deterministic():
    a, _ = simulate(example2())
    b, _ = simulate(example2())
    assert a.to_json() == b.to_json()


def test_mutating_phase_counts_leaves_the_next_report_unchanged():
    # the round's transcript is shared and keeps its counts; each caller
    # gets dicts of its own
    report, result = simulate(example2())
    text = report.to_json()
    report.phase_counts["intra"]["messages"] = -1
    result.transcript.phase_counts()["server"]["null"] = 99
    del result.transcript.phase_counts()["inter"]
    again, rerun = simulate(example2())
    assert rerun.transcript is result.transcript
    assert again.to_json() == text


def test_mutating_included_users_leaves_the_next_report_unchanged():
    # the round's included users are kept per transcript; each report
    # gets a list of its own
    report, result = simulate(example2())
    text = report.to_json()
    report.included_users[0] = -1
    report.included_users.append(99)
    again, rerun = simulate(example2())
    assert rerun.transcript is result.transcript
    assert again.included_users is not report.included_users
    assert again.to_json() == text


@pytest.mark.parametrize(
    "dropped,timing",
    [((), "pre_intra"), ((0,), "pre_intra"), ((119,), "pre_intra"), ((9, 10), "pre_intra"),
     ((9, 10), "between_rounds")],
    ids=["none", "first", "last", "adjacent", "between-rounds"],
)
def test_report_json_is_json_dumps_of_the_dict(dropped, timing):
    # 30 chained groups of 4: one- to three-digit users, and runs of
    # included users cut at either end, in the middle, or not at all
    config = RunConfig(
        n_users=120, t_max=1, d_max=2, k_parts=1, model_len=3, entry_bound=8,
        dropped=dropped, dropout_timing=timing, master_seed=11,
    )
    report, _ = simulate(config)
    included = [u for u in range(120) if u not in dropped or timing == "between_rounds"]
    assert report.included_users == included
    text = report.to_json()
    assert text == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    assert json.loads(text)["included_users"] == included


# four chained groups of 6, users 1 and 9 dropped: three runs of users
_SMALL = RunConfig(
    n_users=24, t_max=2, d_max=2, k_parts=2, model_len=5, entry_bound=4,
    dropped=(1, 9), master_seed=5,
)


def _first_encoding():
    protocol.message_pattern.cache_clear()
    report, result = simulate(_SMALL)
    assert "_kept_text" not in vars(result.transcript)
    yield report
    assert "_kept_text" in vars(result.transcript)


def _second_seed():
    first, result = simulate(_SMALL)
    yield first
    report, rerun = simulate(_SMALL.replace(master_seed=6))
    assert rerun.transcript is result.transcript and "_kept_text" in vars(rerun.transcript)
    yield report


def _measured():
    yield simulate(_SMALL)[0]
    report = measure(_SMALL)
    assert report.aggregate is None
    yield report


def _formula_loads():
    yield simulate(_SMALL)[0]
    # the same pattern, its kept text made for a report with no formula check
    yield simulate(_SMALL.replace(assert_formula_loads=True))[0]


def _between_rounds():
    yield simulate(_SMALL.replace(dropout_timing="between_rounds"))[0]


def _explicit_tree_shape():
    # a chain and a star, spelled as maps: group keys become strings
    yield simulate(_SMALL.replace(tree_shape={3: "server", 2: 3, 1: 2, 0: 1}))[0]
    yield simulate(_SMALL.replace(tree_shape={0: 3, 1: 3, 2: 3, 3: "server"}))[0]


def _changed_prime():
    report, _ = simulate(_SMALL)
    yield report
    report.prime = float(report.prime)  # equal, but json writes 73.0
    yield report


def _changed_phase_counts():
    report, _ = simulate(_SMALL)
    yield report
    report.phase_counts["server"]["null"] += 1
    yield report


def _changed_config():
    report, _ = simulate(_SMALL)
    yield report
    report.config = report.config.replace(delta_inter=1.0)  # equal, but json writes 1.0
    yield report
    report.config = report.config.replace(master_seed=2**64, adversaries=(3,))
    yield report


def _above_the_row_cap():
    # 2000 groups of 6: 84,000 rows, past protocol._CACHED_CSV_ROWS
    config = _SMALL.replace(n_users=12_000)
    report, result = simulate(config)
    yield report
    again, rerun = simulate(config.replace(master_seed=6))
    assert rerun.transcript is result.transcript
    yield again
    assert "_kept_text" not in vars(result.transcript)


@pytest.mark.parametrize(
    "case",
    [
        _first_encoding, _second_seed, _measured, _formula_loads, _between_rounds,
        _explicit_tree_shape, _changed_prime, _changed_phase_counts, _changed_config,
        _above_the_row_cap,
    ],
    ids=lambda case: case.__name__.strip("_").replace("_", "-"),
)
def test_report_json_splices_the_kept_text_byte_for_byte(case):
    # to_json joins the seed and the aggregate into text kept per pattern;
    # each report, encoded in turn, still writes exactly its own fields
    texts = []
    for report in case():
        text = report.to_json()
        assert text == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
        texts.append(text)
    assert len(set(texts)) == len(texts)


def test_measure_keeps_no_object_per_user():
    # paper shape, N = 200,004: a pattern keeps arrays of a few bytes per
    # user (masks, the int64 symbols sent, the tree), and once it is made a
    # config's report builds nothing per user; a tuple of ints would cost
    # about 36 bytes per user, a list of them 8
    config = RunConfig(
        n_users=200_004, t_max=2, d_max=1, k_parts=9, model_len=9, entry_bound=256,
        dropped=(5,),
    )
    protocol.message_pattern.cache_clear()
    tracemalloc.start()
    try:
        measure(config)
        kept = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = measure(config.replace(master_seed=1))
        peak = tracemalloc.get_traced_memory()[1] - kept
    finally:
        tracemalloc.stop()
    assert kept < 24 * config.n_users
    assert peak < 8 * config.n_users
    assert len(report.included_users) == config.n_users - 1


def test_report_dict_contents():
    report, _ = simulate(example2())
    data = report.to_dict()
    assert data["schema_version"] == SCHEMA_VERSION
    assert data["r_server"] == "5/3"
    assert data["r_user_max"] == "2"
    assert data["prime"] == 89
    assert data["conforming_field"] is True
    assert data["bits_per_symbol"] == 7
    assert data["total_edges"] == 42
    assert data["edges_formula"] == 42
    assert data["silent_edges"] == 7
    assert data["included_users"] == [0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11]
    assert data["config"]["k_parts"] == 3
    # bits columns: load times symbol width, cut-set reference alongside
    assert data["r_server_bits"] == pytest.approx(5 / 3 * 7)
    assert data["cutset_user_bits"] == 3.0  # log2(8)
    json.dumps(data)  # must be JSON-serializable as-is


def test_report_formula_check_at_design_point():
    report, _ = simulate(example2().replace(assert_formula_loads=True))
    check = report.formula_check
    assert check["at_design_point"] is True
    assert check["r_server_match"] is True
    assert check["r_user_max_match"] is True
    assert check["edges_match"] is True


def test_report_formula_check_off_design_point():
    report, _ = simulate(
        example2().replace(dropped=(), assert_formula_loads=True)
    )
    check = report.formula_check
    assert check["at_design_point"] is False
    assert check["r_server_match"] is None
    assert check["edges_match"] is True


def test_formula_check_absent_by_default():
    report, _ = simulate(example2())
    assert report.formula_check is None


# ---- models ----


def test_generate_models_deterministic_and_bounded():
    config = example2()
    models = generate_models(config)
    assert models == generate_models(config)
    assert len(models) == 12
    assert all(0 <= e < 8 for m in models for e in m.entries)
    assert models != generate_models(config.replace(master_seed=1))


def test_largest_entry_bound_runs_on_a_small_prime():
    # 2**63 needs 64-bit words; the non-conforming 1009 makes the sum wrap
    config = example2().replace(entry_bound=2**63, prime_override=1009)
    report, result = simulate(config)
    models = draw_models(result.params, config.master_seed)
    assert models.max() >= 2**62
    expected = plain_sum(models, result.took_part)
    assert report.aggregate == [e % 1009 for e in expected]


def test_canonical_prime_just_below_2_63_runs():
    config = example1().replace(**SINGLE_USER, entry_bound=2**63 - 25)
    report, result = simulate(config)
    assert report.prime == 2**63 - 25
    models = draw_models(result.params, config.master_seed)
    assert report.aggregate == plain_sum(models, [0])


def test_simulate_enters_the_round_once_by_its_harness_name(monkeypatch):
    """A tool that wraps ``harness.run_protocol`` sees the whole round in one
    call, and binding that call to ``protocol.run_protocol``'s signature
    yields the round's sizing and dropout plan."""
    calls = []
    original = harness.run_protocol

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "run_protocol", recorder)
    config = example1()
    _, result = simulate(config)
    assert len(calls) == 1
    args, kwargs = calls[0]
    bound = inspect.signature(protocol.run_protocol).bind(*args, **kwargs)
    assert bound.arguments["params"] == result.params == config.resolve()[0]
    assert bound.arguments["dropout_plan"] == DropoutPlan(frozenset({2}), "pre_intra")


def test_simulate_builds_no_set_up_copies():
    """A round holds two row buffers of drawn users (three users here: 180
    KB of model bytes and 240 KB of 16-bit noise lanes), their (K+T, S)
    total, the (size, S) server arrivals and the report's 60,000-entry
    aggregate: a peak of about 0.43 of the coefficient array.  Held (G,
    K+T, S) group sums would add 0.17 more, building the array 1.0 more,
    and a set-up that pads, reduces, casts and concatenates separate model
    and noise arrays peaks at 3x.
    The array's size comes from ``params``: the round never makes it."""
    config = RunConfig(
        n_users=12, t_max=2, d_max=1, k_parts=3, model_len=60_000, entry_bound=256,
        dropped=(2,),
    )
    tracemalloc.start()
    try:
        _, result = simulate(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * math.prod(result.params.blocks_shape) * 8


def test_only_a_draw_loads_numpy_random():
    """numpy.random is loaded by the first model or noise draw and by
    nothing before it: importing the package, resolving a config and an
    exhaustive privacy case, which never draws, leave it unloaded."""
    code = (
        "import sys; import rampagg; "
        "from rampagg import PrivacyCase, RunConfig, privacy_bruteforce; "
        "RunConfig(n_users=12, t_max=2, d_max=1, k_parts=3, model_len=9, "
        "entry_bound=8, dropped=(2,)).resolve(); "
        "privacy_bruteforce(PrivacyCase(n_users=4, t_max=1, d_max=0, k_parts=1, "
        "prime=5, adversaries=(0,))); "
        "assert 'numpy.random' not in sys.modules; "
        "rampagg.simulate(RunConfig(n_users=12, t_max=2, d_max=1, k_parts=3, "
        "model_len=9, entry_bound=8)); "
        "assert 'numpy.random' in sys.modules"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, timeout=60, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr


# ---- adversary view ----


def _shares(result, senders, receiver):
    """The intra shares ``senders`` sent ``receiver``: their blocks at its
    slot's point."""
    point = eval_point_for_slot(receiver % result.params.group_size)
    return evaluate(result.blocks(senders), [point], result.ctx.p, axis=1)[:, 0]


def test_adversary_view_two_group_example():
    config = example2().replace(adversaries=(0, 6))
    report, result = simulate(config)
    view = collect_adversary_view(result, config.adversaries)
    # user 0 (group 0, slot 0): shares from 1, 3, 4, 5 (2 dropped, self
    # excluded), no child group; user 6 (group 1, slot 0): shares from its
    # five slot-mates and group 0's slot-0 partial; the server: five
    # arrivals, the silenced slot 8 absent
    assert view.shape == (4 + 6 + 5, 3)
    assert np.array_equal(view[:4], _shares(result, [1, 3, 4, 5], 0))
    assert np.array_equal(view[4:9], _shares(result, [7, 8, 9, 10, 11], 6))
    assert np.array_equal(view[9], result.uplinks([0])[0])
    assert np.array_equal(view[10:], result.uplinks([6, 7, 9, 10, 11]))


def test_adversary_view_contains_nothing_for_others():
    config = example2().replace(adversaries=(4,))
    _, result = simulate(config)
    view = collect_adversary_view(result, config.adversaries)
    # user 4's own share is computed locally; nobody else's inbox appears
    expected = np.concatenate(
        [_shares(result, [0, 1, 3, 5], 4), result.uplinks([6, 7, 9, 10, 11])]
    )
    assert np.array_equal(view, expected)


def test_adversary_view_of_a_dropped_colluder_is_the_server_stream():
    config = example2().replace(adversaries=(2,))  # user 2 dropped pre_intra
    _, result = simulate(config)
    view = collect_adversary_view(result, (2,))
    assert np.array_equal(view, result.uplinks([6, 7, 9, 10, 11]))


def test_intra_share_points_match_receiver_slot():
    config = example2().replace(adversaries=(7,))
    _, result = simulate(config)
    view = collect_adversary_view(result, (7,))
    point = eval_point_for_slot(7 % 6)
    for row, sender in zip(view, [6, 8, 9, 10, 11]):
        expected = evaluate(result.blocks([sender])[0], [point], result.ctx.p)[0]
        assert row.tolist() == expected.tolist()


def test_adversary_view_of_a_streamed_round_peaks_below_the_coefficient_array():
    """A view makes only its intra senders' blocks: colluders in the first
    and the last of ten groups walk the whole round's streams, five users
    (61,050 entries) a block, and keep 22 users' blocks (2.1 MB), never
    the 11.7 MB coefficient array."""
    config = RunConfig(
        n_users=120, t_max=2, d_max=1, k_parts=9, model_len=9990, entry_bound=256,
        dropped=(2,), master_seed=4,
    )
    _, result = simulate(config)
    collect_adversary_view(result, (1, 118))  # imports and caches are set-up
    tracemalloc.start()
    try:
        view = collect_adversary_view(result, (0, 119))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(view, adversary_view_naive(result, (0, 119)))
    nbytes = math.prod(result.params.blocks_shape) * 8
    assert peak < nbytes / 2, (peak, nbytes)


@pytest.mark.parametrize("adversaries", [(-1,), (-7,), (12,)])
def test_adversary_view_rejects_users_outside_the_population(adversaries):
    _, result = simulate(example2())
    with pytest.raises(ValueError, match=r"^adversaries: "):
        collect_adversary_view(result, adversaries)


def _refuse_rows(*args):
    raise AssertionError("the transcript's rows were expanded")


@settings(max_examples=80, deadline=None)
@given(
    rounds(),
    st.sampled_from([101, 2**32 + 15]),  # int64 and object field dtypes
    st.sampled_from([(), (3,)]),
    st.data(),
)
def test_adversary_view_matches_user_by_user_oracle(round_, p, batch, data):
    k, t, d, parent, dropped, timing = round_
    size, groups = k + t + d, len(parent)
    n = size * groups
    params = make_params(n, t, d, k, model_len=k + 1, entry_bound=4)
    rng = Random(data.draw(st.integers(0, 2**32)))
    models = np.array([[rng.randrange(4) for _ in range(k + 1)] for _ in range(n)])
    shape = (n, t, params.seg_len) + batch
    noise = np.array([rng.randrange(p) for _ in range(math.prod(shape))]).reshape(shape)
    plan = DropoutPlan(frozenset(dropped), timing)
    result = run_protocol(
        FieldContext(p, 4, n), params, build_tree(groups, parent), models, plan, noise=noise
    )
    # colluders anywhere, and sometimes one that dropped
    adversaries = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    if dropped and data.draw(st.booleans()):
        adversaries.append(dropped[0])
    with pytest.MonkeyPatch.context() as patch:  # the view makes no CSV text
        for text_maker in "_csv_heads", "_csv_tails", "_intra_users":
            patch.setattr(protocol, text_maker, _refuse_rows)
        patch.setattr(Transcript, "_csv_text", property(_refuse_rows))
        view = collect_adversary_view(result, adversaries)
    expected = adversary_view_naive(result, adversaries)
    assert view.dtype == expected.dtype == field_dtype(p, k + t)
    assert np.array_equal(view, expected)


def _view_inputs(kind, params, p, rng):
    """Models and noise of ``params``' round as ``kind`` names them, None
    where drawn: "runs" as the privacy checker gives them, models with a
    runs axis over a read-only broadcast of an enumerated noise batch;
    "batch", models and noise with one batch axis, entries in [-p, 2p) so
    that each must be reduced; "plain-models", models without batch axes
    over a batched noise; "drawn", both drawn."""
    n, t, seg_len, length = params.n_users, params.t_max, params.seg_len, params.model_len

    def values(low, high, *shape):
        return np.array([rng.randrange(low, high) for _ in range(math.prod(shape))]).reshape(shape)

    if kind == "runs":
        enumerated = values(0, p, n, t, seg_len, 1, 25)
        return values(0, p, n, length, 3, 1), np.broadcast_to(enumerated, (n, t, seg_len, 3, 25))
    return {
        "batch": (values(-p, 2 * p, n, length, 4), values(-p, 2 * p, n, t, seg_len, 4)),
        "plain-models": (values(0, 8, n, length), values(0, p, n, t, seg_len, 4)),
        "drawn": (None, None),
    }[kind]


@pytest.mark.parametrize("colluders", [(1,), (6,), (9,), (1, 6, 9)])  # leaf, middle, last group
@pytest.mark.parametrize("timing", [PRE_INTRA, BETWEEN_ROUNDS])
@pytest.mark.parametrize(
    "kind,entry_bound", [("runs", 8), ("batch", 8), ("plain-models", 8), ("drawn", 8),
                         ("drawn", 2**31)],  # 2**31: an object field dtype
)  # fmt: skip
def test_adversary_view_equals_the_view_from_stacked_blocks(
    monkeypatch, kind, entry_bound, timing, colluders
):
    # three chained groups of four (K=2, T=1, D=1), models of 3 entries
    # padded to two segments of 2; user 5 drops, silencing slot 1 above it.
    # Row buffers of 9 users, or of one in the object dtype, so a drawn
    # round is replayed over several
    monkeypatch.setattr(protocol, "_BLOCK_ENTRIES", 6)
    params = make_params(12, 1, 1, 2, model_len=3, entry_bound=entry_bound)
    ctx = field.select_prime(12, entry_bound)
    models, noise = _view_inputs(kind, params, ctx.p, Random(f"{kind}{timing}{colluders}"))
    plan = DropoutPlan(frozenset({5}), timing)
    result = run_protocol(ctx, params, build_tree(3, "chain"), models, plan, 3, noise)
    view = collect_adversary_view(result, colluders)
    expected = view_from_blocks(result, colluders)
    assert view.dtype == expected.dtype == field_dtype(ctx.p, 3)
    assert np.array_equal(view, expected)
    assert np.array_equal(view, adversary_view_naive(result, colluders))


def test_a_leaf_colluders_view_of_a_privacy_run_writes_no_block(monkeypatch):
    # models with a runs axis over a 25-point noise enumeration, as the
    # privacy checker gives them: neither the round nor a leaf colluder's
    # view writes a (K+T)-row block
    params = make_params(12, 1, 1, 2, model_len=3, entry_bound=8)
    ctx = field.select_prime(12, 8)
    models, noise = _view_inputs("runs", params, ctx.p, Random(7))
    tree, plan = build_tree(3, "chain"), DropoutPlan.none()
    expected = view_from_blocks(run_protocol(ctx, params, tree, models, plan, 0, noise), (1,))

    def refuse(*args):
        raise AssertionError("a (K+T)-row block was written")

    monkeypatch.setattr(protocol, "_empty_blocks", refuse)
    result = run_protocol(ctx, params, tree, models, plan, 0, noise)
    assert np.array_equal(collect_adversary_view(result, (1,)), expected)
    with pytest.raises(AssertionError, match="block was written"):
        result.blocks([1])


# ---- oracle ----


def test_plain_sum():
    models = np.array([[1, 2], [3, 4], [5, 6]])
    assert plain_sum(models, [0, 2]) == [6, 8]
    assert plain_sum(models, np.ones(3, dtype=bool)) == [9, 12]
    # exact: the int64 column sum would wrap to -2**63
    assert plain_sum(np.full((2, 1), 2**62), [0, 1]) == [2**63]


def test_correctness_oracle_passes_small_config():
    config = RunConfig(
        n_users=12, t_max=2, d_max=1, k_parts=3, model_len=7, entry_bound=8,
    )
    assert correctness_oracle(config, trials=25) == []


def test_correctness_oracle_refuses_non_conforming_field():
    config = RunConfig(
        n_users=12, t_max=2, d_max=1, k_parts=3, model_len=7, entry_bound=8,
        prime_override=1009,
    )
    with pytest.raises(NonConformingField):
        correctness_oracle(config, trials=2)


# ---- transcript exports ----


def test_transcript_csv_export():
    _, result = simulate(example2())
    buf = io.StringIO()
    result.transcript.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "phase,sender,receiver,symbols,null"
    counts = result.transcript.phase_counts()
    assert len(lines) == sum(bucket["messages"] for bucket in counts.values()) + 1
    assert lines[1] == "intra,0,0,0,False"
    # exports are deterministic
    buf2 = io.StringIO()
    result.transcript.to_csv(buf2)
    assert buf.getvalue() == buf2.getvalue()
