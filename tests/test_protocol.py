"""End-to-end protocol rounds: aggregation, silence, accounting, recovery."""

import csv
import dataclasses
import io
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampagg import field, protocol, sharing
from rampagg.cli import main
from rampagg.errors import InconsistentArrivals, TooManyDropouts
from rampagg.field import FieldContext, field_dtype, is_prime, select_prime
from rampagg.harness import RunConfig, collect_adversary_view, plain_sum, simulate
from rampagg.privacy import PrivacyCase, privacy_bruteforce
from rampagg.protocol import (
    BETWEEN_ROUNDS,
    PHASE_INTER,
    PHASE_INTRA,
    PHASE_SERVER,
    PRE_INTRA,
    _CSV_BLOCK_ROWS,
    _csv_heads,
    _csv_tails,
    DropoutPlan,
    Transcript,
    UserStatus,
    derive_seed,
    eval_point_for_slot,
    message_pattern,
    relay,
    run_protocol,
    server_arrivals,
    server_recover,
)
from rampagg.sharing import evaluate
from rampagg.topology import build_tree, make_params

from oracles import (
    ACTIVE,
    arrivals_naive,
    DROPPED,
    SILENCED,
    adversary_view_naive,
    coefficient_array_naive,
    eval_poly_naive,
    group_sums_naive,
    heard_by_naive,
    intra_naive,
    links_naive,
    parent_naive,
    phase_counts_naive,
    potential_links_naive,
    relay_fold_naive,
    rounds,
    sent_naive,
    transcript_csv_naive,
    transcript_rows_naive,
    written_blocks,
)


def _setup(n, t, d, k, length=None, entry_bound=8, shape="chain", p=None):
    params = make_params(n, t, d, k, model_len=length or k, entry_bound=entry_bound)
    ctx = FieldContext(p or 1009, entry_bound, n)
    tree = build_tree(params.num_groups, shape)
    rng = Random(42)
    models = np.array(
        [[rng.randrange(entry_bound) for _ in range(params.model_len)] for _ in range(n)]
    )
    return ctx, params, tree, models


def _expected_sum(models, included):
    rows = models.tolist()
    return [sum(rows[u][i] for u in included) for i in range(len(rows[0]))]


# ---- basic aggregation ----


def test_single_group_aggregate_is_plain_sum():
    ctx, params, tree, models = _setup(6, 2, 1, 3, length=7)
    result = run_protocol(ctx, params, tree, models)
    assert result.aggregate.tolist() == _expected_sum(models, set(range(6)))
    assert result.took_part.all()


def test_multi_group_aggregate_is_plain_sum():
    ctx, params, tree, models = _setup(12, 2, 1, 3, length=9)
    assert params.num_groups == 2
    result = run_protocol(ctx, params, tree, models)
    assert result.aggregate.tolist() == _expected_sum(models, set(range(12)))


def test_intra_aggregate_is_sum_of_share_polys_at_slot_point():
    ctx, params, tree, models = _setup(6, 2, 1, 3, length=6)
    result = run_protocol(ctx, params, tree, models)
    blocks = result.blocks(range(6))
    for u in range(6):
        slot = u  # single group
        shares = [
            evaluate(blocks[v], [eval_point_for_slot(slot)], ctx.p)[0]
            for v in range(6)
        ]
        expected = sum(shares) % ctx.p
        intra = intra_naive(result.sums, 6, ctx.p)[0]
        assert intra[u].tolist() == expected.tolist()


def test_single_group_server_messages_are_the_intra_aggregates():
    ctx, params, tree, models = _setup(6, 2, 1, 3, length=6)
    result = run_protocol(ctx, params, tree, models)
    assert (result.status == UserStatus.ACTIVE).all()
    intra = intra_naive(result.sums, 6, ctx.p)[0]
    assert np.array_equal(result.arrivals, intra)
    assert np.array_equal(result.uplinks(range(6)), intra)


def test_two_group_server_message_stacks_child_aggregate():
    ctx, params, tree, models = _setup(12, 2, 1, 3, length=6)
    result = run_protocol(ctx, params, tree, models)
    intra = intra_naive(result.sums, 6, ctx.p).reshape((12,) + result.arrivals.shape[1:])
    for sender in range(6, 12):
        child_user = sender - 6  # group 0, same slot
        expected = (intra[child_user] + intra[sender]) % ctx.p
        assert result.uplinks([sender])[0].tolist() == expected.tolist()


def test_aggregate_reduces_mod_p_when_sums_exceed_field():
    # deliberately tiny prime: recovery is the sum mod p, not the integer sum
    ctx, params, tree, models = _setup(6, 2, 1, 3, length=4, p=7)
    result = run_protocol(ctx, params, tree, models)
    plain = _expected_sum(models, set(range(6)))
    assert result.aggregate.tolist() == [v % 7 for v in plain]


# ---- dropouts and silence ----


def test_pre_intra_dropout_excluded_from_sum():
    ctx, params, tree, models = _setup(12, 2, 1, 3, length=9)
    result = run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({2})))
    assert result.aggregate.tolist() == _expected_sum(models, set(range(12)) - {2})
    assert np.flatnonzero(~result.took_part).tolist() == [2]


@pytest.mark.parametrize("p", [1009, 2**61 - 1])  # int64 and object field dtypes
def test_two_pre_intra_dropouts_in_one_group_are_both_excluded(p):
    # 3 groups of 6 (K=3, T=1, D=2); users 6 and 8 share group 1, so its
    # sum loses two blocks, and a batch axis rides along
    ctx, params, tree, models = _setup(18, 1, 2, 3, length=8, p=p)
    noise = np.arange(18 * 3 * 2).reshape(18, 1, 3, 2)
    plan = DropoutPlan(frozenset({8, 6}), PRE_INTRA)
    result = run_protocol(ctx, params, tree, models, plan, noise=noise)
    expected = plain_sum(models, [u for u in range(18) if u not in (6, 8)])
    assert result.aggregate.tolist() == [[v, v] for v in expected]
    assert np.flatnonzero(~result.took_part).tolist() == [6, 8]


def test_dropout_in_child_group_silences_matching_slot_upstream():
    ctx, params, tree, models = _setup(12, 2, 1, 3, length=9)
    result = run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({2})))
    silenced = 6 + 2  # same slot, last group
    assert result.status[silenced] == UserStatus.SILENCED
    assert np.flatnonzero(result.null).tolist() == [silenced]
    assert result.status[2] == UserStatus.DROPPED
    assert UserStatus(result.status[silenced]).name == "SILENCED"


def test_silence_cascades_down_a_chain():
    # three groups of 4 (K=2, T=1, D=1): a slot-1 drop in group 0 nulls
    # slot 1 of every group above it
    ctx, params, tree, models = _setup(12, 1, 1, 2, length=4)
    assert params.num_groups == 3
    result = run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({1})))
    assert result.status[4 + 1] == UserStatus.SILENCED
    assert result.status[8 + 1] == UserStatus.SILENCED
    assert np.flatnonzero(result.null).tolist() == [5, 9]
    assert result.aggregate.tolist() == _expected_sum(models, set(range(12)) - {1})


def test_star_shape_confines_silence_to_one_branch():
    ctx, params, tree, models = _setup(12, 1, 1, 2, length=4, shape="star")
    result = run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({1})))
    # group 0 slot 1 dropped: only the matching slot of the hub group is hit
    assert result.status[4 + 1] == UserStatus.ACTIVE
    assert result.status[8 + 1] == UserStatus.SILENCED
    assert result.aggregate.tolist() == _expected_sum(models, set(range(12)) - {1})


def test_between_rounds_dropout_still_counts_in_aggregate():
    ctx, params, tree, models = _setup(12, 2, 1, 3, length=9)
    plan = DropoutPlan(frozenset({2}), timing=BETWEEN_ROUNDS)
    result = run_protocol(ctx, params, tree, models, plan)
    assert result.aggregate.tolist() == _expected_sum(models, set(range(12)))
    assert result.took_part.all()
    # but the relay duty is lost: the matching upstream slot is silenced
    assert result.status[8] == UserStatus.SILENCED
    assert result.status[2] == UserStatus.DROPPED


def test_too_many_dropouts_raises():
    ctx, params, tree, models = _setup(12, 2, 1, 9)
    with pytest.raises(TooManyDropouts):
        run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({2, 5})))


def test_too_many_dropouts_names_null_slots_and_their_dropouts():
    # 3 chained groups of 4: users 1 and 5 sit in slot 1, user 10 in slot 2
    ctx, params, tree, models = _setup(12, 1, 1, 2, length=4)
    with pytest.raises(TooManyDropouts) as info:
        run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({1, 5, 10})))
    message = str(info.value)
    assert message.startswith("only 2 non-null messages reached the server")
    assert message.endswith("null slots: 1 (dropped 1, 5), 2 (dropped 10)")


def test_exactly_d_budget_recovers():
    ctx, params, tree, models = _setup(12, 2, 1, 9)
    result = run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({5})))
    assert result.aggregate.tolist() == _expected_sum(models, set(range(12)) - {5})


def test_same_slot_dropouts_waste_only_one_stream():
    # users 1 and 5 share slot 1 of their groups: one null stream, not two,
    # so even two dropouts (over the D=1 budget) stay recoverable here
    ctx, params, tree, models = _setup(12, 1, 1, 2, length=4)
    result = run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({1, 5})))
    assert result.null[8:].sum() == 1  # one null server stream
    assert result.aggregate.tolist() == _expected_sum(models, set(range(12)) - {1, 5})


# ---- transcript accounting ----


def _csv_rows(transcript):
    """The transcript's rows as ``to_csv`` writes them, header dropped."""
    written = io.StringIO()
    transcript.to_csv(written)
    return list(csv.reader(io.StringIO(written.getvalue())))[1:]


def test_dropped_user_leaves_no_transcript_entry():
    ctx, params, tree, models = _setup(12, 2, 1, 3, length=9)
    result = run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({2})))
    assert "2" not in [row[1] for row in _csv_rows(result.transcript)]


def test_sends_to_dropped_user_cost_symbols_but_never_deliver():
    ctx, params, tree, models = _setup(12, 2, 1, 3, length=9)
    result = run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({2})))
    rows = _csv_rows(result.transcript)
    to_dropped = [row for row in rows if row[2] == "2"]
    assert len(to_dropped) == 5  # the other five group members still send
    assert all(row[3] == str(params.seg_len) for row in to_dropped)
    # each pays for five intra shares, user 2's among them, and its uplink
    assert result.transcript.loads.sent[[0, 1, 3, 4, 5]].tolist() == [6 * params.seg_len] * 5
    # no link to user 2 carries a delivered message
    took = result.took_part.tolist()
    naive = links_naive(transcript_rows_naive(params, tree, took, result.status.tolist()))
    assert not any(2 in link for link in naive)
    assert result.transcript.links_used == len(naive)
    # and the silenced relay sends an explicit zero-symbol null
    assert [row for row in rows if row[4] == "True"] == [["server", "8", "server", "0", "True"]]


def test_message_counts_per_phase():
    ctx, params, tree, models = _setup(12, 1, 1, 2, length=4)  # 3 groups of 4
    result = run_protocol(ctx, params, tree, models)
    counts = result.transcript.phase_counts()
    # intra: every user sends to all 4 slots of its group (self at 0 cost)
    assert counts[PHASE_INTRA]["messages"] == 12 * 4
    assert counts[PHASE_INTRA]["symbols"] == 12 * 3 * params.seg_len
    # inter: groups 0 and 1 forward, 4 slots each
    assert counts[PHASE_INTER]["messages"] == 8
    assert counts[PHASE_INTER]["symbols"] == 8 * params.seg_len
    # server: last group only
    assert counts[PHASE_SERVER]["messages"] == 4
    assert counts[PHASE_SERVER]["symbols"] == 4 * params.seg_len


def test_self_shares_cost_nothing():
    ctx, params, tree, models = _setup(6, 2, 1, 3, length=6)
    result = run_protocol(ctx, params, tree, models)
    self_rows = [row for row in _csv_rows(result.transcript) if row[1] == row[2]]
    assert len(self_rows) == 6
    assert all(row[3] == "0" for row in self_rows)


def test_active_links_exclude_nulls_undelivered_and_self():
    ctx, params, tree, models = _setup(12, 2, 1, 3, length=9)
    result = run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({2})))
    # intra: C(5, 2) in group 0, whose shares to user 2 are undelivered, and
    # C(6, 2) in group 1, no self-share among them; uplinks: five from group
    # 0, and five of group 1's six to the server, as user 8's is a null
    assert result.transcript.links_used == 10 + 15 + 5 + 5


@pytest.mark.parametrize("timing", [PRE_INTRA, BETWEEN_ROUNDS])
@pytest.mark.parametrize("shape", ["chain", "star", "irregular"])
@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_transcript_columns_match_per_message_reference(t, d, shape, timing):
    rng = Random(f"{t}:{d}:{shape}:{timing}")
    k = rng.randint(1, 3)
    size, groups = k + t + d, rng.randint(2, 5)
    if shape == "irregular":  # each group hangs under a random later one
        shape = {g: rng.randint(g + 1, groups - 1) for g in range(groups - 1)}
        shape[groups - 1] = "server"
    if d == 2 and t % 2:  # two drops in one slot
        slot = rng.randrange(size)
        dropped = [g * size + slot for g in rng.sample(range(groups), 2)]
    else:  # drops in different slots
        slots = rng.sample(range(size), d)
        dropped = [rng.randrange(groups) * size + slot for slot in slots]
    config = RunConfig(
        n_users=size * groups, t_max=t, d_max=d, k_parts=k, model_len=k + 1,
        entry_bound=4, tree_shape=shape, dropped=tuple(dropped),
        dropout_timing=timing, master_seed=rng.randrange(100),
    )
    report, result = simulate(config)
    params, tree, n = result.params, result.tree, config.n_users
    took_part = [u not in dropped or timing == BETWEEN_ROUNDS for u in range(n)]
    assert result.took_part.tolist() == took_part
    rows = transcript_rows_naive(params, tree, took_part, result.status.tolist())
    transcript = result.transcript
    written = io.StringIO()
    transcript.to_csv(written)
    assert written.getvalue() == transcript_csv_naive(rows)
    assert transcript.phase_counts() == phase_counts_naive(rows)
    assert transcript.loads.sent.tolist() == sent_naive(rows, n)
    assert transcript.links_used == len(links_naive(rows))
    assert report.total_edges == len(potential_links_naive(params, tree))
    assert report.silent_edges == report.total_edges - len(links_naive(rows))
    _check_who_hears_whom(transcript, rows, dropped)


def _check_who_hears_whom(transcript, rows, dropped):
    """``uplinks()`` against the tree and the rows, and ``heard_by`` against
    the rows for no user, one, every user, and a set with the dropouts."""
    params, status = transcript.params, transcript.status.tolist()
    n, size = params.n_users, params.group_size
    sender, receiver = transcript.uplinks()
    uplinks = list(zip(sender.tolist(), receiver.tolist()))
    assert sorted(sender.tolist()) == list(range(n))
    for u, r in uplinks:
        parent = parent_naive(transcript.tree, u // size)
        assert r == (n if parent == "server" else parent * size + u % size)
    sent = [(s, n if r == "server" else r) for phase, s, r, *_ in rows if phase != "intra"]
    assert [(u, r) for u, r in uplinks if status[u] != DROPPED] == sent
    for users in [], [n // 2], list(range(n)), sorted({*dropped, n - 1}):
        heard = transcript.heard_by(users)
        assert heard[2].dtype == bool
        assert list(zip(*(a.tolist() for a in heard))) == heard_by_naive(rows, users, n)


@settings(max_examples=80, deadline=None)
@given(
    rounds(),
    st.sampled_from(["chain", "star", "irregular"]),
    st.integers(0, 5),
    st.integers(0, 99),
)
def test_counts_match_the_row_oracles_on_drawn_rounds(round_, shape, extra, seed):
    k, t, d, parent, dropped, timing = round_
    size, length = k + t + d, k + extra
    config = RunConfig(
        n_users=size * len(parent), t_max=t, d_max=d, k_parts=k, model_len=length,
        entry_bound=4, tree_shape=parent if shape == "irregular" else shape,
        dropped=tuple(dropped), dropout_timing=timing, master_seed=seed,
    )
    report, result = simulate(config)
    n, status = config.n_users, result.status.tolist()
    rows = transcript_rows_naive(result.params, result.tree, result.took_part.tolist(), status)
    assert result.transcript.phase_counts() == phase_counts_naive(rows)
    sent = sent_naive(rows, n)
    loads = report.loads
    assert loads.sent.tolist() == sent
    to_server = sum(row[3] for row in rows if row[2] == "server" and not row[4])
    assert loads.r_server == Fraction(to_server, length)
    survivors = [s for s, u in zip(sent, status) if u != DROPPED]
    assert loads.r_user_max == Fraction(max(survivors), length)
    assert loads.r_user_avg == Fraction(sum(sent), n * length)
    assert result.transcript.links_used == len(links_naive(rows))
    assert report.total_edges == len(potential_links_naive(result.params, result.tree))
    assert report.silent_edges == report.total_edges - len(links_naive(rows))
    _check_who_hears_whom(result.transcript, rows, dropped)


class _Writes(io.StringIO):
    """A text buffer that also keeps each string written to it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def _intra_writes(writes):
    """The senders of each write of intra rows, as a set per write."""
    return [
        {row.split(",")[1] for row in text.split("\r\n")[:-1]}
        for text in writes
        if text.startswith("intra,")
    ]


@pytest.mark.parametrize("block", [1, 4, 9, _CSV_BLOCK_ROWS])
@pytest.mark.parametrize("timing", [PRE_INTRA, BETWEEN_ROUNDS])
def test_csv_is_the_same_whatever_the_block_size(monkeypatch, block, timing):
    # five chained groups of 4: user 5 drops, so slot 1 of every group above
    # its own sends a null uplink, and its group still sends to it.  With
    # the cache bypassed the intra rows are made a block at a time: a block
    # of 1 or 4 rows holds one sender's rows, one of 9 two senders', so
    # every group is cut across blocks, and the default holds a whole run
    config = RunConfig(
        n_users=20, t_max=1, d_max=2, k_parts=1, model_len=3, entry_bound=4,
        dropped=(5, 18), dropout_timing=timing, master_seed=8,
    )
    _, result = simulate(config)
    rows = transcript_rows_naive(
        result.params, result.tree, result.took_part.tolist(), result.status.tolist()
    )
    assert any(row[4] for row in rows) and not all(row[5] for row in rows)
    monkeypatch.setattr(protocol, "_CACHED_CSV_ROWS", 0)
    monkeypatch.setattr(protocol, "_CSV_BLOCK_ROWS", block)
    written = _Writes()
    result.transcript.to_csv(written)
    assert written.getvalue() == transcript_csv_naive(rows)
    intra = _intra_writes(written.writes)
    runs = 3 if timing == PRE_INTRA else 1  # users 0-4, 6-17 and 19, or all
    assert max(map(len, intra)) <= max(1, block // 4)
    assert (len(intra) > runs) == (block < _CSV_BLOCK_ROWS)
    assert sum(map(len, intra)) == 20 - 2 * (timing == PRE_INTRA)


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize(
    "dropped,timing,runs",
    [((), PRE_INTRA, 1), ((0,), PRE_INTRA, 1), ((23,), PRE_INTRA, 1), ((8, 10), PRE_INTRA, 3),
     ((8, 9), PRE_INTRA, 2), ((0, 23), BETWEEN_ROUNDS, 1)],
    ids=["none", "first", "last", "one-group", "adjacent", "between-rounds"],
)
def test_csv_writes_one_intra_slice_per_run_of_users(
    monkeypatch, dropped, timing, runs, cached
):
    # four chained groups of 6: the users that took part fall into at most
    # one run more than there are pre-intra dropouts, and each run is one
    # write of its rows when no text is kept; a kept text is one write
    config = RunConfig(
        n_users=24, t_max=2, d_max=2, k_parts=2, model_len=5, entry_bound=4,
        dropped=dropped, dropout_timing=timing, master_seed=7,
    )
    _, result = simulate(config)
    rows = transcript_rows_naive(
        result.params, result.tree, result.took_part.tolist(), result.status.tolist()
    )
    if not cached:
        monkeypatch.setattr(protocol, "_CACHED_CSV_ROWS", 0)
    written = _Writes()
    result.transcript.to_csv(written)
    assert written.getvalue() == transcript_csv_naive(rows)
    if cached:
        assert written.writes == [written.getvalue()]
        return
    absent = set(dropped) if timing == PRE_INTRA else set()
    intra = _intra_writes(written.writes)
    assert len(intra) == runs <= len(absent) + 1
    assert set().union(*intra) == {str(u) for u in range(24) if u not in absent}


def test_a_round_expands_no_rows(monkeypatch):
    # one group at N=1200 with L = K: N*size = 1.44M intra messages, all of
    # them counted from the masks and none made, not even for the links
    def refuse(*args):
        raise AssertionError("a round expanded its transcript rows")

    for text_maker in "_csv_heads", "_csv_tails", "_intra_users":
        monkeypatch.setattr(protocol, text_maker, refuse)
    monkeypatch.setattr(Transcript, "_csv_text", property(refuse))
    n, t, d = 1200, 2, 1
    k = n - t - d
    config = RunConfig(
        n_users=n, t_max=t, d_max=d, k_parts=k, model_len=k, entry_bound=2,
        dropped=(7,), master_seed=4,
    )
    report, result = simulate(config)
    assert report.total_edges == report.edges_formula == n * (n + 1) // 2
    assert report.silent_edges == n  # user 7's N-1 intra links and its uplink
    assert report.loads.r_server == Fraction(k + t, k)
    assert report.loads.r_user_max == Fraction(k + t + d, k)
    assert report.phase_counts[PHASE_INTRA]["messages"] == (n - 1) * n
    with pytest.raises(AssertionError, match="expanded"):
        result.transcript.to_csv(io.StringIO())


@settings(max_examples=80, deadline=None)
@given(
    rounds(),
    st.sampled_from(["chain", "star", "irregular"]),
    st.sampled_from([1, 40]),  # narrow and wide groups: S symbols a slot
    st.sampled_from([101, 2**32 + 15]),  # int64 and object field dtypes
    st.sampled_from([(), (1,), (3,)]),
    st.integers(0, 2**32),
)
def test_relay_scan_matches_leaves_first_fold(round_, shape, seg_len, p, batch, seed):
    k, t, d, parent, dropped, timing = round_
    size, groups = k + t + d, len(parent)
    n = size * groups
    params = make_params(n, t, d, k, model_len=k * seg_len, entry_bound=4)
    tree = build_tree(groups, parent if shape == "irregular" else shape)
    ctx, rng = FieldContext(p, 4, n), Random(seed)
    models = np.array([rng.randrange(4) for _ in range(n * k * seg_len)]).reshape(n, -1)
    shape = (n, t, seg_len) + batch
    noise = np.array([rng.randrange(p) for _ in range(math.prod(shape))]).reshape(shape)
    plan = DropoutPlan(frozenset(dropped), timing)
    result = run_protocol(ctx, params, tree, models, plan, noise=noise)
    dead = (result.status == DROPPED).reshape(groups, size)
    partials, silent = relay_fold_naive(intra_naive(result.sums, size, p), dead, tree, p)
    uplinks = result.uplinks(range(n))
    assert uplinks.dtype == field_dtype(p, k + t)
    assert np.array_equal(uplinks, partials.reshape(uplinks.shape))
    assert result.transcript is message_pattern(params, tree, plan)
    status = np.where(dead, DROPPED, np.where(silent, SILENCED, ACTIVE))
    assert result.status.tolist() == status.ravel().tolist()


def _int64_boundary_prime(terms):
    """The largest prime p whose sums of ``terms`` products still fit the
    int64 field dtype."""
    p = math.isqrt((2**63 - 1) // terms) + 1
    while field_dtype(p, terms) is not np.int64 or not is_prime(p):
        p -= 1
    return p


@pytest.mark.parametrize("t", [1, 2])
def test_relay_is_exact_at_the_int64_boundary(t):
    p = _int64_boundary_prime(1 + t)  # K=1
    above = next(q for q in range(p + 1, 2 * p) if is_prime(q))
    assert field_dtype(above, 1 + t) is object
    groups, size = 300, t + 2
    ctx, params, tree, models = _setup(
        groups * size, t, 1, 1, length=3, entry_bound=2**20, p=p
    )
    plan = DropoutPlan(frozenset({size + 1}), BETWEEN_ROUNDS)  # group 1, slot 1
    result = run_protocol(ctx, params, tree, models, plan)
    uplinks = result.uplinks(range(groups * size))
    assert uplinks.dtype == np.int64
    dead = (result.status == DROPPED).reshape(groups, size)
    partials, silent = relay_fold_naive(intra_naive(result.sums, size, p), dead, tree, p)
    assert np.array_equal(uplinks, partials.reshape(uplinks.shape))
    assert np.flatnonzero(result.null).tolist() == list(range(2 * size + 1, groups * size, size))
    assert result.aggregate.tolist() == _expected_sum(models, set(range(groups * size)))


def _either_side(terms):
    """The primes either side of the int64 switch of field_dtype(p, terms)."""
    p = _int64_boundary_prime(terms)
    return p, next(q for q in range(p + 1, 2 * p) if is_prime(q))


@pytest.mark.parametrize("p", [p for terms in (1, 2, 3) for p in _either_side(terms)])
def test_matrices_are_built_in_the_dtype_each_routine_needs(monkeypatch, p):
    # K=1, T=2, D=1: the blocks are in field_dtype(p, 3), the server's
    # inverse in field_dtype(p, 2) and every Vandermonde matrix in
    # field_dtype(p, 1), so near the switches int64 matrices meet object
    # blocks; every model and noise entry is p - 1, and so is a point
    asked = []

    def spy(build, name):
        def wrapped(*args):
            asked.append((name, args[-1]))
            return build(*args)

        return wrapped

    monkeypatch.setattr(protocol, "inverse_vandermonde", spy(protocol.inverse_vandermonde, "inv"))
    monkeypatch.setattr(sharing, "vandermonde", spy(sharing.vandermonde, "vdm"))
    n, t, k = 8, 2, 1
    params = make_params(n, t, 1, k, model_len=3, entry_bound=2)
    ctx, tree = FieldContext(p, 2, n), build_tree(2, "chain")
    models = np.full((n, 3), p - 1, dtype=object)
    noise = np.full((n, t, 3), p - 1, dtype=object)
    result = run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({1})), noise=noise)
    assert result.blocks([0]).dtype == field_dtype(p, k + t)
    assert result.aggregate.tolist() == [7 * (p - 1) % p] * 3
    # every block is (p-1)(1 + x + x^2) at point x.  User 6 (slot 2, x=3)
    # hears users 4, 5 and 7, then user 2's partial over group 0's three
    # users; the server hears users 4, 6 and 7 (x=1, 3, 4) over all seven,
    # and user 5 is silenced by user 1's drop
    summed = ((1, 3),) * 3 + ((3, 3), (7, 1), (7, 3), (7, 4))  # (blocks, point)
    heard = [(-c * (1 + x + x * x)) % p for c, x in summed]
    assert collect_adversary_view(result, (6,)).tolist() == [[v] * 3 for v in heard]
    blocks = np.full((3, 2), p - 1, dtype=field_dtype(p, k + t))
    assert evaluate(blocks, [p - 1, p - 2], p).tolist() == [[p - 1] * 2, [p - 3] * 2]
    assert {name for name, _ in asked} == {"inv", "vdm"}
    for name, dtype in asked:
        assert np.dtype(dtype) == np.dtype(field_dtype(p, 2 if name == "inv" else 1))


def test_relay_refuses_prefix_sums_past_int64():
    # two groups' prefix sums reach 2*(p-1), which int64 holds up to 2**63 - 1
    tree = build_tree(2, "chain")
    dead = np.zeros((2, 2), dtype=bool)
    fits = 2**62
    for p in (fits, fits + 1):
        exact = np.full((2, 2, 1), p - 1, dtype=object)
        expected, _ = relay_fold_naive(exact, dead, tree, p)
        if p == fits:
            assert relay(exact.astype(np.int64), tree, p).tolist() == expected.tolist()
        else:
            with pytest.raises(ValueError, match="overflow int64"):
                relay(exact.astype(np.int64), tree, p)
        assert relay(exact, tree, p).tolist() == expected.tolist()


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("shape", ["chain", "star", {0: 2, 1: 2, 2: 4, 3: 4, 4: "server"}])
@pytest.mark.parametrize("width", [1, 2, 512])
def test_relay_matches_naive_subtree_sums_in_both_branches(width, shape, dtype):
    # narrow and wide groups, S = width giving size * width entries each.
    # The silences are the message pattern's, from users 5 and 9 dropping
    groups, size, p = 5, 3, 2**31 - 1
    tree, rng = build_tree(groups, shape), Random(width)
    intra = np.array(
        [rng.randrange(p) for _ in range(groups * size * width)], dtype=dtype
    ).reshape(groups, size, width)
    dead = np.zeros((groups, size), dtype=bool)
    dead[1, 2] = dead[3, 0] = True
    partials = relay(intra, tree, p)
    expected, expected_silent = relay_fold_naive(intra.astype(object), dead, tree, p)
    assert partials.dtype == dtype
    assert partials.tolist() == expected.tolist()
    params = make_params(groups * size, 1, 1, 1, model_len=width, entry_bound=2)
    status = message_pattern(params, tree, DropoutPlan(frozenset({5, 9}))).status
    expected_status = np.where(dead, DROPPED, np.where(expected_silent, SILENCED, ACTIVE))
    assert status.tolist() == expected_status.ravel().tolist()


@pytest.mark.parametrize("p", [1009, 2**32 + 15])  # int64 and object entries
@pytest.mark.parametrize("batch", [(), (2,)])
@pytest.mark.parametrize("shape", ["chain", "star", {0: 2, 1: 2, 2: 4, 3: 4, 4: "server"}])
def test_uplinks_are_the_fold_of_the_evaluated_group_sums(shape, batch, p):
    # K=2, T=1, D=1: five groups of 4, and user 5 (group 1, slot 1) drops
    # before sharing, so its block is left out of the sums
    k, t, groups, size = 2, 1, 5, 4
    n = groups * size
    params = make_params(n, t, 1, k, model_len=3, entry_bound=4)
    ctx, tree, rng = FieldContext(p, 4, n), build_tree(groups, shape), Random(p)
    models = np.array([rng.randrange(4) for _ in range(n * 3)]).reshape(n, 3)
    noise_shape = (n, t, params.seg_len) + batch
    noise = np.array([rng.randrange(p) for _ in range(math.prod(noise_shape))])
    plan = DropoutPlan(frozenset({5}))
    result = run_protocol(ctx, params, tree, models, plan, noise=noise.reshape(noise_shape))
    coeffs = coefficient_array_naive(params, p, models, noise.reshape(noise_shape))
    sums = group_sums_naive(coeffs, size, [5], p)
    assert np.array_equal(result.sums, sums)
    intra = np.empty((groups, size) + sums.shape[2:], dtype=object)
    for g, slot in itertools.product(range(groups), range(size)):
        for index in np.ndindex(sums.shape[2:]):
            column = [int(c) for c in sums[(g, slice(None)) + index]]
            intra[(g, slot) + index] = eval_poly_naive(column, eval_point_for_slot(slot), p)
    dead = (result.status == DROPPED).reshape(groups, size)
    expected = relay_fold_naive(intra, dead, tree, p)[0].reshape((n,) + sums.shape[2:])
    last = tree.last_group * size
    senders = [n - 1, 0, last, 7, 7, 13, last + 2]  # the last group and below
    got = result.uplinks(senders)
    assert got.dtype == field_dtype(p, k + t)
    assert got.tolist() == expected[senders].tolist()
    assert result.uplinks([]).shape == (0,) + sums.shape[2:]
    assert result.uplinks(range(n)).tolist() == expected.tolist()


def _refuse(*args):
    raise AssertionError("relay called")


# round-wide's shape; and the benchmark's privacy case, where colluder 0
# sits in the chain's leaf group, so it hears no uplink and the server
# hears only the arrivals
_WIDE = RunConfig(
    n_users=120, t_max=2, d_max=1, k_parts=9, model_len=99, entry_bound=256, dropped=(2,)
)
_LEAF_CASE = PrivacyCase(
    n_users=6, t_max=1, d_max=0, k_parts=2, prime=5, adversaries=(0,),
    tree_shape="chain", model_bound=2,
)  # fmt: skip


def _wide_and_leaf_outputs():
    """_WIDE's report.json and transcript.csv text, and _LEAF_CASE's
    verdict."""
    report, result = simulate(_WIDE)
    buf = io.StringIO()
    result.transcript.to_csv(buf)
    return report.to_json(), buf.getvalue(), privacy_bruteforce(_LEAF_CASE)


def test_a_round_and_a_leaf_colluders_view_never_relay(monkeypatch):
    expected = _wide_and_leaf_outputs()
    monkeypatch.setattr(protocol, "relay", _refuse)
    assert _wide_and_leaf_outputs() == expected
    # user 3 sits in the last group and hears group 0's uplink: a relay
    with pytest.raises(AssertionError, match="relay called"):
        privacy_bruteforce(dataclasses.replace(_LEAF_CASE, adversaries=(3,)))


def _refuse_sums(*args):
    raise AssertionError("group sums built")


def test_a_round_a_run_and_a_leaf_colluders_view_never_build_the_group_sums(
    monkeypatch, tmp_path
):
    # a round folds its blocks into one total; only an uplink from below
    # the last group reads the group sums
    monkeypatch.delenv("RAMPAGG_SEED", raising=False)
    report, csv_text, verdict = _wide_and_leaf_outputs()
    monkeypatch.setattr(protocol, "stream_group_sums", _refuse_sums)
    assert _wide_and_leaf_outputs() == (report, csv_text, verdict)
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(_WIDE.to_dict()))
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert (out / "report.json").read_text() == report
    assert (out / "transcript.csv").read_bytes().decode() == csv_text
    # user 3 sits in the last group and hears group 0's uplink
    with pytest.raises(AssertionError, match="group sums built"):
        privacy_bruteforce(dataclasses.replace(_LEAF_CASE, adversaries=(3,)))


@pytest.mark.parametrize("colluders", [(54,), (30, 66)])
def test_a_middle_colluders_view_on_a_chain_matches_the_oracle(colluders):
    # ten chained groups of 12: colluders in groups 2, 4 and 5 hear the
    # uplinks of the group below, made from the group sums streamed again
    _, result = simulate(_WIDE.replace(master_seed=7))
    view = collect_adversary_view(result, colluders)
    assert np.array_equal(view, adversary_view_naive(result, colluders))


def test_column_sums_refuse_a_total_past_int64():
    # above 2**61, three entries of p - 1 sum below 2**63 and four do not,
    # so a row buffer holds three users; 2**61 - 1 allows four
    p = next(q for q in range(2**61 + 1, 2**62) if is_prime(q))
    rows = np.full((4, 2), p - 1, dtype=np.int64)
    assert protocol._column_sums(rows[:3], p - 1, p).tolist() == [3 * (p - 1)] * 2
    with pytest.raises(ValueError, match=f"column sums of 4 terms mod {p} overflow int64"):
        protocol._column_sums(rows, p - 1, p)
    params = make_params(12, 2, 1, 3, model_len=8, entry_bound=16)
    assert protocol.sum_rows(params, p) == 3
    assert protocol.sum_rows(params, 2**61 - 1) == 4
    assert protocol.sum_rows(params, 1009) == 12


# ---- the message pattern ----


@settings(max_examples=80, deadline=None)
@given(rounds(), st.sampled_from(["chain", "star", "irregular"]))
def test_message_pattern_matches_the_fold_and_the_rows(round_, shape):
    k, t, d, parent, dropped, timing = round_
    size, groups = k + t + d, len(parent)
    n = size * groups
    params = make_params(n, t, d, k, model_len=k, entry_bound=4)
    tree = build_tree(groups, parent if shape == "irregular" else shape)
    pattern = message_pattern(params, tree, DropoutPlan(frozenset(dropped), timing))
    dead = np.isin(np.arange(n), dropped).reshape(groups, size)
    _, silent = relay_fold_naive(np.zeros((groups, size, 1), dtype=np.int64), dead, tree, 5)
    status = np.where(dead, DROPPED, np.where(silent, SILENCED, ACTIVE)).ravel().tolist()
    assert pattern.status.tolist() == status
    took_part = [not (timing == PRE_INTRA and u in dropped) for u in range(n)]
    assert pattern.took_part.tolist() == took_part
    rows = transcript_rows_naive(params, tree, took_part, status)
    assert _csv_rows(pattern) == [[str(v) for v in row[:5]] for row in rows]
    assert pattern.phase_counts() == phase_counts_naive(rows)
    assert pattern.links_used == len(links_naive(rows))


@settings(max_examples=40, deadline=None)
@given(rounds(), st.sampled_from(["chain", "star", "irregular"]))
def test_network_links_are_the_links_of_a_round_without_dropouts(round_, shape):
    k, t, d, parent, _, _ = round_
    size, groups = k + t + d, len(parent)
    params = make_params(size * groups, t, d, k, model_len=k, entry_bound=4)
    tree = build_tree(groups, parent if shape == "irregular" else shape)
    links = message_pattern(params, tree, DropoutPlan.none()).links_used
    assert protocol.network_links(params, tree) == links


def test_equal_keys_share_one_read_only_pattern():
    params = make_params(12, 2, 1, 3, model_len=9, entry_bound=8)
    tree = build_tree(2, "chain")
    plan = DropoutPlan(frozenset({2, 8}), BETWEEN_ROUNDS)  # both in slot 2
    pattern = message_pattern(params, tree, plan)
    same = DropoutPlan(frozenset({np.int64(8), 2}), BETWEEN_ROUNDS)
    assert message_pattern(make_params(12, 2, 1, 3, 9, 8), tree, same) is pattern
    assert message_pattern(params, tree, DropoutPlan(frozenset({2, 8}))) is not pattern
    assert message_pattern(params, tree, DropoutPlan(frozenset())) is message_pattern(
        params, tree, DropoutPlan.none()
    )
    ctx = FieldContext(11, 8, 12)
    assert run_protocol(ctx, params, tree, None, plan).transcript is pattern
    for mask in (pattern.took_part, pattern.status):
        with pytest.raises(ValueError, match="read-only"):
            mask[0] = 0


@pytest.mark.parametrize("index", [True, 1.0, np.float64(1), "1"])
@pytest.mark.parametrize("cached", [False, True], ids=["fresh-cache", "after-user-1"])
def test_a_dropout_that_is_not_an_integer_is_named(index, cached):
    ctx, params, tree, models = _setup(12, 2, 1, 3)
    protocol.message_pattern.cache_clear()
    if cached:
        result = run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({1})))
        assert result.status[1] == DROPPED
    with pytest.raises(ValueError, match=re.escape(f"dropout index {index!r} is not an")):
        run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({index})))


def test_repeated_heard_by_returns_equal_read_only_arrays():
    _, result = simulate(
        RunConfig(n_users=12, t_max=2, d_max=1, k_parts=3, model_len=9, entry_bound=8,
                  dropped=(2,), master_seed=2024)
    )
    transcript = result.transcript
    first = transcript.heard_by([0, 6])
    for users in ([0, 6], np.array([0, 6]), (0, 6)):
        again = transcript.heard_by(users)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        assert not any(a.flags.writeable for a in again)
    kept = protocol.Transcript._heard_by.cache_info()
    assert kept.maxsize is not None and kept.currsize <= kept.maxsize


# ---- the streamed round ----


def _stream_params(d=2):
    # K=3, T=2: groups of 5 + D users, (K+T) * S = 15 entries a user
    return make_params(12 if d == 1 else 14, 2, d, 3, model_len=8, entry_bound=16)


@pytest.mark.parametrize("cap", [1, 40, 70, 105, 210, 1 << 16])
@pytest.mark.parametrize(
    "pre_dropped", [[], [0], [13], [3, 4], [4, 5], [5, 6], [8, 12]]
)
def test_streamed_group_sums_equal_the_arrays(monkeypatch, cap, pre_dropped):
    # groups of 7 users, 105 entries: caps 1, 40 and 70 cut each group into
    # blocks of 1, 2 and 4 users (the last one shorter), 105 holds one whole
    # group and 210 the round; the dropouts sit at blocks' first and last
    # users, two of them in one group
    monkeypatch.setattr(protocol, "_BLOCK_ENTRIES", cap)
    params, p = _stream_params(), 1009
    coeffs = coefficient_array_naive(params, p, master_seed=5)
    expected = group_sums_naive(coeffs, params.group_size, pre_dropped, p)
    got = protocol.stream_group_sums(params, p, None, None, 5, pre_dropped)
    assert got.dtype == expected.dtype == np.int64
    assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "p,entry_bound,dtype", [(2**31 + 11, 2**31, object), (13, 16, np.int64)]
)
def test_streamed_group_sums_on_object_entries_and_a_small_prime(
    monkeypatch, p, entry_bound, dtype
):
    # an entry bound of 2**31 puts the blocks in object arrays; a modulus
    # below the entry bound has the drawn models reduced mod p
    monkeypatch.setattr(protocol, "_BLOCK_ENTRIES", 40)
    params = make_params(14, 2, 2, 3, model_len=8, entry_bound=entry_bound)
    coeffs = coefficient_array_naive(params, p, master_seed=9)
    assert coeffs.dtype == dtype
    written = written_blocks(params, p, None, None, 9)
    assert written.dtype == dtype
    assert written.tolist() == coeffs.tolist()  # so every entry is below p
    expected = group_sums_naive(coeffs, params.group_size, [3, 4], p)
    got = protocol.stream_group_sums(params, p, None, None, 9, [3, 4])
    assert got.dtype == dtype
    assert got.tolist() == expected.tolist()


def _given_inputs(params, p, kind, seed=0):
    """Models and noise of ``params``' round as ``kind`` names them, values
    in [-p, 2p) so that each must be reduced, None where drawn."""
    rng = Random(seed)
    n, t, seg_len, length = params.n_users, params.t_max, params.seg_len, params.model_len

    def values(*shape):
        return np.array([rng.randrange(-p, 2 * p) for _ in range(math.prod(shape))]).reshape(shape)

    return {
        "batch": (values(n, length, 3), values(n, t, seg_len, 3)),
        "models-over-batch": (values(n, length), values(n, t, seg_len, 3)),
        "runs": (values(n, length, 2, 1), values(n, t, seg_len, 2, 4)),
        "models-given": (values(n, length), None),
        "noise-given": (None, values(n, t, seg_len)),
        "drawn": (None, None),
    }[kind]


# the drawn round's group sums are checked above
GIVEN_KINDS = ["batch", "models-over-batch", "runs", "models-given", "noise-given"]


@pytest.mark.parametrize("rows", [1, 2, 4, 7, 14])
@pytest.mark.parametrize("kind", GIVEN_KINDS)
def test_written_blocks_and_group_sums_match_the_reference(monkeypatch, kind, rows):
    # groups of 7 users; a cap of ``rows`` users a block cuts each group
    # into blocks of 1, 2 or 4 users (the last one shorter), or holds one
    # group or the round.  Pre-intra dropouts 3 and 4 end and start a
    # block at 2 and 4 users a block, and 13 ends the round
    params, p = _stream_params(), 1009
    models, noise = _given_inputs(params, p, kind)
    monkeypatch.setattr(protocol, "_BLOCK_ENTRIES", 15 * rows)
    assert protocol.block_rows(params) == rows
    coeffs = coefficient_array_naive(params, p, models, noise, 5)
    assert np.array_equal(written_blocks(params, p, models, noise, 5), coeffs)
    pre_dropped = [3, 4, 13]
    expected = group_sums_naive(coeffs, params.group_size, pre_dropped, p)
    got = protocol.stream_group_sums(params, p, models, noise, 5, pre_dropped)
    assert got.dtype == expected.dtype == np.int64
    assert np.array_equal(got, expected)


def _buffer_users(monkeypatch, params, p, rows):
    """Size ``input_total``'s row buffers to ``rows`` users, or fewer where
    the round or the cap of 2**63 / (p-1) users is smaller: the fewest
    int64 entries of ``_BLOCK_ENTRIES`` whose bytes hold that many users'
    L model and T*S noise lanes."""
    bits = params.model_len * protocol.lane_bits(params.entry_bound)
    bits += params.t_max * params.seg_len * protocol.lane_bits(p)
    monkeypatch.setattr(protocol, "_BLOCK_ENTRIES", -(-rows * bits // 64))
    cap = (2**63 - 1) // (p - 1)
    assert protocol.sum_rows(params, p) == min(rows, params.n_users, cap)


def _assert_total_is_the_plain_sum(params, p, models, noise, master_seed, pre_dropped):
    """``input_total`` of a round's inputs equals the plain sum mod p of the
    reference coefficient array's included blocks, in the field dtype, and
    the arrivals it gives the server equal that sum's, point by point."""
    took_part = ~np.isin(np.arange(params.n_users), pre_dropped)
    total = protocol.input_total(params, p, models, noise, master_seed, took_part)
    coeffs = coefficient_array_naive(params, p, models, noise, master_seed)
    expected = group_sums_naive(coeffs, params.n_users, pre_dropped, p)[0]
    assert total.dtype == field_dtype(p, params.k_parts + params.t_max)
    assert total.tolist() == expected.tolist()
    arrivals = server_arrivals(total, params.group_size, p)
    assert arrivals.tolist() == arrivals_naive(expected, params.group_size, p).tolist()


@pytest.mark.parametrize("rows", [1, 2, 4, 7, 14])
@pytest.mark.parametrize("kind", GIVEN_KINDS + ["drawn"])
def test_input_total_is_the_plain_sum_of_any_inputs(monkeypatch, kind, rows):
    # row buffers of 1, 2, 4 or 7 users, or the round.  Pre-intra dropouts 3 and 4 end and start a buffer of 2 and 4
    # users, and 13 ends the round
    params, p = _stream_params(), 1009
    models, noise = _given_inputs(params, p, kind)
    _buffer_users(monkeypatch, params, p, rows)
    _assert_total_is_the_plain_sum(params, p, models, noise, 5, [3, 4, 13])


def _prime_above(low):
    return next(q for q in itertools.count(low + 1) if is_prime(q))


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize(
    "entry_bound,p,lanes",
    [
        (2**8, select_prime(14, 2**8).p, (8, 16)),
        (2**16, select_prime(14, 2**16).p, (16, 32)),
        (2**31, select_prime(14, 2**31).p, (32, 64)),  # an object total
        (2**63, 1009, (64, 16)),  # models reduced mod a hand-picked prime
        (2**32, _prime_above(2**61), (32, 64)),  # at most three users a buffer
        # one user a buffer, and N * (p-1) past 2**64: the sums are reduced
        # after each buffer
        (2**62, 2**63 - 25, (64, 64)),
    ],
)
def test_input_total_in_every_lane_width(monkeypatch, entry_bound, p, lanes, rows):
    # models and noise drawn in lanes of ``lanes`` bits, in buffers of one
    # user or four (at most the cap); pre-intra dropout 0 starts the first
    # buffer, 4 the second of four users, and 11 ends the third
    params = make_params(14, 2, 2, 3, model_len=8, entry_bound=entry_bound)
    assert (protocol.lane_bits(entry_bound), protocol.lane_bits(p)) == lanes
    _buffer_users(monkeypatch, params, p, rows)
    _assert_total_is_the_plain_sum(params, p, None, None, 8, [0, 4, 11])


@pytest.mark.parametrize("rows", [1, 2, 4, 7, 14])
@pytest.mark.parametrize("kind", GIVEN_KINDS + ["drawn"])
def test_group_sums_read_after_a_round_match_the_reference(monkeypatch, kind, rows):
    # as above, with pre-intra dropouts 3 and 4 at the edges of blocks of 2
    # and 4 users, and 10 in the other group's slot 3
    params, p = _stream_params(), 1009
    ctx, tree = FieldContext(p, 16, 14), build_tree(2, "chain")
    models, noise = _given_inputs(params, p, kind)
    monkeypatch.setattr(protocol, "_BLOCK_ENTRIES", 15 * rows)
    result = run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({3, 4, 10})), 5, noise)
    coeffs = coefficient_array_naive(params, p, models, noise, 5)
    expected = group_sums_naive(coeffs, params.group_size, [3, 4, 10], p)
    assert result.sums.dtype == expected.dtype == np.int64
    assert np.array_equal(result.sums, expected)


@pytest.mark.parametrize("kind", GIVEN_KINDS + ["drawn"])
def test_blocks_of_any_users_are_the_reference_rows(monkeypatch, kind):
    # blocks of 2 users; the users unsorted, repeated, and none at all
    params, p = _stream_params(d=1), 1009
    ctx, tree = FieldContext(p, 16, 12), build_tree(2, "chain")
    models, noise = _given_inputs(params, p, kind, seed=3)
    monkeypatch.setattr(protocol, "_BLOCK_ENTRIES", 15 * 2)
    plan = DropoutPlan(frozenset({4}))
    result = run_protocol(ctx, params, tree, models, plan, 6, noise)
    coeffs = coefficient_array_naive(params, p, models, noise, 6)
    for users in ([7, 0, 11, 7, 2, 11], [5], np.array([], dtype=int)):
        got = result.blocks(users)
        assert got.dtype == coeffs.dtype
        assert np.array_equal(got, coeffs[users])


@pytest.mark.parametrize("timing", [PRE_INTRA, BETWEEN_ROUNDS])
@pytest.mark.parametrize("cap", [40, 1 << 16])
def test_streamed_round_equals_the_array_round(monkeypatch, cap, timing):
    monkeypatch.setattr(protocol, "_BLOCK_ENTRIES", cap)
    params = _stream_params(d=1)
    ctx, tree = FieldContext(1009, 16, 12), build_tree(2, "chain")
    plan = DropoutPlan(frozenset({6}), timing)
    streamed = run_protocol(ctx, params, tree, None, plan, 4)
    models = protocol.draw_models(params, 4)
    filled = run_protocol(ctx, params, tree, models, plan, 4)
    for name in ("aggregate", "sums", "arrivals", "status", "took_part"):
        assert np.array_equal(getattr(streamed, name), getattr(filled, name)), name
    assert np.array_equal(streamed.uplinks(range(12)), filled.uplinks(range(12)))
    # remade from the same streams, in any order
    users = [11, 0, 6, 6, 3]
    assert np.array_equal(streamed.blocks(users), filled.blocks(users))


def test_streamed_coeffs_match_across_the_object_dtype_path():
    config = RunConfig(
        n_users=12, t_max=2, d_max=1, k_parts=3, model_len=10, entry_bound=2**31,
        dropped=(4,), master_seed=3,
    )
    _, result = simulate(config)
    params, tree, ctx = config.resolve()
    models = protocol.draw_models(params, config.master_seed)
    filled = run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({4})), 3)
    everyone = range(config.n_users)
    assert result.blocks(everyone).dtype == object
    assert result.blocks(everyone).tolist() == filled.blocks(everyone).tolist()
    assert result.aggregate.tolist() == filled.aggregate.tolist()


def test_streamed_round_peaks_below_the_coefficient_array():
    """At the round-wide shape (N=120, K+T=11, S=111, 10 groups) a round
    holds a row buffer of every user's model bytes (120 KB) and one of
    their 16-bit noise lanes (53 KB), the (K+T, S) total and the (size, S)
    server arrivals: about 0.46 of the 1.17 MB coefficient array, which it
    never builds.  Held (G, K+T, S) group sums would add 0.08 more."""
    config = RunConfig(
        n_users=120, t_max=2, d_max=1, k_parts=9, model_len=999, entry_bound=256,
        dropped=(2,), master_seed=1,
    )
    simulate(config.replace(master_seed=2))  # imports and caches are set-up
    tracemalloc.start()
    try:
        _, result = simulate(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.65 * math.prod(result.params.blocks_shape) * 8


def test_a_rounds_peak_does_not_grow_with_its_users():
    """A round holds two row buffers of lanes in at most the bytes of
    ``_BLOCK_ENTRIES`` int64 entries (276 users here), the (K+T, S) total
    and the (size, S) arrivals, whatever N: at 40 times the users,
    run_protocol peaks less than 1.5 times as high.  Held (G, K+T, S)
    group sums alone would take 39 MB at N=48,000."""

    def peak(n_users):
        config = _WIDE.replace(n_users=n_users, model_len=1000)
        params, tree, ctx = config.resolve()
        plan = DropoutPlan(frozenset({2}))
        run_protocol(ctx, params, tree, None, plan, 1)  # the pattern and caches are set-up
        tracemalloc.start()
        try:
            run_protocol(ctx, params, tree, None, plan, 2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1_200), peak(48_000)
    assert large < 1.5 * small, (small, large)


# ---- the CSV export ----


def _csv_against_csv_writer(config):
    """The round's transcript.csv as ``to_csv`` writes it, and as the
    ``csv.writer`` oracle writes it."""
    _, result = simulate(config)
    rows = transcript_rows_naive(
        result.params, result.tree, result.took_part.tolist(), result.status.tolist()
    )
    written = io.StringIO()
    result.transcript.to_csv(written)
    return written.getvalue(), transcript_csv_naive(rows)


@settings(max_examples=60, deadline=None)
@given(rounds(), st.sampled_from(["chain", "star", "irregular"]), st.integers(0, 99))
def test_csv_matches_csv_writer_on_drawn_rounds(round_, shape, seed):
    k, t, d, parent, dropped, timing = round_
    size = k + t + d
    config = RunConfig(
        n_users=size * len(parent), t_max=t, d_max=d, k_parts=k, model_len=k + 1,
        entry_bound=4, tree_shape=parent if shape == "irregular" else shape,
        dropped=tuple(dropped), dropout_timing=timing, master_seed=seed,
    )
    _, result = simulate(config)
    rows = transcript_rows_naive(
        result.params, result.tree, result.took_part.tolist(), result.status.tolist()
    )
    written = io.StringIO()
    result.transcript.to_csv(written)
    assert written.getvalue() == transcript_csv_naive(rows)


def test_csv_through_a_file_opened_like_the_cli(tmp_path):
    # 100 chained groups of 6 and dropouts in two slots: null uplinks and
    # undelivered sends, over more rows than one written block
    config = RunConfig(
        n_users=600, t_max=2, d_max=2, k_parts=2, model_len=3, entry_bound=4,
        dropped=(1, 6 * 70 + 4), dropout_timing=PRE_INTRA, master_seed=3,
    )
    _, result = simulate(config)
    rows = transcript_rows_naive(
        result.params, result.tree, result.took_part.tolist(), result.status.tolist()
    )
    assert len(rows) > _CSV_BLOCK_ROWS
    assert any(row[4] for row in rows) and not all(row[5] for row in rows)
    path = tmp_path / "transcript.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        result.transcript.to_csv(fh)
    assert path.read_bytes() == transcript_csv_naive(rows).encode()


def test_csv_with_five_digit_user_names():
    # 5,000 groups of two under a star: users 0..9999 and the server as
    # senders and receivers, over many written blocks
    config = RunConfig(
        n_users=10_000, t_max=1, d_max=0, k_parts=1, model_len=2, entry_bound=4,
        tree_shape="star", master_seed=5,
    )
    written, expected = _csv_against_csv_writer(config)
    assert "\r\nintra,9999,9998,2," in written and "\r\nserver,9999,server," in written
    assert written == expected


def test_csv_with_a_multi_digit_segment_length():
    config = RunConfig(
        n_users=12, t_max=2, d_max=1, k_parts=3, model_len=3 * 1234 - 1, entry_bound=4,
        dropped=(4,), master_seed=6,
    )
    written, expected = _csv_against_csv_writer(config)
    assert ",1234,False\r\n" in written and ",0,True\r\n" in written
    assert written == expected


def test_csv_user_names_follow_each_transcripts_n():
    # each transcript keeps its own text: rounds of 6, 12 and again 6
    # users, the last with two segment lengths, must each get their own
    # names, server and symbol counts, and the repeated pattern its first text
    texts = []
    for n, length in ((6, 4), (12, 4), (6, 7), (6, 4)):
        config = RunConfig(
            n_users=n, t_max=2, d_max=1, k_parts=3, model_len=length, entry_bound=4,
            master_seed=n,
        )
        written, expected = _csv_against_csv_writer(config)
        assert written == expected
        texts.append(simulate(config)[1].transcript._csv_text)
    assert texts[3] is texts[0]
    assert len({id(text) for text in texts}) == 3


def test_csv_user_name_tables_are_read_only():
    heads, tails = _csv_heads(2), _csv_tails(2, 3)
    assert heads.tolist() == [
        "intra,0,", "intra,1,", "inter,0,", "inter,1,", "server,0,", "server,1,"
    ]  # fmt: skip
    assert tails.tolist() == [
        "0,3,False\r\n", "1,3,False\r\n", "server,3,False\r\n",
        "0,0,False\r\n", "1,0,False\r\n", "server,0,False\r\n",
        "0,0,True\r\n", "1,0,True\r\n", "server,0,True\r\n",
    ]  # fmt: skip
    for table in heads, tails:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = "9,"


def test_csv_text_is_kept_and_written_once():
    # two groups of 2, S = 3: every export of one transcript is one write
    # of the same string, header included
    config = RunConfig(
        n_users=4, t_max=1, d_max=0, k_parts=1, model_len=3, entry_bound=4, master_seed=1,
    )
    _, result = simulate(config)
    rows = transcript_rows_naive(
        result.params, result.tree, result.took_part.tolist(), result.status.tolist()
    )
    first, again = _Writes(), _Writes()
    result.transcript.to_csv(first)
    result.transcript.to_csv(again)
    assert first.writes == [transcript_csv_naive(rows)]
    assert first.writes[0].startswith("phase,sender,receiver,symbols,null\r\nintra,0,0,0,")
    assert len(again.writes) == 1 and again.writes[0] is first.writes[0]


@pytest.mark.parametrize("spare", [0, 1], ids=["at-the-cap", "one-row-over"])
def test_csv_text_is_kept_only_up_to_the_row_cap(monkeypatch, spare):
    # four chained groups of 6 with user 8 dropped, as a fresh transcript
    # that has kept nothing: at the cap its text is made once and written
    # in one write, one row over it is written a block at a time and kept
    # nowhere; the bytes are the same either way
    config = RunConfig(
        n_users=24, t_max=2, d_max=2, k_parts=2, model_len=5, entry_bound=4,
        dropped=(8,), master_seed=7,
    )
    _, result = simulate(config)
    rows = transcript_rows_naive(
        result.params, result.tree, result.took_part.tolist(), result.status.tolist()
    )
    transcript = Transcript(result.params, result.tree, result.took_part, result.status)
    monkeypatch.setattr(protocol, "_CACHED_CSV_ROWS", len(rows) - spare)
    written = _Writes()
    transcript.to_csv(written)
    assert written.getvalue() == transcript_csv_naive(rows)
    assert (len(written.writes) == 1) == (spare == 0)
    assert ("_csv_text" in vars(transcript)) == (spare == 0)


def test_round_makes_no_per_group_tree_queries():
    # 400 chained groups of 3; the tree has no per-group queries, so the
    # relay, the transcript and its export read its layout arrays
    config = RunConfig(
        n_users=1200, t_max=1, d_max=1, k_parts=1, model_len=2, entry_bound=8,
        dropped=(4,), dropout_timing=BETWEEN_ROUNDS,
    )
    report, result = simulate(config)
    result.transcript.to_csv(io.StringIO())
    assert np.flatnonzero(result.null).tolist() == list(range(4, 1200, 3))[1:]
    assert report.total_edges == report.edges_formula


# ---- shape invariance and determinism ----


def test_chain_and_star_yield_identical_aggregates():
    ctx, params, _, models = _setup(24, 3, 1, 4, length=8)
    assert params.num_groups == 3
    results = [
        run_protocol(ctx, params, build_tree(3, shape), models, master_seed=5)
        for shape in ("chain", "star")
    ]
    assert results[0].aggregate.tolist() == results[1].aggregate.tolist()


def test_same_seed_reproduces_byte_identical_transcript():
    ctx, params, tree, models = _setup(12, 2, 1, 3, length=9)
    a = run_protocol(ctx, params, tree, models, master_seed=9)
    b = run_protocol(ctx, params, tree, models, master_seed=9)
    assert a.aggregate.tolist() == b.aggregate.tolist()
    csv_a, csv_b = io.StringIO(), io.StringIO()
    a.transcript.to_csv(csv_a)
    b.transcript.to_csv(csv_b)
    assert csv_a.getvalue() == csv_b.getvalue()
    assert np.array_equal(a.blocks(range(12)), b.blocks(range(12)))


def test_different_seed_changes_noise_not_aggregate():
    ctx, params, tree, models = _setup(12, 2, 1, 3, length=9)
    a = run_protocol(ctx, params, tree, models, master_seed=1)
    b = run_protocol(ctx, params, tree, models, master_seed=2)
    assert a.aggregate.tolist() == b.aggregate.tolist()
    k = params.k_parts
    blocks_a, blocks_b = a.blocks(range(12)), b.blocks(range(12))
    assert np.array_equal(blocks_a[:, :k], blocks_b[:, :k])  # same models
    assert not np.array_equal(blocks_a[:, k:], blocks_b[:, k:])  # new noise


def test_explicit_noise_blocks_are_respected():
    ctx, params, tree, models = _setup(6, 2, 1, 3, length=6)
    noise = np.tile([[1, 1], [2, 2]], (6, 1, 1))  # (N, T, S)
    result = run_protocol(ctx, params, tree, models, noise=noise)
    assert result.aggregate.tolist() == _expected_sum(models, set(range(6)))
    assert result.blocks([3])[0, params.k_parts :].tolist() == [[1, 1], [2, 2]]


@pytest.mark.parametrize("batch", [(), (3,)])
def test_out_of_range_inputs_are_reduced_mod_p(batch):
    """Noise shifted by +p or -p, or models shifted by +p, run the round
    that their residues run, and the coefficient array holds the residues
    that the fill step writes into it."""
    ctx, params, tree, models = _setup(12, 2, 1, 3, length=8)
    p, plan = ctx.p, DropoutPlan(frozenset({4}), BETWEEN_ROUNDS)
    rng = Random(8)
    shape = (12, 2, params.seg_len) + batch
    noise = np.array([rng.randrange(p) for _ in range(math.prod(shape))]).reshape(shape)

    def outputs(models, noise):
        result = run_protocol(ctx, params, tree, models, plan, noise=noise)
        view = collect_adversary_view(result, [0, 7])
        parts = result.aggregate, result.uplinks(range(12)), view, result.blocks(range(12))
        return [a.tolist() for a in parts]

    expected = outputs(models, noise)
    assert outputs(models, noise + p) == expected
    assert outputs(models, noise - p) == expected
    assert outputs(models + p, noise) == expected
    assert outputs(models + p, noise - p) == expected


def test_reduced_given_inputs_are_written_as_they_are(monkeypatch):
    # int64 inputs whose entries lie in [0, p), both ends included, are
    # written with no reduction; one entry at p has the noise reduced
    params, p = _stream_params(d=1), 1009
    rng = Random(2)
    models = np.array([rng.randrange(16) for _ in range(12 * 8)]).reshape(12, 8)
    noise = np.array([rng.randrange(p) for _ in range(12 * 2 * 3)]).reshape(12, 2, 3)
    noise[0, 0, 0], noise[1, 0, 0] = 0, p - 1
    reduced = []

    def spy(x, p, out=None):
        reduced.append(x.shape)
        return field.reduce_mod(x, p, out)

    monkeypatch.setattr(protocol, "reduce_mod", spy)
    written = written_blocks(params, p, models, noise)
    assert reduced == []
    assert np.array_equal(written[:, params.k_parts :], noise)
    noise[2, 1, 2] = p
    written = written_blocks(params, p, models, noise)
    assert reduced == [(12, 2, 3)]
    assert written[2, params.k_parts + 1, 2] == 0


@pytest.mark.parametrize("shift", [0, 1009])
def test_read_only_broadcast_inputs_are_never_written(shift):
    # read-only views: a write into either would raise.  Shifted by p, both
    # are reduced, and the round is that of their residues
    params, p = _stream_params(d=1), 1009
    ctx, tree = FieldContext(p, 16, 12), build_tree(2, "chain")
    column = np.arange(12 * 2 * 3).reshape(12, 2, 3, 1) * 17 % p + shift
    noise = np.broadcast_to(column, (12, 2, 3, 4))
    models = np.broadcast_to(np.arange(8) + shift, (12, 8))
    before = column.copy()
    result = run_protocol(ctx, params, tree, models, noise=noise)
    assert np.array_equal(column, before)
    plain = run_protocol(ctx, params, tree, models % p, noise=noise % p)
    assert np.array_equal(result.aggregate, plain.aggregate)
    assert np.array_equal(result.blocks(range(12)), plain.blocks(range(12)))


def test_explicit_noise_carries_a_batch_axis_through_the_round():
    ctx, params, tree, models = _setup(6, 2, 1, 3, length=6)
    rng = Random(5)
    noise = np.array([rng.randrange(ctx.p) for _ in range(6 * 2 * 2 * 4)]).reshape(6, 2, 2, 4)
    batched = run_protocol(ctx, params, tree, models, noise=noise)
    assert batched.aggregate.shape == (6, 4)
    for b in range(4):
        single = run_protocol(ctx, params, tree, models, noise=noise[..., b])
        assert batched.aggregate[:, b].tolist() == single.aggregate.tolist()
        assert batched.uplinks(range(6))[..., b].tolist() == single.uplinks(range(6)).tolist()


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(7, "noise:0") == derive_seed(7, "noise:0")
    assert derive_seed(7, "noise:0") != derive_seed(7, "noise:1")
    assert derive_seed(7, "noise:0") != derive_seed(8, "noise:0")


# ---- server-side recovery and its consistency check ----


def _server_inputs(result, params):
    """The last group's partials and silent mask, as run_protocol passes them."""
    last = (params.num_groups - 1) * params.group_size
    return result.arrivals.copy(), result.status[last:] != UserStatus.ACTIVE


def test_server_recover_accepts_honest_run():
    ctx, params, tree, models = _setup(12, 2, 1, 9)
    result = run_protocol(ctx, params, tree, models)
    partials, silent = _server_inputs(result, params)
    assert silent.sum() == 0  # 12 arrivals: 11 fit the polynomial, 1 checks it
    recovered = server_recover(ctx, params, partials, silent)
    assert recovered.tolist() == _expected_sum(models, set(range(12)))


def test_server_recover_flags_tampering():
    ctx, params, tree, models = _setup(12, 2, 1, 9)
    result = run_protocol(ctx, params, tree, models)
    partials, silent = _server_inputs(result, params)
    partials[-1, 0] = (partials[-1, 0] + 1) % ctx.p
    with pytest.raises(InconsistentArrivals, match="12"):
        server_recover(ctx, params, partials, silent)


def test_server_recover_needs_quorum():
    ctx, params, tree, models = _setup(12, 2, 1, 9)
    result = run_protocol(ctx, params, tree, models)
    partials, silent = _server_inputs(result, params)
    silent[10:] = True  # 10 arrivals, K+T = 11 needed
    with pytest.raises(TooManyDropouts, match="only 10"):
        server_recover(ctx, params, partials, silent)


# ---- input validation ----


def test_rejects_wrong_model_count():
    ctx, params, tree, models = _setup(6, 2, 1, 3)
    with pytest.raises(ValueError, match="models"):
        run_protocol(ctx, params, tree, models[:-1])


def test_rejects_wrong_model_length():
    ctx, params, tree, models = _setup(6, 2, 1, 3, length=6)
    with pytest.raises(ValueError, match="length"):
        run_protocol(ctx, params, tree, np.zeros((6, 7), dtype=np.int64))
    with pytest.raises(ValueError, match="length"):
        run_protocol(ctx, params, tree, models[0])


def test_rejects_mismatched_tree():
    ctx, params, _, models = _setup(12, 2, 1, 3)
    with pytest.raises(ValueError, match="groups"):
        run_protocol(ctx, params, build_tree(3, "chain"), models)


def test_rejects_small_modulus():
    params = make_params(12, 2, 1, 9, model_len=9, entry_bound=8)
    ctx = FieldContext(11, 8, 12)  # 11 <= group size 12
    models = np.zeros((12, 9), dtype=np.int64)
    with pytest.raises(ValueError, match="modulus"):
        run_protocol(ctx, params, build_tree(1, "chain"), models)


def test_rejects_wrong_noise_shape():
    ctx, params, tree, models = _setup(6, 2, 1, 3, length=6)
    with pytest.raises(ValueError, match="noise"):
        run_protocol(ctx, params, tree, models, noise=np.zeros((6, 2, 3)))  # S is 2


def test_rejects_out_of_range_dropout():
    ctx, params, tree, models = _setup(6, 2, 1, 3)
    with pytest.raises(ValueError, match="dropout"):
        run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({9})))

