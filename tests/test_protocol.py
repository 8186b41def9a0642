"""End-to-end protocol rounds: aggregation, silence, accounting, recovery."""

import io
import math
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampagg.errors import InconsistentArrivals, TooManyDropouts
from rampagg.field import FieldContext, field_dtype, is_prime
from rampagg.harness import RunConfig, simulate
from rampagg.protocol import (
    BETWEEN_ROUNDS,
    PHASE_INTER,
    PHASE_INTRA,
    PHASE_SERVER,
    PHASES,
    PRE_INTRA,
    _CSV_BLOCK_ROWS,
    DropoutPlan,
    Transcript,
    UserStatus,
    derive_seed,
    eval_point_for_slot,
    relay,
    run_protocol,
    server_recover,
)
from rampagg.sharing import evaluate
from rampagg.topology import build_tree, make_params

from oracles import (
    ACTIVE,
    DROPPED,
    SILENCED,
    links_naive,
    potential_links_naive,
    relay_fold_naive,
    rounds,
    transcript_csv_naive,
    transcript_rows_naive,
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


def _named(users, n):
    """User indices with the server, index n, by its transcript name."""
    return ["server" if u == n else u for u in users]


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
    for u in range(6):
        slot = u  # single group
        shares = [
            evaluate(result.coeffs[v], [eval_point_for_slot(slot)], ctx.p)[0]
            for v in range(6)
        ]
        expected = sum(shares) % ctx.p
        assert result.intra[u].tolist() == expected.tolist()


def test_single_group_server_messages_are_the_intra_aggregates():
    ctx, params, tree, models = _setup(6, 2, 1, 3, length=6)
    result = run_protocol(ctx, params, tree, models)
    assert (result.status == UserStatus.ACTIVE).all()
    assert np.array_equal(result.partials, result.intra)


def test_two_group_server_message_stacks_child_aggregate():
    ctx, params, tree, models = _setup(12, 2, 1, 3, length=6)
    result = run_protocol(ctx, params, tree, models)
    for sender in range(6, 12):
        child_user = sender - 6  # group 0, same slot
        expected = (result.intra[child_user] + result.intra[sender]) % ctx.p
        assert result.partials[sender].tolist() == expected.tolist()


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


def test_dropped_user_leaves_no_transcript_entry():
    ctx, params, tree, models = _setup(12, 2, 1, 3, length=9)
    result = run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({2})))
    assert 2 not in result.transcript.sender


def test_sends_to_dropped_user_cost_symbols_but_never_deliver():
    ctx, params, tree, models = _setup(12, 2, 1, 3, length=9)
    result = run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({2})))
    transcript = result.transcript
    to_dropped = transcript.receiver == 2
    assert to_dropped.sum() == 5  # the other five group members still send
    assert (transcript.symbols[to_dropped] == params.seg_len).all()
    assert not transcript.delivered[to_dropped].any()
    # and the silenced relay sends an explicit zero-symbol null
    assert transcript.null.sum() == 1
    assert transcript.sender[transcript.null].tolist() == [8]
    assert transcript.symbols[transcript.null].tolist() == [0]


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
    transcript = result.transcript
    self_rows = transcript.sender == transcript.receiver
    assert self_rows.sum() == 6
    assert (transcript.symbols[self_rows] == 0).all()


def test_active_links_exclude_nulls_undelivered_and_self():
    ctx, params, tree, models = _setup(12, 2, 1, 3, length=9)
    result = run_protocol(ctx, params, tree, models, DropoutPlan(frozenset({2})))
    links = result.transcript.links()
    assert not (links == 2).any()  # all traffic to 2 undelivered
    assert (links[:, 0] < links[:, 1]).all()  # self-shares are not links
    silenced_uplink = [8, 12]  # null message to the server (user N), silent link
    assert silenced_uplink not in links.tolist()


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
    assert rows == list(
        zip(
            [PHASES[c] for c in transcript.phase.tolist()],
            transcript.sender.tolist(),
            _named(transcript.receiver.tolist(), n),
            transcript.symbols.tolist(),
            transcript.null.tolist(),
            transcript.delivered.tolist(),
        )
    )
    links = transcript.links().tolist()
    assert links == sorted(links) and all(a < b for a, b in links)
    assert {frozenset(_named(pair, n)) for pair in links} == links_naive(rows)
    assert report.total_edges == len(potential_links_naive(params, tree))
    assert report.silent_edges == report.total_edges - len(links_naive(rows))
    written = io.StringIO()
    transcript.to_csv(written)
    assert written.getvalue() == transcript_csv_naive(rows)


@settings(max_examples=80, deadline=None)
@given(
    rounds(),
    st.sampled_from([101, 2**32 + 15]),  # int64 and object field dtypes
    st.sampled_from([(), (1,), (3,)]),
    st.integers(0, 2**32),
)
def test_relay_scan_matches_leaves_first_fold(round_, p, batch, seed):
    k, t, d, parent, dropped, timing = round_
    size, groups = k + t + d, len(parent)
    n = size * groups
    params = make_params(n, t, d, k, model_len=k + 1, entry_bound=4)
    ctx, tree, rng = FieldContext(p, 4, n), build_tree(groups, parent), Random(seed)
    models = np.array([rng.randrange(4) for _ in range(n * (k + 1))]).reshape(n, k + 1)
    shape = (n, t, params.seg_len) + batch
    noise = np.array([rng.randrange(p) for _ in range(math.prod(shape))]).reshape(shape)
    plan = DropoutPlan(frozenset(dropped), timing)
    result = run_protocol(ctx, params, tree, models, plan, noise=noise)
    dead = (result.status == DROPPED).reshape(groups, size)
    intra = result.intra.reshape((groups, size, params.seg_len) + batch)
    partials, silent = relay_fold_naive(intra, dead, tree, p)
    assert result.partials.dtype == field_dtype(p, k + t)
    assert np.array_equal(result.partials, partials.reshape(result.partials.shape))
    assert np.array_equal(relay(intra, dead, tree, p)[1], silent)
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
    assert result.partials.dtype == np.int64
    dead = (result.status == DROPPED).reshape(groups, size)
    intra = result.intra.reshape(groups, size, params.seg_len)
    partials, silent = relay_fold_naive(intra, dead, tree, p)
    assert np.array_equal(result.partials, partials.reshape(result.partials.shape))
    assert np.flatnonzero(result.null).tolist() == list(range(2 * size + 1, groups * size, size))
    assert result.aggregate.tolist() == _expected_sum(models, set(range(groups * size)))


def test_relay_refuses_prefix_sums_past_int64():
    # two groups' prefix sums reach 2*(p-1), which int64 holds up to 2**63 - 1
    tree = build_tree(2, "chain")
    dead = np.zeros((2, 2), dtype=bool)
    fits = 2**62
    for p in (fits, fits + 1):
        exact = np.full((2, 2, 1), p - 1, dtype=object)
        expected, _ = relay_fold_naive(exact, dead, tree, p)
        if p == fits:
            partials, _ = relay(exact.astype(np.int64), dead, tree, p)
            assert partials.tolist() == expected.tolist()
        else:
            with pytest.raises(ValueError, match="overflow int64"):
                relay(exact.astype(np.int64), dead, tree, p)
        assert relay(exact, dead, tree, p)[0].tolist() == expected.tolist()


# ---- the CSV export ----


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


def test_round_makes_no_per_group_tree_queries():
    # 400 chained groups of 3; the tree has no per-group queries, so the
    # relay, the transcript and its export read its layout arrays
    config = RunConfig(
        n_users=1200, t_max=1, d_max=1, k_parts=1, model_len=2, entry_bound=8,
        dropped=(4,), dropout_timing=BETWEEN_ROUNDS,
    )
    report, result = simulate(config)
    transcript = Transcript.of_round(result.params, result.tree, result.took_part, result.status)
    transcript.to_csv(io.StringIO())
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
    assert np.array_equal(a.coeffs, b.coeffs)


def test_different_seed_changes_noise_not_aggregate():
    ctx, params, tree, models = _setup(12, 2, 1, 3, length=9)
    a = run_protocol(ctx, params, tree, models, master_seed=1)
    b = run_protocol(ctx, params, tree, models, master_seed=2)
    assert a.aggregate.tolist() == b.aggregate.tolist()
    k = params.k_parts
    assert np.array_equal(a.coeffs[:, :k], b.coeffs[:, :k])  # same models
    assert not np.array_equal(a.coeffs[:, k:], b.coeffs[:, k:])  # new noise


def test_explicit_noise_blocks_are_respected():
    ctx, params, tree, models = _setup(6, 2, 1, 3, length=6)
    noise = np.tile([[1, 1], [2, 2]], (6, 1, 1))  # (N, T, S)
    result = run_protocol(ctx, params, tree, models, noise=noise)
    assert result.aggregate.tolist() == _expected_sum(models, set(range(6)))
    assert result.coeffs[3, params.k_parts :].tolist() == [[1, 1], [2, 2]]


def test_explicit_noise_carries_a_batch_axis_through_the_round():
    ctx, params, tree, models = _setup(6, 2, 1, 3, length=6)
    rng = Random(5)
    noise = np.array([rng.randrange(ctx.p) for _ in range(6 * 2 * 2 * 4)]).reshape(6, 2, 2, 4)
    batched = run_protocol(ctx, params, tree, models, noise=noise)
    assert batched.aggregate.shape == (6, 4)
    for b in range(4):
        single = run_protocol(ctx, params, tree, models, noise=noise[..., b])
        assert batched.aggregate[:, b].tolist() == single.aggregate.tolist()
        assert batched.partials[..., b].tolist() == single.partials.tolist()


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(7, "noise:0") == derive_seed(7, "noise:0")
    assert derive_seed(7, "noise:0") != derive_seed(7, "noise:1")
    assert derive_seed(7, "noise:0") != derive_seed(8, "noise:0")


# ---- server-side recovery and its consistency check ----


def _server_inputs(result, params):
    """The last group's partials and silent mask, as run_protocol passes them."""
    last = (params.num_groups - 1) * params.group_size
    return result.partials[last:].copy(), result.status[last:] != UserStatus.ACTIVE


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

