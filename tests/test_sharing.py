"""Partitioning, noise, coefficient blocks, share evaluation, and sum recovery."""

import itertools
from collections import Counter
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampagg import protocol
from rampagg.field import FieldContext
from rampagg.protocol import (
    derive_seed,
    draw_noise,
    draw_uniform,
    eval_point_for_slot,
    server_recover,
)
from rampagg.sharing import evaluate, partition, share_blocks
from rampagg.topology import ProtocolParams

from oracles import uniform_getrandbits_naive


def _ctx(p: int) -> FieldContext:
    return FieldContext(p, 2, 2)


def _block(entries, k_parts, noise_vectors, p):
    """One user's (K+T, S) coefficient block."""
    noise = np.array([noise_vectors], dtype=np.int64).reshape(1, len(noise_vectors), -1)
    return share_blocks(partition([entries], k_parts), noise, p)[0]


# ---- partitioning ----


def test_partition_exact_split():
    segments = partition([tuple(range(9))], 3)
    assert segments.tolist() == [[[0, 1, 2], [3, 4, 5], [6, 7, 8]]]


def test_partition_pads_tail():
    segments = partition([(1, 2, 3, 4, 5)], 3)
    assert segments.shape == (1, 3, 2)  # seg_len 2, one padding zero
    assert segments.tolist() == [[[1, 2], [3, 4], [5, 0]]]


def test_partition_more_parts_than_entries():
    segments = partition([(7, 8)], 4)
    assert segments.tolist() == [[[7], [8], [0], [0]]]


def test_unpartition_inverts():
    """Concatenating the segments and dropping the padding, as recovery
    does with the summed segments, gives the model back."""
    entries = (3, 1, 4, 1, 5, 9, 2)
    segments = partition([entries], 3)
    assert tuple(segments.reshape(-1)[: len(entries)].tolist()) == entries


@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=12),
)
def test_partition_round_trip(entries, k):
    segments = partition([entries, entries[::-1]], k)
    n, k_parts, seg_len = segments.shape
    assert (n, k_parts) == (2, k)
    pad_count = seg_len * k - len(entries)
    # minimal seg_len: one less would not fit, hence padding stays below k
    assert 0 <= pad_count < k
    flat = segments.reshape(2, -1)
    assert flat[0, : len(entries)].tolist() == entries
    assert flat[1, : len(entries)].tolist() == entries[::-1]
    assert not flat[:, len(entries) :].any()


# ---- noise ----


def _params(n_users, t_max, k_parts, model_len):
    return ProtocolParams(n_users, t_max, 0, k_parts, model_len, entry_bound=2)


def test_noise_is_deterministic_per_seed():
    params = _params(3, 2, 2, 8)  # T=2 vectors of seg_len 4 per user
    a = draw_noise(101, params, 9)
    assert a.shape == (3, 2, 4)
    assert np.array_equal(a, draw_noise(101, params, 9))
    assert not np.array_equal(a, draw_noise(101, params, 10))
    # one stream for the round, users then vectors then symbols in row order
    expected = uniform_getrandbits_naive(derive_seed(9, "noise"), 101, 3 * 2 * 4)
    assert a.reshape(-1).tolist() == expected


def test_noise_without_noise_vectors_is_empty():
    assert draw_noise(101, _params(3, 0, 2, 8), 9).shape == (3, 0, 4)
    assert draw_uniform(1, 5, (2, 0, 3)).shape == (2, 0, 3)


# 2**16 + 1 rejects almost half the words; 2**31 + 11 is the smallest bound
# read from 64-bit words; 2**63 is the largest bound.
@pytest.mark.parametrize("bound", [2, 5, 101, 2**16 + 1, 2**32, 2**31 + 11, 2**63])
def test_draw_uniform_matches_word_by_word_reference(bound):
    values = draw_uniform(17, bound, (40, 25))
    assert values.dtype == np.int64 and values.shape == (40, 25)
    assert 0 <= values.min() and values.max() < bound
    assert values.reshape(-1).tolist() == uniform_getrandbits_naive(17, bound, 1000)


@pytest.mark.parametrize("bound", [5, 2**16 + 1, 2**31 + 11])
def test_draw_uniform_is_independent_of_chunking(bound, monkeypatch):
    whole = draw_uniform(3, bound, (500,))
    monkeypatch.setattr(protocol, "_CHUNK_WORDS", 7)
    assert np.array_equal(draw_uniform(3, bound, (500,)), whole)


def test_draw_uniform_is_deterministic_and_seed_sensitive():
    a = draw_uniform(5, 2**16 + 1, (300,))
    assert np.array_equal(a, draw_uniform(5, 2**16 + 1, (300,)))
    assert not np.array_equal(a, draw_uniform(6, 2**16 + 1, (300,)))


@pytest.mark.parametrize("bound", [1, 0, 2**63 + 1])
def test_draw_uniform_rejects_bounds_outside_int64(bound):
    with pytest.raises(ValueError, match="bound"):
        draw_uniform(0, bound, (3,))


def test_noise_is_roughly_uniform():
    # 10000 draws from GF(5): expect 2000 per residue; allow 5 sigma
    # (sigma = sqrt(10000 * 0.2 * 0.8) = 40).
    noise = draw_noise(5, _params(2500, 1, 1, 4), 123)
    counts = Counter(noise.reshape(-1).tolist())
    assert sum(counts.values()) == 10000
    for residue in range(5):
        assert abs(counts[residue] - 2000) <= 200, counts


# ---- coefficient block layout ----


def test_coefficient_layout_segments_low_noise_high():
    block = _block(tuple(range(1, 7)), 3, [(10, 11), (12, 13)], 101)  # segments of 2
    assert block.tolist() == [[1, 2], [3, 4], [5, 6], [10, 11], [12, 13]]
    # coordinate 0 polynomial: 1 + 3x + 5x^2 + 10x^3 + 12x^4
    assert block[:, 0].tolist() == [1, 3, 5, 10, 12]
    assert block[-1, 1] != 0  # coordinate 1 has degree 4


def test_degree_bound_is_k_plus_t_minus_1():
    block = _block(tuple(range(9)), 9, [(1,), (1,)], 101)
    assert block.shape == (11, 1)  # K + T coefficients: degree <= 10
    assert block[-1, 0] != 0  # and the bound is reached


def test_blocks_reduce_mod_p_and_broadcast_the_batch_axis():
    segments = partition([(3, 9), (12, 1)], 2)  # (2, 2, 1)
    noise = np.arange(2 * 4).reshape(2, 1, 1, 4) * 5  # a batch axis of 4
    blocks = share_blocks(segments, noise, 7)
    assert blocks.shape == (2, 3, 1, 4)
    assert blocks[:, :2, 0, :].tolist() == [[[3] * 4, [2] * 4], [[5] * 4, [1] * 4]]
    assert blocks[0, 2, 0].tolist() == [0, 5, 3, 1]  # 0, 5, 10, 15 mod 7


# ---- share evaluation ----


def test_share_at_hand_example():
    # f(x) = 3 + 5x over GF(13): f(2) = 13 = 0
    block = _block((3,), 1, [(5,)], 13)
    assert evaluate(block, [2], 13).tolist() == [[0]]
    assert evaluate(block, [1], 13).tolist() == [[8]]


def test_share_at_vector_example():
    # coordinates evaluated independently
    block = _block((1, 2, 3, 4), 2, [(5, 0)], 7)  # (1,2), (3,4)
    # coord 0: 1 + 3x + 5x^2 at x=2 -> 27 % 7 = 6
    # coord 1: 2 + 4x + 0x^2 at x=2 -> 10 % 7 = 3
    assert evaluate(block, [2], 7).tolist() == [[6, 3]]


def test_shares_are_additive():
    p = 101
    rng = Random(4)
    models = [tuple(rng.randrange(10) for _ in range(6)) for _ in range(5)]
    noise = np.array([[[rng.randrange(p) for _ in range(2)] for _ in range(2)] for _ in range(5)])
    blocks = share_blocks(partition(models, 3), noise, p)  # (5 users, 5, 2)
    coeff_sums = blocks.sum(axis=0) % p
    for point in (1, 2, 7):
        shares = evaluate(blocks, [point], p, axis=1)[:, 0]  # one per user
        summed = shares.sum(axis=0) % p
        expected = [
            sum(int(vec[i]) * pow(point, j, p) for j, vec in enumerate(coeff_sums)) % p
            for i in range(2)
        ]
        assert summed.tolist() == expected
        assert evaluate(coeff_sums, [point], p)[0].tolist() == expected


# ---- recovery ----


def _share_and_recover(ctx, models, k_parts, noise_count, slots, rng):
    """Share ``models``, sum their shares at the points of ``slots`` server
    slots, and recover the sum from them as the server does: the first
    K+T fix the polynomial and the rest are spares it checks."""
    segments = partition(models, k_parts)
    n, _, seg_len = segments.shape
    noise = np.array(
        [rng.randrange(ctx.p) for _ in range(n * noise_count * seg_len)]
    ).reshape(n, noise_count, seg_len)
    blocks = share_blocks(segments, noise, ctx.p)
    points = [eval_point_for_slot(t) for t in range(slots)]
    shares = evaluate(blocks, points, ctx.p, axis=1)  # (users, slots, S)
    spares = slots - k_parts - noise_count
    params = ProtocolParams(
        slots, noise_count, spares, k_parts, len(models[0]), ctx.entry_bound
    )
    silent = np.zeros(slots, dtype=bool)
    return server_recover(ctx, params, shares.sum(axis=0) % ctx.p, silent).tolist()


def test_recover_round_trip_exact_sum():
    ctx = FieldContext(101, 11, 4)
    rng = Random(77)
    models = [[rng.randrange(11) for _ in range(7)] for _ in range(4)]
    got = _share_and_recover(ctx, models, 3, 2, 5, rng)
    expected = [sum(m[i] for m in models) for i in range(7)]
    assert got == expected  # sums < p, so mod never wraps


def test_recover_with_extra_consistent_points():
    ctx = FieldContext(53, 5, 6)
    rng = Random(3)
    models = [[rng.randrange(5) for _ in range(4)] for _ in range(6)]
    got = _share_and_recover(ctx, models, 2, 1, 6, rng)  # three spares
    expected = [sum(m[i] for m in models) for i in range(4)]
    assert got == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_recover_round_trip_property(data):
    k = data.draw(st.integers(min_value=1, max_value=4))
    t = data.draw(st.integers(min_value=0, max_value=3))
    spares = data.draw(st.integers(min_value=0, max_value=2))
    n_models = data.draw(st.integers(min_value=1, max_value=5))
    length = data.draw(st.integers(min_value=1, max_value=9))
    ctx = FieldContext(101, 3, 10)
    rng = Random(data.draw(st.integers(min_value=0, max_value=9999)))
    models = [[rng.randrange(3) for _ in range(length)] for _ in range(n_models)]
    got = _share_and_recover(ctx, models, k, t, k + t + spares, rng)
    expected = [sum(m[i] for m in models) for i in range(length)]
    assert got == expected


# ---- the ramp privacy invariant, exhaustively ----


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("k", [1, 2])
def test_single_evaluation_is_uniform_over_noise(p, k):
    """With T=1, one share value is exactly uniform whatever the model."""
    noise = np.arange(p).reshape(1, 1, 1, p)  # the noise value on a batch axis
    for entries in itertools.product(range(p), repeat=k):
        block = share_blocks(partition([entries], k), noise, p)[0]
        for point in range(1, p):
            seen = Counter(evaluate(block, [point], p)[0, 0].tolist())
            assert all(seen[v] == 1 for v in range(p)), (entries, point, seen)


def test_two_evaluations_uniform_with_two_noise_terms():
    """T=2 makes any pair of share values jointly uniform on GF(p)^2."""
    p = 5
    pairs_of_noise = np.array(list(itertools.product(range(p), repeat=2))).T
    noise = pairs_of_noise.reshape(1, 2, 1, p * p)
    for w in range(p):
        block = share_blocks(partition([(w,)], 1), noise, p)[0]
        values = evaluate(block, [1, 2], p)[:, 0]  # (2 points, p*p noise pairs)
        pairs = Counter(zip(*values.tolist()))
        assert len(pairs) == p * p
        assert set(pairs.values()) == {1}


def test_k_plus_t_evaluations_do_determine_the_model():
    """Sanity check of the ramp boundary: with T=1 and K+T=2 points the
    model is fully determined (so the uniformity above is tight)."""
    p = 5
    noise = np.arange(p).reshape(1, 1, 1, p)
    seen = {}
    for w in range(p):
        block = share_blocks(partition([(w,)], 1), noise, p)[0]
        values = evaluate(block, [1, 2], p)[:, 0]
        for z, key in enumerate(zip(*values.tolist())):
            assert key not in seen, "two (model, noise) pairs collided"
            seen[key] = (w, z)
    assert len(seen) == p * p
