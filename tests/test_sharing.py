"""Partitioning, noise, coefficient blocks, share evaluation, and sum recovery."""

import itertools
import re
from collections import Counter
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampagg import protocol
from rampagg.field import FieldContext, field_dtype
from rampagg.protocol import (
    derive_seed,
    draw_uniform,
    eval_point_for_slot,
    run_protocol,
    server_recover,
    UniformStream,
)
from rampagg.sharing import evaluate, model_rows
from rampagg.topology import ProtocolParams, build_tree, make_params

from oracles import round_noise, uniform_pcg64_lanes_naive, written_blocks


def _ctx(p: int) -> FieldContext:
    return FieldContext(p, 2, 2)


def _fill(models, k_parts, noise, p):
    """The (N, K+T, S, *batch) coefficient array of the (N, L) ``models``
    over ``noise`` (N, T, S, *batch), as a round writes it."""
    models, noise = np.asarray(models), np.asarray(noise)
    params = ProtocolParams(len(models), noise.shape[1], 0, k_parts, models.shape[1], 2)
    return written_blocks(params, p, models, noise)


def _segments(models, k_parts):
    """The (N, K, S) model segments of a round without noise vectors."""
    models = np.asarray(models)
    params = ProtocolParams(len(models), 0, 0, k_parts, models.shape[1], 2)
    return written_blocks(params, 2**31 - 1, models, None)


def _block(entries, k_parts, noise_vectors, p):
    """One user's (K+T, S) coefficient block."""
    noise = np.array([noise_vectors], dtype=np.int64).reshape(1, len(noise_vectors), -1)
    return _fill([entries], k_parts, noise, p)[0]


# ---- partitioning ----


def test_partition_exact_split():
    segments = _segments([tuple(range(9))], 3)
    assert segments.tolist() == [[[0, 1, 2], [3, 4, 5], [6, 7, 8]]]


def test_partition_pads_tail():
    segments = _segments([(1, 2, 3, 4, 5)], 3)
    assert segments.shape == (1, 3, 2)  # seg_len 2, one padding zero
    assert segments.tolist() == [[[1, 2], [3, 4], [5, 0]]]


def test_partition_more_parts_than_entries():
    segments = _segments([(7, 8)], 4)
    assert segments.tolist() == [[[7], [8], [0], [0]]]


def test_unpartition_inverts():
    """Concatenating the segments and dropping the padding, as recovery
    does with the summed segments, gives the model back."""
    entries = (3, 1, 4, 1, 5, 9, 2)
    segments = _segments([entries], 3)
    assert tuple(segments.reshape(-1)[: len(entries)].tolist()) == entries


@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=12),
)
def test_partition_round_trip(entries, k):
    segments = _segments([entries, entries[::-1]], k)
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
    a = round_noise(101, params, 9)
    assert a.shape == (3, 2, 4)
    assert np.array_equal(a, round_noise(101, params, 9))
    assert not np.array_equal(a, round_noise(101, params, 10))
    # one stream for the round, users then vectors then symbols in row order
    expected = uniform_pcg64_lanes_naive(derive_seed(9, "noise"), 101, 3 * 2 * 4)
    assert a.reshape(-1).tolist() == expected


def test_noise_without_noise_vectors_is_empty():
    assert round_noise(101, _params(3, 0, 2, 8), 9).shape == (3, 0, 4)
    assert draw_uniform(1, 5, (2, 0, 3)).shape == (2, 0, 3)


# Each side of every lane edge: 2**8, 2**16 and 2**32 are the largest bounds
# read from 8-, 16- and 32-bit lanes, one more the smallest from the next
# width.  2**8 + 1, 2**16 + 1, 2**31 + 11 and 2**32 + 1 reject almost half
# their lanes; 2**63 is the largest bound.
@pytest.mark.parametrize(
    "bound", [2, 5, 101, 2**8, 2**8 + 1, 2**16, 2**16 + 1, 2**31 + 11, 2**32, 2**32 + 1, 2**63]
)
def test_draw_uniform_matches_word_by_word_reference(bound):
    values = draw_uniform(17, bound, (40, 25))
    assert values.dtype == np.int64 and values.shape == (40, 25)
    assert 0 <= values.min() and values.max() < bound
    assert values.reshape(-1).tolist() == uniform_pcg64_lanes_naive(17, bound, 1000)


@pytest.mark.parametrize("bound", [5, 2**16 + 1, 2**31 + 11])
def test_draw_uniform_is_independent_of_chunking(bound, monkeypatch):
    whole = draw_uniform(3, bound, (500,))
    monkeypatch.setattr(protocol, "_CHUNK_WORDS", 7)
    assert np.array_equal(draw_uniform(3, bound, (500,)), whole)


def test_draw_uniform_is_deterministic_and_seed_sensitive():
    a = draw_uniform(5, 2**16 + 1, (300,))
    assert np.array_equal(a, draw_uniform(5, 2**16 + 1, (300,)))
    assert not np.array_equal(a, draw_uniform(6, 2**16 + 1, (300,)))


# The first 8 values of seed 1 for one bound per lane width, each bound one
# past a power of two so that about half the lanes are rejected: they
# change only if numpy changes PCG64 or SeedSequence, whose streams NEP 19
# keeps fixed, or if the stream's definition changes.
@pytest.mark.parametrize(
    "bound,values",
    [
        (2**7 + 1, [34, 121, 6, 102, 82, 81, 24, 8]),
        (2**15 + 1, [31010, 6349, 2284, 9447, 28626, 29353, 16333, 12192]),
        (
            2**31 + 1,
            [2032329983, 149690573, 619160822, 1070428841,
             1339305888, 1818173253, 1173253412, 1103772362],
        ),
        (
            2**62 + 1,
            [1329637740802083942, 2876137494685333844, 3904497331914684452,
             3774195871892446565, 254187954446631217, 3041238293621853348,
             2796478710207515810, 4182779752608499223],
        ),
    ],
)
def test_pcg64_and_seed_sequence_streams_are_unchanged(bound, values):
    assert draw_uniform(1, bound, (8,)).tolist() == values


# SeedSequence, as Random did for MT19937, takes the 32-bit limbs of the
# seed as its entropy: one limb up to 2**32 - 1, two up to 2**64 - 1, three
# from 2**64.  2**20 and 30011 are read from 32- and 16-bit lanes, 2**40
# and 2**32 + 15 from 64-bit lanes; 30011 and 2**32 + 15 reject lanes, the
# powers of two none.  A negative seed has no limbs and raises ValueError
# naming it.
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, -(2**40 + 3)])
@pytest.mark.parametrize("bound", [2**20, 30011, 2**40, 2**32 + 15])
def test_draw_uniform_is_randoms_stream_at_every_key_limb_boundary(seed, bound):
    if seed < 0:
        with pytest.raises(ValueError, match=re.escape(str(seed))):
            draw_uniform(seed, bound, (7, 13))
        return
    values = draw_uniform(seed, bound, (7, 13))
    assert values.reshape(-1).tolist() == uniform_pcg64_lanes_naive(seed, bound, 91)


@pytest.mark.parametrize("bound", [30011, 2**32 + 15])
def test_draw_uniform_is_randoms_stream_across_chunks(bound):
    # a word holds at most four lanes of a bound past 2**8, so more values
    # than two chunks' lanes span at least three chunks; 997-value rows
    # end mid-chunk
    rows = 2 * 4 * protocol._CHUNK_WORDS // 997 + 1
    values = draw_uniform(23, bound, (rows, 997))
    assert values.reshape(-1).tolist() == uniform_pcg64_lanes_naive(23, bound, rows * 997)


# 256 and 2**63 are powers of two (no lane rejected), 30011 and 2**32 + 15
# reject lanes; 256 is read from 8-bit lanes, 30011 from 16-bit ones and
# 2**32 + 15 and 2**63 from 64-bit ones.  p = 101 gives an int64 array,
# 2**61 - 1 an object one at K+T = 5.
@pytest.mark.parametrize("bound", [256, 30011, 2**32 + 15, 2**63])
@pytest.mark.parametrize("p", [101, 2**61 - 1])
@pytest.mark.parametrize("chunk", [None, 7])
def test_draw_uniform_into_coefficient_array_views(bound, p, chunk, monkeypatch):
    """Drawn into the strided model rows and noise rows of a coefficient
    array, the values are those of a fresh draw, and nothing else changes;
    with 7-word chunks the chunks end mid-row."""
    if chunk:
        monkeypatch.setattr(protocol, "_CHUNK_WORDS", chunk)
    params = ProtocolParams(4, 2, 0, 3, 10, 2)  # K*S = 12 > L = 10: 2 padding
    coeffs = np.zeros(params.blocks_shape, dtype=field_dtype(p, 5))
    rows = model_rows(coeffs, 3)
    assert np.shares_memory(rows, coeffs)
    UniformStream(17, bound).fill(rows[:, :10])
    assert np.shares_memory(UniformStream(18, bound).fill(coeffs[:, 3:]), coeffs)
    models = draw_uniform(17, bound, (4, 10))
    assert rows[:, :10].tolist() == models.tolist()
    assert rows[:, :10].reshape(-1).tolist() == uniform_pcg64_lanes_naive(17, bound, 40)
    assert rows[:, 10:].tolist() == [[0, 0]] * 4  # the padding stays zero
    assert coeffs[:, 3:].tolist() == draw_uniform(18, bound, (4, 2, 4)).tolist()
    assert coeffs[:, 3:].reshape(-1).tolist() == uniform_pcg64_lanes_naive(18, bound, 32)
    # an object array holds Python ints, not numpy scalars
    assert {type(v) for v in coeffs.reshape(-1).tolist()} == {int}


@pytest.mark.parametrize("bound", [256, 30011, 2**32 + 15])
@pytest.mark.parametrize("chunk", [None, 7])
def test_stream_filled_block_by_block_gives_one_draws_values(bound, chunk, monkeypatch):
    # blocks of other shapes, an empty one among them, and one past a chunk
    if chunk:
        monkeypatch.setattr(protocol, "_CHUNK_WORDS", chunk)
    shapes = [(3, 7), (5,), (0, 4), (2, 4, 3), (1, 1), (400,)]
    stream = UniformStream(29, bound)
    blocks = [stream.fill(np.empty(shape, dtype=np.int64)) for shape in shapes]
    values = np.concatenate([block.reshape(-1) for block in blocks]).tolist()
    assert values == draw_uniform(29, bound, (len(values),)).tolist()
    assert values == uniform_pcg64_lanes_naive(29, bound, len(values))


def test_interleaved_streams_keep_their_own_generators():
    # a round fills its model and noise streams in turn; each stream keeps
    # its own generator, whatever streams are made or filled between its fills
    a, b = UniformStream(1, 101), UniformStream(2, 101)
    first = [a.fill(np.empty(50, dtype=np.int64)), b.fill(np.empty(50, dtype=np.int64))]
    c = UniformStream(3, 101)
    second = [a.fill(np.empty(50, dtype=np.int64)), b.fill(np.empty(50, dtype=np.int64))]
    third = c.fill(np.empty(50, dtype=np.int64))
    assert np.concatenate([first[0], second[0]]).tolist() == draw_uniform(1, 101, (100,)).tolist()
    assert np.concatenate([first[1], second[1]]).tolist() == draw_uniform(2, 101, (100,)).tolist()
    assert third.tolist() == uniform_pcg64_lanes_naive(3, 101, 50)


def test_draw_uniform_into_empty_noise_rows():
    params = ProtocolParams(4, 0, 0, 3, 10, 2)  # T=0
    coeffs = np.zeros(params.blocks_shape, dtype=np.int64)
    assert round_noise(101, params, 9).shape == (4, 0, 4)
    assert UniformStream(1, 5).fill(coeffs[:, 3:]).shape == (4, 0, 4)


@pytest.mark.parametrize("bound", [1, 0, 2**63 + 1])
def test_draw_uniform_rejects_bounds_outside_int64(bound):
    with pytest.raises(ValueError, match="bound"):
        draw_uniform(0, bound, (3,))


def test_noise_is_roughly_uniform():
    # 10000 draws from GF(5): expect 2000 per residue; allow 5 sigma
    # (sigma = sqrt(10000 * 0.2 * 0.8) = 40).
    noise = round_noise(5, _params(2500, 1, 1, 4), 123)
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
    noise = np.arange(2 * 4).reshape(2, 1, 1, 4) * 5  # a batch axis of 4
    blocks = _fill([(3, 9), (12, 1)], 2, noise, 7)  # segments (2, 2, 1)
    assert blocks.shape == (2, 3, 1, 4)
    assert blocks[:, :2, 0, :].tolist() == [[[3] * 4, [2] * 4], [[5] * 4, [1] * 4]]
    assert blocks[0, 2, 0].tolist() == [0, 5, 3, 1]  # 0, 5, 10, 15 mod 7


@pytest.mark.parametrize("p", [7, 2**31 + 11])  # int64 and object blocks
def test_models_on_the_batch_axis_fill_as_single_columns(p):
    rng = Random(3)
    # out of range both ways, so that each column is reduced as well
    models = np.array([rng.randrange(-p, 2 * p) for _ in range(4 * 5 * 3)]).reshape(4, 5, 3)
    noise = np.array([rng.randrange(-p, 2 * p) for _ in range(4 * 2 * 3 * 3)]).reshape(4, 2, 3, 3)
    blocks = _fill(models, 2, noise, p)  # K=2: segments of 3, one padding zero
    assert blocks.shape == (4, 4, 3, 3)
    for b in range(3):
        assert blocks[..., b].tolist() == _fill(models[..., b], 2, noise[..., b], p).tolist()
    # models with a unit axis broadcast over the noise's last batch axis
    wide = np.stack([noise] * 2, axis=-1)  # (N, T, S, 3, 2)
    blocks = _fill(models[..., None], 2, wide, p)
    for b, m in itertools.product(range(3), range(2)):
        assert blocks[..., b, m].tolist() == _fill(models[..., b], 2, noise[..., b], p).tolist()


@pytest.mark.parametrize(
    "models_shape,noise_shape",
    [
        ((3, 2, 3), (3, 1, 1, 4)),  # 3 against 4
        ((3, 2, 4), (3, 1, 1, 4, 2)),  # aligned from the right: 4 against 2
        ((3, 2, 2), (3, 1, 1, 1)),  # broadcasts, but past the noise's batch
        ((3, 2, 1, 4), (3, 1, 1, 4)),  # more batch axes than the noise
        ((3, 2, 1), None),  # drawn noise has no batch axis
    ],
)
def test_models_whose_batch_does_not_fit_the_noise_are_refused(models_shape, noise_shape):
    params = make_params(3, 1, 0, 2, model_len=2, entry_bound=2)
    ctx, tree = FieldContext(7, 2, 3), build_tree(1, "chain")
    noise = None if noise_shape is None else np.zeros(noise_shape, dtype=np.int64)
    expected = (3, 1, 1) if noise_shape is None else noise_shape
    message = f"models have shape {re.escape(str(models_shape))}.*noise, of shape "
    models = np.zeros(models_shape, dtype=np.int64)
    with pytest.raises(ValueError, match=message + re.escape(str(expected))):
        run_protocol(ctx, params, tree, models, noise=noise)


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
    blocks = _fill(models, 3, noise, p)  # (5 users, 5, 2)
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
    n, seg_len = len(models), -(-len(models[0]) // k_parts)
    noise = np.array(
        [rng.randrange(ctx.p) for _ in range(n * noise_count * seg_len)]
    ).reshape(n, noise_count, seg_len)
    blocks = _fill(models, k_parts, noise, ctx.p)
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
        block = _fill([entries], k, noise, p)[0]
        for point in range(1, p):
            seen = Counter(evaluate(block, [point], p)[0, 0].tolist())
            assert all(seen[v] == 1 for v in range(p)), (entries, point, seen)


def test_two_evaluations_uniform_with_two_noise_terms():
    """T=2 makes any pair of share values jointly uniform on GF(p)^2."""
    p = 5
    pairs_of_noise = np.array(list(itertools.product(range(p), repeat=2))).T
    noise = pairs_of_noise.reshape(1, 2, 1, p * p)
    for w in range(p):
        block = _fill([(w,)], 1, noise, p)[0]
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
        block = _fill([(w,)], 1, noise, p)[0]
        values = evaluate(block, [1, 2], p)[:, 0]
        for z, key in enumerate(zip(*values.tolist())):
            assert key not in seen, "two (model, noise) pairs collided"
            seen[key] = (w, z)
    assert len(seen) == p * p
