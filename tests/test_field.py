"""Prime selection, polynomial evaluation, and interpolation against oracles."""

import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampagg import field
from rampagg.field import (
    FieldContext,
    field_dtype,
    inverse_vandermonde,
    is_prime,
    reduce_mod,
    select_prime,
    span_basis,
    vandermonde,
)

from oracles import eval_poly_naive, is_prime_naive, span_naive


# ---- reduction mod p ----

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
_EXTREMES = [INT64_MIN, INT64_MIN + 1, -(2**62), -7, -1, 0, 1, 7, 2**62, INT64_MAX - 1, INT64_MAX]


@pytest.mark.parametrize("p", [2, 3, 5, 257, 2**31 - 1, 2**61 - 1, 2**62 + 1, 2**63 - 25])
def test_reduce_mod_matches_python_at_int64_extremes(p):
    x = np.array(_EXTREMES + [p - 1, p, -p, -p - 1, INT64_MAX - p + 1], dtype=np.int64)
    expected = [v % p for v in x.tolist()]
    got = reduce_mod(x, p)
    assert got.dtype == np.int64 and got.tolist() == expected
    assert x.tolist() != expected  # a fresh array: x is as it was
    assert reduce_mod(x, p, out=x) is x and x.tolist() == expected


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(INT64_MIN, INT64_MAX), min_size=6, max_size=6),
    st.integers(2, 2**63 - 25),
)
def test_reduce_mod_writes_strided_out_views(values, p):
    x = np.array(values, dtype=np.int64).reshape(2, 3)
    expected = [[v % p for v in row] for row in x.tolist()]
    dest = np.full((2, 5, 3), -1, dtype=np.int64)
    into = dest[:, 1]
    assert reduce_mod(x, p, out=into) is into and dest[:, 1].tolist() == expected
    assert (dest[:, [0, 2, 3, 4]] == -1).all()  # the rest of the array is untouched
    # a view with a negative stride in place, and a column broadcast over a batch axis
    col = x.T.copy()[::-1].T
    assert reduce_mod(col, p, out=col).tolist() == [row[::-1] for row in expected]
    batch = np.empty((2, 3, 4), dtype=np.int64)
    reduce_mod(x[..., None], p, out=batch)
    assert batch.tolist() == [[[v] * 4 for v in row] for row in expected]


def test_reduce_mod_falls_back_on_object_and_float_arrays():
    p = 2**64 + 13  # past int64: the object field
    x = np.array([-(2**70), -1, 0, p, 3 * p + 5], dtype=object)
    assert reduce_mod(x, p).tolist() == [v % p for v in x.tolist()]
    into = np.empty(len(x), dtype=object)
    assert reduce_mod(x, p, out=into) is into and into.tolist() == [v % p for v in x.tolist()]
    # int64 entries into an object destination, and floats cast as assignment casts
    small = np.array([-5, 12], dtype=np.int64)
    wide = np.empty(2, dtype=object)
    assert reduce_mod(small, 7, out=wide).tolist() == [2, 5]
    empty = np.asarray([], dtype=float)
    assert reduce_mod(empty, 7, out=np.empty(0, dtype=np.int64)).shape == (0,)


# ---- primality and prime selection ----


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    for n in range(-3, 40):
        assert is_prime(n) == (n in primes)


def test_is_prime_agrees_with_naive_scan():
    for n in range(2, 3000):
        assert is_prime(n) == is_prime_naive(n), n


def test_is_prime_decides_large_values_exactly():
    assert is_prime(2**61 - 1)  # a Mersenne prime
    assert is_prime(2**63 - 25)  # the largest prime below 2**63
    # 151 * 751 * 28351: a strong pseudoprime to bases 2, 3, 5 and 7
    assert not is_prime(3_215_031_751)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        is_prime(2**64 + 13)


def test_select_prime_examples():
    # interval (N*(l-1), 2*N*(l-1)]
    assert select_prime(12, 2).p == 13  # (12, 24]
    assert select_prime(2, 2).p == 3  # (2, 4]
    assert select_prime(12, 5).p == 53  # (48, 96]
    assert select_prime(12, 256).p == 3061  # (3060, 6120]


def test_select_prime_is_smallest_in_interval():
    rng = random.Random(5)
    for _ in range(40):
        n_users = rng.randrange(2, 40)
        bound = rng.randrange(2, 60)
        low = n_users * (bound - 1)
        ctx = select_prime(n_users, bound)
        assert low < ctx.p <= 2 * low
        assert is_prime_naive(ctx.p)
        assert not any(is_prime_naive(c) for c in range(low + 1, ctx.p))
        assert ctx.conforming


def test_select_prime_interval_always_contains_a_prime():
    # Bertrand: a prime always exists in (m, 2m] for m >= 1, so the
    # selector must never raise for valid inputs.
    for n_users in range(2, 30):
        for bound in (2, 3, 17):
            select_prime(n_users, bound)


# ---- field context ----


def test_context_rejects_composite_modulus():
    with pytest.raises(ValueError):
        FieldContext(p=15, entry_bound=2, n_users=2)
    with pytest.raises(ValueError):
        FieldContext(p=10, entry_bound=2, n_users=2)


def test_bits_per_symbol():
    assert FieldContext(13, 2, 2).bits_per_symbol == 4
    assert FieldContext(7, 2, 2).bits_per_symbol == 3
    assert FieldContext(3061, 256, 12).bits_per_symbol == 12


def test_conforming_flag():
    assert FieldContext(13, 2, 12).conforming  # (12, 24]
    assert not FieldContext(29, 2, 12).conforming  # above 24
    assert not FieldContext(11, 2, 12).conforming  # at/below 12


# ---- polynomial evaluation ----


def _eval(coeffs, xs, p):
    """The polynomial with ``coeffs`` (low order first) at each of ``xs``."""
    dtype = field_dtype(p, len(coeffs))
    matrix = vandermonde(xs, len(coeffs), p, dtype)
    return (matrix @ np.array(coeffs, dtype=dtype) % p).tolist()


def _interpolate(xs, ys, p):
    """Coefficients (low order first) of the polynomial of degree < len(xs)
    through ``zip(xs, ys)``."""
    dtype = field_dtype(p, len(xs))
    inverse = inverse_vandermonde(xs, p, dtype)
    return (inverse @ np.array(ys, dtype=dtype) % p).tolist()


def test_eval_poly_hand_example():
    coeffs = [3, 0, 2]  # 3 + 2x^2 over GF(7)
    assert _eval(coeffs, [0, 1, 3], 7) == [3, 5, (3 + 18) % 7]


@given(
    st.integers(min_value=0, max_value=200),
    st.lists(st.integers(min_value=0, max_value=10006), max_size=8),
)
def test_eval_matches_naive_pow(x, coeffs):
    p = 10007
    assert _eval(coeffs, [x], p) == [eval_poly_naive(coeffs, x, p)]


# ---- interpolation ----


def test_interpolate_recovers_known_polynomial():
    coeffs = [7, 0, 1, 3]
    xs = (1, 2, 3, 5)
    assert _interpolate(xs, _eval(coeffs, xs, 13), 13) == coeffs


def test_interpolate_rejects_duplicate_abscissa():
    # a repeated point makes a weight denominator zero, which has no inverse
    with pytest.raises(ValueError, match="not invertible"):
        inverse_vandermonde([1, 14], 13, np.int64)  # 14 = 1 mod 13


# field_dtype(p, 2) leaves int64 between 2**31 - 1 and 2**31 + 11;
# 3037000493 is the largest prime with field_dtype(p, 1) still int64
@pytest.mark.parametrize(
    "p,n,dtype",
    [
        (2**31 - 1, 2, np.int64),
        (2**31 + 11, 2, object),
        (3037000493, 1, np.int64),
        (2**61 - 1, 5, object),
    ],
)
def test_inverse_vandermonde_is_exact_across_the_int64_bound(p, n, dtype):
    assert field_dtype(p, n) is dtype
    xs = [p - 1 - i for i in range(n)]  # the largest points: the largest products
    product = inverse_vandermonde(xs, p, dtype) @ vandermonde(xs, n, p, dtype) % p
    assert product.tolist() == np.eye(n, dtype=int).tolist()


def test_numpy_points_stay_exact_past_int64():
    # x % p of an np.int64 point is still an np.int64; inside an object
    # matrix its running product would wrap at 2**63 with only a warning
    p = 2**61 - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert vandermonde(np.array([p - 2]), 3, p, object).tolist() == [[1, p - 2, 4]]
        inverse = inverse_vandermonde(np.array([p - 2, 5]), p, object)
    assert inverse.tolist() == inverse_vandermonde([p - 2, 5], p, object).tolist()


# ---- the matrix cache ----


@pytest.mark.parametrize(
    "build,args",
    [(vandermonde, ([1, 2, 3], 4, 7, np.int64)), (inverse_vandermonde, ([1, 2, 3], 7, object))],
)
def test_cached_matrices_are_read_only(build, args):
    for matrix in (build(*args), build(*args)):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            matrix += 1


# both sides of the switch of field_dtype(p, 1) (vandermonde) and of
# field_dtype(p, 2) (inverse_vandermonde), as in the exactness test above
@pytest.mark.parametrize(
    "p,terms,dtype",
    [
        (2**31 - 1, 2, np.int64),
        (2**31 + 11, 2, object),
        (3037000493, 1, np.int64),
        (3037000507, 1, object),
    ],
)
def test_cached_matrices_equal_a_fresh_build(p, terms, dtype):
    assert field_dtype(p, terms) is dtype
    xs = [p - 1 - i for i in range(4)]
    for _ in range(2):  # the build, then the cache
        matrix = vandermonde(xs, 5, p, dtype)
        assert matrix.dtype == dtype
        assert matrix.tolist() == [[pow(x, j, p) for j in range(5)] for x in xs]
        assert matrix.tolist() == field._vandermonde.__wrapped__(tuple(xs), 5, p, dtype).tolist()
        if terms == 2:
            inverse = inverse_vandermonde(xs, p, dtype)
            fresh = field._inverse_vandermonde.__wrapped__(tuple(xs), p, dtype)
            assert inverse.dtype == dtype and inverse.tolist() == fresh.tolist()


def test_numpy_and_python_points_share_a_cache_entry():
    p = 101
    for builder, build in (
        (field._vandermonde, lambda xs: vandermonde(xs, 3, p, np.int64)),
        (field._inverse_vandermonde, lambda xs: inverse_vandermonde(xs, p, np.int64)),
    ):
        first = build([5, 7])
        misses = builder.cache_info().misses
        assert build(np.array([5, 7])) is first
        assert build([np.int32(5), p + 7]) is first  # equal mod p
        assert builder.cache_info().misses == misses


def test_large_matrices_are_built_fresh_and_read_only(monkeypatch):
    monkeypatch.setattr(field, "_CACHED_ENTRIES", 3)
    a, b = vandermonde([1, 2], 2, 7, np.int64), vandermonde([1, 2], 2, 7, np.int64)
    c, d = inverse_vandermonde([1, 2], 7, np.int64), inverse_vandermonde([1, 2], 7, np.int64)
    assert a is not b and c is not d
    assert a.tolist() == b.tolist() == [[1, 1], [1, 2]]
    assert not any(m.flags.writeable for m in (a, b, c, d))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_interpolation_round_trip(data):
    p = data.draw(st.sampled_from([7, 13, 101, 10007]))
    n = data.draw(st.integers(min_value=1, max_value=min(8, p - 1)))
    coeffs = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=p - 1), min_size=n, max_size=n
        )
    )
    xs = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=p - 1),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    assert _interpolate(xs, _eval(coeffs, xs, p), p) == coeffs


# ---- span bases ----


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_span_basis_is_a_reduced_echelon_basis_of_the_span(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    width = data.draw(st.integers(min_value=0, max_value=3))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-p, 2 * p), min_size=width, max_size=width), max_size=6
        )
    )
    basis = span_basis(np.array(rows, dtype=np.int64).reshape(len(rows), width), p)
    assert basis.shape[1] == width
    assert span_naive(basis.tolist(), p, width) == span_naive(rows, p, width)
    # independent rows, each led by a 1 in a column that is 0 in the others
    assert len(span_naive(basis.tolist(), p, width)) == p ** len(basis)
    leads = [int(np.flatnonzero(row)[0]) for row in basis]
    assert leads == sorted(set(leads))
    for lead in leads:
        assert sorted(basis[:, lead].tolist()) == [0] * (len(basis) - 1) + [1]


def test_span_basis_is_exact_in_wide_fields():
    p = 2**61 - 1
    assert span_basis(np.array([[p - 1, 1], [1, p - 1]]), p).tolist() == [[1, p - 1]]
    assert span_basis(np.array([[p - 2, 3], [1, p - 1]]), p).tolist() == [[1, 0], [0, 1]]
