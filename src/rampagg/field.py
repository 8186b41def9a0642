"""Prime selection and polynomial evaluation and interpolation over GF(p),
written as matrices.

Field elements are plain integers canonicalized into ``[0, p)``; the modulus
lives on a :class:`FieldContext` instead of on each element.  Every
polynomial operation is one of two matrices, applied to coefficient or
evaluation arrays by a matrix product mod p: :func:`vandermonde` evaluates
and :func:`inverse_vandermonde` interpolates.  Both are built in numpy
arrays of :func:`field_dtype`, int64 below its overflow bound and exact
Python ints in object arrays above it, and :func:`reduce_mod` reduces
either kind mod p.  Rounds ask for the same few point sets again and again,
so small matrices are built once, cached and shared read-only.
:func:`span_basis` row-reduces a set of vectors to a basis of their span,
the one piece of linear algebra the privacy checker needs.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NoPrimeInInterval


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2**64.

    Bases 2, 3, 5, 7 decide every n below 3,215,031,751, the smallest
    strong pseudoprime to all four (Pomerance, Selfridge and Wagstaff,
    1980); the twelve primes 2..37 decide every n below 3.18e23 > 2**64
    (Jiang and Deng, 2014).  Larger n raises ValueError rather than guess.
    """
    if n >= 2**64:
        raise ValueError(f"is_prime is exact only below 2**64, got {n}")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:
        return True  # composites this small have a factor up to 37
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    bases = _SMALL_PRIMES[:4] if n < 3_215_031_751 else _SMALL_PRIMES
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldContext:
    """A prime field GF(p) together with the sizing inputs that chose it.

    ``entry_bound`` is the exclusive upper bound on raw model entries and
    ``n_users`` the number of aggregating users; both are retained so a
    context can report whether its modulus conforms to the sizing rule
    (see :meth:`conforming`).  Contexts built by hand with an arbitrary
    prime are allowed, since tiny fields are needed for exhaustive privacy
    enumeration, but load assertions refuse them.
    """

    p: int
    entry_bound: int
    n_users: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if self.entry_bound < 2:
            raise ValueError(f"entry_bound must be >= 2, got {self.entry_bound}")
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")

    @property
    def conforming(self) -> bool:
        """True when p lies in (N*(entry_bound-1), 2*N*(entry_bound-1)],
        the interval that guarantees overflow-free aggregation at minimal
        per-symbol cost."""
        low = self.n_users * (self.entry_bound - 1)
        return low < self.p <= 2 * low

    @property
    def bits_per_symbol(self) -> int:
        """ceil(log2 p): bits needed to transmit one field element."""
        return (self.p - 1).bit_length()


@lru_cache(maxsize=64)
def select_prime(n_users: int, entry_bound: int) -> FieldContext:
    """Pick the canonical modulus for ``n_users`` summands below
    ``entry_bound``: the smallest prime in (N*(l-1), 2*N*(l-1)], kept per
    pair of arguments, as the context is frozen.

    The lower end keeps the integer sum of all models below p, so recovery
    never wraps; the upper end caps the interval so a prime always exists
    (Bertrand) and the choice is deterministic.
    """
    if n_users < 1:
        raise ValueError(f"n_users must be >= 1, got {n_users}")
    if entry_bound < 2:
        raise ValueError(f"entry_bound must be >= 2, got {entry_bound}")
    low = n_users * (entry_bound - 1)
    for candidate in range(low + 1, 2 * low + 1):
        if is_prime(candidate):
            return FieldContext(candidate, entry_bound, n_users)
    raise NoPrimeInInterval(f"no prime in ({low}, {2 * low}]")  # pragma: no cover


def field_dtype(p: int, terms: int):
    """int64 when a sum of ``terms`` products of two field elements fits in
    it, else object (exact Python ints)."""
    return np.int64 if terms * (p - 1) ** 2 < 2**63 else object


def reduce_mod(x: np.ndarray, p: int, out=None) -> np.ndarray:
    """``x`` mod p, each entry in [0, p), into ``out`` when given (it may
    be ``x`` itself) or a fresh array.

    On int64 this is x - (x // p) * p: numpy divides an int64 array by a
    scalar with libdivide's multiply-and-shift, about twice as fast as
    ``np.remainder``'s hardware division.  The product and difference may
    wrap, but int64 arithmetic is exact mod 2**64 and the true residue fits,
    so the result is exact for every int64 x and 2 <= p < 2**63.  Any other
    dtype, of ``x`` or of ``out``, goes to ``np.remainder`` with the casting
    of an assignment.
    """
    if x.dtype != np.int64 or (out is not None and out.dtype != np.int64):
        return np.remainder(x, p, out=out, casting="unsafe")
    # the quotient goes into out unless out is x, which the last step reads
    share = out is not None and np.may_share_memory(x, out)
    q = np.floor_divide(x, p, out=None if share else out)
    q *= p
    return np.subtract(x, q, out=out if share else q)


def vandermonde(points, width: int, p: int, dtype) -> np.ndarray:
    """The read-only (len(points), width) matrix of x**j mod p, one row per
    point, built a column at a time as a running product.  Each step
    multiplies two field elements, so ``dtype`` needs only field_dtype(p, 1).
    Points become Python ints mod p first: a numpy integer point would stay
    a numpy scalar inside an object matrix and wrap past 2**63, and equal
    point sets share one cache key whatever their integer type.  A matrix
    of at most ``_CACHED_ENTRIES`` entries is built once per (points, width,
    p, dtype) and shared by every later call."""
    xs = tuple(int(x) % p for x in points)
    build = _vandermonde if len(xs) * width <= _CACHED_ENTRIES else _vandermonde.__wrapped__
    return build(xs, width, p, np.dtype(dtype))


def inverse_vandermonde(points, p: int, dtype) -> np.ndarray:
    """The read-only inverse of the square Vandermonde matrix of ``points``
    mod p: column i holds the coefficients (low order first) of the
    Lagrange basis polynomial that is 1 at point i and 0 at the others.
    Points are keyed and the matrix cached as in :func:`vandermonde`.

    Barycentric form (Berrut and Trefethen, SIAM Review 2004): with the
    master polynomial Z(x) = prod (x - x_j), basis polynomial i is
    w_i * Z(x) / (x - x_i) with weight w_i = 1 / prod_{j != i} (x_i - x_j).
    Z is built root by root, and one synthetic division, vectorized over i,
    gives every numerator Z(x) / (x - x_i) and its value at x_i, the
    inverse weight.  A step adds a field element to a product of two, so
    with two or more points ``dtype`` must be at least field_dtype(p, 2);
    field_dtype(p, len(points)) always suffices.  A repeated point leaves a
    zero weight denominator, and inverting it raises ValueError.
    """
    xs = tuple(int(x) % p for x in points)
    build = (
        _inverse_vandermonde
        if len(xs) ** 2 <= _CACHED_ENTRIES
        else _inverse_vandermonde.__wrapped__
    )
    return build(xs, p, np.dtype(dtype))


# Matrices of at most this many entries (1 MB of int64) are cached: a larger
# one costs more to apply than to build, and would pin its memory after use
_CACHED_ENTRIES = 1 << 17


@lru_cache(maxsize=64)
def _vandermonde(xs: tuple, width: int, p: int, dtype: np.dtype) -> np.ndarray:
    xs = np.array(xs, dtype=dtype)
    out = np.ones((width, len(xs)), dtype=dtype)  # transposed: columns contiguous
    for j in range(1, width):
        out[j] = out[j - 1] * xs % p
    out.flags.writeable = False
    return out.T


@lru_cache(maxsize=64)
def _inverse_vandermonde(xs: tuple, p: int, dtype: np.dtype) -> np.ndarray:
    xs = np.array(xs, dtype=dtype)
    n = len(xs)
    root = np.zeros(n + 1, dtype=dtype)  # Z's coefficients, low order first
    root[0] = 1
    for x in xs:
        root[1:] = (root[:-1] - x * root[1:]) % p
        root[0] = -x * root[0] % p
    # column i of num holds Z(x) / (x - x_i), degree n-1, top coefficient
    # first; at_root accumulates its value at x_i on the same pass
    num = np.ones((n, n), dtype=dtype)
    at_root = np.ones(n, dtype=dtype)
    for j in range(1, n):
        num[j] = (root[n - j] + num[j - 1] * xs) % p
        at_root = (at_root * xs + num[j]) % p
    weights = np.array([pow(int(d), -1, p) for d in at_root], dtype=dtype)
    out = num[::-1] * weights % p
    out.flags.writeable = False
    return out


def span_basis(rows, p: int) -> np.ndarray:
    """A basis of the GF(p) span of the 2-D array ``rows``, in reduced row
    echelon form: each basis row leads with a 1 in a column where every
    other basis row holds 0, and an empty (0, width) array spans {0}.

    Gauss-Jordan elimination, vectorized over the rows.  Rows that reduce
    to zero are dropped as they appear, so the work shrinks to the rank.
    Each step subtracts a product of two field elements from one, so it
    runs in field_dtype(p, 1).
    """
    m = np.asarray(rows).astype(field_dtype(p, 1)) % p
    m = m[(m != 0).any(axis=1)]
    rank = 0
    for col in range(m.shape[1]):
        if rank == len(m):
            break
        nonzero = np.flatnonzero(m[rank:, col] != 0)
        if not len(nonzero):
            continue
        m[[rank, rank + nonzero[0]]] = m[[rank + nonzero[0], rank]]
        pivot = m[rank] * pow(int(m[rank, col]), -1, p) % p
        m = (m - m[:, col, None] * pivot) % p  # clears column col everywhere
        m[rank] = pivot
        rank += 1
        m = m[np.concatenate([np.ones(rank, bool), (m[rank:] != 0).any(axis=1)])]
    return m[:rank]
