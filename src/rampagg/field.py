"""Prime selection, polynomial evaluation and Lagrange interpolation over GF(p).

Field elements are plain integers canonicalized into ``[0, p)``; the modulus
lives on a :class:`FieldContext` instead of on each element.  The helpers
(:func:`horner`, :func:`lagrange_coefficients`) restrict themselves to ``+``,
``*`` and ``%`` on the ordinate side, so batched values (numpy arrays of
whole coordinate vectors, with or without an enumeration axis) flow through
them unchanged.
"""

from dataclasses import dataclass

from .errors import DuplicateAbscissa, NoPrimeInInterval


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


def select_prime(n_users: int, entry_bound: int) -> FieldContext:
    """Pick the canonical modulus for ``n_users`` summands below
    ``entry_bound``: the smallest prime in (N*(l-1), 2*N*(l-1)].

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


def horner(coeffs, x: int, p: int):
    """Evaluate a coefficient sequence (low order first) at ``x`` mod p.

    Coefficients may be ints or any value supporting +, * and % (numpy
    arrays included); ``x`` must be an int.
    """
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def lagrange_coefficients(xs, ys, p: int) -> list:
    """Coefficients (low order first) of the unique polynomial of degree
    < len(xs) through the points ``zip(xs, ys)`` over GF(p).

    The abscissas must be ints, pairwise distinct mod p.  Ordinates may be
    ints or batched values.  The returned list always has len(xs) entries;
    trailing entries are zero when the data lies on a lower-degree curve.

    Uses the master-numerator formulation: build Z(x) = prod (x - x_i) once,
    then each basis numerator is Z(x) / (x - x_i) by synthetic division.
    """
    n = len(xs)
    if n == 0:
        raise ValueError("at least one interpolation point is required")
    canon = [x % p for x in xs]
    if len(set(canon)) != n:
        raise DuplicateAbscissa(f"duplicate evaluation points in {list(xs)}")
    if len(ys) != n:
        raise ValueError("xs and ys must have equal length")

    # Z(x) = prod (x - x_i), degree n, built root by root.
    root = [1]
    for x in canon:
        root.insert(0, 0)
        for j in range(len(root) - 1):
            root[j] = (root[j] - root[j + 1] * x) % p

    out = [0] * n
    for i, x in enumerate(canon):
        # numerator_i = Z(x) / (x - x_i), degree n-1
        num = [0] * (n - 1) + [1]
        for j in range(n - 1, 0, -1):
            num[j - 1] = (root[j] + num[j] * x) % p
        denom = horner(num, x, p)
        weight = pow(denom, -1, p)  # denom != 0 since abscissas are distinct
        scaled = (ys[i] * weight) % p
        for j in range(n):
            out[j] = (out[j] + num[j] * scaled) % p
    return out
