"""Ramp secret sharing of model vectors as coefficient arrays, and recovery
of their sum.

A model of length L is zero-padded to K*S entries (S = ceil(L/K)) and cut
into K segments of S entries.  The K segments then T uniform noise vectors
form one user's coefficient block of shape (K+T, S): row j is the vector
coefficient of x**j, so every coordinate carries a polynomial of degree at
most K+T-1.  A round holds the blocks of all N users in one array of shape
(N, K+T, S, *batch).  ``*batch`` is an optional trailing enumeration axis:
the exhaustive privacy checker puts its noise assignments there, and rounds
have none.

A share is a block evaluated at one non-zero point, that is one row of a
Vandermonde matrix applied along the K+T axis.  Evaluation is linear, so
summing many users' shares at a point gives a share of their summed blocks.
Any K+T evaluations of the summed polynomial at distinct non-zero points
recover all K summed segments at once; that 1/K amortization is the whole
point of ramp (rather than plain Shamir) sharing.  Fewer than T+1
evaluations of a single user's block are statistically independent of that
user's model.

Entries are int64 when no Vandermonde product sum can overflow, that is when
(K+T)*(p-1)**2 < 2**63, and Python ints in object arrays above that bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateAbscissa,
    InconsistentArrivals,
    InsufficientEvaluations,
)
from .field import FieldContext, lagrange_coefficients


@dataclass(frozen=True)
class Model:
    """A user's raw input vector.  Entries are kept as supplied; range
    validation against the field's entry bound happens at the harness
    boundary."""

    entries: tuple

    @property
    def length(self) -> int:
        return len(self.entries)


def validate_entries(model: Model, entry_bound: int) -> None:
    """Raise ValueError naming the first entry outside [0, entry_bound)."""
    for i, e in enumerate(model.entries):
        if not 0 <= e < entry_bound:
            raise ValueError(f"model entry {i} = {e} outside [0, {entry_bound})")


def field_dtype(p: int, terms: int):
    """int64 when a sum of ``terms`` products of two field elements fits in
    it, else object (exact Python ints)."""
    return np.int64 if terms * (p - 1) ** 2 < 2**63 else object


def partition(models, k_parts: int) -> np.ndarray:
    """Cut each row of the (N, L) ``models`` into ``k_parts`` segments of
    ceil(L/K) entries, zero-padding the end: shape (N, K, S)."""
    rows = np.array(models)  # int64, or object when an entry exceeds it
    n, length = rows.shape
    seg_len = -(-length // k_parts)
    padded = np.zeros((n, k_parts * seg_len), dtype=rows.dtype)
    padded[:, :length] = rows
    return padded.reshape(n, k_parts, seg_len)


def share_blocks(segments: np.ndarray, noise: np.ndarray, p: int) -> np.ndarray:
    """Stack the (N, K, S) segments over the (N, T, S, *batch) noise into
    coefficient blocks (N, K+T, S, *batch), reduced mod p, in the field
    dtype."""
    dtype = field_dtype(p, segments.shape[1] + noise.shape[1])
    batch = noise.shape[3:]
    segments = (segments % p).astype(dtype).reshape(segments.shape + (1,) * len(batch))
    segments = np.broadcast_to(segments, segments.shape[:3] + batch)
    return np.concatenate([segments, (noise % p).astype(dtype, copy=False)], axis=1)


def evaluate(blocks: np.ndarray, points, p: int, axis: int = 0) -> np.ndarray:
    """Evaluate coefficient blocks at ``points``: the Vandermonde matrix of
    the points times ``blocks`` along ``axis``, the coefficient axis, which
    becomes an axis of one evaluation per point."""
    width = blocks.shape[axis]
    powers = [[pow(x, j, p) for j in range(width)] for x in points]
    return _apply(np.array(powers, dtype=blocks.dtype), blocks, p, axis)


def _apply(matrix: np.ndarray, blocks: np.ndarray, p: int, axis: int) -> np.ndarray:
    """``matrix`` times ``blocks`` along ``axis``, mod p."""
    lead, width, rest = blocks.shape[:axis], blocks.shape[axis], blocks.shape[axis + 1 :]
    out = matrix @ blocks.reshape(lead + (width, math.prod(rest)))
    out %= p
    return out.reshape(lead + (len(matrix),) + rest)


def recover_aggregate(
    ctx: FieldContext,
    evals,
    k_parts: int,
    noise_count: int,
    original_length: int,
) -> np.ndarray:
    """Recover the summed model from evaluations of the summed polynomial.

    ``evals`` is a sequence of (eval_point, values) pairs with pairwise
    distinct points; at least K+T are required.  The first K+T fix the
    polynomial; every further one must lie on it, else InconsistentArrivals.
    Returns the K segment coefficients, concatenated and truncated to
    ``original_length``: shape (original_length, *batch).
    """
    p = ctx.p
    need = k_parts + noise_count
    if len(evals) < need:
        raise InsufficientEvaluations(
            f"got {len(evals)} evaluations, need at least {need}"
        )
    xs = [x % p for x, _ in evals]
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa(f"duplicate evaluation points in {[x for x, _ in evals]}")
    ys = [np.asarray(values, dtype=field_dtype(p, need)) for _, values in evals]
    for x, y in zip(xs, ys):
        if y.shape != ys[0].shape:
            raise DimensionMismatch(
                f"evaluation at {x} has shape {y.shape}, expected {ys[0].shape}"
            )

    # Interpolating the unit vectors gives the inverse Vandermonde matrix of
    # the K+T fitting points; it maps the stacked arrivals to every
    # coefficient of every coordinate (and enumeration point) at once.
    unit = list(np.eye(need, dtype=ys[0].dtype))
    inverse = np.array(lagrange_coefficients(xs[:need], unit, p))
    coeffs = _apply(inverse, np.stack(ys[:need]), p, 0)
    if len(xs) > need:
        spare = evaluate(coeffs, xs[need:], p)
        bad = [
            x
            for x, s, y in zip(xs[need:], spare, ys[need:])
            if not np.array_equal(s, y % p)
        ]
        if bad:
            raise InconsistentArrivals(
                f"evaluations at {bad} disagree with the polynomial through {xs[:need]}"
            )
    return coeffs[:k_parts].reshape((-1,) + coeffs.shape[2:])[:original_length]
