"""Ramp secret sharing of model vectors as coefficient arrays.

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
recover all K summed segments at once, by the inverse Vandermonde matrix of
those points (see :func:`rampagg.protocol.server_recover`); that 1/K
amortization is the whole point of ramp (rather than plain Shamir) sharing.
Fewer than T+1 evaluations of a single user's block are statistically
independent of that user's model.

Entries are int64 when no Vandermonde product sum can overflow, that is when
(K+T)*(p-1)**2 < 2**63, and Python ints in object arrays above that bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .field import field_dtype, vandermonde


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
    matrix = vandermonde(points, blocks.shape[axis], p, blocks.dtype)
    return _apply(matrix, blocks, p, axis)


def _apply(matrix: np.ndarray, blocks: np.ndarray, p: int, axis: int) -> np.ndarray:
    """``matrix`` times ``blocks`` along ``axis``, mod p."""
    lead, width, rest = blocks.shape[:axis], blocks.shape[axis], blocks.shape[axis + 1 :]
    out = matrix @ blocks.reshape(lead + (width, math.prod(rest)))
    out %= p
    return out.reshape(lead + (len(matrix),) + rest)
