"""Ramp secret sharing of model vectors as coefficient arrays.

A model of length L is zero-padded to K*S entries (S = ceil(L/K)) and cut
into K segments of S entries.  The K segments then T uniform noise vectors
form one user's coefficient block of shape (K+T, S): row j is the vector
coefficient of x**j, so every coordinate carries a polynomial of degree at
most K+T-1.  A round holds the blocks of all N users in one array of shape
(N, K+T, S, *batch).  ``*batch`` is an optional trailing enumeration axis:
the exhaustive privacy checker puts its runs and noise assignments there,
and rounds have none.

A round given its models or noise allocates that array once, with
:func:`empty_blocks`, and fills it in place
(:func:`rampagg.protocol.fill_blocks`): the models go into
:func:`model_rows`, the (N, K*S) view of every block's K segments, whose
padding alone is zeroed, and the noise into rows K and up; models may carry
batch axes of their own, and the assignment broadcasts them to the noise's.
Models or noise that the caller does not pass are drawn straight into the
array.  Drawn noise lies in [0, p) by construction, and drawn models are
reduced mod p in place only when the modulus is below their entry bound.
Noise that is passed in is reduced mod p as it is written into the array,
with no temporary, and models before they are broadcast.  A simulated
round, which passes neither, fills a buffer of a few users' blocks in the
same layout again and again and keeps only its group sums
(:func:`rampagg.protocol.stream_group_sums`).

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

from .field import field_dtype, reduce_mod, vandermonde
from .topology import ProtocolParams


@dataclass(frozen=True)
class Model:
    """One user's model as a tuple of entries.  Rounds take all models as
    one (N, L) array (:func:`rampagg.protocol.draw_models`); this type is
    kept only for :func:`rampagg.harness.generate_models`, which the
    benchmark's output gate (``perfbench/bench.py``, ``check_round``) calls.
    ROADMAP item 1 deletes both."""

    entries: tuple

    @property
    def length(self) -> int:
        return len(self.entries)


def empty_blocks(params: ProtocolParams, p: int, batch: tuple = ()) -> np.ndarray:
    """A round's (N, K+T, S, *batch) coefficient array for ``params`` in the
    field dtype of ``p``: its padding is zero, every other entry is left for
    the caller to fill."""
    shape = params.blocks_shape + tuple(batch)
    coeffs = np.empty(shape, dtype=field_dtype(p, shape[1]))
    model_rows(coeffs, params.k_parts)[:, params.model_len :] = 0
    return coeffs


def model_rows(coeffs: np.ndarray, k_parts: int) -> np.ndarray:
    """The (N, K*S, *batch) view of the first ``k_parts`` rows of every block
    in the C-ordered ``coeffs``: row u holds user u's model entries, then
    its padding.  The K segments of a block are adjacent, so this is a
    view, and writing to it fills ``coeffs``."""
    n, _, seg_len, *batch = coeffs.shape
    return coeffs[:, :k_parts].reshape((n, k_parts * seg_len, *batch))


def evaluate(blocks: np.ndarray, points, p: int, axis: int = 0) -> np.ndarray:
    """Evaluate coefficient blocks at ``points``: the Vandermonde matrix of
    the points times ``blocks`` along ``axis``, the coefficient axis, which
    becomes an axis of one evaluation per point.  The matrix is built in
    field_dtype(p, 1), which its running products need, whatever the
    blocks' dtype: the product then takes the wider of the two."""
    matrix = vandermonde(points, blocks.shape[axis], p, field_dtype(p, 1))
    return _apply(matrix, blocks, p, axis)


def _apply(matrix: np.ndarray, blocks: np.ndarray, p: int, axis: int) -> np.ndarray:
    """``matrix`` times ``blocks`` along ``axis``, mod p."""
    lead, width, rest = blocks.shape[:axis], blocks.shape[axis], blocks.shape[axis + 1 :]
    out = matrix @ blocks.reshape(lead + (width, math.prod(rest)))
    reduce_mod(out, p, out=out)
    return out.reshape(lead + (len(matrix),) + rest)
