"""Ramp secret sharing of model vectors as coefficient arrays.

A model of length L is zero-padded to K*S entries (S = ceil(L/K)) and cut
into K segments of S entries.  The K segments then T uniform noise vectors
form one user's coefficient block of shape (K+T, S): row j is the vector
coefficient of x**j, so every coordinate carries a polynomial of degree at
most K+T-1.  The blocks of all N users make up a round's coefficient
array, of shape (N, K+T, S, *batch).  ``*batch`` is an optional trailing
enumeration axis: the exhaustive privacy checker puts its runs and noise
assignments there, and rounds have none.

A round never builds the array: the server needs only the sum of the
included users' blocks, which is their models' sum cut into K segments
(K, S, *model batch) on their noise's sum (T, S, *batch), and the two are
summed, kept and evaluated apart (:func:`rampagg.protocol.input_total`,
:func:`evaluate_apart`), so models that carry fewer batch axes than the
noise are never widened to its batch.  An adversary's view evaluates each
intra sender's share the same way, from that sender's model segments and
noise rows (:meth:`rampagg.protocol.RunResult.parts`).  Whole blocks are
written only when read, a block of users at a time into one reused buffer
laid out like the array (:func:`rampagg.protocol.write_blocks`): the models
into :func:`model_rows`, the (N, K*S) view of every block's K segments,
whose padding alone is zeroed, and the noise into rows K and up, each from
the array the caller gave or else from its random stream, so the group sums
(:attr:`rampagg.protocol.RunResult.sums`) and any user's block come from
the same inputs: inputs given as arrays must not change after the round.
Given models may carry batch axes of their own, which broadcast to the
noise's.  Given inputs are reduced mod p; drawn noise lies in [0, p) by
construction, and drawn models are reduced mod p only when the modulus is
below their entry bound.

A share is a block evaluated at one non-zero point, that is one row of a
Vandermonde matrix applied along the K+T axis, or its first K columns
applied to the model segments plus its last T applied to the noise.
Evaluation is linear, so summing many users' shares at a point gives a
share of their summed blocks.
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


def evaluate_each(blocks: np.ndarray, points, p: int) -> np.ndarray:
    """Block i of ``blocks`` (M, K+T, *rest) evaluated at ``points[i]``
    alone, as one (M, *rest) array mod p: row i of the Vandermonde matrix
    of the points times block i, the matrix built as in :func:`evaluate`."""
    lead, width, rest = len(blocks), blocks.shape[1], blocks.shape[2:]
    matrix = vandermonde(points, width, p, field_dtype(p, 1))
    out = matrix[:, None, :] @ blocks.reshape(lead, width, math.prod(rest))
    reduce_mod(out, p, out=out)
    return out.reshape((lead,) + rest)


def evaluate_apart(segments: np.ndarray, noise: np.ndarray, points, p: int) -> np.ndarray:
    """Blocks whose first K rows are ``segments`` (M, K, S, *batch) and
    whose other T rows are ``noise`` (M, T, S, *batch), never stacked: block
    i evaluated at ``points[i]`` alone as in :func:`evaluate_each`, or with
    M = 1 the one block at every point as in :func:`evaluate`, as one
    (len(points), S, *batch) array mod p.  Each part is multiplied by its
    own columns of the Vandermonde matrix (built as in :func:`evaluate`);
    the model product, whose batch axes broadcast to the noise's, is added
    into the noise product, below (K+T)*(p-1)**2, which the parts' dtype
    field_dtype(p, K+T) holds, and the sum is reduced once."""
    k = segments.shape[1]
    matrix = vandermonde(points, k + noise.shape[1], p, field_dtype(p, 1))[:, None]
    out = _times(matrix[..., k:], noise)
    out += _times(matrix[..., :k], segments)
    return reduce_mod(out, p, out=out)


def _times(columns: np.ndarray, part: np.ndarray) -> np.ndarray:
    """``columns`` (P, 1, n) times ``part`` (M, n, S, *batch) along n, M = P
    or 1, as one (P, S, *batch) array."""
    flat = part.reshape(part.shape[:2] + (math.prod(part.shape[2:]),))
    # matmul loops once per entry over a single term: on rows of thousands
    # of entries, a broadcast product is several times as fast
    product = columns * flat if part.shape[1] == 1 else columns @ flat
    return product.reshape((len(columns),) + part.shape[2:])


def _apply(matrix: np.ndarray, blocks: np.ndarray, p: int, axis: int) -> np.ndarray:
    """``matrix`` times ``blocks`` along ``axis``, mod p."""
    lead, width, rest = blocks.shape[:axis], blocks.shape[axis], blocks.shape[axis + 1 :]
    out = matrix @ blocks.reshape(lead + (width, math.prod(rest)))
    reduce_mod(out, p, out=out)
    return out.reshape(lead + (len(matrix),) + rest)
