"""Ramp secret sharing of model vectors as coefficient arrays.

A model of length L is zero-padded to K*S entries (S = ceil(L/K)) and cut
into K segments of S entries.  The K segments then T uniform noise vectors
form one user's coefficient block of shape (K+T, S): row j is the vector
coefficient of x**j, so every coordinate carries a polynomial of degree at
most K+T-1.  The blocks of all N users make up a round's coefficient
array, of shape (N, K+T, S, *batch).  ``*batch`` is an optional trailing
enumeration axis: the exhaustive privacy checker puts its runs and noise
assignments there, and rounds have none.

A round never builds the array: the server needs only its (K+T, S,
*batch) total over the included users, which is their models' sum cut into
K segments on their noise's sum, so each input is summed over its users on
its own (:func:`rampagg.protocol.input_total`).  Blocks are written only
when read, a block of users at a time into one reused buffer laid out like
the array (:func:`rampagg.protocol.write_blocks`): the models into
:func:`model_rows`, the (N, K*S) view of every block's K segments, whose
padding alone is zeroed, and the noise into rows K and up, each from the
array the caller gave or else from its random stream, so the group sums
(:attr:`rampagg.protocol.RunResult.sums`) and any user's block come from
the same inputs: inputs given as arrays must not change after the round.
Given models may carry batch axes of their own, which broadcast to the
noise's.  Given inputs are reduced mod p; drawn noise lies in [0, p) by
construction, and drawn models are reduced mod p only when the modulus is
below their entry bound.

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


def _apply(matrix: np.ndarray, blocks: np.ndarray, p: int, axis: int) -> np.ndarray:
    """``matrix`` times ``blocks`` along ``axis``, mod p."""
    lead, width, rest = blocks.shape[:axis], blocks.shape[axis], blocks.shape[axis + 1 :]
    out = matrix @ blocks.reshape(lead + (width, math.prod(rest)))
    reduce_mod(out, p, out=out)
    return out.reshape(lead + (len(matrix),) + rest)
