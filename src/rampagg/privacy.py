"""Exhaustive privacy verification on tiny fields.

The claim under test: what the colluding users and the server jointly see
is statistically independent of the honest users' models once you condition
on (a) the sum of the surviving honest models, the one thing aggregation
is supposed to reveal, and (b) the colluders' own models and noise.

The check is exhaustive, not sampled: every one of the
``model_bound ** (K * #honest)`` honest model assignments is paired with
every honest noise assignment.  It stays cheap because the protocol is
linear: each symbol of the adversary's view is GF(p)-affine in the honest
models, ``view(w, noise) = X(noise) + A w  (mod p)``.  So the real protocol,
:func:`rampagg.protocol.run_protocol` viewed through the ordinary
:func:`collect_adversary_view` (no shadow implementation), runs only a few
times per case, each run with the whole noise enumeration on its batch
axis:

- once with the honest models at zero, which gives the noise-only view X;
- once per honest model symbol set to one, which gives a column of A as
  its difference from X.

Consecutive runs share one protocol call while their columns fit
``RUN_COLUMNS``: the call's batch is (runs, n_noise), the models carry the
runs axis, one (N, K, runs) array for the case, and the noise is one
read-only broadcast of the enumeration.  The view is collected once per
call, its rows picked once per case as the calls share one message pattern,
and each run's view is split off and dropped before the next call.

Two guards make sure the view really is affine; either failure raises
instead of returning a verdict.  Each column of A must be the same at every
noise point, checked at all of them; and one more run at the all-
``(model_bound - 1)`` assignment, which exercises every cross term, must
equal ``X + A w`` entry for entry.

A run's view is its (C, S, n_noise) slice of the array that
:func:`collect_adversary_view` returns: the transcript's delivered,
non-null rows addressed to a colluder or the server, in a fixed order.  The
dropout set is fixed, so which rows those are is the same at every noise
point; a point's view is the column of C*S digits at that point, packed
base p into one integer key.

Conditional mutual information is computed by exact counting: within a
conditioning cell (one value of the honest-model sum), the view distribution
over noise must be *identical* for every model assignment in the cell.  The
assignments are enumerated as arrays, a block at a time: every offset
``A w mod p`` and every cell are array operations, and no assignment is
visited on its own.  The verdict then needs no histogram per assignment,
by this argument.  Let M be the multiset of noise-only view columns (the
columns of X).  Assignment w sees M shifted by its offset o = A w, so two
assignments in a cell see the same distribution iff M + o = M + o', that
is iff M + (o - o') = M.  The shifts v with M + v = M are closed under
addition (M + v + v' = M + v = M) and contain 0; since p is prime, c v is v
added c times, so they form a GF(p) subspace S.  Hence every cell is
uniform over its assignments iff every difference o - o_first(cell) lies in
S, iff the span of those differences does, iff each row of its row-reduced
basis (:func:`rampagg.field.span_basis`, at most C rows) does.  Each basis
row v is tested by comparing the sorted keys of M + v with those of M,
exact integer arithmetic over every noise point, so the verdict "exactly
zero" involves no floating point at all.

A leaking case is additionally quantified in bits by exact counting.  Each
assignment is kept as two ids, its cell's and its offset's, and each
distinct offset as one histogram of its view, a block's new offsets'
histograms read off one row-wise sort of their views; the mutual
information terms of many cells are one array operation, and each cell's
are summed left to right in enumeration order whatever the blocking.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import RampAggError, SearchSpaceTooLarge
from .field import FieldContext, field_dtype, reduce_mod, span_basis
from .harness import collect_adversary_view
from .protocol import PRE_INTRA, DropoutPlan, run_protocol
from .topology import TreeShape, build_tree, make_params

NOISE_UNIFORM = "uniform"
NOISE_CONSTANT = "constant"  # negative control: a broken RNG emits zeros

COUPLING_INDEPENDENT = "independent"
COUPLING_ALL_EQUAL = "all_equal"  # perfectly correlated honest models

#: Default cap on enumerated (model, noise) points.
DEFAULT_BUDGET = 20_000_000

#: Most model assignments enumerated at once: bounds the enumeration's
#: arrays however large the budget.
BLOCK_ROWS = 1 << 16

#: Most batch columns (runs x noise points) in one protocol call: a case's
#: runs share calls while their columns fit, bounding the round's arrays.
RUN_COLUMNS = 1 << 12

#: Most shifted view digits (offsets x C x n_noise) histogrammed by one
#: sort: bounds the histogram arrays however many offsets are new.
HIST_DIGITS = 1 << 20


@dataclass(frozen=True)
class PrivacyCase:
    """One exhaustively checkable instance.

    Model length is pinned to ``k_parts`` (one symbol per segment) so the
    enumeration stays tractable; ``model_bound`` restricts honest model
    entries to [0, model_bound); privacy must hold for *any* model
    distribution, so a small alphabet is a legitimate exact instance.
    Colluders' own data is held fixed at the given constants: the target
    quantity is conditioned on it.
    """

    n_users: int
    t_max: int
    d_max: int
    k_parts: int
    prime: int
    adversaries: tuple[int, ...]
    tree_shape: TreeShape = "chain"
    dropped: tuple[int, ...] = ()
    model_bound: Optional[int] = None  # None: the full field
    noise_mode: str = NOISE_UNIFORM
    model_coupling: str = COUPLING_INDEPENDENT
    adversary_model_value: int = 0
    adversary_noise_value: int = 0
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        for name in ("adversaries", "dropped"):
            users = getattr(self, name)
            for u in users:
                if not 0 <= u < self.n_users:
                    raise ValueError(f"{name}: user {u} outside [0, {self.n_users})")
            if len(set(users)) != len(users):
                raise ValueError(f"{name}: {users} lists a user twice")
        if len(self.adversaries) > self.t_max:
            raise ValueError(
                f"{len(self.adversaries)} colluders exceed t_max={self.t_max}"
            )
        if len(self.dropped) > self.d_max:
            raise ValueError(f"dropped: more than d_max={self.d_max} users")
        if self.noise_mode not in (NOISE_UNIFORM, NOISE_CONSTANT):
            raise ValueError(f"unknown noise_mode {self.noise_mode!r}")
        if self.model_coupling not in (COUPLING_INDEPENDENT, COUPLING_ALL_EQUAL):
            raise ValueError(f"unknown model_coupling {self.model_coupling!r}")
        # fewer than two model values enumerates nothing to compare, and
        # more than p aliases mod p
        if self.model_bound is not None and not 2 <= self.model_bound <= self.prime:
            raise ValueError(f"model_bound: {self.model_bound} outside [2, {self.prime}]")
        for name in ("adversary_model_value", "adversary_noise_value"):
            value = getattr(self, name)
            if not 0 <= value < self.prime:
                raise ValueError(f"{name}: {value} outside [0, {self.prime})")


@dataclass
class PrivacyResult:
    """Outcome of one exhaustive check."""

    mi_bits: float
    exact_zero: bool
    n_cells: int
    n_model_assignments: int
    n_noise_assignments: int

    @property
    def n_points(self) -> int:
        return self.n_model_assignments * self.n_noise_assignments


def privacy_bruteforce(case: PrivacyCase) -> PrivacyResult:
    """Exhaustively measure I(honest models ; adversary view | honest sum,
    adversary data) for ``case``.  Raises SearchSpaceTooLarge when the
    enumeration would exceed ``case.budget`` points, and RampAggError when
    the view is not affine in the honest models."""
    bound = case.prime if case.model_bound is None else case.model_bound
    ctx = FieldContext(case.prime, bound, case.n_users)
    params = make_params(
        case.n_users,
        case.t_max,
        case.d_max,
        case.k_parts,
        model_len=case.k_parts,
        entry_bound=bound,
    )
    tree = build_tree(params.num_groups, case.tree_shape)
    plan = DropoutPlan(frozenset(case.dropped), PRE_INTRA)

    excluded = set(case.adversaries) | set(case.dropped)
    honest = [u for u in range(case.n_users) if u not in excluded]
    k = case.k_parts
    p = case.prime

    generators = 1 if case.model_coupling == COUPLING_ALL_EQUAL else len(honest)
    n_symbols = k * generators
    n_model_assignments = bound**n_symbols
    noise_symbols = len(honest) * case.t_max
    n_noise = p**noise_symbols if case.noise_mode == NOISE_UNIFORM else 1
    if n_model_assignments * n_noise > case.budget:
        raise SearchSpaceTooLarge(
            f"{n_model_assignments} model assignments x {n_noise} noise "
            f"assignments exceeds budget {case.budget}"
        )

    noise = _build_noise(case, honest, n_noise)
    top = (bound - 1,) * n_symbols
    # the runs' model assignments by column: zero, a unit per symbol, top
    assignments = np.eye(n_symbols, n_symbols + 2, 1, dtype=np.int64)
    assignments[:, -1] = bound - 1
    all_models = _build_models(case, honest, assignments, generators)

    def runs():
        """Yield the (C, n_noise) view digits of one real run per model
        assignment, in order.  Consecutive runs share a protocol call while
        their columns fit RUN_COLUMNS, on a (runs, n_noise) batch that
        repeats the noise for each; a run's view is split off as needed."""
        per_call = max(1, RUN_COLUMNS // n_noise)
        for start in range(0, all_models.shape[-1], per_call):
            models = all_models[..., start : start + per_call]
            batch = noise.shape[:3] + (models.shape[-1], n_noise)
            batched = np.broadcast_to(noise[:, :, :, None], batch)
            result = run_protocol(ctx, params, tree, models[..., None], plan, noise=batched)
            view = collect_adversary_view(result, case.adversaries)
            del result
            for r in range(models.shape[-1]):
                yield view[:, :, r].reshape(-1, n_noise)
            del view

    # base is X; column i of shift (A) and of to_sum are what one unit of
    # model symbol i adds to the view and to the honest sum
    views = runs()
    base = next(views)
    shift = np.zeros((len(base), n_symbols), dtype=field_dtype(p, n_symbols))
    to_sum = all_models[honest, :, 1:-1].sum(axis=0)
    for i in range(n_symbols):
        digits = next(views)
        delta = reduce_mod(digits - base, p) if digits.shape == base.shape else None
        if delta is None or (delta != delta[:, :1]).any():
            raise RampAggError(
                f"view is not affine in the honest models: model symbol {i} "
                f"(generator {i // k}, segment {i % k}) does not shift it by "
                f"the same amount at every noise point"
            )
        shift[:, i] = delta[:, 0]
        del digits, delta  # dropped before the next run allocates its round
    top_offset = shift @ np.array(top, dtype=shift.dtype) % p
    if not np.array_equal(next(views), _shifted(base, top_offset, p)):
        raise RampAggError(
            f"view is not affine in the honest models: the run at model "
            f"assignment {top} differs from the noise-only view plus its shift"
        )

    maps = (shift, to_sum, bound, p)
    exact_zero, n_cells, n_assignments = _exact_zero(base, _assignment_blocks(*maps), p)
    mi_bits = 0.0 if exact_zero else _mi_bits(base, _assignment_blocks(*maps), p)
    return PrivacyResult(mi_bits, exact_zero, n_cells, n_assignments, n_noise)


def _assignment_blocks(shift: np.ndarray, to_sum: np.ndarray, bound: int, p: int):
    """Yield the (offsets, cells) int64 arrays of every model assignment w,
    in itertools.product order: w's offset is shift @ w and its cell, the
    honest-model sum, to_sum @ w, both mod p.

    A block holds the bound**low assignments that share their leading
    symbols, ``low`` the most trailing symbols that fit BLOCK_ROWS (at
    least one).  Both maps are linear, so a block is the image of its
    trailing symbols, computed once, plus the image of its leading ones."""
    image = np.concatenate([shift, to_sum.astype(shift.dtype)]).T
    n_symbols = len(image)
    low = next(m for m in range(n_symbols, -1, -1) if m <= 1 or bound**m <= BLOCK_ROWS)
    high = n_symbols - low
    tail = _images(image[high:], bound, p)
    for lead in _images(image[:high], bound, p):
        out = ((tail + lead) % p).astype(np.int64)
        yield out[:, : len(shift)], out[:, len(shift) :]


def _images(image: np.ndarray, bound: int, p: int) -> np.ndarray:
    """w @ image mod p for every w in [0, bound)**len(image), one row each,
    in itertools.product order, built a symbol at a time as an outer sum
    (the symbol added last varies fastest)."""
    values = np.arange(bound).astype(image.dtype)
    out = np.zeros((1, image.shape[1]), dtype=image.dtype)
    for row in image:
        out = (out[:, None] + np.multiply.outer(values, row)).reshape(-1, len(row)) % p
    return out


def _exact_zero(base: np.ndarray, blocks, p: int) -> tuple[bool, int, int]:
    """Decide whether all assignments in each cell see the same view
    distribution, from the (offsets, cells) ``blocks`` and the noise-only
    view ``base`` (M: one noise point per column).  Returns the verdict with
    the cell and assignment counts.

    Each assignment's difference from the first offset met in its cell
    joins a running GF(p) basis; the verdict holds iff every basis row v
    leaves M as it is (the argument is in the module docstring)."""
    seen, n_assignments = None, 0  # the cells met; refs[c] is cell c's first offset
    refs = basis = np.zeros((0, len(base)), dtype=np.int64)
    for offsets, cells in blocks:
        n_assignments += len(offsets)
        seen, ids, new = _number(seen, _pack(cells, p))
        refs = np.concatenate([refs, offsets[new]])
        diffs = (offsets - refs[ids]) % p
        diffs = diffs[np.unique(_pack(diffs, p), return_index=True)[1]]  # each once
        basis = span_basis(np.concatenate([basis, diffs]), p)
    keys = np.sort(_pack(base.T, p))
    exact_zero = all(
        np.array_equal(np.sort(_pack(_shifted(base, v, p).T, p)), keys) for v in basis
    )
    return exact_zero, len(seen), n_assignments


def _mi_bits(base: np.ndarray, blocks, p: int) -> float:
    """I(w ; view | cell) in bits over the (offsets, cells) ``blocks``,
    assignment w seeing the columns of ``base`` shifted by its offset.

    An assignment is kept as two ids, its cell's and its offset's, and a
    distinct offset as its view histogram; a shift permutes the columns, so
    all histograms have the same length and stack.  Value v, with count c in
    w's histogram and T_v in its cell of n_cell points, adds (c/n_cell)
    log2(c n_cell / (n_noise T_v)); a cell's terms, assignment by assignment
    in enumeration order and values ascending, are added left to right: as
    rows of zero-padded grids of at most HIST_DIGITS, cells shortest first."""
    n_noise = base.shape[1]
    cells = offsets_seen = None
    cell_ids, offset_ids, hists = [], [], []
    step = max(1, HIST_DIGITS // base.size)  # new offsets per histogram sort
    for offsets, cell_rows in blocks:
        cells, ids, _ = _number(cells, _pack(cell_rows, p))
        cell_ids.append(ids)
        offsets_seen, ids, new = _number(offsets_seen, _pack(offsets, p))
        offset_ids.append(ids)
        for start in range(0, len(new), step):
            hists.append(_histograms(base, offsets[new[start : start + step]], p))
    cell_ids, offset_ids = np.concatenate(cell_ids), np.concatenate(offset_ids)
    views, counts = map(np.concatenate, zip(*hists))
    views = np.unique(views, return_inverse=True)[1].reshape(counts.shape)  # values by id
    by_cell = offset_ids[np.argsort(cell_ids, kind="stable")]
    sizes = np.bincount(cell_ids)  # assignments per cell
    order, done, sums = np.argsort(sizes, kind="stable"), 0, np.empty(len(sizes))
    while done < len(sizes):
        grids = np.arange(1, len(sizes) - done + 1) * sizes[order[done:]] * counts.shape[1]
        cells = order[done : done + max(1, np.count_nonzero(grids <= HIST_DIGITS))]
        done += len(cells)
        m = sizes[cells]
        local = np.repeat(np.arange(len(cells)), m)  # each member's cell in the grid
        place = np.arange(len(local)) - np.repeat(np.cumsum(m) - m, m)  # and place there
        rows = by_cell[(np.cumsum(sizes) - sizes)[cells][local] + place]
        c, m = counts[rows], m[local, None]
        _, which = np.unique(local[:, None] * views.size + views[rows], return_inverse=True)
        totals = np.bincount(which.ravel(), c.ravel())[which].reshape(c.shape)  # T_v
        # c n_cell / (n_noise T_v) is the rational c len(members) / T_v; its
        # integers, at most the point count, are exact in float64 and divide
        # with one rounding, as Python's ints do
        padded = np.zeros((len(cells), m.max(), counts.shape[1]))
        padded[local, place] = (c / (m * n_noise)) * np.log2(c * m / totals)
        sums[cells] = np.add.accumulate(padded.reshape(len(cells), -1), axis=1)[:, -1]
    return float(np.add.accumulate(np.append(0.0, sizes / len(offset_ids) * sums))[-1])


def _histograms(base: np.ndarray, offsets: np.ndarray, p: int):
    """``np.unique(view, return_counts=True)`` of the packed view of each
    row of ``offsets``, stacked into (values, counts) rows, from one
    row-wise sort: every view has as many distinct values, as a shift
    permutes the columns."""
    keys = np.sort(_pack(_shifted(base, offsets, p).transpose(0, 2, 1), p), axis=1)
    first = np.ones(keys.shape, dtype=bool)
    np.not_equal(keys[:, 1:], keys[:, :-1], out=first[:, 1:])
    starts = np.nonzero(first)[1].reshape(len(keys), -1)
    return keys[first].reshape(starts.shape), np.diff(starts, append=keys.shape[1])


def _number(known, keys: np.ndarray):
    """Number ``keys`` in first-seen order after the ``known`` keys, key i
    numbered i (None: none yet).  Returns the known keys with the new ones
    appended, the number of each of ``keys``, and the index in ``keys`` of
    each new key's first occurrence."""
    known = keys[:0] if known is None else known
    _, first, inverse = np.unique(
        np.concatenate([known, keys]), return_index=True, return_inverse=True
    )
    new = np.sort(first)[len(known) :] - len(known)
    rank = np.argsort(np.argsort(first))
    return np.concatenate([known, keys[new]]), rank[inverse[len(known) :]], new


def _shifted(base: np.ndarray, offset: np.ndarray, p: int) -> np.ndarray:
    """``base`` plus ``offset`` down every column, mod p, or given a stack
    of offsets, the stack of such arrays.  Both hold field elements, so one
    conditional subtraction reduces the sum."""
    digits = base + offset[..., None]
    np.subtract(digits, p, out=digits, where=digits >= p)
    return digits


def _build_noise(case: PrivacyCase, honest: list[int], n_noise: int) -> np.ndarray:
    """The (N, T, 1, n_noise) noise: honest symbols enumerate GF(p) as the
    base-p digits of the enumeration index, colluders hold their fixed
    value, and dropped users (never used) zeros."""
    noise = np.zeros((case.n_users, case.t_max, 1, n_noise), dtype=np.int64)
    noise[list(case.adversaries)] = case.adversary_noise_value
    if case.noise_mode == NOISE_UNIFORM:
        index = np.arange(n_noise, dtype=np.int64)
        for digit, (u, j) in enumerate(itertools.product(honest, range(case.t_max))):
            noise[u, j, 0] = (index // case.prime**digit) % case.prime
    return noise


def _build_models(case: PrivacyCase, honest: list[int], w, generators: int) -> np.ndarray:
    """The model assignments ``w`` (flat, k symbols per generator, then any
    batch axes) as an (N, K, *batch) array; dropped users, never sharing, get 0."""
    w = np.asarray(w)
    models = np.zeros((case.n_users, case.k_parts) + w.shape[1:], dtype=np.int64)
    models[list(case.adversaries)] = case.adversary_model_value
    models[honest] = w.reshape((generators, case.k_parts) + w.shape[1:])
    return models


def _pack(rows: np.ndarray, p: int) -> np.ndarray:
    """One key per row of base-p digits, most significant first, packed
    with :func:`_key_weights`: equal keys iff equal rows."""
    weights = _key_weights(rows.shape[-1], p)
    return rows.astype(weights.dtype, copy=False) @ weights


def _key_weights(n_digits: int, p: int) -> np.ndarray:
    """Place values that pack ``n_digits`` base-p digits, most significant
    first, into one key.  Keys too wide for an int64 are exact Python ints.
    Either way the packing is the same on every call: histograms from
    different model assignments are compared key by key."""
    dtype = np.int64 if n_digits * (p - 1).bit_length() <= 62 else object
    return np.array([p**e for e in range(n_digits - 1, -1, -1)], dtype=dtype)
