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
:func:`collect_adversary_view` (no shadow implementation), runs a fixed
number of times per case, each time with the whole noise enumeration on the
batch axis of one (N, T, S, n_noise) noise array:

- once with the honest models at zero, which gives the noise-only view X;
- once per honest model symbol set to one, which gives a column of A as
  its difference from X.

Two guards make sure the view really is affine; either failure raises
instead of returning a verdict.  Each column of A must be the same at every
noise point, checked at all of them; and one more run at the all-
``(model_bound - 1)`` assignment, which exercises every cross term, must
equal ``X + A w`` entry for entry.  Every assignment then costs one shift of
X, one key packing and one histogram.

Conditional mutual information is computed by exact counting: within a
conditioning cell (one value of the honest-model sum), the view distribution
over noise must be *identical* for every model assignment in the cell.  That
identity is checked on integer histograms, so the verdict "exactly zero"
involves no floating point at all; a non-zero MI is additionally quantified
in bits from the same exact counts.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import RampAggError, SearchSpaceTooLarge
from .field import FieldContext, field_dtype
from .harness import AdversaryView, collect_adversary_view
from .protocol import PRE_INTRA, DropoutPlan, run_protocol
from .topology import TreeShape, build_tree, make_params

NOISE_UNIFORM = "uniform"
NOISE_CONSTANT = "constant"  # negative control: a broken RNG emits zeros

COUPLING_INDEPENDENT = "independent"
COUPLING_ALL_EQUAL = "all_equal"  # perfectly correlated honest models

#: Default cap on enumerated (model, noise) points.
DEFAULT_BUDGET = 20_000_000


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

    def run(w: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The honest-model sum and the (C, n_noise) view digits of one real
        run at model assignment ``w``."""
        models = _build_models(case, honest, w, generators)
        result = run_protocol(ctx, params, tree, models, plan, noise=noise)
        view = collect_adversary_view(result, case.adversaries)
        return models[honest].sum(axis=0), _view_digits(view, n_noise)

    # base is X; column i of shift (A) and of to_sum are what one unit of
    # model symbol i adds to the view and to the honest sum
    _, base = run((0,) * n_symbols)
    shift = np.zeros((len(base), n_symbols), dtype=field_dtype(p, n_symbols))
    to_sum = np.zeros((k, n_symbols), dtype=np.int64)
    for i in range(n_symbols):
        to_sum[:, i], digits = run(tuple(int(j == i) for j in range(n_symbols)))
        delta = (digits - base) % p if digits.shape == base.shape else None
        if delta is None or (delta != delta[:, :1]).any():
            raise RampAggError(
                f"view is not affine in the honest models: model symbol {i} "
                f"(generator {i // k}, segment {i % k}) does not shift it by "
                f"the same amount at every noise point"
            )
        shift[:, i] = delta[:, 0]
    top = (bound - 1,) * n_symbols
    if not np.array_equal(run(top)[1], _shifted(base, _offset(shift, top, p), p)):
        raise RampAggError(
            f"view is not affine in the honest models: the run at model "
            f"assignment {top} differs from the noise-only view plus its shift"
        )

    weights = _key_weights(len(base), p)
    # view shift -> its (view keys, counts) histogram: assignments with the
    # same shift see the same view, and A's rank keeps the shifts few
    histograms: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    # cell key -> list of histograms, one per assignment
    cells: dict[tuple, list[tuple[np.ndarray, np.ndarray]]] = {}
    for w in itertools.product(range(bound), repeat=n_symbols):
        offset = _offset(shift, w, p)
        seen = tuple(offset.tolist())
        if seen not in histograms:
            digits = _shifted(base, offset, p).astype(weights.dtype, copy=False)
            histograms[seen] = np.unique(weights @ digits, return_counts=True)
        cell = tuple((to_sum @ w % p).tolist())
        cells.setdefault(cell, []).append(histograms[seen])

    exact_zero = True
    for hists in cells.values():
        ref_keys, ref_counts = hists[0]
        for uniq, counts in hists[1:]:
            if not (
                np.array_equal(uniq, ref_keys) and np.array_equal(counts, ref_counts)
            ):
                exact_zero = False
                break
        if not exact_zero:
            break

    mi_bits = 0.0 if exact_zero else _mi_from_histograms(cells, n_noise)
    return PrivacyResult(
        mi_bits=mi_bits,
        exact_zero=exact_zero,
        n_cells=len(cells),
        n_model_assignments=sum(map(len, cells.values())),
        n_noise_assignments=n_noise,
    )


def _offset(shift: np.ndarray, w: tuple, p: int) -> np.ndarray:
    """What model assignment ``w`` adds to every view column: shift @ w mod p."""
    return shift @ np.array(w, dtype=shift.dtype) % p


def _shifted(base: np.ndarray, offset: np.ndarray, p: int) -> np.ndarray:
    """``base`` plus ``offset`` down every column, mod p.  Both hold field
    elements, so one conditional subtraction reduces the sum."""
    digits = base + offset[:, None]
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


def _build_models(
    case: PrivacyCase, honest: list[int], w: tuple, generators: int
) -> np.ndarray:
    """The model assignment ``w`` (flat, k symbols per generator) as an
    (N, K) array; dropped users never share, so any value serves them."""
    models = np.zeros((case.n_users, case.k_parts), dtype=np.int64)
    models[list(case.adversaries)] = case.adversary_model_value
    models[honest] = np.reshape(w, (generators, case.k_parts))
    return models


def _view_digits(view: AdversaryView, n_noise: int) -> np.ndarray:
    """The view's numeric components as one (C, n_noise) array of digits,
    one row per symbol: each adversary's intra shares and child messages,
    then the server's arrivals.  Null messages are skipped: with the dropout
    set fixed, their pattern is constant across the enumeration."""
    messages = []
    for a in sorted(view.intra_shares):
        messages += [share for _, share in sorted(view.intra_shares[a].items())]
        messages += [m for _, m in sorted(view.child_messages[a].items()) if m is not None]
    messages += [m for _, m in sorted(view.server_messages.items()) if m is not None]
    if not messages:
        return np.zeros((0, n_noise), dtype=np.int64)
    digits = np.concatenate(messages)
    return np.broadcast_to(digits.reshape(len(digits), -1), (len(digits), n_noise))


def _key_weights(n_digits: int, p: int) -> np.ndarray:
    """Place values that pack ``n_digits`` base-p digits, most significant
    first, into one key.  Keys too wide for an int64 are exact Python ints.
    Either way the packing is the same on every call: histograms from
    different model assignments are compared key by key."""
    dtype = np.int64 if n_digits * (p - 1).bit_length() <= 62 else object
    return np.array([p**e for e in range(n_digits - 1, -1, -1)], dtype=dtype)


def _encode_view(view: AdversaryView, p: int, n_noise: int) -> np.ndarray:
    """One integer key per enumeration point: the base-p number whose digits
    are the view's components."""
    digits = _view_digits(view, n_noise)
    weights = _key_weights(len(digits), p)
    return weights @ digits.astype(weights.dtype, copy=False)


def _mi_from_histograms(
    cells: dict[tuple, list[tuple[np.ndarray, np.ndarray]]], n_noise: int
) -> float:
    """Conditional MI in bits from exact per-assignment histograms."""
    total = sum(len(hists) * n_noise for hists in cells.values())
    mi = 0.0
    for hists in cells.values():
        n_cell = len(hists) * n_noise
        view_totals: dict[int, int] = {}
        for uniq, counts in hists:
            for v, c in zip(uniq.tolist(), counts.tolist()):
                view_totals[v] = view_totals.get(v, 0) + c
        cell_term = 0.0
        for uniq, counts in hists:
            for v, c in zip(uniq.tolist(), counts.tolist()):
                # joint (w, v) count is c; marginals: n_noise for w, totals for v
                cell_term += (c / n_cell) * np.log2(
                    c * n_cell / (n_noise * view_totals[v])
                )
        mi += (n_cell / total) * cell_term
    return float(mi)
