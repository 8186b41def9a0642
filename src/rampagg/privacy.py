"""Brute-force privacy verification on tiny fields.

The claim under test: what the colluding users and the server jointly see
is statistically independent of the honest users' models once you condition
on (a) the sum of the surviving honest models, the one thing aggregation
is supposed to reveal, and (b) the colluders' own models and noise.

The check is exhaustive, not sampled.  Honest models are enumerated over
``model_bound ** (K * #honest)`` assignments and, for each assignment, the
full honest-noise space is pushed through :func:`rampagg.protocol.run_protocol`
in one batch: the noise is one (N, T, S, n_noise) array whose last axis is
the enumeration, and the round's array arithmetic carries that axis through
unchanged.  The adversary's view is collected, as array slices, by the
ordinary :func:`collect_adversary_view`; no shadow implementation of the
protocol is involved.

Conditional mutual information is then computed by exact counting: within a
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

from .errors import SearchSpaceTooLarge
from .field import FieldContext
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
    enumeration would exceed ``case.budget`` points."""
    bound = case.prime if case.model_bound is None else case.model_bound
    ctx = FieldContext(case.prime, max(2, bound), case.n_users)
    params = make_params(
        case.n_users,
        case.t_max,
        case.d_max,
        case.k_parts,
        model_len=case.k_parts,
        entry_bound=max(2, bound),
    )
    tree = build_tree(params.num_groups, case.tree_shape)
    plan = DropoutPlan(frozenset(case.dropped), PRE_INTRA)

    excluded = set(case.adversaries) | set(case.dropped)
    honest = [u for u in range(case.n_users) if u not in excluded]
    k = case.k_parts
    p = case.prime

    generators = 1 if case.model_coupling == COUPLING_ALL_EQUAL else len(honest)
    n_model_assignments = bound ** (k * generators)
    noise_symbols = len(honest) * case.t_max
    n_noise = p**noise_symbols if case.noise_mode == NOISE_UNIFORM else 1
    if n_model_assignments * n_noise > case.budget:
        raise SearchSpaceTooLarge(
            f"{n_model_assignments} model assignments x {n_noise} noise "
            f"assignments exceeds budget {case.budget}"
        )

    noise = _build_noise(case, honest, n_noise)

    # cell key -> list of (view keys, counts) histograms, one per assignment
    cells: dict[tuple, list[tuple[np.ndarray, np.ndarray]]] = {}
    for w in itertools.product(range(bound), repeat=k * generators):
        models = _build_models(case, honest, w, generators)
        result = run_protocol(ctx, params, tree, models, plan, noise=noise)
        view = collect_adversary_view(result, case.adversaries)
        keys = _encode_view(view, p, n_noise)
        uniq, counts = np.unique(keys, return_counts=True)
        cell = tuple((models[honest].sum(axis=0) % p).tolist())
        cells.setdefault(cell, []).append((uniq, counts))

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
        n_model_assignments=n_model_assignments,
        n_noise_assignments=n_noise,
    )


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


def _encode_view(view: AdversaryView, p: int, n_noise: int) -> np.ndarray:
    """Pack the view's numeric components into one integer key per
    enumeration point: the base-p number whose digits are the components,
    most significant first.  Null messages are skipped: with the dropout set
    fixed, their pattern is constant across the enumeration."""
    messages = []
    for a in sorted(view.intra_shares):
        messages += [share for _, share in sorted(view.intra_shares[a].items())]
        messages += [m for _, m in sorted(view.child_messages[a].items()) if m is not None]
    messages += [m for _, m in sorted(view.server_messages.items()) if m is not None]
    if not messages:
        return np.zeros(n_noise, dtype=np.int64)
    digits = np.concatenate(messages)
    digits = np.broadcast_to(digits.reshape(len(digits), -1), (len(digits), n_noise))
    # Keys too wide for an int64 are exact Python ints.  Either way the
    # encoding is stable across calls: histograms from different model
    # assignments are compared key by key.
    dtype = np.int64 if len(digits) * (p - 1).bit_length() <= 62 else object
    weights = np.array([p**e for e in range(len(digits) - 1, -1, -1)], dtype=dtype)
    return weights @ digits.astype(dtype, copy=False)


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
