"""Independent reference implementations used only by the tests.

Deliberately written with different algorithms than the package: primality
by full trial scan, interpolation by Gaussian elimination on a Vandermonde
system, evaluation by repeated pow, random inputs by one ``randrange`` per
entry, the privacy enumeration by one protocol run per model assignment
and its leak by one Python term per assignment and view value, the relay
by a fold over the groups, the transcript CSV by ``csv.writer``, the
adversary view message by message from the run's arrays.  Slow and
obvious beats fast and clever here.  Also the JSON values, parent maps and
rounds the property tests draw their inputs from, and the environment of
the child interpreters some tests start.
"""

import csv
import hashlib
import io
import os
from collections import Counter
from pathlib import Path
from random import Random

import itertools

import numpy as np
from hypothesis import strategies as st

from rampagg.field import FieldContext
from rampagg.privacy import (
    COUPLING_ALL_EQUAL,
    NOISE_UNIFORM,
    PrivacyResult,
    _build_models,
    _build_noise,
    _key_weights,
)
from rampagg.protocol import (
    BETWEEN_ROUNDS,
    PRE_INTRA,
    DropoutPlan,
    eval_point_for_slot,
    run_protocol,
)
from rampagg.sharing import evaluate
from rampagg.topology import build_tree, make_params


def is_prime_naive(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def eval_poly_naive(coeffs, x: int, p: int) -> int:
    return sum(c * pow(x, j, p) for j, c in enumerate(coeffs)) % p


def solve_vandermonde(xs, ys, p: int):
    """Coefficients of the unique degree < len(xs) polynomial through the points.

    Plain Gauss-Jordan over GF(p); raises ValueError on repeated abscissas
    (the system is singular exactly then).
    """
    n = len(xs)
    if len(ys) != n:
        raise ValueError("xs and ys must have equal length")
    rows = [[pow(x, j, p) for j in range(n)] + [y % p] for x, y in zip(xs, ys)]
    for col in range(n):
        pivot = next(
            (r for r in range(col, n) if rows[r][col] % p != 0), None
        )
        if pivot is None:
            raise ValueError("singular Vandermonde system (repeated abscissa?)")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, p)
        rows[col] = [(v * inv) % p for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [
                    (a - factor * b) % p for a, b in zip(rows[r], rows[col])
                ]
    return [rows[i][n] for i in range(n)]


def span_naive(rows, p: int, width: int) -> set:
    """Every GF(p) combination of ``rows`` (vectors of length ``width``),
    built one row at a time: the span with row r is every c * r added to
    every vector of the span without it."""
    span = {(0,) * width}
    for row in rows:
        span = {
            tuple((a + c * b) % p for a, b in zip(v, row)) for v in span for c in range(p)
        }
    return span


def shift_verdict_naive(base, offsets, cells, p: int) -> bool:
    """Whether, within each cell, every assignment sees the same view
    histogram: the multiset of ``base``'s columns, each shifted by the
    assignment's offset mod p, compared with that of the cell's first."""
    by_cell = {}
    for offset, cell in zip(offsets.tolist(), cells.tolist()):
        histogram = Counter(
            tuple((m + o) % p for m, o in zip(column, offset)) for column in base.T.tolist()
        )
        by_cell.setdefault(tuple(cell), []).append(histogram)
    return all(h == hists[0] for hists in by_cell.values() for h in hists)


# ---- inputs for property tests -----------------------------------------------------

# any JSON value; integers stay small so that no valid draw runs a large
# round, and strings hold no "/", so no drawn output path leaves the
# directory a test writes to
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 40)
    | st.floats()
    | st.text(st.characters(blacklist_characters="/"), max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def parent_maps(draw, max_groups=7):
    """A random valid parent map over groups 0..G-1: the last group hangs
    under the server and every other group under a group placed before it
    in a random sequence, so a parent's index may lie below its child's."""
    groups = draw(st.integers(1, max_groups))
    sequence = [groups - 1] + draw(st.permutations(range(groups - 1)))
    parent = {groups - 1: "server"}
    for i, g in enumerate(sequence[1:], start=1):
        parent[g] = sequence[draw(st.integers(0, i - 1))]
    return parent


@st.composite
def rounds(draw):
    """(k, t, d, parent map, dropped users, timing) of a round within its
    dropout budget: at most d users drop, in any groups and slots."""
    k, t, d = draw(st.integers(1, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    parent = draw(parent_maps(max_groups=6))
    n = (k + t + d) * len(parent)
    dropped = draw(st.lists(st.integers(0, n - 1), max_size=d, unique=True))
    return k, t, d, parent, dropped, draw(st.sampled_from([PRE_INTRA, BETWEEN_ROUNDS]))


# ---- tree -----------------------------------------------------------------------


def parent_naive(tree, group):
    """The parent of ``group`` in ``tree.parents``, with "server" for the
    last group's parent."""
    parent = int(tree.parents[group])
    return "server" if parent == tree.num_groups else parent


def children_naive(tree, group):
    """The groups whose parent is ``group``, ascending."""
    return np.flatnonzero(tree.parents == group).tolist()


def ancestors_naive(tree, group):
    """Groups strictly above ``group``, by walking ``tree.parents`` up to
    the server."""
    out = set()
    node = parent_naive(tree, group)
    while node != "server":
        out.add(node)
        node = parent_naive(tree, node)
    return out


def descendants_naive(tree, group):
    """Groups strictly below ``group``: those that have it as an ancestor."""
    return {g for g in range(tree.num_groups) if group in ancestors_naive(tree, g)}


# ---- relay ----------------------------------------------------------------------


def relay_fold_naive(intra, dead, tree, p):
    """The relay as a fold over the groups, leaves first: each group adds
    its children's partials to its own aggregate, slot by slot, and a slot
    is silenced when a child's slot dropped or was silenced.  ``intra`` is
    (G, size, S, *batch) and ``dead`` (G, size); returns (partials,
    silent) in the same shapes."""
    silent = np.zeros_like(dead)
    partials = intra.copy()
    for g in tree.upward.tolist():
        kids = children_naive(tree, g)
        if kids:
            silent[g] = (dead[kids] | silent[kids]).any(axis=0)
            partials[g] = (partials[g] + partials[kids].sum(axis=0)) % p
    return partials, silent


# ---- transcript ---------------------------------------------------------------

ACTIVE, DROPPED, SILENCED = 0, 1, 2  # user status codes, as in RunResult.status


def transcript_rows_naive(params, tree, took_part, status):
    """Every message of a round, one (phase, sender, receiver, symbols, null,
    delivered) tuple at a time, with "server" as the server's name: each
    group's intra exchange, sender by sender, then the uplinks, leaves
    first.  ``took_part`` and ``status`` are per-user lists."""
    size, seg_len = params.group_size, params.seg_len
    rows = []
    for g in range(params.num_groups):
        members = range(g * size, (g + 1) * size)
        for s in members:
            if not took_part[s]:
                continue
            for r in members:
                if r == s:
                    rows.append(("intra", s, s, 0, False, True))
                else:
                    rows.append(("intra", s, r, seg_len, False, took_part[r]))
    for g in tree.upward.tolist():
        parent = parent_naive(tree, g)
        for u in range(g * size, (g + 1) * size):
            if status[u] == DROPPED:
                continue  # a dropped user leaves no transcript entry
            null = status[u] == SILENCED
            symbols = 0 if null else seg_len
            if parent == "server":
                rows.append(("server", u, "server", symbols, null, True))
            else:
                r = parent * size + u % size
                rows.append(("inter", u, r, symbols, null, status[r] != DROPPED))
    return rows


def transcript_csv_naive(rows):
    """The CSV text of ``transcript_rows_naive``'s rows, written by
    ``csv.writer`` with its header and without the delivered column."""
    out = io.StringIO()
    csv.writer(out).writerows(
        [("phase", "sender", "receiver", "symbols", "null")] + [r[:5] for r in rows]
    )
    return out.getvalue()


def links_naive(rows):
    """Links that carried at least one delivered, non-null message, as
    two-endpoint frozensets; self-addressed rows are not links."""
    return {
        frozenset((sender, receiver))
        for _, sender, receiver, _, null, delivered in rows
        if delivered and not null and sender != receiver
    }


def potential_links_naive(params, tree):
    """Every link that can ever carry a message: all pairs inside a group,
    and each user's slot-to-slot link to its parent group or the server."""
    size = params.group_size
    links = set()
    for g in range(params.num_groups):
        members = range(g * size, (g + 1) * size)
        for a in members:
            for b in members:
                if a < b:
                    links.add(frozenset((a, b)))
        parent = parent_naive(tree, g)
        for slot in range(size):
            sender = g * size + slot
            if parent == "server":
                links.add(frozenset((sender, "server")))
            else:
                links.add(frozenset((sender, parent * size + slot)))
    return links


# ---- adversary view -------------------------------------------------------------


def adversary_view_naive(result, adversaries):
    """What ``adversaries`` and the server receive in a finished run,
    gathered user by user from the run's arrays instead of its transcript,
    as one (C, S, *batch) array of messages: for each colluder, ascending,
    the intra shares it received by sender (none when it dropped pre_intra,
    its own share excluded), then its slot's partial sums from each child
    group (none when it dropped; a dropped or silenced child slot sends
    nothing that counts); then the last group's non-null server arrivals."""
    size, p = result.params.group_size, result.ctx.p
    status, took_part = result.status.tolist(), result.took_part.tolist()
    messages = []
    for a in sorted(set(adversaries)):
        group, slot = divmod(a, size)
        members = range(group * size, (group + 1) * size)
        senders = [u for u in members if u != a and took_part[u] and took_part[a]]
        shares = evaluate(result.coeffs[senders], [eval_point_for_slot(slot)], p, axis=1)
        messages += [share[0] for share in shares]
        if status[a] != DROPPED:
            kids = [c * size + slot for c in children_naive(result.tree, group)]
            messages += [result.partials[u] for u in kids if status[u] == ACTIVE]
    last = result.tree.last_group * size
    messages += [result.partials[u] for u in range(last, last + size) if status[u] == ACTIVE]
    if not messages:
        return np.empty((0,) + result.partials.shape[1:], result.partials.dtype)
    return np.stack(messages)


# ---- per-entry random streams ---------------------------------------------------


def _derive_seed(master_seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def uniform_getrandbits_naive(seed, bound, count):
    """``count`` values uniform in [0, bound), one word at a time: the top
    (bound-1).bit_length() bits of each ``getrandbits(32)`` (or 64, when
    bound-1 needs more than 32 bits) of Random(seed), dropping values >=
    bound."""
    bits = (bound - 1).bit_length()
    width = 32 if bits <= 32 else 64
    rng = Random(seed)
    values = []
    while len(values) < count:
        value = rng.getrandbits(width) >> (width - bits)
        if value < bound:
            values.append(value)
    return values


def models_randrange_naive(params, master_seed, out=None):
    """The (N, L) models of the per-entry stream that bulk drawing replaced:
    one ``randrange(entry_bound)`` per entry, user by user, from the
    generator seeded with derive_seed(master_seed, "models").  Given
    ``out``, each draw is written into its entry of ``out``."""
    rng = Random(_derive_seed(master_seed, "models"))
    if out is None:
        out = np.empty((params.n_users, params.model_len), dtype=np.int64)
    for u in range(params.n_users):
        for i in range(params.model_len):
            out[u, i] = rng.randrange(params.entry_bound)
    return out


def noise_randrange_naive(p, params, master_seed, out=None):
    """The (N, T, S) noise of the per-user streams that bulk drawing
    replaced: user u's T*S symbols, in row order, are one ``randrange(p)``
    each from its own generator seeded with derive_seed(master_seed,
    "noise:u").  Given ``out``, each draw is written into its entry of
    ``out``."""
    if out is None:
        out = np.empty((params.n_users, params.t_max, params.seg_len), dtype=np.int64)
    for u in range(params.n_users):
        rng = Random(_derive_seed(master_seed, f"noise:{u}"))
        for j in range(params.t_max):
            for s in range(params.seg_len):
                out[u, j, s] = rng.randrange(p)
    return out


# ---- privacy enumeration --------------------------------------------------------


def mi_from_histograms_naive(cells, n_noise: int) -> float:
    """Conditional MI in bits from exact per-assignment histograms: ``cells``
    maps each cell, in first-seen order, to the (view keys ascending,
    counts) histogram of each of its assignments, in enumeration order."""
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


def view_histograms_naive(base, offsets, cells, p: int) -> dict:
    """Cell -> the view histogram of each of its assignments, for
    ``mi_from_histograms_naive``: an assignment sees every column of
    ``base`` shifted by its offset mod p, packed into a key as the package
    packs a view, and its histogram is ``np.unique`` of those keys."""
    weights = _key_weights(len(base), p)
    histograms = {}
    for offset, cell in zip(offsets, cells.tolist()):
        keys = weights @ ((base + offset[:, None]) % p).astype(weights.dtype)
        histogram = np.unique(keys, return_counts=True)
        histograms.setdefault(tuple(cell), []).append(histogram)
    return histograms


def privacy_bruteforce_naive(case):
    """``privacy_bruteforce`` without the linearity: every model assignment
    is its own ``run_protocol`` call over the whole noise enumeration, its
    view is gathered by ``adversary_view_naive``, and the MI of a leaking
    case is summed one assignment and one view value at a time by
    ``mi_from_histograms_naive``.  The view keys, the cells and the MI
    terms are taken in the same order as the package's, so the two results
    compare with ``==``."""
    bound = case.prime if case.model_bound is None else case.model_bound
    p, k = case.prime, case.k_parts
    ctx = FieldContext(p, bound, case.n_users)
    params = make_params(
        case.n_users, case.t_max, case.d_max, k, model_len=k, entry_bound=bound
    )
    tree = build_tree(params.num_groups, case.tree_shape)
    plan = DropoutPlan(frozenset(case.dropped), PRE_INTRA)
    excluded = set(case.adversaries) | set(case.dropped)
    honest = [u for u in range(case.n_users) if u not in excluded]
    generators = 1 if case.model_coupling == COUPLING_ALL_EQUAL else len(honest)
    n_noise = p ** (len(honest) * case.t_max) if case.noise_mode == NOISE_UNIFORM else 1
    noise = _build_noise(case, honest, n_noise)

    cells = {}
    for w in itertools.product(range(bound), repeat=k * generators):
        models = _build_models(case, honest, w, generators)
        result = run_protocol(ctx, params, tree, models, plan, noise=noise)
        digits = adversary_view_naive(result, case.adversaries).reshape(-1, n_noise)
        weights = _key_weights(len(digits), p)
        keys = weights @ digits.astype(weights.dtype, copy=False)
        cell = tuple((models[honest].sum(axis=0) % p).tolist())
        cells.setdefault(cell, []).append(np.unique(keys, return_counts=True))

    reference = [hists[0] for hists in cells.values()]
    exact_zero = all(
        np.array_equal(keys, ref_keys) and np.array_equal(counts, ref_counts)
        for (ref_keys, ref_counts), hists in zip(reference, cells.values())
        for keys, counts in hists
    )
    return PrivacyResult(
        mi_bits=0.0 if exact_zero else mi_from_histograms_naive(cells, n_noise),
        exact_zero=exact_zero,
        n_cells=len(cells),
        n_model_assignments=bound ** (k * generators),
        n_noise_assignments=n_noise,
    )


# ---- child interpreters ---------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def child_env() -> dict:
    """This process's environment with the checkout's ``src`` first on
    PYTHONPATH, so that a child interpreter imports the package under test
    whether or not PYTHONPATH was set."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
