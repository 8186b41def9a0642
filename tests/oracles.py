"""Independent reference implementations used only by the tests.

Deliberately written with different algorithms than the package: primality
by full trial scan, interpolation by Gaussian elimination on a Vandermonde
system, evaluation by repeated pow, random inputs by one ``randrange`` per
entry.  Slow and obvious beats fast and clever here.  Also the JSON values
the property tests draw their inputs from.
"""

import hashlib
from random import Random

import numpy as np
from hypothesis import strategies as st


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


# ---- tree -----------------------------------------------------------------------


def ancestors_naive(tree, group):
    """Groups strictly above ``group``, by walking ``parent_of`` up to the
    server."""
    out = set()
    node = tree.parent_of(group)
    while node != "server":
        out.add(node)
        node = tree.parent_of(node)
    return out


def descendants_naive(tree, group):
    """Groups strictly below ``group``: those that have it as an ancestor."""
    return {g for g in range(tree.num_groups) if group in ancestors_naive(tree, g)}


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
    for g in tree.upward_order():
        parent = tree.parent_of(g)
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
        parent = tree.parent_of(g)
        for slot in range(size):
            sender = g * size + slot
            if parent == "server":
                links.add(frozenset((sender, "server")))
            else:
                links.add(frozenset((sender, parent * size + slot)))
    return links


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


def models_randrange_naive(config):
    """The models of the per-entry stream that bulk drawing replaced: one
    ``randrange(entry_bound)`` per entry, user by user, from the generator
    seeded with derive_seed(master_seed, "models").  A list of tuples."""
    rng = Random(_derive_seed(config.master_seed, "models"))
    return [
        tuple(rng.randrange(config.entry_bound) for _ in range(config.model_len))
        for _ in range(config.n_users)
    ]


def noise_randrange_naive(p, params, master_seed):
    """The (N, T, S) noise of the per-user streams that bulk drawing
    replaced: user u's T*S symbols, in row order, are one ``randrange(p)``
    each from its own generator seeded with derive_seed(master_seed,
    "noise:u")."""
    rows = []
    for u in range(params.n_users):
        rng = Random(_derive_seed(master_seed, f"noise:{u}"))
        rows.append([rng.randrange(p) for _ in range(params.t_max * params.seg_len)])
    return np.array(rows, dtype=np.int64).reshape(
        params.n_users, params.t_max, params.seg_len
    )
