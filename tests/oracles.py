"""Independent reference implementations used only by the tests.

Deliberately written with different algorithms than the package: primality
by full trial scan, interpolation by Gaussian elimination on a Vandermonde
system, evaluation by repeated pow.  Slow and obvious beats fast and clever
here.
"""


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
