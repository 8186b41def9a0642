"""Single-round aggregation protocol: share, sum in-group, relay up, recover.

A round is one coefficient array of shape (N, K+T, S, *batch) (see
:mod:`rampagg.sharing`) plus one status code per user, and each of its three
phases is an array operation.

intra   Every active user evaluates its block at each slot's evaluation
        point and sends the result to the user in that slot of its own group
        (its own slot is computed locally at zero cost).  Each user then sums
        everything it received into one in-group aggregate.  By linearity
        that aggregate is the group's summed blocks evaluated at the
        receiver's point, so the phase is one sum per group and one
        (size, K+T) Vandermonde product, giving ``intra`` of shape
        (N, S, *batch).  Users that dropped before the round never share;
        their blocks are taken back out of the sums, which is equivalent to
        presuming them zero.

inter   Groups feed their aggregates up the tree, slot to slot: a user adds
        the partial sums received from the matching slot of each child
        group to its own in-group aggregate and forwards the total to the
        matching slot of its parent.  A user missing any child's message
        (the child dropped, or itself sent null) is silenced: it emits an
        explicit null and stays silent for the rest of the round.  So a
        user forwards its slot's sum over its group's subtree, and a subtree
        is one contiguous range of the tree's postorder: one prefix scan in
        postorder, all slots at once, gives what every user forwarded,
        ``partials`` of shape (N, S, *batch), and who was silenced.

server  The last group's users do the same send toward the server.  The
        server applies the (K+T, K+T) inverse Vandermonde matrix of the
        first K+T non-null arrivals' points to them, which interpolates the
        summed polynomial of every coordinate at once, checks every further
        arrival against it, and reads the summed model segments off its
        low-order coefficients.

Senders never know who dropped, so a message addressed to a dropped user is
still transmitted (it costs the sender symbols) but it is never delivered
and the link it would have used stays silent.  Null messages are explicit
zero-symbol transcript entries; a user that dropped before sending leaves no
entry at all.

The transcript is built from the same masks: parallel columns (phase,
sender, receiver, symbols, null, delivered) with the server as receiver N,
the intra rows repeated over each group's slots for every user that took
part, then the uplink rows of every user that did not drop.  Loads and
phase counts are sums over these columns, and the links a round used are
the distinct sender-receiver pairs of its delivered non-null rows; a round
without dropouts uses every link the network has.
"""

import hashlib
import math
import threading
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import InconsistentArrivals, TooManyDropouts
from .field import FieldContext, field_dtype, inverse_vandermonde, reduce_mod
from .sharing import _apply, empty_blocks, evaluate, model_rows
from .topology import SERVER, AggregationTree, ProtocolParams

PHASE_INTRA = "intra"
PHASE_INTER = "inter"
PHASE_SERVER = "server"
PHASES = (PHASE_INTRA, PHASE_INTER, PHASE_SERVER)

_CSV_BLOCK_ROWS = 4096  # transcript rows joined per write
_PHASE_PIECES = np.array([f"{phase}," for phase in PHASES], dtype=object)


@lru_cache(maxsize=8)
def _user_names(n_users: int) -> np.ndarray:
    """The read-only CSV name pieces "0,", ..., "{N-1}," and "server," of
    receiver N, built once per N."""
    names = np.array([*(f"{u}," for u in range(n_users)), f"{SERVER},"], dtype=object)
    names.flags.writeable = False
    return names


PRE_INTRA = "pre_intra"
BETWEEN_ROUNDS = "between_rounds"


def eval_point_for_slot(slot: int) -> int:
    """Slot t evaluates at point t+1: distinct, non-zero, deterministic."""
    return slot + 1


class UserStatus(IntEnum):
    """A user's state at the end of a round, as stored in ``RunResult.status``."""

    ACTIVE = 0
    DROPPED = 1
    SILENCED = 2


@dataclass(frozen=True, eq=False)
class Transcript:
    """Every message of one run as parallel columns, one entry per message
    in protocol order: each group's intra exchange, sender by sender, then
    the groups' uplinks, leaves first.

    ``phase`` indexes :data:`PHASES`; ``receiver`` is a user index, or N
    for the server.  ``delivered`` is accounting metadata: a send to an
    already-dropped user costs the sender its symbols but never activates
    the link.
    """

    n_users: int
    phase: np.ndarray
    sender: np.ndarray
    receiver: np.ndarray
    symbols: np.ndarray
    null: np.ndarray
    delivered: np.ndarray

    @classmethod
    def of_round(
        cls,
        params: ProtocolParams,
        tree: AggregationTree,
        took_part: np.ndarray,
        status: np.ndarray,
    ) -> "Transcript":
        """The messages sent when the users marked in ``took_part`` (N,)
        shared in the intra phase and each user ended with ``status`` (N,)."""
        n, size = params.n_users, params.group_size
        slots = np.arange(size)
        # plain ints: numpy compares an IntEnum member several times slower;
        # the extra last entry is the server, receiver N, which never drops
        dropped = np.append(status == UserStatus.DROPPED.value, False)
        # intra: each user that took part addresses every slot of its group
        users = np.flatnonzero(took_part)
        intra_to = (users[:, None] // size * size + slots).ravel()
        # uplinks, leaves first, slot to slot; the last group, alone at depth
        # 0, comes last and sends to the server; a dropped user sends nothing
        order = tree.upward
        parent = tree.parents[order[:-1]]
        up_from = (order[:, None] * size + slots).ravel()
        up_to = np.concatenate([(parent[:, None] * size + slots).ravel(), [n] * size])
        sent = ~dropped[up_from]
        up_from, up_to = up_from[sent], up_to[sent]
        sender = np.concatenate([users.repeat(size), up_from])
        receiver = np.concatenate([intra_to, up_to])
        n_intra = len(intra_to)
        # codes into PHASES: intra, then inter or server by receiver
        phase = np.concatenate([np.zeros(n_intra, np.intp), np.where(up_to == n, 2, 1)])
        silenced = status[up_from] == UserStatus.SILENCED.value
        null = np.concatenate([np.zeros(n_intra, bool), silenced])
        # an intra share reaches whoever took part, an uplink whoever did not drop
        delivered = np.concatenate([took_part[intra_to], ~dropped[up_to]])
        symbols = np.where(null | (sender == receiver), 0, params.seg_len)
        return cls(n, phase, sender, receiver, symbols, null, delivered)

    def __len__(self) -> int:
        return len(self.phase)

    # -- accounting ------------------------------------------------------

    def phase_counts(self) -> dict[str, dict[str, int]]:
        messages = np.bincount(self.phase, minlength=len(PHASES))
        null = np.bincount(self.phase[self.null], minlength=len(PHASES))
        symbols = np.zeros(len(PHASES), dtype=np.int64)
        np.add.at(symbols, self.phase, self.symbols)
        return {
            phase: {"messages": m, "null": z, "symbols": s}
            for phase, m, z, s in zip(
                PHASES, messages.tolist(), null.tolist(), symbols.tolist()
            )
        }

    def links(self) -> np.ndarray:
        """Distinct links, as (a, b) rows with a < b and the server as N,
        that carried at least one delivered, non-null message.
        Self-addressed local computations are not links."""
        # an intra share is delivered both ways iff both users took part, so
        # the a < b direction names each used intra link once; every uplink
        # has its own sender, so no two uplink rows share a link
        one_way = (self.phase != 0) | (self.sender < self.receiver)
        used = self.delivered & ~self.null & (self.sender != self.receiver) & one_way
        a, b = self.sender[used], self.receiver[used]
        key = np.sort(np.minimum(a, b) * (self.n_users + 1) + np.maximum(a, b))
        return np.stack(np.divmod(key, self.n_users + 1), axis=1)

    # -- exports -----------------------------------------------------------

    def to_csv(self, fp) -> None:
        """Write the rows as ``csv.writer`` would, with no formatting per
        row: a row is four pieces of a (rows, 4) object array, each taken
        from a small table by one fancy index (the phase, the sender's and
        the receiver's names from :func:`_user_names`, each with its comma,
        and a tail of symbols, null flag and "\\r\\n"), and each block of
        rows goes out as one join."""
        full = int(self.symbols.max(initial=0))
        sent = self.symbols != 0
        if (self.symbols[sent] != full).any():
            raise ValueError(f"symbol counts other than 0 and {full}")
        names = _user_names(self.n_users)
        # indexed by sent + 2 * null
        tails = np.array(
            ["0,False\r\n", f"{full},False\r\n", "0,True\r\n", f"{full},True\r\n"],
            dtype=object,
        )
        pieces = np.empty((len(self), 4), dtype=object)
        pieces[:, 0] = _PHASE_PIECES[self.phase]
        pieces[:, 1] = names[self.sender]
        pieces[:, 2] = names[self.receiver]
        pieces[:, 3] = tails[sent.view(np.int8) + 2 * self.null.view(np.int8)]
        fp.write("phase,sender,receiver,symbols,null\r\n")
        for start in range(0, len(pieces), _CSV_BLOCK_ROWS):
            fp.write("".join(pieces[start : start + _CSV_BLOCK_ROWS].ravel().tolist()))


@dataclass(frozen=True)
class DropoutPlan:
    """Who drops and when.  ``pre_intra`` users never participate at all;
    ``between_rounds`` users share in the intra phase and vanish before the
    relay, so their model is already inside the group sums."""

    dropped: frozenset
    timing: str = PRE_INTRA

    def __post_init__(self) -> None:
        if self.timing not in (PRE_INTRA, BETWEEN_ROUNDS):
            raise ValueError(f"unknown dropout timing {self.timing!r}")

    @classmethod
    def none(cls) -> "DropoutPlan":
        return cls(dropped=frozenset())


@dataclass
class RunResult:
    """Outcome of one protocol run, as arrays indexed by user.

    ``coeffs`` (N, K+T, S, *batch) holds every user's model segments then
    noise.  ``intra`` (N, S, *batch) holds each user's in-group aggregate.
    ``partials`` (N, S, *batch) holds the partial sum each user forwarded up
    the tree; a row is a message only where ``status`` is ACTIVE, and
    :attr:`null` marks the users that sent an explicit null instead.
    ``took_part`` (N,) marks the users that shared in the intra phase, whose
    models are in ``aggregate`` (L, *batch), the recovered sum.  The run's
    field, sizing and tree are kept so the arrays can be read without them.
    """

    aggregate: np.ndarray
    coeffs: np.ndarray
    intra: np.ndarray
    partials: np.ndarray
    status: np.ndarray
    took_part: np.ndarray
    ctx: FieldContext
    params: ProtocolParams
    tree: AggregationTree

    @property
    def null(self) -> np.ndarray:
        return self.status == UserStatus.SILENCED.value

    @cached_property
    def transcript(self) -> Transcript:
        """The round's messages, built on first use.  The adversary view,
        and so the exhaustive privacy checker, reads it; only callers that
        need no more than the aggregate, ``correctness_oracle`` and verify's
        ``_check_dropout_boundary``, never pay for it."""
        return Transcript.of_round(self.params, self.tree, self.took_part, self.status)


def derive_seed(master_seed: int, label: str) -> int:
    """Stable per-stream seed derivation; independent of hash randomization."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# words read from the generator per chunk: its temporaries stay in cache
_CHUNK_WORDS = 1 << 15
# one generator per thread, reseeded by each draw: a new RandomState seeds
# its MT19937 from OS entropy before the key replaces that state, which
# costs ten times the reseed
_generators = threading.local()


def _mt_key(seed: int) -> list[int]:
    """The little-endian 32-bit limbs of ``abs(seed)``, ``[0]`` for 0: the
    key ``random.Random(seed)`` hands to MT19937's ``init_by_array``."""
    seed = abs(seed)
    return [seed >> shift & 0xFFFFFFFF for shift in range(0, seed.bit_length(), 32)] or [0]


def draw_uniform(seed: int, bound: int, shape, out=None) -> np.ndarray:
    """An int64 array of ``shape``, uniform in [0, bound) for 2 <= bound <=
    2**63, filled in row order from the word stream of ``random.Random(seed)``.
    Given ``out``, an array of ``shape`` such as a strided view of a
    coefficient array, the same values go into it instead, a block of whole
    rows at a time.

    The words come from this thread's numpy legacy ``RandomState``, seeded
    anew with :func:`_mt_key`: the same MT19937 with the same
    ``init_by_array`` seeding, its stream frozen by NEP 19, so it yields
    ``Random(seed)``'s 32-bit words in order.  They are read
    ``_CHUNK_WORDS`` at a time, as 32-bit words when bound-1 fits in 32
    bits, else as 64-bit words of two consecutive 32-bit ones, the first
    one low, as ``Random.getrandbits(64)`` builds them.  Each word keeps its
    top ``(bound-1).bit_length()`` bits and is rejected when that value is
    >= bound, so every accepted value is exactly uniform (no modulo bias)
    and at most half the words are rejected.  The result is the first
    ``prod(shape)`` accepted values of the word stream, whatever the
    chunking.
    """
    if not 2 <= bound <= 2**63:
        raise ValueError(f"bound {bound} outside [2, 2**63]")
    if out is None:
        out = np.empty(shape, dtype=np.int64)
    elif out.shape != tuple(shape):
        raise ValueError(f"out has shape {out.shape}, expected {tuple(shape)}")
    rng = getattr(_generators, "mt", None)
    if rng is None:
        # loaded here, not at import: set-up and the exhaustive checker never draw
        from numpy.random import RandomState

        rng = _generators.mt = RandomState()
    rng.seed(_mt_key(seed))
    bits = (bound - 1).bit_length()
    width = 32 if bits <= 32 else 64
    row_shape = out.shape[1:]
    row_len = math.prod(row_shape)
    # the start of a row that the end of a chunk cut off
    held, n_held = np.empty(row_len, dtype=np.int64), 0
    row = filled = 0
    while filled < out.size:
        # the expected number of words still needed, plus a few sigma
        words = ((out.size - filled) << bits) // bound
        words = min(words + 4 * math.isqrt(words) + 16, _CHUNK_WORDS)
        raw = rng.randint(0, 2**32, size=words * width // 32, dtype=np.uint32)
        raw = raw.astype("<u4", copy=False).view(f"<u{width // 8}")
        values = raw >> (width - bits)
        if bound & (bound - 1):  # not a power of two, which rejects no word
            # np.compress: several times faster than a boolean index here
            values = np.compress(values < bound, values)
        values = values[: out.size - filled]
        filled += len(values)
        if n_held:
            take = min(row_len - n_held, len(values))
            held[n_held : n_held + take] = values[:take]
            n_held += take
            if n_held < row_len:
                continue
            out[row] = held.reshape(row_shape)
            row += 1
            values = values[take:]
        full = len(values) // row_len
        out[row : row + full] = values[: full * row_len].reshape((full,) + row_shape)
        row += full
        n_held = len(values) - full * row_len
        held[:n_held] = values[full * row_len :]
    return out


def draw_noise(p: int, params: ProtocolParams, master_seed: int, out=None) -> np.ndarray:
    """(N, T, S) uniform noise in [0, p), drawn in row order from the one
    stream seeded with derive_seed(master_seed, "noise"): same seed, same
    noise.  Given ``out``, such as rows K and up of a coefficient array,
    the noise goes into it."""
    shape = (params.n_users, params.t_max, params.seg_len)
    return draw_uniform(derive_seed(master_seed, "noise"), p, shape, out)


def noised_blocks(params: ProtocolParams, p: int, master_seed: int):
    """A round's coefficient array (:func:`rampagg.sharing.empty_blocks`)
    with the noise of :func:`draw_noise` drawn into rows K and up, and the
    (N, L) view of its model entries, :func:`rampagg.sharing.model_rows`
    without the padding, left for the caller to fill."""
    coeffs = empty_blocks(params, p)
    draw_noise(p, params, master_seed, out=coeffs[:, params.k_parts :])
    return coeffs, model_rows(coeffs, params.k_parts)[:, : params.model_len]


def fill_blocks(
    params: ProtocolParams, p: int, models: np.ndarray, noise=None, master_seed: int = 0
) -> np.ndarray:
    """A fresh coefficient array (N, K+T, S, *batch) holding ``models``, the
    (N, L) integer array of the users' models, one row per user, over the
    noise of :func:`draw_noise`, or over an explicit ``noise`` array of
    shape (N, T, S, *batch).  Given arrays are reduced mod p as they are
    written into it."""
    n = params.n_users
    models = np.asarray(models)
    if models.shape != (n, params.model_len):
        raise ValueError(
            f"models have shape {models.shape}, expected {n} rows of length "
            f"{params.model_len}"
        )
    if noise is None:
        coeffs, rows = noised_blocks(params, p, master_seed)
    else:
        noise = np.asarray(noise)
        if noise.shape[:3] != (n, params.t_max, params.seg_len):
            raise ValueError(
                f"noise has shape {noise.shape}, expected "
                f"({n}, {params.t_max}, {params.seg_len}, *batch)"
            )
        coeffs = empty_blocks(params, p, noise.shape[3:])
        # both writes cast as assignment does: an empty noise list arrives
        # as float64, and models past int64 as Python ints
        reduce_mod(noise, p, out=coeffs[:, params.k_parts :])
        rows = model_rows(coeffs, params.k_parts)[:, : params.model_len]
    # the model rows broadcast over the batch axis
    models = models.reshape(models.shape + (1,) * (rows.ndim - 2))
    reduce_mod(models, p, out=rows)
    return coeffs


def run_protocol(
    ctx: FieldContext,
    params: ProtocolParams,
    tree: AggregationTree,
    models: np.ndarray,
    dropout_plan: Optional[DropoutPlan] = None,
    master_seed: int = 0,
    noise=None,
    coeffs: Optional[np.ndarray] = None,
) -> RunResult:
    """Execute one full aggregation round deterministically: :func:`run_round`
    on the coefficient array that :func:`fill_blocks` makes of ``models``
    and ``noise`` (drawn from ``master_seed`` when None).  Given ``coeffs``,
    an array that already holds the round's blocks, such as one from
    :func:`noised_blocks` with ``models`` drawn into its model view, the
    round runs on it as it is."""
    if coeffs is None:
        coeffs = fill_blocks(params, ctx.p, models, noise, master_seed)
    return run_round(ctx, params, tree, coeffs, dropout_plan)


def run_round(
    ctx: FieldContext,
    params: ProtocolParams,
    tree: AggregationTree,
    coeffs: np.ndarray,
    dropout_plan: Optional[DropoutPlan] = None,
) -> RunResult:
    """Run one aggregation round on ``coeffs`` (N, K+T, S, *batch), every
    user's model segments then noise in the field dtype, entries in [0, p).
    The array is read, never copied, and becomes the result's ``coeffs``.
    Raises TooManyDropouts when fewer than K+T non-null messages reach the
    server.
    """
    plan = dropout_plan or DropoutPlan.none()
    n = params.n_users
    size = params.group_size
    seg_len = params.seg_len
    p = ctx.p
    if tree.num_groups != params.num_groups:
        raise ValueError(
            f"tree has {tree.num_groups} groups, params imply {params.num_groups}"
        )
    if p <= size:
        raise ValueError(
            f"modulus {p} too small for {size} distinct non-zero evaluation points"
        )
    for u in plan.dropped:
        if not 0 <= u < n:
            raise ValueError(f"dropout index {u} outside [0, {n})")
    batch = coeffs.shape[3:]

    pre_dropped = sorted(plan.dropped) if plan.timing == PRE_INTRA else []
    took_part = np.ones(n, dtype=bool)  # in the intra phase
    took_part[pre_dropped] = False
    # plain ints: numpy compares and stores an IntEnum member several times slower
    status = np.full(n, UserStatus.ACTIVE.value, dtype=np.int8)
    status[sorted(plan.dropped)] = UserStatus.DROPPED.value

    # -- intra phase: the group sum of active blocks, at every slot's point --
    # a plain sum less the few pre-intra dropouts' blocks is 1.5-3x faster
    # than a sum masked by took_part; two dropouts may share a group
    group_sums = coeffs.reshape((-1, size) + coeffs.shape[1:]).sum(axis=1)
    if pre_dropped:
        np.subtract.at(group_sums, np.floor_divide(pre_dropped, size), coeffs[pre_dropped])
    reduce_mod(group_sums, p, out=group_sums)
    points = [eval_point_for_slot(t) for t in range(size)]
    intra = evaluate(group_sums, points, p, axis=1).reshape((n, seg_len) + batch)
    del group_sums  # freed before the relay allocates its scan

    # -- inter + server phases: subtree sums, all groups and slots at once --
    dead = (status == UserStatus.DROPPED.value).reshape(-1, size)
    partials, silent = relay(intra.reshape((-1, size, seg_len) + batch), dead, tree, p)
    status[(silent & ~dead).reshape(n)] = UserStatus.SILENCED.value
    partials = partials.reshape((n, seg_len) + batch)

    # -- recovery -------------------------------------------------------------
    last = tree.last_group * size
    null_slots = status[last:] != UserStatus.ACTIVE.value
    try:
        aggregate = server_recover(ctx, params, partials[last:], null_slots)
    except TooManyDropouts as exc:
        # every group lies below the last one, so a server slot is null
        # exactly when some user in that slot dropped
        causes = []
        for t in np.flatnonzero(null_slots).tolist():
            users = (np.flatnonzero(dead[:, t]) * size + t).tolist()
            causes.append(f"{t} (dropped {', '.join(map(str, users))})")
        raise TooManyDropouts(f"{exc}; null slots: {', '.join(causes)}") from None
    return RunResult(
        aggregate=aggregate,
        coeffs=coeffs,
        intra=intra,
        partials=partials,
        status=status,
        took_part=took_part,
        ctx=ctx,
        params=params,
        tree=tree,
    )


def relay(intra: np.ndarray, dead: np.ndarray, tree: AggregationTree, p: int):
    """The inter phase on ``intra`` (G, size, S, *batch) and ``dead`` (G,
    size), by group and slot: what each user forwards, its slot's sum mod p
    over its group's subtree, and whether a user in its slot strictly below
    it dropped.  Both are differences of prefix sums in postorder."""
    lo, hi = tree.subtree_lo, tree.subtree_hi
    if intra.dtype != object and len(intra) * (p - 1) >= 2**63:
        raise ValueError(f"prefix sums of {len(intra)} groups mod {p} overflow int64")
    # row i sums the first i groups in postorder, by log-step doubling (Hillis
    # and Steele, CACM 1986): np.cumsum walks the group axis row by row, slow
    # on wide batched rows
    sums = np.empty((len(intra) + 1,) + intra.shape[1:], dtype=intra.dtype)
    sums[0] = 0
    scan = sums[1:]
    np.take(intra, tree.postorder, axis=0, out=scan)
    step = 1
    while step < len(scan):
        scan[step:] += scan[:-step]  # numpy buffers the overlapping operand
        step *= 2
    inner = np.flatnonzero(hi - lo > 1)  # groups with children; leaves keep intra
    subtree = sums[hi[inner]]
    subtree -= sums[lo[inner]]  # in place: a fresh wide temporary costs page faults
    reduce_mod(subtree, p, out=subtree)
    partials = intra.copy()
    partials[inner] = subtree
    drops = np.zeros((len(dead) + 1, dead.shape[1]), dtype=np.intp)
    np.cumsum(dead[tree.postorder], axis=0, out=drops[1:])
    return partials, drops[hi - 1] > drops[lo]


def server_recover(
    ctx: FieldContext, params: ProtocolParams, partials: np.ndarray, silent: np.ndarray
) -> np.ndarray:
    """Recover the summed model, truncated to the original length, from the
    last group's messages: ``partials`` (size, S, *batch) by slot, where
    ``silent`` (size,) marks the slots that sent a null or nothing.

    The first K+T arrivals fix the summed polynomial: the inverse
    Vandermonde matrix of their points maps them to every coefficient of
    every coordinate at once.  Every further arrival is checked against
    that polynomial, so a corrupted spare raises InconsistentArrivals
    instead of skewing the sum.  Fewer than K+T arrivals raise
    TooManyDropouts.
    """
    p = ctx.p
    need = params.k_parts + params.t_max
    arrivals = np.flatnonzero(~silent)
    if len(arrivals) < need:
        raise TooManyDropouts(
            f"only {len(arrivals)} non-null messages reached the server, "
            f"recovery needs {need}"
        )
    points = [eval_point_for_slot(t) for t in arrivals.tolist()]
    inverse = inverse_vandermonde(points[:need], p, field_dtype(p, need))
    coeffs = _apply(inverse, partials[arrivals[:need]], p, 0)
    if len(arrivals) > need:
        spares = reduce_mod(partials[arrivals[need:]], p)
        wrong = evaluate(coeffs, points[need:], p) != spares
        bad = [x for x, w in zip(points[need:], wrong) if w.any()]
        if bad:
            raise InconsistentArrivals(
                f"evaluations at {bad} disagree with the polynomial "
                f"through {points[:need]}"
            )
    return coeffs[: params.k_parts].reshape((-1,) + coeffs.shape[2:])[: params.model_len]
