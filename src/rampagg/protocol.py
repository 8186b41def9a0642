"""Single-round aggregation protocol: share, sum in-group, relay up, recover.

A round is one coefficient array of shape (N, K+T, S, *batch) (see
:mod:`rampagg.sharing`) plus one status code per user, and each of its three
phases is an array operation.

intra   Every active user evaluates its block at each slot's evaluation
        point and sends the result to the user in that slot of its own group
        (its own slot is computed locally at zero cost).  Each user then sums
        everything it received into one in-group aggregate.  By linearity
        that aggregate is the group's summed blocks evaluated at the
        receiver's point, so the phase is one masked sum per group and one
        (size, K+T) Vandermonde product, giving ``intra`` of shape
        (N, S, *batch).  Users that dropped before the round never share;
        their blocks are left out of the sums, which is equivalent to
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
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import islice
from random import Random
from typing import Optional

import numpy as np

from .errors import InconsistentArrivals, TooManyDropouts
from .field import FieldContext, field_dtype, inverse_vandermonde
from .sharing import _apply, evaluate, partition, share_blocks
from .topology import SERVER, AggregationTree, ProtocolParams

PHASE_INTRA = "intra"
PHASE_INTER = "inter"
PHASE_SERVER = "server"
PHASES = (PHASE_INTRA, PHASE_INTER, PHASE_SERVER)

_CSV_BLOCK_ROWS = 4096  # transcript rows joined per write

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
        used = self.delivered & ~self.null & (self.sender != self.receiver)
        a, b = self.sender[used], self.receiver[used]
        # deduplicated by sorting rather than np.unique, which imports numpy.ma
        key = np.sort(np.minimum(a, b) * (self.n_users + 1) + np.maximum(a, b))
        key = key[np.diff(key, prepend=-1) != 0]
        return np.stack(np.divmod(key, self.n_users + 1), axis=1)

    # -- exports -----------------------------------------------------------

    def to_csv(self, fp) -> None:
        """Write the rows as ``csv.writer`` would, from string tables: user
        names with "server" as N, phases, the two symbol counts, and null
        flags carrying the "\\r\\n" terminator.  Rows go out in blocks."""
        full = int(self.symbols.max(initial=0))
        sent = self.symbols != 0
        if (self.symbols[sent] != full).any():
            raise ValueError(f"symbol counts other than 0 and {full}")
        names = np.array([*map(str, range(self.n_users)), SERVER], dtype=object)
        counts = np.array(["0", str(full)], dtype=object)
        flags = np.array(["False\r\n", "True\r\n"], dtype=object)
        columns = (
            np.array(PHASES, dtype=object)[self.phase].tolist(),
            names[self.sender].tolist(),
            names[self.receiver].tolist(),
            counts[sent.view(np.int8)].tolist(),
            flags[self.null.view(np.int8)].tolist(),
        )
        rows = map(",".join, zip(*columns))
        fp.write("phase,sender,receiver,symbols,null\r\n")
        while block := "".join(islice(rows, _CSV_BLOCK_ROWS)):
            fp.write(block)


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


# words read from the generator per chunk: bounds the transient bytes object
_CHUNK_WORDS = 1 << 20


def draw_uniform(seed: int, bound: int, shape) -> np.ndarray:
    """An int64 array of ``shape``, uniform in [0, bound) for 2 <= bound <=
    2**63, filled in row order from one ``Random(seed)``.

    The generator's output is read in bulk as little-endian words, 32-bit
    (``<u4``) when bound-1 fits in 32 bits, else 64-bit (``<u8``).  Each word
    keeps its top ``(bound-1).bit_length()`` bits and is rejected when that
    value is >= bound, so every accepted value is exactly uniform (no modulo
    bias) and at most half the words are rejected.  The result is the first
    ``prod(shape)`` accepted values of the word stream, whatever the chunking.
    """
    if not 2 <= bound <= 2**63:
        raise ValueError(f"bound {bound} outside [2, 2**63]")
    bits = (bound - 1).bit_length()
    width = 32 if bits <= 32 else 64
    out = np.empty(math.prod(shape), dtype=np.int64)
    rng = Random(seed)
    filled = 0
    while filled < len(out):
        # the expected number of words still needed, plus a few sigma
        words = ((len(out) - filled) << bits) // bound
        words = min(words + 4 * math.isqrt(words) + 16, _CHUNK_WORDS)
        raw = np.frombuffer(rng.randbytes(words * width // 8), dtype=f"<u{width // 8}")
        values = raw >> (width - bits)
        values = values[values < bound][: len(out) - filled]
        out[filled : filled + len(values)] = values
        filled += len(values)
    return out.reshape(shape)


def draw_noise(p: int, params: ProtocolParams, master_seed: int) -> np.ndarray:
    """(N, T, S) uniform noise in [0, p), drawn in row order from the one
    stream seeded with derive_seed(master_seed, "noise"): same seed, same
    noise."""
    shape = (params.n_users, params.t_max, params.seg_len)
    return draw_uniform(derive_seed(master_seed, "noise"), p, shape)


def run_protocol(
    ctx: FieldContext,
    params: ProtocolParams,
    tree: AggregationTree,
    models: np.ndarray,
    dropout_plan: Optional[DropoutPlan] = None,
    master_seed: int = 0,
    noise=None,
) -> RunResult:
    """Execute one full aggregation round deterministically.

    ``models`` is the (N, L) integer array of the users' models, one row
    per user.  Noise is drawn by :func:`draw_noise` unless an explicit
    ``noise`` array of shape (N, T, S, *batch) is supplied.  Raises
    TooManyDropouts when fewer than K+T non-null messages reach the server.
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
    if models.shape != (n, params.model_len):
        raise ValueError(
            f"models have shape {models.shape}, expected {n} rows of length "
            f"{params.model_len}"
        )
    if p <= size:
        raise ValueError(
            f"modulus {p} too small for {size} distinct non-zero evaluation points"
        )
    for u in plan.dropped:
        if not 0 <= u < n:
            raise ValueError(f"dropout index {u} outside [0, {n})")
    if noise is None:
        noise = draw_noise(p, params, master_seed)
    noise = np.asarray(noise)
    if noise.shape[:3] != (n, params.t_max, seg_len):
        raise ValueError(
            f"noise has shape {noise.shape}, expected "
            f"({n}, {params.t_max}, {seg_len}, *batch)"
        )
    coeffs = share_blocks(partition(models, params.k_parts), noise, p)
    batch = coeffs.shape[3:]

    pre_dropped = sorted(plan.dropped) if plan.timing == PRE_INTRA else []
    took_part = np.ones(n, dtype=bool)  # in the intra phase
    took_part[pre_dropped] = False
    # plain ints: numpy compares and stores an IntEnum member several times slower
    status = np.full(n, UserStatus.ACTIVE.value, dtype=np.int8)
    status[sorted(plan.dropped)] = UserStatus.DROPPED.value

    # -- intra phase: the group sum of active blocks, at every slot's point --
    by_group = (-1, size) + coeffs.shape[1:]
    active = took_part.reshape(by_group[:2] + (1,) * (coeffs.ndim - 1))
    group_sums = coeffs.reshape(by_group).sum(axis=1, where=active, initial=0)
    group_sums %= p
    points = [eval_point_for_slot(t) for t in range(size)]
    intra = evaluate(group_sums, points, p, axis=1).reshape((n, seg_len) + batch)

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
    subtree %= p
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
        wrong = evaluate(coeffs, points[need:], p) != partials[arrivals[need:]] % p
        bad = [x for x, w in zip(points[need:], wrong) if w.any()]
        if bad:
            raise InconsistentArrivals(
                f"evaluations at {bad} disagree with the polynomial "
                f"through {points[:need]}"
            )
    return coeffs[: params.k_parts].reshape((-1,) + coeffs.shape[2:])[: params.model_len]
