"""Single-round aggregation protocol: share, sum in-group, relay up, recover.

A round is one coefficient array of shape (N, K+T, S, *batch) (see
:mod:`rampagg.sharing`) plus one status code per user, and each of its three
phases is an array operation.  The server reads the array only through
its (K+T, S, *batch) total, which is the sum of the included users' models,
cut into K segments, stacked on the sum of their noise, so no round builds
the array or any block of it: :func:`input_total` sums each input over its
users on its own, a drawn one in row buffers of its stream's own lane
width.  Other messages read the (G, K+T, S, *batch) group sums, streamed
from the same inputs a block at a time (:func:`write_blocks`) when read
(:attr:`RunResult.sums`), so given inputs must not change.

intra   Every active user evaluates its block at each slot's evaluation
        point and sends the result to the user in that slot of its own group
        (its own slot is computed locally at zero cost).  Each user then sums
        everything it received into one in-group aggregate.  By linearity
        that aggregate is the group's summed blocks evaluated at the
        receiver's point.  An aggregate is made from the group sums only
        where a message built on it is read.  Users that dropped before the
        round never share; their blocks are left out of the sums, which is
        equivalent to presuming them zero.

inter   Groups feed their aggregates up the tree, slot to slot: a user adds
        the partial sums received from the matching slot of each child
        group to its own in-group aggregate and forwards the total to the
        matching slot of its parent.  A user missing any child's message
        (the child dropped, or itself sent null) is silenced: it emits an
        explicit null and stays silent for the rest of the round.  So a
        user forwards its slot's sum over its group's subtree, which by
        linearity is the subtree's summed group sums evaluated at its point.
        A round runs no relay: :meth:`RunResult.uplinks` makes the messages
        of the senders asked for, folding the group sums leaves first
        (:func:`relay`).  Who was silenced is the round's
        :func:`message_pattern`.

server  The last group's users do the same send toward the server.  The
        root's subtree is every group, so their messages are the total of
        all included blocks evaluated at the last group's points, the only
        evaluation a round runs (:func:`server_arrivals`).  The server
        applies the (K+T, K+T) inverse Vandermonde matrix of the first K+T
        non-null arrivals' points to them, which interpolates the summed
        polynomial of every coordinate at once, checks every further
        arrival against it, and reads the summed model segments off its
        low-order coefficients.

Senders never know who dropped, so a message addressed to a dropped user is
still transmitted (it costs the sender symbols) but it is never delivered
and the link it would have used stays silent.  Null messages are explicit
zero-symbol transcript entries; a user that dropped before sending leaves no
entry at all.

The transcript is kept as two masks, who took part in the intra phase and
how each user ended, and only it knows who hears whom: phase counts,
symbols sent, loads, links used, the CSV rows and the messages a set of
users and the server receive (:meth:`Transcript.heard_by`) all come from
the masks and from :meth:`Transcript.uplinks`; a round without dropouts
uses every link the network has.  The masks depend only on the params, the
tree and the dropout plan: :func:`message_pattern` makes them once per key,
and :func:`run_protocol` does only the arithmetic.  So every count of a
round is the pattern's, and the transcript keeps each one it makes, for as
long as ``message_pattern``'s cache keeps the transcript.  A transcript of
at most ``_CACHED_CSV_ROWS`` rows keeps its CSV text and the last other
text made from it (:meth:`Transcript.kept_text`), such as a report's; a
larger one keeps no text and makes and writes its CSV a block of rows at a
time.
"""

import hashlib
import math
import operator
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import InconsistentArrivals, TooManyDropouts
from .field import FieldContext, field_dtype, inverse_vandermonde, reduce_mod
from .sharing import _apply, evaluate, evaluate_each, model_rows
from .topology import SERVER, AggregationTree, ProtocolParams

PHASE_INTRA = "intra"
PHASE_INTER = "inter"
PHASE_SERVER = "server"
PHASES = (PHASE_INTRA, PHASE_INTER, PHASE_SERVER)

_CSV_BLOCK_ROWS = 4096  # transcript rows joined per write
# transcripts of at most this many rows keep their CSV text
_CACHED_CSV_ROWS = 1 << 15


def _csv_heads(n_users: int) -> np.ndarray:
    """The read-only CSV row heads "{phase},{sender}," of N users, by phase
    code * N + sender."""
    heads = [f"{phase},{u}," for phase in PHASES for u in range(n_users)]
    heads = np.array(heads, dtype=object)
    heads.flags.writeable = False
    return heads


def _csv_tails(n_users: int, seg_len: int) -> np.ndarray:
    """The read-only CSV row tails "{receiver},{symbols},{null}\r\n" of N
    users, receiver N named "server", by kind * (N+1) + receiver: kind 0
    carries S symbols, kind 1 is a self share at no cost, kind 2 a null."""
    names = [*range(n_users), SERVER]
    kinds = ((seg_len, False), (0, False), (0, True))
    tails = [f"{r},{s},{null}\r\n" for s, null in kinds for r in names]
    tails = np.array(tails, dtype=object)
    tails.flags.writeable = False
    return tails


def _intra_users(heads: np.ndarray, tails: np.ndarray, size: int, start: int, stop: int):
    """The CSV intra rows of users ``start``..``stop``-1 in groups of
    ``size``, each user addressing every slot of its group (its own at no
    cost), as one string per block of at most ``_CSV_BLOCK_ROWS`` rows or
    one user: each row is a head of :func:`_csv_heads` and a tail of
    :func:`_csv_tails`, taken by one fancy index each."""
    n_users = len(heads) // len(PHASES)
    slots = np.arange(size)
    step = max(1, _CSV_BLOCK_ROWS // size)
    for first in range(start, stop, step):
        sender = np.arange(first, min(first + step, stop))
        receiver = sender[:, None] // size * size + slots
        own = receiver == sender[:, None]  # tail kind 1
        pieces = np.empty(receiver.shape + (2,), dtype=object)
        pieces[..., 0] = heads[sender][:, None]
        pieces[..., 1] = tails[own * (n_users + 1) + receiver]
        yield "".join(pieces.ravel().tolist())


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
class LoadSummary:
    """Exact normalized communication loads of one transcript, and the
    read-only (N,) count of symbols each user sent."""

    r_server: Fraction
    r_user_max: Fraction
    r_user_avg: Fraction
    sent: np.ndarray


@dataclass(frozen=True, eq=False)
class Transcript:
    """Every message of one run, kept as the O(N) masks that fix them:
    ``took_part`` (N,) marks the users that shared in the intra phase and
    ``status`` (N,) holds each user's :class:`UserStatus` code.

    In protocol order the messages are each group's intra exchange, sender
    by sender, every user that took part addressing every slot of its group
    (its own at zero cost), then the :meth:`uplinks`, groups leaves first,
    slot to slot, from every user that did not drop: a null from a silenced
    user, S symbols from an active one.  The counts below are sums over
    these masks; rows are made only by :meth:`to_csv`.  A send to an
    already-dropped user costs the sender its symbols but is never
    delivered, so its link stays silent.  Counts, loads, links, the runs of
    included users and the CSV text are made once and kept on the
    transcript, as are the last selections of :meth:`heard_by` and the last
    text asked of :meth:`kept_text`, so the masks must not change, as
    :func:`message_pattern`'s do not.
    """

    params: ProtocolParams
    tree: AggregationTree
    took_part: np.ndarray
    status: np.ndarray

    # -- accounting ------------------------------------------------------

    def phase_counts(self) -> dict[str, dict[str, int]]:
        """Messages, nulls and symbols sent in each phase, as a new dict."""
        return {phase: dict(bucket) for phase, bucket in self._phase_counts.items()}

    @cached_property
    def _phase_counts(self) -> dict[str, dict[str, int]]:
        size, seg_len = self.params.group_size, self.params.seg_len
        took = int(np.count_nonzero(self.took_part))
        intra = {"messages": took * size, "null": 0, "symbols": took * (size - 1) * seg_len}
        counts = {PHASE_INTRA: intra}
        last = self.tree.last_group * size  # the last group alone sends to the server
        for phase, status in (PHASE_INTER, self.status[:last]), (PHASE_SERVER, self.status[last:]):
            active = int(np.count_nonzero(status == UserStatus.ACTIVE.value))
            null = int(np.count_nonzero(status == UserStatus.SILENCED.value))
            counts[phase] = {"messages": active + null, "null": null, "symbols": active * seg_len}
        return counts

    @cached_property
    def loads(self) -> LoadSummary:
        """The transcript's symbols counted into normalized loads.  Each user
        sent S symbols to each other slot of its group when it took part,
        and S up the tree when it ended ACTIVE, deliverable or not: a sender
        cannot know the peer dropped.  Server load counts non-null
        server-bound symbols; the max is taken over the users that did not
        drop."""
        length, size = self.params.model_len, self.params.group_size
        active = self.status == UserStatus.ACTIVE.value
        sent = (self.took_part * (size - 1) + active) * self.params.seg_len
        sent.flags.writeable = False
        survivors = self.status != UserStatus.DROPPED.value
        return LoadSummary(
            r_server=Fraction(self._phase_counts[PHASE_SERVER]["symbols"], length),
            r_user_max=Fraction(int(sent[survivors].max()), length),
            r_user_avg=Fraction(int(sent.sum()), len(sent) * length),
            sent=sent,
        )

    @cached_property
    def included_users(self) -> np.ndarray:
        """The users that took part, whose models are in the sum, as the
        read-only (R, 2) first and stop of each run of consecutive users,
        ascending: the places where ``took_part`` changes, by one
        ``np.diff``."""
        runs = np.flatnonzero(np.diff(self.took_part, prepend=False, append=False))
        runs = runs.reshape(-1, 2)
        runs.flags.writeable = False
        return runs

    @cached_property
    def links_used(self) -> int:
        """How many links carried at least one delivered, non-null message.
        An intra share is delivered when its receiver took part too, so a
        group where ``took`` users took part uses C(took, 2) intra links,
        and each uplink that :meth:`_delivered` marks uses its own link.
        Self-addressed local computations are not links."""
        took = np.count_nonzero(self.took_part.reshape(-1, self.params.group_size), axis=1)
        uplinks = np.count_nonzero(self._delivered(*self.uplinks()))
        return int((took * (took - 1) // 2).sum() + uplinks)

    def uplinks(self) -> tuple:
        """The (N,) senders and receivers of every user's uplink, dropped or
        not, in protocol order: groups leaves first, slot to slot, and last
        the last group's, to the server, receiver N."""
        n, size = self.params.n_users, self.params.group_size
        # users by group and slot, then the server, the last group's parent
        # G, as a row of N; take is several times faster than an index here
        table = np.arange(n + size).reshape(-1, size)
        table[-1] = n
        order = self.tree.upward
        parents = self.tree.parents[order]
        return table.take(order, axis=0).ravel(), table.take(parents, axis=0).ravel()

    def _delivered(self, sender: np.ndarray, receiver: np.ndarray) -> np.ndarray:
        """Which of the uplinks ``sender`` to ``receiver`` deliver S symbols:
        the sender ended ACTIVE, and the receiver did not drop."""
        status = np.append(self.status, UserStatus.ACTIVE.value)  # the server's
        return (status[sender] == UserStatus.ACTIVE.value) & (
            status[receiver] != UserStatus.DROPPED.value
        )

    def heard_by(self, users) -> tuple:
        """The (sender, receiver, intra) arrays of every delivered, non-null,
        not self-addressed message to one of ``users`` (distinct, ascending)
        or to the server (receiver N), ordered by receiver, the server last,
        then phase, then sender.  ``intra`` marks the intra shares: a user
        that took part hears every other member of its group that did.
        The arrays are read-only: the last 16 selections made are kept."""
        return self._heard_by(tuple(np.asarray(users, dtype=np.intp).tolist()))

    @lru_cache(maxsize=16)
    def _heard_by(self, users: tuple) -> tuple:
        n, size = self.params.n_users, self.params.group_size
        users = np.asarray(users, dtype=np.intp)
        members = users[:, None] // size * size + np.arange(size)
        took_part = self.took_part
        heard = took_part[members] & (members != users[:, None]) & took_part[users][:, None]
        # a lookup over the N+1 receivers: np.isin sorts, and is slower here
        listens = np.zeros(n + 1, dtype=bool)
        listens[users] = listens[n] = True
        up_from, up_to = self.uplinks()
        up = listens[up_to] & self._delivered(up_from, up_to)
        intra_to = np.broadcast_to(users[:, None], members.shape)[heard]
        sender = np.concatenate([members[heard], up_from[up]])
        receiver = np.concatenate([intra_to, up_to[up]])
        intra = np.arange(len(sender)) < np.count_nonzero(heard)
        # intra is phase 0; the uplinks to one receiver share one phase
        order = np.lexsort((sender, ~intra, receiver))
        sender, receiver, intra = sender[order], receiver[order], intra[order]
        sender.flags.writeable = receiver.flags.writeable = intra.flags.writeable = False
        return sender, receiver, intra

    # -- exports -----------------------------------------------------------

    @property
    def _keeps_text(self) -> bool:
        """Whether the transcript has at most ``_CACHED_CSV_ROWS`` rows, and
        so keeps the texts made from it."""
        return sum(bucket["messages"] for bucket in self._phase_counts.values()) <= _CACHED_CSV_ROWS

    def kept_text(self, key, make):
        """``make()``, kept with ``key`` and returned again while the key
        asked for equals it, by ``==``: a key need not be hashable.  Only
        the last text made is kept, and only by a transcript that keeps its
        CSV text (:meth:`to_csv`); a larger one makes every text again."""
        kept = self.__dict__.get("_kept_text")
        if kept is not None and kept[0] == key:
            return kept[1]
        text = make()
        if self._keeps_text:
            object.__setattr__(self, "_kept_text", (key, text))
        return text

    def to_csv(self, fp) -> None:
        """Write the rows as ``csv.writer`` would, with no formatting per
        row.  A transcript of at most ``_CACHED_CSV_ROWS`` rows keeps its
        whole text, made once, and writes it in one ``fp.write``; a larger
        one is made and written a block of rows at a time
        (:meth:`_csv_blocks`)."""
        if self._keeps_text:
            fp.write(self._csv_text)
        else:
            for text in self._csv_blocks():
                fp.write(text)

    @cached_property
    def _csv_text(self) -> str:
        return "".join(self._csv_blocks())

    def _csv_blocks(self):
        """The CSV text in order, in pieces: the header, the intra rows of
        each run of users that took part a block at a time
        (:func:`_intra_users`), then the :meth:`uplinks` of users that did
        not drop ``_CSV_BLOCK_ROWS`` at a time, each block a (rows, 2)
        object array of heads (:func:`_csv_heads`) and tails
        (:func:`_csv_tails`), each taken by one fancy index, joined."""
        n, size, seg_len = self.params.n_users, self.params.group_size, self.params.seg_len
        heads, tails = _csv_heads(n), _csv_tails(n, seg_len)
        yield "phase,sender,receiver,symbols,null\r\n"
        absent = np.flatnonzero(~self.took_part).tolist()
        for a, b in zip([0] + [u + 1 for u in absent], absent + [n]):
            yield from _intra_users(heads, tails, size, a, b)
        sender, receiver = self.uplinks()
        sent = self.status[sender] != UserStatus.DROPPED.value
        sender, receiver = sender[sent], receiver[sent]
        null = self.status[sender] == UserStatus.SILENCED.value
        for start in range(0, len(sender), _CSV_BLOCK_ROWS):
            cut = slice(start, start + _CSV_BLOCK_ROWS)
            pieces = np.empty((len(sender[cut]), 2), dtype=object)
            # by phase code (1 inter, 2 server) and sender; by kind 0 or 2 (null) and receiver
            pieces[:, 0] = heads[(1 + (receiver[cut] == n)) * n + sender[cut]]
            pieces[:, 1] = tails[null[cut] * 2 * (n + 1) + receiver[cut]]
            yield "".join(pieces.ravel().tolist())


@dataclass(frozen=True)
class DropoutPlan:
    """Who drops and when.  ``pre_intra`` users never participate at all;
    ``between_rounds`` users share in the intra phase and vanish before the
    relay, so their model is already inside the group sums.  ``dropped``
    becomes a frozenset of ints; True or 1.0, equal to 1, raise ValueError."""

    dropped: frozenset
    timing: str = PRE_INTRA

    def __post_init__(self) -> None:
        if self.timing not in (PRE_INTRA, BETWEEN_ROUNDS):
            raise ValueError(f"unknown dropout timing {self.timing!r}")
        users = []
        for u in self.dropped:
            try:  # operator.index takes True as 1, but not 1.0
                users.append(operator.index(float(u) if isinstance(u, bool) else u))
            except TypeError:
                raise ValueError(f"dropout index {u!r} is not an integer") from None
        object.__setattr__(self, "dropped", frozenset(users))

    @classmethod
    def none(cls) -> "DropoutPlan":
        return cls(dropped=frozenset())


@dataclass
class RunResult:
    """Outcome of one protocol run.

    ``arrivals`` (size, S, *batch) holds what the last group's slots
    forwarded to the server; a row is a message only where ``status`` is
    ACTIVE, and :attr:`null` marks the users that sent an explicit null
    instead.  What any other user forwarded is made from the group
    :attr:`sums` when asked for (:meth:`uplinks`).  ``took_part`` (N,)
    marks the users that shared in the intra phase, whose models are in
    ``aggregate`` (L, *batch), the recovered sum; both masks are the shared
    ``transcript``'s.  The run's field, sizing and tree are kept so the
    arrays can be read without them, and its inputs, ``models`` and
    ``noise`` as given (None where drawn from ``master_seed``), so that
    :meth:`blocks` and :attr:`sums` can be made again from them: inputs
    given as arrays must not change after the round.
    """

    aggregate: np.ndarray
    arrivals: np.ndarray
    status: np.ndarray
    took_part: np.ndarray
    transcript: Transcript
    ctx: FieldContext
    params: ProtocolParams
    tree: AggregationTree
    models: Optional[np.ndarray] = field(default=None, repr=False)
    noise: Optional[np.ndarray] = field(default=None, repr=False)
    master_seed: int = 0

    def blocks(self, users) -> np.ndarray:
        """The (len(users), K+T, S, *batch) coefficient blocks of ``users``
        in the order given, repeats and all, as the round wrote them.  When
        both inputs were given they are indexed at exactly those users;
        else the round's blocks are written again from user 0
        (:func:`write_blocks`) up to the last user asked for, and only the
        rows asked for are kept."""
        users = np.asarray(users, dtype=np.intp).reshape(-1)
        params, p = self.params, self.ctx.p
        out = _empty_blocks(params, p, self.noise, len(users))
        if self.models is not None and self.noise is not None:
            _write(out, params, p, self.models, self.noise, users)
            return out
        for first, block in write_blocks(params, p, self.models, self.noise, self.master_seed):
            here = np.flatnonzero((users >= first) & (users < first + len(block)))
            out[here] = block[users[here] - first]
            if first + len(block) > users.max(initial=-1):
                break
        return out

    @cached_property
    def sums(self) -> np.ndarray:
        """The round's (G, K+T, S, *batch) :func:`stream_group_sums`, made
        from its inputs on first read: the round holds only their total."""
        inputs = self.params, self.ctx.p, self.models, self.noise, self.master_seed
        return stream_group_sums(*inputs, np.flatnonzero(~self.took_part).tolist())

    def uplinks(self, senders) -> np.ndarray:
        """The (len(senders), S, *batch) partial sums ``senders`` forwarded up
        the tree, in the order given, as the relay made them whatever the
        sender's status: a last-group sender's row is its arrival, any other
        sender's its group's subtree sum (:func:`relay` on the group sums)
        evaluated at its slot's point.  A round whose senders are all in
        the last group never relays."""
        senders = np.asarray(senders, dtype=np.intp).reshape(-1)
        size, arrivals = self.params.group_size, self.arrivals
        last = self.tree.last_group * size
        out = np.empty((len(senders),) + arrivals.shape[1:], arrivals.dtype)
        top = senders >= last
        out[top] = arrivals[senders[top] - last]
        below = senders[~top]
        if len(below):
            subtree = relay(self.sums, self.tree, self.ctx.p)[below // size]
            out[~top] = evaluate_each(subtree, eval_point_for_slot(below % size), self.ctx.p)
        return out

    @property
    def null(self) -> np.ndarray:
        return self.status == UserStatus.SILENCED.value


def derive_seed(master_seed: int, label: str) -> int:
    """Stable per-stream seed derivation; independent of hash randomization."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# 64-bit words read from the generator per chunk.  A chunk's arrays then
# take 64 KB, below glibc's initial 128 KB mmap threshold, so they come from
# the heap: at twice that, each array took 128 KB of freshly mapped pages,
# 32 minor faults, whenever no larger freed block had raised that threshold
_CHUNK_WORDS = 1 << 13
# entries of the buffer that write_blocks reuses block by block, whole groups
# up to this many; a round's two row buffers of lanes (sum_rows) take at most
# the bytes of as many int64 entries, so that a round of the round-wide or
# the sweep-deep shape is one buffer of each.  Each buffer costs a few Python
# steps: round-wide in three buffers of 2**16 lanes ran 20% slower in process
_BLOCK_ENTRIES = 1 << 16


def lane_bits(bound: int) -> int:
    """The width in bits of the narrowest lane of 8, 16, 32 or 64 bits that
    holds every value below ``bound``, 2 <= bound <= 2**64."""
    return next(width for width in (8, 16, 32, 64) if bound - 1 < 1 << width)


class UniformStream:
    """Values uniform in [0, bound) for 2 <= bound <= 2**63, from the raw
    64-bit words of ``numpy.random.PCG64(seed)`` for a seed >= 0, handed
    out in order by :meth:`fill`: filling arrays one after another gives
    them the values that one fill of their concatenation would.

    Each word is cut, little-endian, into lanes of 8, 16, 32 or 64 bits,
    the narrowest that holds bound-1, so an entry below 2**8 costs one byte
    of the stream.  Each lane keeps its top ``(bound-1).bit_length()`` bits
    and is rejected when that value is >= bound, so every accepted value is
    exactly uniform (no modulo bias) and at most half the lanes are
    rejected.  Words are read ``_CHUNK_WORDS`` at a time with
    ``random_raw``, whose stream NEP 19 keeps fixed across numpy releases,
    and the accepted values of a chunk that a fill leaves over are kept for
    the next.  Each stream has a generator of its own, which costs about
    as much to make as to reseed, so none is pooled.
    """

    def __init__(self, seed: int, bound: int):
        if not 2 <= bound <= 2**63:
            raise ValueError(f"bound {bound} outside [2, 2**63]")
        if seed < 0:
            raise ValueError(f"seed {seed} is negative")
        # loaded here, not at import: set-up and the exhaustive checker never draw
        from numpy.random import PCG64

        self._words = PCG64(seed)
        self.bound = bound
        self.bits = (bound - 1).bit_length()
        self.width = lane_bits(bound)
        self._rest = np.empty(0, dtype=np.int64)

    def _chunk(self, need: int) -> np.ndarray:
        """The accepted values of the next chunk of words, enough on average
        for ``need`` values plus a few sigma, at most ``_CHUNK_WORDS``."""
        lanes = (need << self.bits) // self.bound
        lanes += 4 * math.isqrt(lanes) + 16
        words = min(-(-lanes * self.width // 64), _CHUNK_WORDS)
        raw = self._words.random_raw(words).astype("<u8", copy=False)
        values = raw.view(f"<u{self.width // 8}")
        if self.bits < self.width:  # a shift by 0 would copy the chunk for nothing
            values = values >> (self.width - self.bits)
        if self.bound & (self.bound - 1):  # not a power of two, which rejects no lane
            # np.compress: several times faster than a boolean index here
            values = np.compress(values < self.bound, values)
        return values

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Write the next ``out.size`` values into ``out``, an array such as
        a strided view of a coefficient array, in row order, a block of
        whole rows at a time; returns ``out``."""
        if not out.size:
            return out
        row_shape = out.shape[1:]
        row_len = math.prod(row_shape)
        # the start of a row that the end of a chunk cut off
        held, n_held = np.empty(row_len, dtype=np.int64), 0
        row, values = 0, self._rest
        while True:
            if not len(values):
                values = self._chunk((len(out) - row) * row_len - n_held)
            if n_held:
                take = min(row_len - n_held, len(values))
                held[n_held : n_held + take] = values[:take]
                n_held += take
                values = values[take:]
                if n_held < row_len:
                    continue
                out[row] = held.reshape(row_shape)
                row, n_held = row + 1, 0
            full = min(len(values) // row_len, len(out) - row)
            out[row : row + full] = values[: full * row_len].reshape((full,) + row_shape)
            row += full
            values = values[full * row_len :]
            if row == len(out):
                self._rest = values
                return out
            n_held = len(values)
            held[:n_held] = values
            values = values[:0]


def model_stream(params: ProtocolParams, master_seed: int) -> UniformStream:
    """The models of a round, (N, L) in row order, uniform in [0,
    entry_bound): the lanes of the one PCG64 stream seeded with
    derive_seed(master_seed, "models"), a byte per entry below 2**8."""
    return UniformStream(derive_seed(master_seed, "models"), params.entry_bound)


def noise_stream(p: int, params: ProtocolParams, master_seed: int) -> UniformStream:
    """The noise of a round, (N, T, S) in row order, uniform in [0, p): the
    lanes of the one PCG64 stream seeded with derive_seed(master_seed,
    "noise")."""
    return UniformStream(derive_seed(master_seed, "noise"), p)


def draw_uniform(seed: int, bound: int, shape) -> np.ndarray:
    """An int64 array of ``shape``, uniform in [0, bound) for 2 <= bound <=
    2**63 and a seed >= 0: the first ``prod(shape)`` values of
    :class:`UniformStream` ``(seed, bound)``, in row order, whatever the
    chunking."""
    return UniformStream(seed, bound).fill(np.empty(shape, dtype=np.int64))


def draw_models(params: ProtocolParams, master_seed: int) -> np.ndarray:
    """(N, L) models uniform in [0, entry_bound), all of :func:`model_stream`."""
    shape = (params.n_users, params.model_len)
    return model_stream(params, master_seed).fill(np.empty(shape, dtype=np.int64))


def _check_inputs(params: ProtocolParams, models, noise) -> tuple:
    """``models`` and ``noise`` as arrays, None where not given, once their
    shapes are known to fit a round of ``params``: noise (N, T, S, *batch)
    and models (N, L, *batch) whose batch axes broadcast to the noise's, as
    numpy broadcasts shapes; else ValueError naming the shapes."""
    n = params.n_users
    noise_shape = (n, params.t_max, params.seg_len)
    if noise is not None:
        noise = np.asarray(noise)
        if noise.shape[:3] != noise_shape:
            raise ValueError(
                f"noise has shape {noise.shape}, expected "
                f"({n}, {params.t_max}, {params.seg_len}, *batch)"
            )
        noise_shape = noise.shape
    batch = noise_shape[3:]
    if models is not None:
        models = np.asarray(models)
        if models.shape[:2] != (n, params.model_len):
            raise ValueError(
                f"models have shape {models.shape}, expected {n} rows of length "
                f"{params.model_len}"
            )
        try:
            fits = np.broadcast_shapes(models.shape[2:], batch) == batch
        except ValueError:
            fits = False
        if not fits:
            raise ValueError(
                f"models have shape {models.shape}, whose batch axes do not "
                f"broadcast to those of the {'drawn ' * (noise is None)}noise, "
                f"of shape {noise_shape}"
            )
    return models, noise


def block_rows(params: ProtocolParams) -> int:
    """The users a block of :func:`write_blocks` holds: as many whole
    groups as ``_BLOCK_ENTRIES`` entries hold, all of them when they fit;
    else as many users of one group as fit, and at least one.  Batch
    columns are not counted: the privacy checker bounds its own, and its
    rounds of a few users are then one block, as cheap as one array."""
    per_user = (params.k_parts + params.t_max) * params.seg_len
    size = params.group_size
    if size * per_user <= _BLOCK_ENTRIES:
        return min(params.n_users, _BLOCK_ENTRIES // (size * per_user) * size)
    return max(1, _BLOCK_ENTRIES // per_user)


def _empty_blocks(params: ProtocolParams, p: int, noise, rows: int) -> np.ndarray:
    """An unfilled (rows, K+T, S, *batch) array in the field dtype of p,
    ``*batch`` the batch axes of ``noise``, none when it is drawn."""
    width = params.k_parts + params.t_max
    batch = () if noise is None else noise.shape[3:]
    return np.empty((rows, width, params.seg_len) + batch, dtype=field_dtype(p, width))


def _write(block: np.ndarray, params: ProtocolParams, p: int, models, noise, at) -> None:
    """Write the coefficient blocks of ``len(block)`` users into ``block``
    (users, K+T, S, *batch): the models into
    :func:`~rampagg.sharing.model_rows`, whose padding is zeroed, and the
    noise into rows K and up.  ``models`` and ``noise`` are each an array
    as given, checked by :func:`_check_inputs` and indexed at ``at``, or a
    stream whose next rows are read.  Given inputs are reduced mod p as they
    are written, unless :func:`_reduced`, the models before their batch
    axes, lined up from the right, are broadcast to the noise's; drawn noise
    lies in [0, p), and drawn models are reduced only when p is below their
    entry bound."""
    k, length = params.k_parts, params.model_len
    rows = model_rows(block, k)
    rows[:, length:] = 0
    entries = rows[:, :length]
    if isinstance(models, np.ndarray):
        # models past int64 arrive as Python ints, and assignment casts
        # their residues
        given = models[at]
        given = given if _reduced(given, block.dtype, p) else reduce_mod(given, p)
        pad = (1,) * (entries.ndim - given.ndim)
        entries[...] = given.reshape(given.shape[:2] + pad + given.shape[2:])
    else:
        models.fill(entries)
        if p < params.entry_bound:  # only a hand-picked modulus is that small
            reduce_mod(entries, p, out=entries)
    if isinstance(noise, np.ndarray):
        given = noise[at]
        if _reduced(given, block.dtype, p):
            block[:, k:] = given
        else:  # cast as assignment does: an empty noise list arrives as float64
            reduce_mod(given, p, out=block[:, k:])
    else:
        noise.fill(block[:, k:])


def _reduced(given: np.ndarray, dtype, p: int) -> bool:
    """Whether ``given`` can be written into a block of ``dtype`` as it is:
    both are int64 and its entries lie in [0, p), by its minimum and
    maximum.  Other inputs, object arrays included, are reduced mod p."""
    if given.dtype != np.int64 or dtype != np.int64:
        return False
    return not given.size or (given.min() >= 0 and given.max() < p)


def write_blocks(
    params: ProtocolParams, p: int, models, noise, master_seed: int = 0, pre_dropped=()
):
    """Yield ``(first, block)`` for consecutive blocks of a round's
    coefficient array (N, K+T, S, *batch): ``block`` holds the blocks of
    users ``first`` .. ``first + len(block) - 1``, written by :func:`_write`
    into one buffer that the next block overwrites, with the rows of the
    ``pre_dropped`` users zeroed, which leaves them out of every sum.  A
    block holds :func:`block_rows` users, whole groups or users of one
    group.  An input left None is read from its stream of ``master_seed``,
    :func:`model_stream` or :func:`noise_stream`, and drawn noise has no
    batch axes."""
    n = params.n_users
    rows = block_rows(params)
    span = max(rows, params.group_size)  # whole groups
    buffer = _empty_blocks(params, p, noise, rows)
    models = model_stream(params, master_seed) if models is None else models
    noise = noise_stream(p, params, master_seed) if noise is None else noise
    for start in range(0, n, span):
        stop = min(start + span, n)
        for first in range(start, stop, rows):
            block = buffer[: min(rows, stop - first)]
            _write(block, params, p, models, noise, slice(first, first + len(block)))
            dropped = [u - first for u in pre_dropped if first <= u < first + len(block)]
            if dropped:
                block[dropped] = 0
            yield first, block


def stream_group_sums(
    params: ProtocolParams, p: int, models, noise, master_seed: int, pre_dropped: list
) -> np.ndarray:
    """The (G, K+T, S, *batch) sums mod p of each group's coefficient
    blocks but those of the ``pre_dropped`` users, from the blocks of
    :func:`write_blocks` as they come: each is summed into its groups, and
    a group larger than a block adds up its blocks."""
    size = params.group_size
    sums = _empty_blocks(params, p, noise, params.num_groups)
    for first, block in write_blocks(params, p, models, noise, master_seed, pre_dropped):
        group = first // size
        pieces = block.reshape((-1, min(len(block), size)) + block.shape[1:])
        if first % size == 0:
            pieces.sum(axis=1, out=sums[group : group + len(pieces)])
        else:  # a later block of a group larger than a block
            sums[group] += pieces[0].sum(axis=0)
    return reduce_mod(sums, p, out=sums)


def sum_rows(params: ProtocolParams, p: int) -> int:
    """The users a row buffer of :func:`input_total` holds: as many as the
    bytes of a block of ``_BLOCK_ENTRIES`` int64 entries hold in the model
    and the noise buffers together, L and T*S lanes of :func:`lane_bits` a
    user, at least one and at most N, and so few that their column sums of
    entries in [0, p) stay below 2**63."""
    bits = params.model_len * lane_bits(params.entry_bound)
    bits += params.t_max * params.seg_len * lane_bits(p)
    return max(1, min(params.n_users, _BLOCK_ENTRIES * 64 // bits, (2**63 - 1) // (p - 1)))


def input_total(
    params: ProtocolParams, p: int, models, noise, master_seed: int, took_part: np.ndarray
) -> np.ndarray:
    """The (K+T, S, *batch) sum mod p of the coefficient blocks of the users
    that ``took_part`` (N,), in the dtype ``field_dtype(p, K+T)`` that
    :func:`server_arrivals` evaluates: the sum of their models cut into K
    segments, zero past L, stacked on the sum of their noise.  No block is written: each input is summed over its users
    on its own (:func:`_user_sums`), an input left None read from its stream
    of ``master_seed``, :func:`model_stream` or :func:`noise_stream`, in
    the same order as :func:`write_blocks` reads it.  ``*batch`` are the
    batch axes of the noise, none when it is drawn."""
    k, t, seg_len, length = params.k_parts, params.t_max, params.seg_len, params.model_len
    rows = sum_rows(params, p)
    models = model_stream(params, master_seed) if models is None else models
    noise = noise_stream(p, params, master_seed) if noise is None else noise
    model_sums = _user_sums(models, params.entry_bound, (length,), took_part, rows, p)
    noise_sums = _user_sums(noise, p, (t, seg_len), took_part, rows, p)
    total = np.zeros((k + t,) + noise_sums.shape[1:], dtype=np.int64)
    entries = total[:k].reshape((k * seg_len,) + total.shape[2:])[:length]
    pad = (1,) * (entries.ndim - model_sums.ndim)  # the models' batch axes line up from the right
    entries[...] = model_sums.reshape(model_sums.shape[:1] + pad + model_sums.shape[1:])
    total[k:] = noise_sums
    reduce_mod(total, p, out=total)
    return total.astype(field_dtype(p, k + t), copy=False)


def _user_sums(
    source, bound: int, shape: tuple, took_part: np.ndarray, rows: int, p: int
) -> np.ndarray:
    """The (*shape, *batch) sums, below 2**63 and reduced mod p only where
    the sum of all N rows could reach that, of the rows of the users that
    ``took_part`` in ``source``, ``rows`` users at a time: either an array
    given as (N, *shape, *batch), its included rows reduced mod p unless
    :func:`_reduced`, or a stream of values below ``bound`` whose next N
    rows of ``shape`` are read into one reused buffer in the lanes of
    :func:`lane_bits` of the bound, reduced mod p only when p is below the
    bound, the rows of the users that did not take part zeroed.  Each
    buffer is summed by :func:`_column_sums`, and later ones added in
    uint64."""
    n = len(took_part)
    drawn = not isinstance(source, np.ndarray)
    if drawn:
        buffer = np.empty((rows,) + shape, dtype=f"u{lane_bits(bound) // 8}")
        top = min(bound, p) - 1
    else:
        top = p - 1
    sums = None
    for first in range(0, n, rows):
        keep = took_part[first : first + rows]
        if drawn:
            chunk = source.fill(buffer[: len(keep)])
            if p < bound:  # only a hand-picked modulus is that small
                np.remainder(chunk, p, out=chunk)
            chunk[~keep] = 0
        else:
            chunk = source[first : first + rows]
            if not keep.all():
                chunk = chunk[keep]
            if not _reduced(chunk, np.int64, p):
                # cast as assignment does: an empty noise list arrives as
                # float64, models past int64 as Python ints
                chunk = reduce_mod(chunk, p, out=np.empty(chunk.shape, dtype=np.int64))
        here = _column_sums(chunk, top, p)
        if sums is not None:  # both below 2**63
            here = np.add(sums, here, dtype=np.uint64, casting="unsafe")
        if n * top >= 2**63:
            here = np.remainder(here, p, dtype=np.uint64, casting="unsafe")
        sums = here
    return sums


def _column_sums(rows: np.ndarray, top: int, p: int) -> np.ndarray:
    """The sums over the first axis of ``rows``, unsigned lanes or int64
    with entries in [0, top], top < p, in the narrowest unsigned lanes at
    least as wide as ``rows``' that hold len(rows) * top: a sum that widens
    each entry runs several times slower than one in the rows' own width,
    and one into 64 bits slowest.  :func:`_check_sums` refuses rows whose
    sums could reach 2**63, which :func:`sum_rows` keeps out."""
    _check_sums(len(rows), rows.dtype, p, "column sums")
    if rows.dtype == np.int64:  # given inputs
        dtype = rows.dtype
    else:
        bits = max(8 * rows.dtype.itemsize, (len(rows) * top).bit_length())
        dtype = f"u{lane_bits(1 << bits) // 8}"
    # sum(axis=0) loops once per row: on rows of a few hundred entries or
    # fewer, as sweep-deep's 12 to 24, einsum is up to 3x as fast, and on
    # wider ones up to 20% slower
    if math.prod(rows.shape[1:]) <= 256:
        return np.einsum("i...->...", rows, dtype=dtype, casting="unsafe")
    return rows.sum(axis=0, dtype=dtype)


def network_links(params: ProtocolParams, tree: AggregationTree) -> int:
    """How many links a round without dropouts uses, which is every link the
    network has: C(size, 2) inside each group of the tree's ``upward``
    table, and one uplink from each of its slots, to the same slot of its
    parent group or to the server.  It is the ``links_used`` of the all-active
    pattern, counted without making that pattern; ``topology.count_edges``
    gives the same number in closed form, and a report keeps both."""
    size = params.group_size
    return len(tree.upward) * (size * (size - 1) // 2 + size)


@lru_cache(maxsize=16)
def message_pattern(
    params: ProtocolParams, tree: AggregationTree, dropout_plan: DropoutPlan
) -> Transcript:
    """The transcript of every round of ``params`` on ``tree`` under
    ``dropout_plan``, with read-only masks, made once per key.  A user is
    silenced when a user in its slot strictly below it dropped: one prefix
    scan of the dropouts in postorder, where subtrees are ranges."""
    n, size = params.n_users, params.group_size
    if tree.num_groups != params.num_groups:
        raise ValueError(f"tree has {tree.num_groups} groups, params imply {params.num_groups}")
    for u in dropout_plan.dropped:
        if not 0 <= u < n:
            raise ValueError(f"dropout index {u} outside [0, {n})")
    dead = np.zeros(n, dtype=bool)
    dead[list(dropout_plan.dropped)] = True
    took_part = ~dead if dropout_plan.timing == PRE_INTRA else np.ones(n, dtype=bool)
    drops = np.zeros((params.num_groups + 1, size), dtype=np.intp)
    np.cumsum(dead.reshape(-1, size)[tree.postorder], axis=0, out=drops[1:])
    # plain ints: numpy compares and stores an IntEnum member several times slower
    status = np.full(n, UserStatus.ACTIVE.value, dtype=np.int8)
    silent = drops[tree.subtree_hi - 1] > drops[tree.subtree_lo]
    status[silent.reshape(n)] = UserStatus.SILENCED.value
    status[dead] = UserStatus.DROPPED.value
    took_part.flags.writeable = status.flags.writeable = False
    return Transcript(params, tree, took_part, status)


def run_protocol(
    ctx: FieldContext,
    params: ProtocolParams,
    tree: AggregationTree,
    models: Optional[np.ndarray] = None,
    dropout_plan: Optional[DropoutPlan] = None,
    master_seed: int = 0,
    noise=None,
) -> RunResult:
    """Execute one full aggregation round deterministically.  Raises
    TooManyDropouts when fewer than K+T non-null messages reach the server.

    ``models`` is the (N, L, *batch) integer array of the users' models,
    one row per user, and ``noise`` (N, T, S, *batch) their noise; the
    models' batch axes broadcast to the noise's, so plain (N, L) models
    serve every batch column alike.  An input left None is drawn from
    ``master_seed``, and drawn noise has no batch axes.  Either way the
    round sums its inputs into one total (:func:`input_total`), so it holds
    neither the coefficient array nor a block of it nor the group sums, and
    evaluates only what reaches the server (:func:`server_arrivals`);
    every other message is made when read.  Who
    takes part and who is silenced is the round's :func:`message_pattern`.
    """
    if ctx.p <= params.group_size:
        raise ValueError(
            f"modulus {ctx.p} too small for {params.group_size} distinct non-zero "
            "evaluation points"
        )
    transcript = message_pattern(params, tree, dropout_plan or DropoutPlan.none())
    models, noise = _check_inputs(params, models, noise)
    size, p = params.group_size, ctx.p

    total = input_total(params, p, models, noise, master_seed, transcript.took_part)
    arrivals = server_arrivals(total, size, p)
    last = tree.last_group * size
    null_slots = transcript.status[last:] != UserStatus.ACTIVE.value
    try:
        aggregate = server_recover(ctx, params, arrivals, null_slots)
    except TooManyDropouts as exc:
        # every group lies below the last one, so a server slot is null
        # exactly when some user in that slot dropped
        dead = (transcript.status == UserStatus.DROPPED.value).reshape(-1, size)
        causes = []
        for t in np.flatnonzero(null_slots).tolist():
            users = (np.flatnonzero(dead[:, t]) * size + t).tolist()
            causes.append(f"{t} (dropped {', '.join(map(str, users))})")
        raise TooManyDropouts(f"{exc}; null slots: {', '.join(causes)}") from None
    return RunResult(
        aggregate, arrivals, transcript.status, transcript.took_part, transcript, ctx,
        params, tree, models, noise, master_seed,
    )


def _check_sums(terms: int, dtype, p: int, what: str) -> None:
    """ValueError naming ``what`` when a sum of ``terms`` entries of
    ``dtype``, each in [0, p), could overflow int64."""
    if dtype != object and terms * (p - 1) >= 2**63:
        raise ValueError(f"{what} of {terms} terms mod {p} overflow int64")


def server_arrivals(total: np.ndarray, size: int, p: int) -> np.ndarray:
    """What the last group's ``size`` slots forward to the server, (size,
    S, *batch) by slot: by linearity the ``total`` of every included block
    (:func:`input_total`), as the root's subtree is every group, evaluated
    at the slots' points."""
    return evaluate(total, [eval_point_for_slot(t) for t in range(size)], p)


def relay(groups: np.ndarray, tree: AggregationTree, p: int) -> np.ndarray:
    """The inter phase on ``groups`` (G, ...): each group's sum mod p over
    its subtree, folded leaves first, one in-place add of each group into
    its parent.  On the group sums (G, K+T, S, *batch) this is the
    polynomial whose value at a slot's point its user forwards."""
    _check_sums(len(groups), groups.dtype, p, "subtree sums")
    partials = groups.copy()
    children = tree.postorder[:-1]  # the last group, the root, has the server above
    for child, parent in zip(children.tolist(), tree.parents[children].tolist()):
        partials[parent] += partials[child]
    return reduce_mod(partials, p, out=partials)


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
    # the inverse is built with sums of two products, or one for one point
    inverse = inverse_vandermonde(points[:need], p, field_dtype(p, min(need, 2)))
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
