"""Configuration, measurement, and reporting around the protocol core.

:func:`measure` turns a :class:`RunConfig` into a :class:`RunReport` from
its round's message pattern alone (:func:`rampagg.protocol.message_pattern`):
every load figure is an exact rational computed purely by counting
transcript symbols, never by evaluating the closed-form expressions it is
later compared against, and none needs a draw or any field arithmetic.
A report holds that pattern, which keeps its included users as runs and,
unless it is too large to keep its CSV text, the text of its report.json
but for the seed and the aggregate (:meth:`RunReport.to_json`); so no
report holds or builds a value per user until its list of included users
is read.  :func:`simulate` runs the round too, its models and noise drawn
from ``master_seed`` into row buffers and summed over the users as they
come (:func:`rampagg.protocol.input_total`), and adds its aggregate.
:func:`correctness_oracle` replays randomized rounds, drawn the same way
from derived seeds, against a plain-integer summation oracle, and
:func:`collect_adversary_view` makes exactly the messages a colluding set
plus the server receive, as the transcript picks them, from its intra
senders' blocks and the group sums, both made again from the round's
inputs when read, so inputs given as arrays must not change after the
round.
"""

import dataclasses
import json
import math
import pickle
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigInvalid, InvalidParams, NonConformingField
from .field import FieldContext, select_prime
from .protocol import (
    BETWEEN_ROUNDS,
    PRE_INTRA,
    DropoutPlan,
    LoadSummary,
    RunResult,
    Transcript,
    derive_seed,
    draw_models,
    draw_uniform,
    eval_point_for_slot,
    message_pattern,
    network_links,
    run_protocol,
)
from .sharing import Model, evaluate_each
from .topology import (
    AggregationTree,
    DelayModel,
    ProtocolParams,
    TreeShape,
    build_tree,
    count_edges,
    make_params,
    total_delay,
)

SCHEMA_VERSION = 1
# what ends an item of a top-level list in report.json, one item per line
_ITEM_SEP = ",\n    "


def _is_int(value) -> bool:
    """A bool is not an integer here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_users(value) -> bool:
    return isinstance(value, tuple) and all(map(_is_int, value))


def _is_delay(value) -> bool:
    return (_is_int(value) or isinstance(value, float)) and 0 <= value < math.inf


# field -> (what it must be, check); from_dict turns JSON lists into tuples
_FIELD_TYPES = {
    **{
        name: ("an integer", _is_int)
        for name in ("n_users", "t_max", "d_max", "k_parts", "model_len", "entry_bound")
    },
    "dropped": ("a list of integers", _is_users),
    "adversaries": ("a list of integers", _is_users),
    "master_seed": ("an integer", _is_int),
    "prime_override": ("an integer or null", lambda v: v is None or _is_int(v)),
    "assert_formula_loads": ("true or false", lambda v: isinstance(v, bool)),
    "delta_inter": ("a finite number >= 0", _is_delay),
    "delta_intra": ("a finite number >= 0", _is_delay),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines one run, and nothing that does not.

    A config plus its ``master_seed`` fixes models, noise, and therefore
    every byte of the report.  ``prime_override`` swaps in a hand-picked
    modulus (tagged non-conforming unless it happens to satisfy the sizing
    rule); ``assert_formula_loads`` additionally compares measured loads to
    the closed forms and refuses to run on a non-conforming field, where
    the comparison would be meaningless.
    """

    n_users: int
    t_max: int
    d_max: int
    k_parts: int
    model_len: int
    entry_bound: int
    tree_shape: TreeShape = "chain"
    dropped: tuple[int, ...] = ()
    dropout_timing: str = PRE_INTRA
    adversaries: tuple[int, ...] = ()
    master_seed: int = 0
    prime_override: Optional[int] = None
    assert_formula_loads: bool = False
    delta_inter: float = 1
    delta_intra: float = 1

    # -- (de)serialization -------------------------------------------------

    @classmethod
    def from_dict(cls, raw: Mapping) -> "RunConfig":
        if not isinstance(raw, Mapping):
            raise ConfigInvalid(f"config: must be a JSON object, got {raw!r}")
        fields = dataclasses.fields(cls)
        unknown = set(raw) - {f.name for f in fields}
        if unknown:
            raise ConfigInvalid(f"unknown config field(s): {sorted(unknown)}")
        missing = [
            f.name for f in fields if f.default is dataclasses.MISSING and f.name not in raw
        ]
        if missing:
            raise ConfigInvalid(f"missing config field(s): {missing}")
        data = dict(raw)
        for key in ("dropped", "adversaries"):
            if isinstance(data.get(key), list):
                data[key] = tuple(data[key])
        if isinstance(data.get("tree_shape"), Mapping):
            # JSON object keys are strings; resolve() rejects any other key
            shape = data["tree_shape"] = {}
            for g, p in raw["tree_shape"].items():
                group = int(g) if isinstance(g, str) and g.isascii() and g.isdigit() else g
                if group in shape:
                    raise ConfigInvalid(f"tree_shape: key {g!r} names group {group} again")
                shape[group] = p
        return cls(**data)

    def to_dict(self) -> dict:
        """The fields as JSON values: tuples become lists, and an explicit
        tree shape's group keys become strings, as JSON object keys are."""
        out = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, Mapping):
                value = {str(g): p for g, p in value.items()}
            out[field.name] = value
        return out

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)

    # -- validation ---------------------------------------------------------

    def resolve(self) -> tuple[ProtocolParams, AggregationTree, FieldContext]:
        """Validate and materialize params, tree, and field context.

        Raises ConfigInvalid with a message naming the offending field.
        """
        for name, (kind, ok) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ConfigInvalid(f"{name}: must be {kind}, got {value!r}")
        for name in ("entry_bound", "prime_override"):
            if (getattr(self, name) or 0) > 2**63:
                raise ConfigInvalid(
                    f"{name}: {getattr(self, name)} exceeds 2**63, the largest "
                    "bound of the int64 model and noise draws"
                )
        try:
            params = make_params(
                self.n_users,
                self.t_max,
                self.d_max,
                self.k_parts,
                self.model_len,
                self.entry_bound,
            )
        except InvalidParams as exc:
            raise ConfigInvalid(f"params: {exc}") from exc
        # int64 entries and object pointers are both 8 bytes
        limit = np.iinfo(np.intp).max
        if math.prod(params.blocks_shape) * 8 > limit:
            raise ConfigInvalid(
                f"model_len: {self.model_len} needs a coefficient array of shape "
                f"{params.blocks_shape}, past numpy's limit of {limit} bytes"
            )
        try:
            tree = build_tree(params.num_groups, self.tree_shape)
        except Exception as exc:
            raise ConfigInvalid(f"tree_shape: {exc}") from exc
        # finite delays can still add up past the largest float
        if not math.isfinite(total_delay(tree, DelayModel(self.delta_inter, self.delta_intra))):
            raise ConfigInvalid("delta_inter, delta_intra: their total delay overflows a float")
        for name, bound, cap in (
            ("dropped", "dropout budget", "d_max"),
            ("adversaries", "collusion tolerance", "t_max"),
        ):
            users, seen = getattr(self, name), set()
            for u in users:
                if not 0 <= u < self.n_users:
                    raise ConfigInvalid(f"{name}: user {u} outside [0, {self.n_users})")
                if u in seen:
                    raise ConfigInvalid(f"{name}: user {u} listed twice")
                seen.add(u)
            if len(users) > getattr(self, cap):
                raise ConfigInvalid(
                    f"{name}: {len(users)} users exceed the {bound} "
                    f"{cap}={getattr(self, cap)}"
                )
        if self.dropout_timing not in (PRE_INTRA, BETWEEN_ROUNDS):
            raise ConfigInvalid(f"dropout_timing: unknown value {self.dropout_timing!r}")
        if self.prime_override is not None:
            try:
                ctx = FieldContext(
                    self.prime_override, self.entry_bound, self.n_users
                )
            except ValueError as exc:
                raise ConfigInvalid(f"prime_override: {exc}") from exc
        # 2**63 - 25, the largest prime below 2**63, is the largest modulus
        # the int64 noise draw takes
        elif self.n_users * (self.entry_bound - 1) >= 2**63 - 25:
            raise ConfigInvalid(
                "entry_bound: no prime in (n_users * (entry_bound - 1), 2**63] "
                "for the int64 noise draw"
            )
        if self.prime_override is None:
            ctx = select_prime(self.n_users, self.entry_bound)
        if ctx.p <= params.group_size:
            raise ConfigInvalid(
                f"prime_override: {ctx.p} too small for group size "
                f"{params.group_size}"
            )
        if self.assert_formula_loads and not ctx.conforming:
            raise NonConformingField(
                "assert_formula_loads: load formulas assume the canonical "
                f"modulus; prime {ctx.p} is non-conforming"
            )
        return params, tree, ctx


@dataclass
class RunReport:
    """Everything :func:`measure` counted and :func:`simulate` recovered,
    JSON-ready and deterministic; ``aggregate`` is None when no round ran.
    ``transcript`` is the message pattern it was counted from."""

    config: RunConfig
    prime: int
    conforming_field: bool
    bits_per_symbol: int
    aggregate: Optional[list]
    transcript: Transcript = dataclasses.field(repr=False)
    loads: LoadSummary
    total_edges: int
    silent_edges: int
    edges_formula: int
    delay: float
    phase_counts: dict
    formula_check: Optional[dict] = None
    schema_version: int = SCHEMA_VERSION

    @property
    def included_users(self) -> list:
        """The users that took part, ascending, as a new list."""
        return np.flatnonzero(self.transcript.took_part).tolist()

    def to_dict(self) -> dict:
        return self._dict(self.included_users)

    def _dict(self, included_users) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": self.config.to_dict(),
            "prime": self.prime,
            "conforming_field": self.conforming_field,
            "bits_per_symbol": self.bits_per_symbol,
            "aggregate": None if self.aggregate is None else list(self.aggregate),
            "included_users": included_users,
            "r_server": str(self.loads.r_server),
            "r_user_max": str(self.loads.r_user_max),
            "r_user_avg": str(self.loads.r_user_avg),
            "r_server_bits": float(self.loads.r_server * self.bits_per_symbol),
            "r_user_max_bits": float(self.loads.r_user_max * self.bits_per_symbol),
            "cutset_server_bits": math.log2(
                (self.config.entry_bound - 1) * self.config.n_users + 1
            ),
            "cutset_user_bits": math.log2(self.config.entry_bound),
            "total_edges": self.total_edges,
            "silent_edges": self.silent_edges,
            "edges_formula": self.edges_formula,
            "delay": self.delay,
            "phase_counts": self.phase_counts,
            "formula_check": self.formula_check,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True, indent=2)``, byte for
        byte.  Only ``config.master_seed`` and ``aggregate`` change between
        the rounds of one config, so the rest of the text is made once
        (:meth:`_json_pieces`) and kept on the transcript
        (:meth:`~rampagg.protocol.Transcript.kept_text`), keyed on the value
        and type of every other field (:meth:`_json_key`), so a report whose
        fields were changed writes its own.  Each call encodes the aggregate
        with the C encoder and joins it and the seed into the kept pieces."""
        head, mid, tail = self.transcript.kept_text(self._json_key(), self._json_pieces)
        aggregate = "null" if self.aggregate is None else _json_list(self.aggregate)
        return "".join((head, aggregate, mid, json.dumps(self.config.master_seed), tail))

    def _json_key(self) -> tuple:
        """Every field that :meth:`_json_pieces` writes: the loads, which are
        immutable, by identity, and the rest, the config's seed left out,
        pickled.  Equal pickles are equal values of equal types, so they
        write equal JSON; and nothing need be hashable."""
        fields = (
            {**vars(self.config), "master_seed": None}, self.prime, self.conforming_field,
            self.bits_per_symbol, self.total_edges, self.silent_edges, self.edges_formula,
            self.delay, self.phase_counts, self.formula_check, self.schema_version,
        )
        return self.loads, pickle.dumps(fields, pickle.HIGHEST_PROTOCOL)

    def _json_pieces(self) -> tuple:
        """The text of :meth:`to_json` around the aggregate and the seed, as
        (head, mid, tail).  ``json`` writes it with a marker in each of
        their places and in that of ``included_users``, in that order, and
        the list of included users is spliced in as the slices of
        :func:`_json_users` of the transcript's runs, one item per line at
        the indent's depth, as report.json writes its long lists."""
        data = self._dict(_MARK)
        data["aggregate"] = data["config"]["master_seed"] = _MARK
        text = json.dumps(data, sort_keys=True, indent=2)
        head, mid, users_at, tail = text.split(json.dumps(_MARK))
        items, offsets = _json_users(self.transcript.params.n_users)
        runs = self.transcript.included_users.tolist()
        users = "".join(items[offsets[a] : offsets[b]] for a, b in runs).removesuffix(_ITEM_SEP)
        users = "[\n    " + users + "\n  ]" if runs else "[]"
        return head, mid, users_at + users + tail + "\n"


_MARK = "\0"  # json writes it "\u0000", which no valid report holds


def _json_list(values) -> str:
    """A top-level list as report.json writes it, one item per line at the
    indent's depth, its items by the C encoder."""
    if not values:
        return "[]"
    return "[\n    " + _encode_items(list(values))[1:-1] + "\n  ]"


_encode_items = json.JSONEncoder(separators=(_ITEM_SEP, ": ")).encode


@lru_cache(maxsize=8)
def _json_users(n_users: int) -> tuple:
    """The items "{u},\\n    " of users 0..N-1 as report.json lists them,
    as one string, and the read-only (N+1,) offsets at which each user's
    item starts, the last one its end.  Built once per N."""
    items = [f"{u}{_ITEM_SEP}" for u in range(n_users)]
    offsets = np.cumsum([0, *map(len, items)])
    offsets.flags.writeable = False
    return "".join(items), offsets


def generate_models(config: RunConfig) -> list[Model]:
    """The models of ``config``'s round (:func:`rampagg.protocol.draw_models`),
    one :class:`Model` per user.  Kept only for the benchmark's output gate
    (``perfbench/bench.py``, ``check_round``); ROADMAP item 1 deletes it."""
    params = config.resolve()[0]
    return [Model(tuple(row)) for row in draw_models(params, config.master_seed).tolist()]


def measure(
    config: RunConfig, resolved: Optional[tuple] = None, result: Optional[RunResult] = None
) -> RunReport:
    """``config``'s report, every field counted from its round's message
    pattern: no draw, no arithmetic, and an ``aggregate`` of None.  Given
    ``config.resolve()`` as ``resolved`` and the round's ``result``, the
    report reads that round's transcript and aggregate instead, as
    :func:`simulate`'s does.  No recovery check is needed: ``resolve`` caps
    the dropouts at D, and each silences at most one server slot."""
    params, tree, ctx = resolved or config.resolve()
    if result is None:
        plan = DropoutPlan(frozenset(config.dropped), config.dropout_timing)
        transcript = message_pattern(params, tree, plan)
    else:
        transcript = result.transcript
    total = network_links(params, tree)
    formula_check = None
    if config.assert_formula_loads:
        formula_check = check_formulas(config, params, transcript.loads, total)
    return RunReport(
        config=config,
        prime=ctx.p,
        conforming_field=ctx.conforming,
        bits_per_symbol=ctx.bits_per_symbol,
        aggregate=None if result is None else result.aggregate.tolist(),
        transcript=transcript,
        loads=transcript.loads,
        total_edges=total,
        silent_edges=total - transcript.links_used,
        edges_formula=count_edges(params),
        delay=total_delay(tree, DelayModel(config.delta_inter, config.delta_intra)),
        phase_counts=transcript.phase_counts(),
        formula_check=formula_check,
    )


def simulate(config: RunConfig):
    """Run one configured round and measure it.  The round is streamed:
    its models and noise are drawn from ``master_seed`` a row buffer at a
    time, and a user's coefficient block is made only if asked for
    (``RunResult.blocks``).  Returns (RunReport, RunResult)."""
    resolved = params, tree, ctx = config.resolve()
    plan = DropoutPlan(frozenset(config.dropped), config.dropout_timing)
    result = run_protocol(ctx, params, tree, None, plan, config.master_seed)
    return measure(config, resolved, result), result


def check_formulas(
    config: RunConfig, params: ProtocolParams, loads: LoadSummary, total_edges: int
) -> dict:
    """Compare measured loads to the closed forms.

    The load identities hold when the run realizes exactly the designed
    number of dropouts in distinct slots and K divides L; outside that
    operating point the comparison is reported as None rather than failed.
    """
    k, t, d = params.k_parts, params.t_max, params.d_max
    slots = {u % params.group_size for u in config.dropped}
    at_design_point = (
        len(config.dropped) == d
        and len(slots) == len(config.dropped)
        and params.model_len % k == 0
        and config.dropout_timing == PRE_INTRA
    )
    out = {
        "edges_expected": count_edges(params),
        "edges_match": total_edges == count_edges(params),
        "r_server_expected": str(Fraction(k + t, k)),
        "r_user_max_expected": str(Fraction(k + t + d, k)),
        "at_design_point": at_design_point,
        "r_server_match": None,
        "r_user_max_match": None,
    }
    if at_design_point:
        out["r_server_match"] = loads.r_server == Fraction(k + t, k)
        out["r_user_max_match"] = loads.r_user_max == Fraction(k + t + d, k)
    return out


# ---- adversary view ---------------------------------------------------------


def collect_adversary_view(result: RunResult, adversaries: Sequence[int]) -> np.ndarray:
    """Everything ``adversaries`` and the server receive in a finished run,
    as one (C, S, *batch) array: one row per message of ``result.transcript``
    that was delivered, is not null, is not self-addressed, and has a
    colluder or the server (receiver N) as receiver, in the order of
    :meth:`~rampagg.protocol.Transcript.heard_by`.  An intra row holds its
    sender's block evaluated at the receiver's point, an uplink row the
    partial sum its sender forwarded.  Only these O(C * size) messages are
    made: the shares from the blocks of the intra senders alone
    (:meth:`~rampagg.protocol.RunResult.blocks`), the uplinks by
    :meth:`~rampagg.protocol.RunResult.uplinks`, which relays only for
    senders below the last group."""
    n, size, p = result.params.n_users, result.params.group_size, result.ctx.p
    outside = [u for u in adversaries if not 0 <= u < n]
    if outside:
        raise ValueError(f"adversaries: users {outside} outside [0, {n})")
    sender, receiver, intra = result.transcript.heard_by(sorted(set(adversaries)))
    arrivals = result.arrivals
    view = np.empty((len(sender),) + arrivals.shape[1:], arrivals.dtype)
    points = eval_point_for_slot(receiver[intra] % size)
    view[intra] = evaluate_each(result.blocks(sender[intra]), points, p)
    view[~intra] = result.uplinks(sender[~intra])
    return view


# ---- plain-integer correctness oracle ---------------------------------------


def plain_sum(models: np.ndarray, included) -> list[int]:
    """Column sums of the (N, L) ``models`` over the rows ``included`` (a
    (N,) mask or a list of users), in exact Python ints; no field
    arithmetic."""
    return models[included].astype(object).sum(axis=0).tolist()


def draw_dropouts(seed: int, n_users: int, low: int, high: int) -> frozenset:
    """Between ``low`` and ``high`` distinct users of ``n_users``, from the
    stream of ``seed``: its first value picks how many (uniformly, up to a
    bias below (high - low + 1) / 2**63), and the next, one per user, put
    the users in a random order whose first ones are taken."""
    values = draw_uniform(seed, 2**63, (n_users + 1,))
    count = low + int(values[0]) % (high - low + 1)
    return frozenset(np.argsort(values[1:], kind="stable")[:count].tolist())


def correctness_oracle(
    config: RunConfig, trials: int, master_seed: Optional[int] = None
) -> list[dict]:
    """Replay ``trials`` randomized runs of ``config``'s shape against the
    plain-integer summation oracle, and return the runs that disagree, one
    dict each; none when all agree.

    Each trial is a round drawn from its own derived seed, with a fresh
    dropout set of size 0..d_max (:func:`draw_dropouts`, slots
    unrestricted).  A conforming field guarantees the true integer sum
    stays below the modulus, so recovered must equal the oracle's plain sum
    of the same seed's models, entry for entry.
    """
    params, tree, ctx = config.resolve()
    if not ctx.conforming:
        raise NonConformingField(
            "correctness_oracle: comparison against plain integer sums "
            f"requires a conforming modulus, got {ctx.p}"
        )
    seed = config.master_seed if master_seed is None else master_seed
    failures = []
    for trial in range(trials):
        run_seed = derive_seed(seed, f"run:{trial}")
        drops = derive_seed(seed, f"oracle:{trial}")
        dropped = draw_dropouts(drops, config.n_users, 0, config.d_max)
        plan = DropoutPlan(dropped, config.dropout_timing)
        result = run_protocol(ctx, params, tree, None, plan, run_seed)
        expected = plain_sum(draw_models(params, run_seed), result.took_part)
        got = result.aggregate.tolist()
        if got != expected:
            failures.append(
                {
                    "trial": trial,
                    "dropped": sorted(dropped),
                    "got": got,
                    "expected": expected,
                }
            )
    return failures
