"""Configuration, measurement, and reporting around the protocol core.

:func:`simulate` runs a :class:`RunConfig`'s round, its models and noise
drawn from ``master_seed`` straight into the round's coefficient array
(:func:`rampagg.protocol.fill_blocks`), and turns it into a
:class:`RunReport` whose load figures are exact rationals computed purely
by counting transcript symbols, never by evaluating the closed-form
expressions they are later compared against.  :func:`correctness_oracle`
replays randomized runs against a plain-integer summation oracle, and
:func:`collect_adversary_view` reads exactly what a colluding set plus the
server receive off the transcript.
"""

import dataclasses
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigInvalid, InvalidParams, NonConformingField
from .field import FieldContext, reduce_mod, select_prime, vandermonde
from .protocol import (
    BETWEEN_ROUNDS,
    PHASE_INTRA,
    PHASES,
    PRE_INTRA,
    DropoutPlan,
    RunResult,
    Transcript,
    UserStatus,
    derive_seed,
    draw_models,
    eval_point_for_slot,
    run_protocol,
)
from .sharing import Model
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
            data["tree_shape"] = {
                int(g) if isinstance(g, str) and g.isascii() and g.isdigit() else g: p
                for g, p in data["tree_shape"].items()
            }
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


@dataclass(frozen=True, eq=False)
class LoadSummary:
    """Exact normalized communication loads of one transcript, and the
    (N,) count of symbols each user sent."""

    r_server: Fraction
    r_user_max: Fraction
    r_user_avg: Fraction
    sent: np.ndarray


def measure_loads(
    transcript: Transcript, params: ProtocolParams, status: np.ndarray
) -> LoadSummary:
    """Count transcript symbols into normalized loads.

    Server load counts non-null server-bound symbols.  Per-user load counts
    every symbol a user transmitted, deliverable or not: a sender cannot
    know the peer dropped.  The max is taken over the users whose ``status``
    (N,) is not DROPPED.
    """
    length = params.model_len
    sent = np.zeros(params.n_users, dtype=np.int64)
    np.add.at(sent, transcript.sender, transcript.symbols)
    to_server = (transcript.receiver == params.n_users) & ~transcript.null
    survivors = status != UserStatus.DROPPED.value
    return LoadSummary(
        r_server=Fraction(int(transcript.symbols[to_server].sum()), length),
        r_user_max=Fraction(int(sent[survivors].max()), length),
        r_user_avg=Fraction(int(sent.sum()), params.n_users * length),
        sent=sent,
    )


@dataclass
class RunReport:
    """Everything :func:`simulate` measured, JSON-ready and deterministic."""

    config: RunConfig
    prime: int
    conforming_field: bool
    bits_per_symbol: int
    aggregate: list
    included_users: list
    loads: LoadSummary
    total_edges: int
    silent_edges: int
    edges_formula: int
    delay: float
    phase_counts: dict
    formula_check: Optional[dict] = None
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": self.config.to_dict(),
            "prime": self.prime,
            "conforming_field": self.conforming_field,
            "bits_per_symbol": self.bits_per_symbol,
            "aggregate": list(self.aggregate),
            "included_users": list(self.included_users),
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
        byte.  An indent sends ``json`` to its pure-Python encoder, so the
        long top-level integer lists are encoded apart by the C encoder, one
        item per line at the indent's depth, and spliced in."""
        data = self.to_dict()
        blocks = {}
        for key in ("aggregate", "included_users"):
            if data[key]:  # an empty list stays "[]"
                items = json.dumps(data[key], separators=(",\n    ", ": "))[1:-1]
                data[key] = f"\0{key}"
                blocks[json.dumps(data[key])] = "[\n    " + items + "\n  ]"
        text = json.dumps(data, sort_keys=True, indent=2)
        for marker, block in blocks.items():
            text = text.replace(marker, block, 1)
        return text + "\n"


def generate_models(config: RunConfig) -> list[Model]:
    """The models of ``config``'s round (:func:`rampagg.protocol.draw_models`),
    one :class:`Model` per user.  Kept only for the benchmark's output gate
    (``perfbench/bench.py``, ``check_round``); ROADMAP item 1 deletes it."""
    params = config.resolve()[0]
    return [Model(tuple(row)) for row in draw_models(params, config.master_seed).tolist()]


def simulate(config: RunConfig):
    """Run one configured round and measure it.  The round's models and
    noise are drawn from ``master_seed`` straight into its coefficient
    array.  Returns (RunReport, RunResult)."""
    params, tree, ctx = config.resolve()
    plan = DropoutPlan(frozenset(config.dropped), config.dropout_timing)
    result = run_protocol(ctx, params, tree, None, plan, config.master_seed)
    loads = measure_loads(result.transcript, params, result.status)
    # a round without dropouts uses every link the network has
    everyone = np.ones(params.n_users, dtype=bool)
    no_drops = np.full(params.n_users, UserStatus.ACTIVE.value, dtype=np.int8)
    total = len(Transcript.of_round(params, tree, everyone, no_drops).links())
    active = len(result.transcript.links())
    delay = total_delay(tree, DelayModel(config.delta_inter, config.delta_intra))

    formula_check = None
    if config.assert_formula_loads:
        formula_check = check_formulas(config, params, loads, total)

    report = RunReport(
        config=config,
        prime=ctx.p,
        conforming_field=ctx.conforming,
        bits_per_symbol=ctx.bits_per_symbol,
        aggregate=result.aggregate.tolist(),
        included_users=np.flatnonzero(result.took_part).tolist(),
        loads=loads,
        total_edges=total,
        silent_edges=total - active,
        edges_formula=count_edges(params),
        delay=delay,
        phase_counts=result.transcript.phase_counts(),
        formula_check=formula_check,
    )
    return report, result


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
    as one (C, S, *batch) array: one row per row of ``result.transcript``
    that was delivered, is not null, is not self-addressed, and has a
    colluder or the server (receiver N) as receiver, ordered by receiver
    (the server last), then phase, then sender.  An intra row holds its
    sender's block evaluated at the receiver's point, an uplink row the
    partial sum its sender forwarded."""
    n, size, p = result.params.n_users, result.params.group_size, result.ctx.p
    outside = [u for u in adversaries if not 0 <= u < n]
    if outside:
        raise ValueError(f"adversaries: users {outside} outside [0, {n})")
    t = result.transcript
    wanted = np.zeros(n + 1, dtype=bool)  # by receiver, the server as N
    wanted[[*adversaries, n]] = True
    seen = t.delivered & ~t.null & (t.sender != t.receiver)
    rows = np.flatnonzero(seen & wanted[t.receiver])
    rows = rows[np.lexsort((t.sender[rows], t.phase[rows], t.receiver[rows]))]
    sender, receiver = t.sender[rows], t.receiver[rows]
    intra = t.phase[rows] == PHASES.index(PHASE_INTRA)
    message = result.partials.shape[1:]  # (S, *batch)
    view = np.empty((len(rows),) + message, result.partials.dtype)
    # row i of the Vandermonde matrix is the point of intra row i's receiver
    points = eval_point_for_slot(receiver[intra] % size).tolist()
    width = result.coeffs.shape[1]  # K+T
    blocks = result.coeffs[sender[intra]].reshape(len(points), width, math.prod(message))
    matrix = vandermonde(points, width, p, blocks.dtype)
    shares = matrix[:, None, :] @ blocks
    reduce_mod(shares, p, out=shares)
    view[intra] = shares.reshape((len(points),) + message)
    view[~intra] = result.partials[sender[~intra]]
    return view


# ---- plain-integer correctness oracle ---------------------------------------


def plain_sum(models: np.ndarray, included) -> list[int]:
    """Column sums of the (N, L) ``models`` over the rows ``included`` (a
    (N,) mask or a list of users), in exact Python ints; no field
    arithmetic."""
    return models[included].astype(object).sum(axis=0).tolist()


@dataclass
class OracleSummary:
    trials: int
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


def correctness_oracle(
    config: RunConfig, trials: int, master_seed: Optional[int] = None
) -> OracleSummary:
    """Replay ``trials`` randomized runs of ``config``'s shape against the
    plain-integer summation oracle.

    Each trial draws fresh models and a fresh dropout set of size 0..d_max
    (uniformly, dropout slots unrestricted).  A conforming field guarantees
    the true integer sum stays below the modulus, so recovered must equal
    the oracle's plain sum entry for entry.
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
        rng = Random(derive_seed(seed, f"oracle:{trial}"))
        models = np.array(
            [
                [rng.randrange(config.entry_bound) for _ in range(config.model_len)]
                for _ in range(config.n_users)
            ],
            dtype=np.int64,
        )
        n_drop = rng.randint(0, config.d_max)
        dropped = frozenset(rng.sample(range(config.n_users), n_drop))
        plan = DropoutPlan(dropped, config.dropout_timing)
        result = run_protocol(
            ctx, params, tree, models, plan, master_seed=derive_seed(seed, f"run:{trial}")
        )
        expected = plain_sum(models, result.took_part)
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
    return OracleSummary(trials=trials, failures=failures)
