"""Configuration, measurement, and reporting around the protocol core.

:func:`simulate` turns a :class:`RunConfig` into a :class:`RunReport` whose
load figures are exact rationals computed purely by counting transcript
symbols, never by evaluating the closed-form expressions they are later
compared against.  :func:`correctness_oracle` replays randomized runs against
a plain-integer summation oracle, and :func:`collect_adversary_view` gathers
exactly what a colluding set plus the server get to see.
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
from .field import FieldContext, select_prime
from .protocol import (
    BETWEEN_ROUNDS,
    PRE_INTRA,
    DropoutPlan,
    RunResult,
    Transcript,
    UserStatus,
    derive_seed,
    draw_uniform,
    eval_point_for_slot,
    run_protocol,
)
from .sharing import Model, evaluate, validate_entries
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
        out = {
            "n_users": self.n_users,
            "t_max": self.t_max,
            "d_max": self.d_max,
            "k_parts": self.k_parts,
            "model_len": self.model_len,
            "entry_bound": self.entry_bound,
            "tree_shape": (
                {str(g): p for g, p in self.tree_shape.items()}
                if isinstance(self.tree_shape, Mapping)
                else self.tree_shape
            ),
            "dropped": list(self.dropped),
            "dropout_timing": self.dropout_timing,
            "adversaries": list(self.adversaries),
            "master_seed": self.master_seed,
            "prime_override": self.prime_override,
            "assert_formula_loads": self.assert_formula_loads,
            "delta_inter": self.delta_inter,
            "delta_intra": self.delta_intra,
        }
        return out

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)

    # -- validation ---------------------------------------------------------

    def resolve(self) -> tuple[ProtocolParams, AggregationTree, FieldContext]:
        """Validate and materialize params, tree, and field context.

        Raises ConfigInvalid with a message naming the offending field.
        """
        self._check_types()
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
        else:
            # 2**63 - 25, the largest prime below 2**63, is the largest
            # modulus the int64 noise draw takes
            if self.n_users * (self.entry_bound - 1) >= 2**63 - 25:
                raise ConfigInvalid(
                    "entry_bound: no prime in (n_users * (entry_bound - 1), 2**63] "
                    "for the int64 noise draw"
                )
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

    def _check_types(self) -> None:
        """Raise ConfigInvalid naming the first field whose value has the
        wrong type.  The tree shape is checked when the tree is built."""
        for name, (kind, ok) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ConfigInvalid(f"{name}: must be {kind}, got {value!r}")


@dataclass(frozen=True)
class LoadSummary:
    """Exact normalized communication loads of one transcript."""

    r_server: Fraction
    r_user_max: Fraction
    r_user_avg: Fraction
    per_user: dict


def measure_loads(
    transcript: Transcript, params: ProtocolParams, dropped: frozenset
) -> LoadSummary:
    """Count transcript symbols into normalized loads.

    Server load counts non-null server-bound symbols.  Per-user load counts
    every symbol a user transmitted, deliverable or not: a sender cannot
    know the peer dropped.  The max is taken over surviving users.
    """
    length = params.model_len
    sent = np.zeros(params.n_users, dtype=np.int64)
    np.add.at(sent, transcript.sender, transcript.symbols)
    to_server = (transcript.receiver == params.n_users) & ~transcript.null
    survivors = np.ones(params.n_users, dtype=bool)
    survivors[sorted(dropped)] = False
    return LoadSummary(
        r_server=Fraction(int(transcript.symbols[to_server].sum()), length),
        r_user_max=Fraction(int(sent[survivors].max()), length),
        r_user_avg=Fraction(int(sent.sum()), params.n_users * length),
        per_user={u: Fraction(s, length) for u, s in enumerate(sent.tolist())},
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
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def draw_models(config: RunConfig) -> np.ndarray:
    """Deterministic per-config models as one (N, L) int64 array: entries
    uniform in [0, entry_bound), drawn in row order from the stream seeded
    with derive_seed(master_seed, "models")."""
    seed = derive_seed(config.master_seed, "models")
    return draw_uniform(seed, config.entry_bound, (config.n_users, config.model_len))


def generate_models(config: RunConfig) -> list[Model]:
    """The models of :func:`draw_models`, one :class:`Model` per user."""
    return [Model(tuple(row)) for row in draw_models(config).tolist()]


def simulate(config: RunConfig, models: Optional[Sequence[Model]] = None):
    """Run one configured round and measure it.  Returns (RunReport, RunResult)."""
    params, tree, ctx = config.resolve()
    if models is None:
        models = draw_models(config)
    else:
        models = [m if isinstance(m, Model) else Model(tuple(m)) for m in models]
        for m in models:
            validate_entries(m, config.entry_bound)
    plan = DropoutPlan(frozenset(config.dropped), config.dropout_timing)
    result = run_protocol(
        ctx, params, tree, models, plan, master_seed=config.master_seed
    )
    loads = measure_loads(result.transcript, params, plan.dropped)
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
        included_users=sorted(result.included_users),
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


@dataclass(frozen=True)
class AdversaryView:
    """Exactly what a colluding set of users plus the server observe, as
    slices of the run's arrays; each message is an (S, *batch) array.

    Per adversary: the intra shares it received, by sender slot (its own
    slot excluded: its own data is listed separately); the partial sums it
    received from child groups, by child group, with None for an explicit
    null; and its own coefficient block, K model segments then T noise
    vectors.  Plus every message that reached the server, by sender, with
    None for a null.  Nothing addressed to anyone else appears.
    """

    intra_shares: dict  # adversary -> {sender slot -> share}
    child_messages: dict  # adversary -> {child group -> partial sum or None}
    server_messages: dict  # last-group sender -> partial sum or None
    own_coeffs: dict  # adversary -> (K+T, S, *batch) block


def collect_adversary_view(
    result: RunResult, adversaries: Sequence[int]
) -> AdversaryView:
    """Assemble the view of ``adversaries`` from a finished run.  A single
    user's share is evaluated here, only for the shares the view holds."""
    size = result.params.group_size
    status = result.status.tolist()
    included = result.included_users

    def uplink(u: int):
        """What non-dropped user ``u`` sent up the tree."""
        return None if status[u] == UserStatus.SILENCED else result.partials[u]

    intra: dict = {}
    child: dict = {}
    for a in sorted(set(adversaries)):
        group, slot = divmod(a, size)
        members = range(group * size, (group + 1) * size)
        # a colluder dropped pre_intra received no shares
        senders = [u for u in members if u != a and u in included and a in included]
        shares = evaluate(
            result.coeffs[senders], [eval_point_for_slot(slot)], result.ctx.p, axis=1
        )
        intra[a] = {u % size: share[0] for u, share in zip(senders, shares)}
        kids = result.tree.children_of(group) if status[a] != UserStatus.DROPPED else ()
        child[a] = {
            c: uplink(c * size + slot)
            for c in kids
            if status[c * size + slot] != UserStatus.DROPPED
        }
    last = result.tree.last_group * size
    return AdversaryView(
        intra_shares=intra,
        child_messages=child,
        server_messages={
            u: uplink(u)
            for u in range(last, last + size)
            if status[u] != UserStatus.DROPPED
        },
        own_coeffs={a: result.coeffs[a] for a in intra},
    )


# ---- plain-integer correctness oracle ---------------------------------------


def plain_sum(models: Sequence[Model], included) -> list[int]:
    """Entry-wise integer sum of the included models; no field arithmetic."""
    included = sorted(included)
    length = models[included[0]].length if included else 0
    return [sum(models[u].entries[i] for u in included) for i in range(length)]


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
        models = [
            Model(
                tuple(
                    rng.randrange(config.entry_bound)
                    for _ in range(config.model_len)
                )
            )
            for _ in range(config.n_users)
        ]
        n_drop = rng.randint(0, config.d_max)
        dropped = frozenset(rng.sample(range(config.n_users), n_drop))
        plan = DropoutPlan(dropped, config.dropout_timing)
        result = run_protocol(
            ctx, params, tree, models, plan, master_seed=derive_seed(seed, f"run:{trial}")
        )
        expected = plain_sum(models, result.included_users)
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
