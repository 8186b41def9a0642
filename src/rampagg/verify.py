"""Named verification suites: the one definition of the acceptance criteria.

:data:`SUITES` maps each suite to its checks by name.  A check is a
function that raises AssertionError when the claim fails and otherwise
returns a one-line summary.  ``rampagg verify <suite>`` prints one line per
check; the acceptance gate (``tests/test_acceptance.py``) runs the same
checks by name under a time budget per criterion, so what "verified" means
is written here and nowhere else.  The ``privacy`` suite enumerates about
34 million (model, noise) points in under a second.
"""

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import TooManyDropouts
from .harness import (
    RunConfig,
    correctness_oracle,
    draw_dropouts,
    measure,
    plain_sum,
    simulate,
)
from .privacy import (
    COUPLING_ALL_EQUAL,
    NOISE_CONSTANT,
    PrivacyCase,
    PrivacyResult,
    privacy_bruteforce,
)
from .protocol import DropoutPlan, derive_seed, draw_models, run_protocol
from .topology import DelayModel, build_tree, total_delay


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def run_check(name: str, check: Callable[[], str]) -> CheckResult:
    """Run one check and time it; an exception is a failed check."""
    start = time.perf_counter()
    try:
        detail = check()
        passed = True
    except AssertionError as exc:
        detail = str(exc) or "assertion failed"
        passed = False
    except Exception as exc:  # noqa: BLE001 - a crashed check is a failed check
        detail = f"raised {exc!r}"
        passed = False
    return CheckResult(name, passed, detail, time.perf_counter() - start)


# ---- worked examples ---------------------------------------------------------


def example_single_group_config() -> RunConfig:
    """12 users, one group of 12 (K=9, T=2, D=1), user 2 dropped."""
    return RunConfig(
        n_users=12,
        t_max=2,
        d_max=1,
        k_parts=9,
        model_len=9,
        entry_bound=8,
        tree_shape="chain",
        dropped=(2,),
        master_seed=2024,
    )


def example_two_group_config() -> RunConfig:
    """Same population split into two chained groups of 6 (K=3)."""
    return example_single_group_config().replace(k_parts=3)


def _check_example(config: RunConfig, **expect) -> str:
    """Compare the run's loads, edge counts and silenced users with
    ``expect`` and its aggregate with the plain sum of the survivors."""
    report, result = simulate(config)
    got = {
        "r_server": report.loads.r_server,
        "r_user_max": report.loads.r_user_max,
        "edges": report.total_edges,
        "silent": report.silent_edges,
        "silenced": np.flatnonzero(result.null).tolist(),
    }
    assert got == expect, f"got {got}, expected {expect}"
    included = [u for u in range(config.n_users) if u not in config.dropped]
    expected_sum = plain_sum(draw_models(result.params, config.master_seed), included)
    assert list(report.aggregate) == expected_sum, "aggregate != plain sum of survivors"
    return " ".join(f"{key}={value}" for key, value in got.items())


# ---- closed-form formulas ----------------------------------------------------


def _measure_formulas(config: RunConfig):
    """``config``'s report from its message pattern (:func:`measure`),
    once every closed form of :func:`~rampagg.harness.check_formulas`
    matches it at the design point."""
    report = measure(config.replace(assert_formula_loads=True))
    check = report.formula_check
    label = f"N={config.n_users} T={config.t_max} D={config.d_max} K={config.k_parts}"
    assert check["at_design_point"], f"{label}: not at the design point"
    for name in ("r_server", "r_user_max", "edges"):
        assert check[f"{name}_match"], f"{label}: {name} does not match {check}"
    return report


def _check_load_formulas_24() -> str:
    n = 24
    runs = 0
    for t_max, d_max in ((1, 0), (1, 1), (2, 0), (2, 1)):
        for k in range(1, n - t_max - d_max + 1):
            if n % (k + t_max + d_max) != 0:
                continue
            dropped = tuple(range(n - 1, n - 1 - d_max, -1))
            _measure_formulas(
                RunConfig(
                    n_users=n,
                    t_max=t_max,
                    d_max=d_max,
                    k_parts=k,
                    model_len=k,
                    entry_bound=4,
                    dropped=dropped,
                )
            )
            runs += 1
    assert runs == 24, f"{runs} (T, D, K) configurations, expected 7 + 6 + 6 + 5"
    return f"{runs} (T, D, K) configurations matched every closed form"


def _smallest_prime_in(low: int, high: int) -> int:
    """Trial division, independent of the package's Miller-Rabin test."""
    for c in range(low + 1, high + 1):
        if all(c % f for f in range(2, math.isqrt(c) + 1)):
            return c
    raise AssertionError(f"no prime in ({low}, {high}]")


def _max_partition_config(n: int) -> RunConfig:
    """One group of ``n`` with K = N-3 (T=2, D=1), its last user dropped."""
    k = n - 3
    return RunConfig(
        n_users=n, t_max=2, d_max=1, k_parts=k, model_len=k, entry_bound=256, dropped=(n - 1,)
    )


def _check_max_partition_point() -> str:
    details = []
    for n in (12, 24, 60):
        report = _measure_formulas(_max_partition_config(n))
        expected_prime = _smallest_prime_in(255 * n, 510 * n)
        assert report.prime == expected_prime, (
            f"N={n}: prime {report.prime} != {expected_prime}"
        )
        bits = (expected_prime - 1).bit_length()
        assert report.bits_per_symbol == bits, (
            f"N={n}: bits {report.bits_per_symbol} != {bits}"
        )
        details.append(f"N={n}: p={report.prime}, r_server={report.loads.r_server}")
    return "; ".join(details)


def _check_asymptotic_regime() -> str:
    """The abstract's regime: one group with K = N-T-D, where both loads
    are (1 + O(1/N)) L and every pair of users shares a link, up to a
    million users: the loads are counted from the message pattern alone."""
    gaps = []
    for n in (120, 600, 1200, 12_000, 120_000, 1_200_000):
        loads = _measure_formulas(_max_partition_config(n)).loads
        gaps.append((n, loads.r_server - 1, loads.r_user_max - 1))
    for (n, server, user), (m, next_server, next_user) in zip(gaps, gaps[1:]):
        assert next_server < server and next_user < user, (
            f"load gaps did not shrink from N={n} to N={m}"
        )
    return "; ".join(f"N={n}: r_server-1={s}, r_user_max-1={u}" for n, s, u in gaps)


def _check_delay_formulas() -> str:
    for inter, intra in ((1, 3), (5, 2), (2, 0)):
        delays = DelayModel(inter=inter, intra=intra)
        for groups, shape, hops in ((7, "star", 2), (7, "chain", 7), (1, "chain", 1)):
            got = total_delay(build_tree(groups, shape), delays)
            assert got == hops * inter + intra, (
                f"{shape}({groups}) inter={inter} intra={intra}: {got}"
            )
    return "star(7) = 2*inter + intra, chain(G) = G*inter + intra"


# ---- randomized correctness ---------------------------------------------------


def _check_randomized_recovery() -> str:
    combos = [
        (12, 2, 1, 3, 10),
        (12, 2, 1, 9, 9),
        (24, 3, 1, 4, 10),
    ]
    total = 0
    for n, t_max, d_max, k, length in combos:
        for shape in ("chain", "star"):
            config = RunConfig(
                n_users=n,
                t_max=t_max,
                d_max=d_max,
                k_parts=k,
                model_len=length,
                entry_bound=16,
                tree_shape=shape,
                master_seed=n * 1000 + k,
            )
            failures = correctness_oracle(config, trials=168)
            assert not failures, (
                f"N={n} K={k} {shape}: {len(failures)} mismatches, first: {failures[:1]}"
            )
            total += 168
    assert total >= 1000, f"only {total} randomized runs"
    return f"{total} randomized runs matched the plain-integer sum"


def _check_tree_invariance() -> str:
    irregular = {0: 4, 1: 4, 2: 5, 3: 5, 4: 5, 5: "server"}
    shapes = ["chain", "star", irregular]
    base = RunConfig(
        n_users=24,
        t_max=2,
        d_max=1,
        k_parts=1,
        model_len=6,
        entry_bound=16,
        master_seed=0,
    )
    for trial in range(100):
        dropped = (trial % 24,) if trial % 2 else ()
        aggregates = []
        for shape in shapes:
            config = base.replace(
                tree_shape=shape, master_seed=5000 + trial, dropped=dropped
            )
            report, _ = simulate(config)
            aggregates.append(list(report.aggregate))
        assert aggregates[0] == aggregates[1] == aggregates[2], (
            f"trial {trial}: aggregates differ across tree shapes: {aggregates}"
        )
    return "100 model sets identical across chain, star, and irregular trees"


def _check_dropout_boundary() -> str:
    config = RunConfig(
        n_users=12,
        t_max=2,
        d_max=1,
        k_parts=9,
        model_len=9,
        entry_bound=8,
    )
    params, tree, ctx = config.resolve()
    d = config.d_max
    for trial in range(50):
        seed = derive_seed(31, f"boundary:{trial}")
        # one group of 12, so any D+1 users sit in distinct slots
        over = draw_dropouts(derive_seed(seed, "over"), 12, d + 1, d + 1)
        try:
            run_protocol(ctx, params, tree, None, DropoutPlan(over), seed)
            raise AssertionError(
                f"trial {trial}: {sorted(over)} dropped but recovery succeeded"
            )
        except TooManyDropouts:
            pass
        exact = draw_dropouts(derive_seed(seed, "exact"), 12, d, d)
        result = run_protocol(ctx, params, tree, None, DropoutPlan(exact), seed)
        survivors = [u for u in range(12) if u not in exact]
        expected = plain_sum(draw_models(params, seed), survivors)
        assert result.aggregate.tolist() == expected, (
            f"trial {trial}: {sorted(exact)} dropped, aggregate != plain sum"
        )
    return "50 over-budget runs all raised, 50 at-budget runs all recovered the sum"


# ---- exhaustive privacy --------------------------------------------------------


def _case_4_users(adversary: int, **overrides) -> PrivacyCase:
    """Three honest users over the full GF(5)."""
    return PrivacyCase(
        n_users=4, t_max=1, d_max=0, k_parts=1, prime=5, adversaries=(adversary,), **overrides
    )


def _case_6_users(adversary: int, **overrides) -> PrivacyCase:
    """Five honest users in two groups, two model symbols each over {0, 1}."""
    return PrivacyCase(
        n_users=6, t_max=1, d_max=0, k_parts=2, prime=7, adversaries=(adversary,),
        model_bound=2, **overrides,
    )


def _private(n_cells: int, n_models: int, n_noise: int) -> PrivacyResult:
    """The result of a private case: MI exactly 0 over ``n_cells`` values of
    the revealed honest sum and ``n_models`` x ``n_noise`` enumerated points."""
    return PrivacyResult(0.0, True, n_cells, n_models, n_noise)


def _enumerate(summary: str, *cases) -> Callable[[], str]:
    """A check that enumerates each (label, case, expected result) and
    requires exactly the result the case has always had."""

    def check() -> str:
        points = 0
        for label, case, expected in cases:
            got = privacy_bruteforce(case)
            assert got == expected, f"{label}: got {got}, expected {expected}"
            points += got.n_points
        return f"{summary} ({points} points enumerated)"

    return check


SUITES: dict[str, dict[str, Callable[[], str]]] = {
    "examples": {
        "single-group-worked-example": lambda: _check_example(
            example_single_group_config(),
            r_server=Fraction(11, 9),
            r_user_max=Fraction(4, 3),
            edges=78,
            silent=12,
            silenced=[],
        ),
        # the dropped user's slot-mate in the group above is silenced
        "two-group-worked-example": lambda: _check_example(
            example_two_group_config(),
            r_server=Fraction(5, 3),
            r_user_max=Fraction(2, 1),
            edges=42,
            silent=7,
            silenced=[8],
        ),
    },
    "formulas": {
        "load-and-edge-formulas-24-users": _check_load_formulas_24,
        "max-partition-operating-point": _check_max_partition_point,
        "asymptotic-regime-loads": _check_asymptotic_regime,
        "delay-closed-forms": _check_delay_formulas,
    },
    "correctness": {
        "randomized-recovery-vs-plain-sum": _check_randomized_recovery,
        "tree-shape-invariance": _check_tree_invariance,
        "dropout-budget-boundary": _check_dropout_boundary,
    },
    "privacy": {
        "collusion-view-independence-4-users": _enumerate(
            "MI exactly 0 for all 4 collusion positions",
            *[(f"adversary at user {a}", _case_4_users(a), _private(5, 5**3, 5**3))
              for a in range(4)],
        ),
        "collusion-view-independence-6-users": _enumerate(
            "MI exactly 0 for leaf and last-group colluders",
            *[(f"adversary at user {a}", _case_6_users(a), _private(36, 2**10, 7**5))
              for a in (0, 4)],
        ),
        "nonzero-colluder-data": _enumerate(
            "MI exactly 0 with non-zero colluder model and noise",
            ("colluder model 3, noise 2",
             _case_4_users(1, adversary_model_value=3, adversary_noise_value=2),
             _private(5, 5**3, 5**3)),
        ),
        # 5 honest copies of one model over GF(5): the revealed sum 5w is 0,
        # so every assignment lands in one conditioning cell and the view
        # histograms must still collapse to one distribution
        "correlated-honest-models": _enumerate(
            "MI exactly 0 when every honest model is one duplicated draw",
            ("duplicated honest models",
             PrivacyCase(n_users=6, t_max=1, d_max=0, k_parts=1, prime=5, adversaries=(2,),
                         model_coupling=COUPLING_ALL_EQUAL),
             _private(1, 5, 5**5)),
        ),
        # T=0 leaves no noise to enumerate
        "server-only-view": _enumerate(
            "server-only view reveals nothing beyond the sum even with T=0",
            ("server-only view",
             PrivacyCase(n_users=4, t_max=0, d_max=0, k_parts=2, prime=5, adversaries=(),
                         model_bound=2),
             _private(25, 2**8, 1)),
        ),
        # with dead noise the 4-user colluder reads its neighbour's model
        # entry; given the revealed sum the other two stay hidden, so the
        # leak is one uniform GF(5) symbol, log2(5) bits
        "broken-rng-negative-control": _enumerate(
            "constant noise detected as a positive leak",
            ("4 users, constant noise", _case_4_users(0, noise_mode=NOISE_CONSTANT),
             PrivacyResult(2.3219280948873613, False, 5, 5**3, 1)),
            ("6 users, constant noise", _case_6_users(0, noise_mode=NOISE_CONSTANT),
             PrivacyResult(2.5810280145352182, False, 36, 2**10, 1)),
        ),
    },
}


def run_suite(name: str) -> list[CheckResult]:
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}"
        ) from None
    return [run_check(check, fn) for check, fn in suite.items()]
