"""Acceptance gate: one test per criterion, each with its time budget.

Each row runs named checks of ``rampagg.verify`` (what ``rampagg verify``
prints), plus a test-only oracle from ``tests/oracles.py`` where one is
needed.  ``pytest -v`` prints one line per criterion; ``-s`` also prints
each criterion's summary line with its elapsed time.
"""

from random import Random

import numpy as np

from rampagg.field import field_dtype, inverse_vandermonde, select_prime, vandermonde
from rampagg.verify import SUITES, run_check

from oracles import is_prime_naive, solve_vandermonde

CHECKS = {name: check for suite in SUITES.values() for name, check in suite.items()}


def _smallest_primes_match_naive_scan():
    for n in (12, 24, 60):
        low = 255 * n
        expected = next(c for c in range(low + 1, 2 * low + 1) if is_prime_naive(c))
        assert select_prime(n, 256).p == expected, f"N={n}"
    return "select_prime agrees with the naive scan"


def _inverse_vandermonde_matches_solver():
    rng = Random(424242)
    primes = [13, 101, 997, 10007]
    for trial in range(200):
        p = rng.choice(primes)
        n = rng.randrange(1, min(14, p))  # degree <= 12
        xs = rng.sample(range(p), n)
        ys = [rng.randrange(p) for _ in range(n)]
        dtype = field_dtype(p, n)
        got = inverse_vandermonde(xs, p, dtype) @ np.array(ys, dtype=dtype) % p
        assert got.tolist() == solve_vandermonde(xs, ys, p), f"trial {trial}"
        at_xs = vandermonde(xs, n, p, dtype) @ got % p
        assert at_xs.tolist() == ys, f"trial {trial}"
    return "200 instances agree"


def criterion(num, label, budget_s, checks=(), oracle=None):
    """A test that runs verify's ``checks`` by name, then ``oracle``, and
    requires each to pass and their summed time to stay under budget."""
    runs = [(name, CHECKS[name]) for name in checks]
    if oracle is not None:
        runs.append((oracle.__name__, oracle))

    def test():
        elapsed = 0.0
        for name, check in runs:
            result = run_check(name, check)
            assert result.passed, f"{name}: {result.detail}"
            elapsed += result.elapsed
        assert elapsed < budget_s, f"budget {budget_s}s exceeded: took {elapsed:.2f}s"
        print(f"ACCEPTANCE {num:02d} PASS [{label}] ({elapsed:.2f}s)")

    test.checks = tuple(checks)
    return test


test_criterion_01_single_group_example = criterion(
    1, "single-group worked example", 1.0, ["single-group-worked-example"]
)
test_criterion_02_two_group_example = criterion(
    2, "two-group worked example", 1.0, ["two-group-worked-example"]
)
test_criterion_03_load_formulas_sweep = criterion(
    3, "closed-form loads at 24 users", 10.0, ["load-and-edge-formulas-24-users"]
)
test_criterion_04_max_partition_point = criterion(
    4, "operating point K = N-T-D", 10.0,
    ["max-partition-operating-point", "asymptotic-regime-loads"],
    oracle=_smallest_primes_match_naive_scan,
)
test_criterion_05_randomized_recovery = criterion(
    5, "1008 randomized recoveries", 60.0, ["randomized-recovery-vs-plain-sum"]
)
test_criterion_06_tree_shape_invariance = criterion(
    6, "tree-shape invariance, 100 model sets", 30.0, ["tree-shape-invariance"]
)
test_criterion_07_privacy_matrix = criterion(
    7, "exhaustive privacy matrix", 300.0, list(SUITES["privacy"])
)
test_criterion_08_interpolation_oracle = criterion(
    8, "200 interpolation oracle instances", 5.0,
    oracle=_inverse_vandermonde_matches_solver,
)
test_criterion_09_dropout_budget_boundary = criterion(
    9, "budget boundary, 50 + 50 trials", 10.0, ["dropout-budget-boundary"]
)
test_criterion_10_delay_formulas = criterion(
    10, "delay closed forms", 1.0, ["delay-closed-forms"]
)


def test_every_verify_check_belongs_to_exactly_one_criterion():
    rows = [test for key, test in globals().items() if key.startswith("test_criterion_")]
    mapped = sorted(name for row in rows for name in row.checks)
    assert mapped == sorted(name for suite in SUITES.values() for name in suite)
