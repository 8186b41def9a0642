"""Acceptance gate: one test per criterion, each with its runtime budget.

Run with ``pytest -v tests/test_acceptance.py`` to get one PASS/FAIL line
per criterion; with ``-s`` each also prints a summary line with its
measured elapsed time.
"""

import math
import time
from fractions import Fraction
from random import Random

import pytest

from rampagg.errors import TooManyDropouts
from rampagg.field import horner, lagrange_coefficients
from rampagg.harness import (
    RunConfig,
    correctness_oracle,
    generate_models,
    plain_sum,
    simulate,
)
from rampagg.privacy import NOISE_CONSTANT, PrivacyCase, privacy_bruteforce
from rampagg.protocol import DropoutPlan, derive_seed, run_protocol
from rampagg.sharing import Model
from rampagg.topology import SERVER, DelayModel, build_tree, total_delay

from oracles import is_prime_naive, solve_vandermonde


def _within(budget_s):
    """Context manager asserting the block finishes inside its time budget."""

    class Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            self.elapsed = time.perf_counter() - self.start
            if exc_type is None:
                assert self.elapsed < budget_s, (
                    f"budget {budget_s}s exceeded: took {self.elapsed:.2f}s"
                )
            return False

    return Timer()


def _report(num, label, timer):
    print(f"ACCEPTANCE {num:02d} PASS [{label}] ({timer.elapsed:.2f}s)")


def test_criterion_01_single_group_example():
    with _within(1.0) as timer:
        config = RunConfig(
            n_users=12, t_max=2, d_max=1, k_parts=9, model_len=9, entry_bound=8,
            dropped=(2,), master_seed=2024,
        )
        report, result = simulate(config)
        assert report.loads.r_server == Fraction(11, 9)
        assert report.loads.r_user_max == Fraction(4, 3)
        assert report.total_edges == 78
        assert report.silent_edges == 12
        models = generate_models(config)
        assert list(report.aggregate) == plain_sum(models, set(range(12)) - {2})
    _report(1, "single-group worked example", timer)


def test_criterion_02_two_group_example():
    with _within(1.0) as timer:
        config = RunConfig(
            n_users=12, t_max=2, d_max=1, k_parts=3, model_len=9, entry_bound=8,
            dropped=(2,), master_seed=2024,
        )
        report, result = simulate(config)
        assert report.loads.r_server == Fraction(5, 3)
        assert report.loads.r_user_max == Fraction(2)
        assert report.total_edges == 42
        assert report.silent_edges == 7
        models = generate_models(config)
        assert list(report.aggregate) == plain_sum(models, set(range(12)) - {2})
        # the dropped user's slot mate upstream is the one silenced
        from rampagg.protocol import UserStatus

        assert result.status[8] == UserStatus.SILENCED
    _report(2, "two-group worked example", timer)


def test_criterion_03_load_formulas_sweep():
    with _within(10.0) as timer:
        n = 24
        checked = 0
        for t_max, d_max in ((1, 0), (1, 1), (2, 0), (2, 1)):
            for k in range(1, n - t_max - d_max + 1):
                if n % (k + t_max + d_max) != 0:
                    continue
                dropped = tuple(range(n - 1, n - 1 - d_max, -1))
                config = RunConfig(
                    n_users=n, t_max=t_max, d_max=d_max, k_parts=k,
                    model_len=k, entry_bound=4, dropped=dropped,
                    master_seed=k + 10 * t_max + 100 * d_max,
                )
                report, _ = simulate(config)
                # loads are measured purely from the transcript
                assert report.loads.r_server == Fraction(k + t_max, k), (
                    f"T={t_max} D={d_max} K={k}"
                )
                assert report.total_edges == n * (k + t_max + d_max + 1) // 2
                assert report.total_edges == report.edges_formula
                checked += 1
        assert checked == 24  # 7 + 6 + 6 + 5 valid K values
    _report(3, "closed-form loads at 24 users", timer)


def test_criterion_04_max_partition_point():
    with _within(10.0) as timer:
        for n in (12, 24, 60):
            k = n - 3
            config = RunConfig(
                n_users=n, t_max=2, d_max=1, k_parts=k, model_len=k,
                entry_bound=256, dropped=(n - 1,), master_seed=n,
            )
            report, _ = simulate(config)
            assert report.loads.r_server == 1 + Fraction(2, k)
            # independent scan for the smallest prime in (255N, 510N]
            low = 255 * n
            expected_prime = next(
                c for c in range(low + 1, 2 * low + 1) if is_prime_naive(c)
            )
            assert report.prime == expected_prime
            assert report.bits_per_symbol == math.ceil(math.log2(expected_prime))
    _report(4, "operating point K = N-T-D", timer)


def test_criterion_05_randomized_recovery():
    with _within(60.0) as timer:
        combos = [
            (12, 2, 1, 3, 10),
            (12, 2, 1, 9, 9),
            (24, 3, 1, 4, 10),
        ]
        total = 0
        for n, t_max, d_max, k, length in combos:
            for shape in ("chain", "star"):
                config = RunConfig(
                    n_users=n, t_max=t_max, d_max=d_max, k_parts=k,
                    model_len=length, entry_bound=16, tree_shape=shape,
                    master_seed=n * 1000 + k,
                )
                summary = correctness_oracle(config, trials=168)
                assert summary.passed, summary.failures[:3]
                total += summary.trials
        assert total >= 1000
    _report(5, f"{1008} randomized recoveries", timer)


def test_criterion_06_tree_shape_invariance():
    with _within(30.0) as timer:
        irregular = {0: 4, 1: 4, 2: 5, 3: 5, 4: 5, 5: SERVER}
        shapes = ["chain", "star", irregular]
        for trial in range(100):
            dropped = (trial % 24,) if trial % 2 else ()
            aggregates = []
            for shape in shapes:
                config = RunConfig(
                    n_users=24, t_max=2, d_max=1, k_parts=1, model_len=6,
                    entry_bound=16, tree_shape=shape, dropped=dropped,
                    master_seed=5000 + trial,
                )
                report, _ = simulate(config)
                aggregates.append(list(report.aggregate))
            assert aggregates[0] == aggregates[1] == aggregates[2], trial
    _report(6, "tree-shape invariance, 100 model sets", timer)


def test_criterion_07_privacy_matrix():
    with _within(300.0) as timer:
        # full-field instance: every collusion position
        for adversary in range(4):
            result = privacy_bruteforce(
                PrivacyCase(
                    n_users=4, t_max=1, d_max=0, k_parts=1, prime=5,
                    adversaries=(adversary,),
                )
            )
            assert result.exact_zero, f"position {adversary}: {result.mi_bits}"
        # two-segment instance: leaf colluder and last-group colluder
        for adversary in (0, 4):
            result = privacy_bruteforce(
                PrivacyCase(
                    n_users=6, t_max=1, d_max=0, k_parts=2, prime=7,
                    adversaries=(adversary,), model_bound=2,
                )
            )
            assert result.exact_zero, f"position {adversary}: {result.mi_bits}"
        # negative control: degenerate noise must be flagged as a leak
        leak = privacy_bruteforce(
            PrivacyCase(
                n_users=4, t_max=1, d_max=0, k_parts=1, prime=5,
                adversaries=(0,), noise_mode=NOISE_CONSTANT,
            )
        )
        assert not leak.exact_zero
        assert leak.mi_bits > 0
    _report(7, "exhaustive privacy matrix", timer)


def test_criterion_08_interpolation_oracle():
    with _within(5.0) as timer:
        rng = Random(424242)
        primes = [13, 101, 997, 10007]
        for trial in range(200):
            p = rng.choice(primes)
            n = rng.randrange(1, min(14, p))  # degree <= 12
            xs = rng.sample(range(p), n)
            ys = [rng.randrange(p) for _ in range(n)]
            got = lagrange_coefficients(xs, ys, p)
            expected = solve_vandermonde(xs, ys, p)
            assert got == expected, f"trial {trial}"
            assert all(horner(got, x, p) == y % p for x, y in zip(xs, ys))
    _report(8, "200 interpolation oracle instances", timer)


def test_criterion_09_dropout_budget_boundary():
    with _within(10.0) as timer:
        config = RunConfig(
            n_users=12, t_max=2, d_max=1, k_parts=9, model_len=9, entry_bound=8,
        )
        params, tree, ctx = config.resolve()
        rng = Random(derive_seed(31, "acceptance-boundary"))
        for trial in range(50):
            models = [
                Model(tuple(rng.randrange(8) for _ in range(9))) for _ in range(12)
            ]
            over_budget = frozenset(rng.sample(range(12), 2))  # D+1 distinct slots
            with pytest.raises(TooManyDropouts):
                run_protocol(ctx, params, tree, models, DropoutPlan(over_budget))
            at_budget = frozenset(rng.sample(range(12), 1))
            result = run_protocol(ctx, params, tree, models, DropoutPlan(at_budget))
            assert list(result.aggregate) == plain_sum(
                models, set(range(12)) - at_budget
            )
    _report(9, "budget boundary, 50 + 50 trials", timer)


def test_criterion_10_delay_formulas():
    with _within(1.0) as timer:
        for inter, intra in ((1, 3), (5, 2), (2, 0)):
            delays = DelayModel(inter=inter, intra=intra)
            assert total_delay(build_tree(7, "star"), delays) == 2 * inter + intra
            assert total_delay(build_tree(7, "chain"), delays) == 7 * inter + intra
    _report(10, "delay closed forms", timer)
