"""Exhaustive privacy enumeration: exact zeros, leak detection, encoding,
agreement with the one-run-per-assignment oracle, and the affinity guards."""

import dataclasses
from functools import reduce

import numpy as np
import pytest

from rampagg import privacy
from rampagg.errors import RampAggError, SearchSpaceTooLarge
from rampagg.privacy import (
    COUPLING_ALL_EQUAL,
    NOISE_CONSTANT,
    PrivacyCase,
    _key_weights,
    privacy_bruteforce,
)

from oracles import privacy_bruteforce_naive


def case_4_users(adversary=0, **overrides) -> PrivacyCase:
    kwargs = dict(
        n_users=4, t_max=1, d_max=0, k_parts=1, prime=5, adversaries=(adversary,),
    )
    kwargs.update(overrides)
    return PrivacyCase(**kwargs)


def assert_result(result, exact_zero, n_cells, n_points, mi_bits):
    """Pin a result's fields to the values this case has always produced."""
    assert (result.exact_zero, result.n_cells, result.n_points) == (
        exact_zero, n_cells, n_points
    )
    assert result.mi_bits == mi_bits


# ---- cases no verify check enumerates ----
# (the collusion positions, correlated models, the server-only view, the
# 6-user case and both constant-noise controls are rampagg.verify's
# privacy suite, run by acceptance criterion 07)


def test_privacy_holds_with_nonzero_adversary_data():
    case = case_4_users(1, adversary_model_value=4, adversary_noise_value=3)
    assert_result(privacy_bruteforce(case), True, 5, 15625, 0.0)


def test_privacy_holds_with_a_dropped_user():
    # dropping user 3 makes that server stream a constant null in the view
    case = PrivacyCase(
        n_users=6, t_max=1, d_max=1, k_parts=1, prime=7, adversaries=(0,),
        dropped=(3,), model_bound=3,
    )
    result = privacy_bruteforce(case)
    assert result.n_model_assignments == 3**4  # 4 honest model symbols
    assert_result(result, True, 7, 194481, 0.0)


# ---- budget ----


def test_budget_overflow_raises():
    with pytest.raises(SearchSpaceTooLarge):
        privacy_bruteforce(case_4_users(budget=100))


def test_full_field_two_segment_case_exceeds_default_budget():
    case = PrivacyCase(
        n_users=6, t_max=1, d_max=0, k_parts=2, prime=7, adversaries=(0,),
        model_bound=None,  # 7^10 model assignments alone
    )
    with pytest.raises(SearchSpaceTooLarge):
        privacy_bruteforce(case)


# ---- case validation ----


def test_case_rejects_too_many_colluders():
    with pytest.raises(ValueError, match="colluders"):
        PrivacyCase(
            n_users=4, t_max=1, d_max=0, k_parts=1, prime=5, adversaries=(0, 1),
        )


@pytest.mark.parametrize(
    "n_users,t_max,adversaries,dropped,field",
    [
        (6, 1, (-1,), (5,), "adversaries"),  # -1 would wrap to dropped user 5
        (4, 1, (9,), (), "adversaries"),
        (4, 2, (2, 2), (), "adversaries"),
        (4, 1, (0,), (4,), "dropped"),
        (6, 1, (0,), (3, 3), "dropped"),
    ],
)
def test_case_rejects_users_outside_the_population_or_listed_twice(
    n_users, t_max, adversaries, dropped, field
):
    with pytest.raises(ValueError, match=f"^{field}: "):
        PrivacyCase(
            n_users=n_users, t_max=t_max, d_max=1, k_parts=1, prime=5,
            adversaries=adversaries, dropped=dropped, model_bound=2,
        )


@pytest.mark.parametrize(
    "overrides,field",
    [
        (dict(model_bound=0), "model_bound"),  # enumerates nothing
        (dict(model_bound=1), "model_bound"),  # one assignment per cell
        (dict(model_bound=9), "model_bound"),  # entries alias mod 5
        (dict(adversary_model_value=7), "adversary_model_value"),
        (dict(adversary_model_value=-1), "adversary_model_value"),
        (dict(adversary_noise_value=5), "adversary_noise_value"),
    ],
)
def test_case_rejects_vacuous_or_aliasing_values(overrides, field):
    with pytest.raises(ValueError, match=f"^{field}: "):
        case_4_users(**overrides)


def test_case_rejects_unknown_modes():
    with pytest.raises(ValueError, match="noise_mode"):
        case_4_users(noise_mode="lava_lamp")
    with pytest.raises(ValueError, match="model_coupling"):
        case_4_users(model_coupling="entangled")


# ---- determinism ----


def test_bruteforce_is_deterministic():
    # a leaking case, so the float MI is compared too
    a = privacy_bruteforce(case_4_users(1, noise_mode=NOISE_CONSTANT))
    b = privacy_bruteforce(case_4_users(1, noise_mode=NOISE_CONSTANT))
    assert a == b
    assert_result(a, False, 5, 125, 2.3219280948873613)


# ---- the linear enumeration against one run per assignment ----

DROPPED_CHAIN = PrivacyCase(
    n_users=6, t_max=1, d_max=1, k_parts=1, prime=7, adversaries=(4,), dropped=(1,),
    model_bound=3,
)
# three groups, so the star (groups 0 and 1 both children of group 2) is
# not the chain
DROPPED_STAR = PrivacyCase(
    n_users=9, t_max=1, d_max=1, k_parts=1, prime=5, adversaries=(1,), dropped=(3,),
    model_bound=2, tree_shape="star", noise_mode=NOISE_CONSTANT,
)
SIX_USERS = PrivacyCase(
    n_users=6, t_max=1, d_max=0, k_parts=2, prime=5, adversaries=(0,), model_bound=2,
)
CORRELATED = PrivacyCase(
    n_users=6, t_max=1, d_max=0, k_parts=1, prime=5, adversaries=(2,),
    model_coupling=COUPLING_ALL_EQUAL,
)


@pytest.mark.parametrize(
    "case",
    [case_4_users(a) for a in range(4)]
    + [
        case_4_users(0, noise_mode=NOISE_CONSTANT),
        dataclasses.replace(SIX_USERS, prime=7, noise_mode=NOISE_CONSTANT),
        case_4_users(1, adversary_model_value=3, adversary_noise_value=2),
        CORRELATED,
        PrivacyCase(n_users=4, t_max=0, d_max=0, k_parts=2, prime=5, adversaries=(),
                    model_bound=2),
        DROPPED_CHAIN,
        DROPPED_STAR,
    ],
    ids=[f"4-users-adversary-{a}" for a in range(4)]
    + ["4-users-constant-noise", "6-users-constant-noise", "nonzero-colluder-data",
       "correlated-honest-models", "server-only-view", "dropped-user-chain",
       "dropped-user-star-constant-noise"],
)
def test_linear_enumeration_matches_one_run_per_assignment(case):
    assert privacy_bruteforce(case) == privacy_bruteforce_naive(case)


@pytest.mark.parametrize(
    "case,runs",
    [(SIX_USERS, 1 + 2 * 5 + 1), (CORRELATED, 1 + 1 + 1)],
    ids=["6-users-K=2", "correlated-K=1"],
)
def test_protocol_runs_once_per_model_symbol_plus_two(monkeypatch, case, runs):
    # the zero assignment, one unit per honest model symbol, and the spot check
    calls = []
    run_protocol = privacy.run_protocol
    monkeypatch.setattr(
        privacy, "run_protocol", lambda *a, **kw: calls.append(1) or run_protocol(*a, **kw)
    )
    privacy_bruteforce(case)
    assert len(calls) == runs


def _tamper_first_share(monkeypatch, tamper):
    """Route privacy's view collection through a wrapper that replaces the
    view's first row, an intra share, with ``tamper(share, result)``."""
    collect = privacy.collect_adversary_view

    def tampered(result, adversaries):
        view = collect(result, adversaries)
        view[0] = tamper(view[0], result)
        return view

    monkeypatch.setattr(privacy, "collect_adversary_view", tampered)


def test_a_view_that_is_not_affine_at_every_noise_point_raises(monkeypatch):
    # (m + n x)^2 - (n x)^2 depends on the noise n
    _tamper_first_share(monkeypatch, lambda share, result: share * share % result.ctx.p)
    with pytest.raises(RampAggError, match="model symbol 0 .* every noise point"):
        privacy_bruteforce(case_4_users(0))


def test_a_cross_term_only_the_spot_check_sees_raises(monkeypatch):
    # w1 * w2 vanishes at zero and at every unit assignment, so every column
    # of A is clean; only the all-(bound-1) run shows it
    def cross_term(share, result):
        w1, w2 = result.coeffs[1, 0, 0], result.coeffs[2, 0, 0]
        return (share + w1 * w2) % result.ctx.p

    _tamper_first_share(monkeypatch, cross_term)
    with pytest.raises(RampAggError, match=r"model assignment \(4, 4, 4\)"):
        privacy_bruteforce(case_4_users(0))


# ---- view encoding ----


def _keys(digits, p):
    """One key per column of ``digits``: the base-p number they spell,
    most significant first, packed as privacy_bruteforce packs a view."""
    weights = _key_weights(len(digits), p)
    return weights @ np.array(digits).astype(weights.dtype)


def test_encode_view_packs_base_p_int64():
    keys = _keys([[3], [1], [4]], p=5)
    assert keys.dtype == np.int64
    assert keys.tolist() == [(3 * 5 + 1) * 5 + 4]


def test_encode_view_wide_path_matches_exact_arithmetic():
    # 25 components * 3 bits/symbol > 62: forces the object-dtype path
    values = [i % 5 for i in range(25)]
    keys = _keys([[v] for v in values], p=5)
    assert keys.dtype == object
    expected = reduce(lambda acc, c: acc * 5 + c, values, 0)
    assert keys.tolist() == [expected]
    # stability across calls: same input, same key
    assert _keys([[v] for v in values], p=5).tolist() == keys.tolist()


def test_encode_view_narrow_and_wide_paths_agree():
    values = [[4], [0], [3], [2], [1]]
    narrow = _keys(values, p=5)
    # same digits interpreted in a base wide enough to force objects
    wide_p = 2**31
    wide = _keys(values, p=wide_p)
    assert narrow.dtype == np.int64 and wide.dtype == object
    assert narrow.tolist() == [reduce(lambda a, c: a * 5 + c, [4, 0, 3, 2, 1], 0)]
    assert wide.tolist() == [reduce(lambda a, c: a * wide_p + c, [4, 0, 3, 2, 1], 0)]
