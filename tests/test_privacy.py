"""Exhaustive privacy enumeration: exact zeros, leak detection, encoding,
agreement with the one-run-per-assignment oracle, and the affinity guards."""

import dataclasses
from functools import reduce

import numpy as np
import pytest

from rampagg import privacy
from rampagg.errors import RampAggError, SearchSpaceTooLarge
from rampagg.harness import AdversaryView
from rampagg.privacy import (
    COUPLING_ALL_EQUAL,
    NOISE_CONSTANT,
    PrivacyCase,
    _encode_view,
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
    first intra share of the view with ``tamper(share, result)``."""
    collect = privacy.collect_adversary_view

    def tampered(result, adversaries):
        view = collect(result, adversaries)
        a = min(view.intra_shares)
        shares = dict(view.intra_shares[a])
        first = min(shares)
        shares[first] = tamper(shares[first], result)
        return dataclasses.replace(view, intra_shares={**view.intra_shares, a: shares})

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


def _view(intra_values, server_values, batch=1):
    """A one-colluder view: one intra share holding ``intra_values`` and
    one server message per entry of ``server_values``, each an (S, batch)
    array like the slices of a run."""

    def message(values):
        return np.broadcast_to(np.asarray(values).reshape(len(values), -1), (len(values), batch))

    return AdversaryView(
        intra_shares={0: {1: message(intra_values)}},
        child_messages={0: {}},
        server_messages={2 + i: message((v,)) for i, v in enumerate(server_values)},
        own_coeffs={},
    )


def test_encode_view_packs_base_p_int64():
    view = _view(intra_values=(3, 1), server_values=(4,))
    keys = _encode_view(view, p=5, n_noise=1)
    assert keys.dtype == np.int64
    assert keys.tolist() == [(3 * 5 + 1) * 5 + 4]


def test_encode_view_broadcasts_enumeration_axis():
    view = AdversaryView(
        intra_shares={0: {1: np.array([[1, 2, 3]])}},  # varies along the axis
        child_messages={0: {}},
        server_messages={2: np.array([[4, 4, 4]])},  # constant along it
        own_coeffs={},
    )
    keys = _encode_view(view, p=5, n_noise=3)
    assert keys.tolist() == [1 * 5 + 4, 2 * 5 + 4, 3 * 5 + 4]
    # a view without noise to enumerate (batch axis 1) repeats its one key
    constant = _view(intra_values=(1,), server_values=(4,))
    assert _encode_view(constant, p=5, n_noise=3).tolist() == [1 * 5 + 4] * 3


def test_encode_view_skips_null_messages():
    base = _view(intra_values=(2,), server_values=(3,))
    with_null = AdversaryView(
        intra_shares=base.intra_shares,
        child_messages={0: {5: None}},
        server_messages={**base.server_messages, 7: None},
        own_coeffs={},
    )
    assert _encode_view(base, 5, 1).tolist() == _encode_view(with_null, 5, 1).tolist()


def test_encode_view_wide_path_matches_exact_arithmetic():
    # 25 components * 3 bits/symbol > 62: forces the object-dtype path
    values = tuple(i % 5 for i in range(25))
    view = _view(intra_values=values, server_values=())
    keys = _encode_view(view, p=5, n_noise=1)
    assert keys.dtype == object
    expected = reduce(lambda acc, c: acc * 5 + c, values, 0)
    assert keys.tolist() == [expected]
    # stability across calls: same input, same key
    again = _encode_view(view, p=5, n_noise=1)
    assert keys.tolist() == again.tolist()


def test_encode_view_narrow_and_wide_paths_agree():
    values = (4, 0, 3, 2, 1)
    narrow = _encode_view(_view(values, ()), p=5, n_noise=1)
    # same digits interpreted in a base wide enough to force objects
    wide_p = 2**31
    wide = _encode_view(_view(values, ()), p=wide_p, n_noise=1)
    assert narrow.dtype == np.int64 and wide.dtype == object
    assert narrow.tolist() == [reduce(lambda a, c: a * 5 + c, values, 0)]
    assert wide.tolist() == [reduce(lambda a, c: a * wide_p + c, values, 0)]
