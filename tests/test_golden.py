"""Golden outputs and the int64/object boundary of the round's arrays.

The digests pin ``report.json`` and ``transcript.csv`` byte for byte over a
matrix that covers both worked examples, the benchmark's round shapes, an
irregular tree, a non-conforming prime and an entry bound that takes the
object-dtype path.

:data:`GOLDEN` was generated by the object-per-user round, with models and
noise drawn one ``randrange`` per entry.  Those streams are injected from
the test oracles in place of the round's own streams, which a simulated
round draws a block at a time, to show that the round itself did not
change when the array round replaced that one, when bulk drawing replaced
the streams, nor when the streamed round replaced the coefficient array.
:data:`GOLDEN_BULK` pins the same matrix with the program's own bulk
streams.  After a deliberate, logged change to the streams, regenerate it
with ``PYTHONPATH=src python tests/test_golden.py``.

:data:`VIEW_GOLDEN` pins what colluders and the server receive
(``collect_adversary_view``) on rounds with drawn inputs, with object
entries, with a between-rounds dropout, and on one call shaped as the
exhaustive privacy checker makes it: given models on a runs axis over an
enumerated noise batch.
"""

import hashlib
import io

import numpy as np
import pytest

from rampagg import protocol
from rampagg.field import FieldContext
from rampagg.harness import RunConfig, collect_adversary_view, plain_sum, simulate
from rampagg.privacy import PrivacyCase, _build_models, _build_noise
from rampagg.protocol import DropoutPlan, UserStatus, run_protocol
from rampagg.sharing import field_dtype
from rampagg.topology import build_tree, make_params
from rampagg.verify import example_single_group_config, example_two_group_config

from oracles import models_randrange_naive, noise_randrange_naive


def _round_wide(seed: int) -> RunConfig:
    return RunConfig(
        n_users=120, t_max=2, d_max=1, k_parts=9, model_len=999, entry_bound=256,
        tree_shape="chain", dropped=(2,), master_seed=seed,
    )


def _sweep_deep(k_parts: int, shape: str) -> RunConfig:
    return RunConfig(
        n_users=2400, t_max=1, d_max=1, k_parts=k_parts, model_len=12,
        entry_bound=256, tree_shape=shape, dropped=(1200,),
        dropout_timing="between_rounds", master_seed=7,
    )


CONFIGS = {
    "example-single-group": example_single_group_config(),
    "example-two-group": example_two_group_config(),
    "round-wide-seed1": _round_wide(1),
    "round-wide-seed2": _round_wide(2),
    **{
        f"sweep-deep-k{k}-{shape}": _sweep_deep(k, shape)
        for k in (1, 2, 4)
        for shape in ("chain", "star")
    },
    "irregular-tree-dropout": RunConfig(
        n_users=24, t_max=2, d_max=1, k_parts=1, model_len=6, entry_bound=16,
        tree_shape={0: 4, 1: 4, 2: 5, 3: 5, 4: 5, 5: "server"}, dropped=(9,),
        master_seed=11,
    ),
    "non-conforming-prime": example_two_group_config().replace(prime_override=1009),
    "entry-bound-2-31": RunConfig(
        n_users=12, t_max=2, d_max=1, k_parts=3, model_len=10, entry_bound=2**31,
        dropped=(4,), master_seed=3,
    ),
}

# name -> (sha256 of report.json, sha256 of transcript.csv), per-entry streams
GOLDEN = {
    "example-single-group": ("8fe33ee074a3b6d1b64cc0d8362ebc70bbe5304a782ae094f4cb545482ba58af", "aa909311d00ef0928593376281325cc58e2a7079c561310195fef8ffc3b52ea7"),
    "example-two-group": ("df72d54859243dfc5cc6181e89090d232ef3e824066ad3b37fefc84d0e52d03d", "33dfadc97c005f1c8aad3e3b702cbd2095abe0bc44bccf4fe732a7a7ee761f17"),
    "round-wide-seed1": ("9857f81681c8ad0b04b630731f03fda9a7b0f5fe152722fedf6420a282bf3d37", "29c945f6336c4fc6f707c0b8eca616f84c25c536e8e51b278720009e1e7d77b3"),
    "round-wide-seed2": ("b44ff04f36a804a6925da4f4aa9f72699aec71c003e18ac3a0985b9452d62d3a", "29c945f6336c4fc6f707c0b8eca616f84c25c536e8e51b278720009e1e7d77b3"),
    "sweep-deep-k1-chain": ("e7504ac75dbdfc2e4b5190b6826341023021b818c11c49f8ff2722738bab402f", "bd50bbd23889c73023e4a6dde7417a9a8c1708c8f0ec627c89cda6b997f554b0"),
    "sweep-deep-k1-star": ("b462609efec507e7735d355d46c3cb42af6dfb5b7071a2ebdc8c0bf6645190ec", "2cde22ca4ecb0aa559c482d6eba2799f438ec4ad7081bcdab444d1883e087599"),
    "sweep-deep-k2-chain": ("7f85263ae8a642a61bf9f03e7c73155b9418b3e8134e32314958a1fcfa9e3a22", "4703cb3b1c811218c2544d02a7f0d1a79428fdfd40ad2fff923e59fd3131122d"),
    "sweep-deep-k2-star": ("a2733fb3768b2e02204037e30e2fceb5ebb132ff3df19a052196321f2ca10972", "b34c982510a7cd5d01c9637b071b846b6ceec54a954ac430103499b7683c6cdb"),
    "sweep-deep-k4-chain": ("88c54daaf7c0c424f88e64c0daa588649f46a3fdd1780df51e647fbeb6ff5940", "c34cb0828e19ff3dac50c50d71001de61246a20a34334c636d2d8c06f192048f"),
    "sweep-deep-k4-star": ("cccc19afc9d353eea249f398bc31566266d69667c45959a8ca7a74bd83ee8841", "29db3983fb9795e5d2d556644554db3b4d73d91f6f6fd239015d99b51f7f73fa"),
    "irregular-tree-dropout": ("f5e07f8940d1c3a97ef459fb118ec36df4979074cba1c80f9e2898ef23559abc", "670b398b8a1a8b1530b195fa8c9f0006ec49979a84bcd13a91537b51b2e612fb"),
    "non-conforming-prime": ("45f775db4743738a29e44510f38ca548a38818cf4ebc36b3053c97d561ee6d99", "33dfadc97c005f1c8aad3e3b702cbd2095abe0bc44bccf4fe732a7a7ee761f17"),
    "entry-bound-2-31": ("ee2fa2ca2c9e0db72b51910c97326adaba919bd6edd36908a64baf811d853647", "0f59e57232a53804965b02accefcd19db782b2cb5731393869f9ea8620a61374"),
}


# the same pairs with the bulk streams: one stream each for models and noise
GOLDEN_BULK = {
    "entry-bound-2-31": ("fe21390c99b38299099527bbea28310b50364d295a3daf6601755dfd6286c319", "0f59e57232a53804965b02accefcd19db782b2cb5731393869f9ea8620a61374"),
    "example-single-group": ("f2100bfcdfa65269a1fa36258860a2d187f5bf57cf63cef9e57029e297767e63", "aa909311d00ef0928593376281325cc58e2a7079c561310195fef8ffc3b52ea7"),
    "example-two-group": ("2550896d2cda49383b56dc3e04073ef8071f3154a0a7a3dea2cafbfa7c01a05e", "33dfadc97c005f1c8aad3e3b702cbd2095abe0bc44bccf4fe732a7a7ee761f17"),
    "irregular-tree-dropout": ("eb6339a43c0319b202885e704e067e64b951a070ce73f8ba74d9aae2731d487a", "670b398b8a1a8b1530b195fa8c9f0006ec49979a84bcd13a91537b51b2e612fb"),
    "non-conforming-prime": ("b9a39bd961624f3f8cab7a4440f33273ee28d6ce04dc95e5341f68558727496e", "33dfadc97c005f1c8aad3e3b702cbd2095abe0bc44bccf4fe732a7a7ee761f17"),
    "round-wide-seed1": ("7bc8162791b3407bb7586c71baaf232ab85916072bd707bac3c738f1c81f81d3", "29c945f6336c4fc6f707c0b8eca616f84c25c536e8e51b278720009e1e7d77b3"),
    "round-wide-seed2": ("8fa2ccdd450d3eb9864e5fcbb6b14397a551fc97efa8f5eaf6c7c92dcc3e4d67", "29c945f6336c4fc6f707c0b8eca616f84c25c536e8e51b278720009e1e7d77b3"),
    "sweep-deep-k1-chain": ("e789a2b8ff8b03026c99e9ce7edd5482920b1d804bf347e661c4798740c67f48", "bd50bbd23889c73023e4a6dde7417a9a8c1708c8f0ec627c89cda6b997f554b0"),
    "sweep-deep-k1-star": ("f0d451f41634c9442294f7411a9cf2266faab35ca781f701ec36086e8f0b2e98", "2cde22ca4ecb0aa559c482d6eba2799f438ec4ad7081bcdab444d1883e087599"),
    "sweep-deep-k2-chain": ("29da31594270783d2faf74a58a9bf4e79120ddecffd42f35d38fc333e1cdcebf", "4703cb3b1c811218c2544d02a7f0d1a79428fdfd40ad2fff923e59fd3131122d"),
    "sweep-deep-k2-star": ("a66c514ddb701142c8658fc24bb1fbd7f9c04bd46a12a0383c5f3460a01f9613", "b34c982510a7cd5d01c9637b071b846b6ceec54a954ac430103499b7683c6cdb"),
    "sweep-deep-k4-chain": ("cbada560519c694226f8232ee0e121034375dd771a4120641b9ceaa3198ae4c3", "c34cb0828e19ff3dac50c50d71001de61246a20a34334c636d2d8c06f192048f"),
    "sweep-deep-k4-star": ("01c364f647f16e5eaef9f409c355ad7344377657f937c446afe52481ece66063", "29db3983fb9795e5d2d556644554db3b4d73d91f6f6fd239015d99b51f7f73fa"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(config: RunConfig) -> tuple[str, str]:
    report, result = simulate(config)
    buf = io.StringIO()
    result.transcript.to_csv(buf)
    return _sha256(report.to_json()), _sha256(buf.getvalue())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_digests(name, monkeypatch):
    monkeypatch.setattr(protocol, "model_stream", models_randrange_naive)
    monkeypatch.setattr(protocol, "noise_stream", noise_randrange_naive)
    assert _digests(CONFIGS[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_bulk_stream_outputs_match_golden_digests(name):
    assert _digests(CONFIGS[name]) == GOLDEN_BULK[name]


def test_golden_matrix_covers_the_object_dtype_path():
    _, result = simulate(CONFIGS["entry-bound-2-31"])
    assert result.blocks([0]).dtype == object


# 2**31 - 1 is the largest prime p with 2 * (p-1)**2 < 2**63, 2**31 + 11 the
# smallest above it; K+T = 2 below.
@pytest.mark.parametrize(
    "prime,dtype", [(2**31 - 1, np.int64), (2**31 + 11, object)]
)
@pytest.mark.parametrize("dropped", [(), (1,)])
def test_int64_bound_both_sides_sum_exactly(prime, dtype, dropped):
    config = RunConfig(
        n_users=6, t_max=1, d_max=1, k_parts=1, model_len=5, entry_bound=2**20,
        dropped=dropped, prime_override=prime, master_seed=prime,
    )
    assert field_dtype(prime, 2) == dtype
    report, result = simulate(config)
    assert result.blocks([0]).dtype == dtype
    assert result.sums.dtype == dtype
    if dropped:
        assert (result.status == UserStatus.SILENCED).sum() == 1
    models = protocol.draw_models(result.params, config.master_seed)
    expected = plain_sum(models, result.took_part)
    assert report.aggregate == expected
    assert all(type(v) is int for v in report.aggregate)


def _privacy_call():
    """One protocol call as ``privacy_bruteforce`` makes it for a 6-user
    K=2 case over GF(5): three model assignments on a runs axis, over the
    3125-point noise enumeration broadcast to each run."""
    case = PrivacyCase(
        n_users=6, t_max=1, d_max=0, k_parts=2, prime=5, adversaries=(0,), model_bound=2
    )
    honest = [1, 2, 3, 4, 5]
    params = make_params(6, 1, 0, 2, model_len=2, entry_bound=2)
    noise = _build_noise(case, honest, 5**5)
    assignments = [(0,) * 10, (0, 1) * 5, (1,) * 10]
    models = np.stack([_build_models(case, honest, w, 5) for w in assignments], -1)
    batched = np.broadcast_to(noise[:, :, :, None], noise.shape[:3] + (3, 5**5))
    tree = build_tree(params.num_groups, "chain")
    plan = DropoutPlan(frozenset())
    return run_protocol(FieldContext(5, 2, 6), params, tree, models[..., None], plan, noise=batched)


# name -> (the round's result, made when the test runs, and its colluders)
VIEW_CASES = {
    "readme-example": (lambda: simulate(example_two_group_config())[1], (0, 6)),
    "round-wide-seed1": (lambda: simulate(_round_wide(1))[1], (3, 115)),
    "entry-bound-2-31": (lambda: simulate(CONFIGS["entry-bound-2-31"])[1], (1, 11)),
    "between-rounds-dropout": (
        lambda: simulate(example_two_group_config().replace(dropout_timing="between_rounds"))[1],
        (2, 8),
    ),
    "privacy-batched-call": (_privacy_call, (0,)),
}

# name -> (shape, dtype, sha256 of the view's bytes: its buffer for int64,
# the decimal text of its entries for object arrays, whose buffer holds
# pointers)
VIEW_GOLDEN = {
    "between-rounds-dropout": ((15, 3), 'int64', '2bebd9d21a94272d20a51f18a89e5a7a82841966adb7a21d6c74c4eaef01410d'),
    "entry-bound-2-31": ((15, 4), 'object', 'ddc7b17afe8b6d56e4163ece69e8d3e8011ee5a3f3c0115558e6f5da44b9bd50'),
    "privacy-batched-call": ((5, 1, 3, 3125), 'int64', 'd1bfee21e185bc58ec43d464e95d101ece7ee526f1af8c27b9b3ae86c551b43e'),
    "readme-example": ((15, 3), 'int64', '8d48f953e3ecd0c5c5670fb44f9b2801ba285735b03a389cd9461818afecb6dd'),
    "round-wide-seed1": ((33, 111), 'int64', '3410983a5032518301ea0c39ba05d5bdd1921f899f6ff0ce6c709d34354b437c'),
}


def _view_digest(name: str) -> tuple:
    make, adversaries = VIEW_CASES[name]
    view = collect_adversary_view(make(), adversaries)
    data = str(view.tolist()).encode() if view.dtype == object else view.tobytes()
    return view.shape, str(view.dtype), hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(VIEW_CASES))
def test_adversary_views_match_golden_digests(name):
    assert _view_digest(name) == VIEW_GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN_BULK = {")
    for name in sorted(CONFIGS):
        report_digest, csv_digest = _digests(CONFIGS[name])
        print(f'    "{name}": ("{report_digest}", "{csv_digest}"),')
    print("}")
    print("VIEW_GOLDEN = {")
    for name in sorted(VIEW_CASES):
        print(f'    "{name}": {_view_digest(name)!r},')
    print("}")
