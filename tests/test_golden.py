"""Golden outputs and the int64/object boundary of the round's arrays.

The digests pin ``report.json`` and ``transcript.csv`` byte for byte over a
matrix that covers both worked examples, the benchmark's round shapes, an
irregular tree, a non-conforming prime and an entry bound that takes the
object-dtype path.

:data:`GOLDEN` was generated by the object-per-user round, with models and
noise drawn one ``randrange`` per entry.  Those streams are injected from
the test oracles to show that the round itself did not change when the
array round replaced that one, nor when bulk drawing replaced the streams.
:data:`GOLDEN_BULK` pins the same matrix with the program's own bulk
streams.  After a deliberate, logged change to the streams, regenerate it
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import io

import numpy as np
import pytest

from rampagg import protocol
from rampagg.harness import RunConfig, plain_sum, simulate
from rampagg.protocol import UserStatus
from rampagg.sharing import field_dtype
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
    "entry-bound-2-31": ("099e246e56d80b8eb69e54af231443bde527205bb8a12df71fea721977564208", "0f59e57232a53804965b02accefcd19db782b2cb5731393869f9ea8620a61374"),
    "example-single-group": ("c805eefb2b8cf1455588189ae6dbfb89978c8abf02bcd9cb228b44306acaeb31", "aa909311d00ef0928593376281325cc58e2a7079c561310195fef8ffc3b52ea7"),
    "example-two-group": ("d7e6ad2ede741040500e753e3d495e68df5d8001a0c82522ae0dd76dc48cd31d", "33dfadc97c005f1c8aad3e3b702cbd2095abe0bc44bccf4fe732a7a7ee761f17"),
    "irregular-tree-dropout": ("c718fcd58cdc317a01909366f59bd48aad64581ddcd15caa338b7d4e1f10247f", "670b398b8a1a8b1530b195fa8c9f0006ec49979a84bcd13a91537b51b2e612fb"),
    "non-conforming-prime": ("d1b82c64369e333f0fc8086de636eaa43892182e41b0bed0b1735b260b881973", "33dfadc97c005f1c8aad3e3b702cbd2095abe0bc44bccf4fe732a7a7ee761f17"),
    "round-wide-seed1": ("1b2fb2c468002f4c3771743d6f96a8fbf370e04d8a08fa75fe850493d055d3c0", "29c945f6336c4fc6f707c0b8eca616f84c25c536e8e51b278720009e1e7d77b3"),
    "round-wide-seed2": ("c5eb1fcc9dff5bc487bc0e471300474cecdd16bd179f42f87b5a70bedb5d5334", "29c945f6336c4fc6f707c0b8eca616f84c25c536e8e51b278720009e1e7d77b3"),
    "sweep-deep-k1-chain": ("8c5a197b4ec2bbdcce9c2652e6e6044ba5043fb7c2aa3394da350ea3fb88bb22", "bd50bbd23889c73023e4a6dde7417a9a8c1708c8f0ec627c89cda6b997f554b0"),
    "sweep-deep-k1-star": ("65b9c2af2dcb4711e0945123c8dc54d6d9873fcbd1a2fa24b5be94ebdfb3f92d", "2cde22ca4ecb0aa559c482d6eba2799f438ec4ad7081bcdab444d1883e087599"),
    "sweep-deep-k2-chain": ("760bc6887a8c9f87500c51cc8548d7a1b6ac82d33b20b893237de8673b3d3fcd", "4703cb3b1c811218c2544d02a7f0d1a79428fdfd40ad2fff923e59fd3131122d"),
    "sweep-deep-k2-star": ("30b11ef7513d2758ae0ae1ac2cde47cf09f42cd325e6ea98673e01309d57f731", "b34c982510a7cd5d01c9637b071b846b6ceec54a954ac430103499b7683c6cdb"),
    "sweep-deep-k4-chain": ("905f20454634066698ccc7dbedd26db45164f557b7932b1ad98c488bf8d70b4a", "c34cb0828e19ff3dac50c50d71001de61246a20a34334c636d2d8c06f192048f"),
    "sweep-deep-k4-star": ("9536e0cf4478dce34150ef041f8b63be53ea51adf865ea8b9b6ec2b6d64c550e", "29db3983fb9795e5d2d556644554db3b4d73d91f6f6fd239015d99b51f7f73fa"),
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
    monkeypatch.setattr(protocol, "draw_models", models_randrange_naive)
    monkeypatch.setattr(protocol, "draw_noise", noise_randrange_naive)
    assert _digests(CONFIGS[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_bulk_stream_outputs_match_golden_digests(name):
    assert _digests(CONFIGS[name]) == GOLDEN_BULK[name]


def test_golden_matrix_covers_the_object_dtype_path():
    _, result = simulate(CONFIGS["entry-bound-2-31"])
    assert result.coeffs.dtype == object


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
    assert result.coeffs.dtype == dtype
    assert result.partials.dtype == dtype
    if dropped:
        assert (result.status == UserStatus.SILENCED).sum() == 1
    models = protocol.draw_models(result.params, config.master_seed)
    expected = plain_sum(models, result.took_part)
    assert report.aggregate == expected
    assert all(type(v) is int for v in report.aggregate)


if __name__ == "__main__":
    print("GOLDEN_BULK = {")
    for name in sorted(CONFIGS):
        report_digest, csv_digest = _digests(CONFIGS[name])
        print(f'    "{name}": ("{report_digest}", "{csv_digest}"),')
    print("}")
