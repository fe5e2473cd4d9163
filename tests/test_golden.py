"""Golden-output regression: CLI stdout pinned by sha256, --out equal to stdout.

Any change to a printed digit, a row, the row order or the JSON layout
changes a digest.
"""

import hashlib
import json

import pytest

from cntbands.cli import main

GOLDEN = [
    (["bands", "--c", "4,-2,-2"],
     "583d2f616c2693112d9637aa27df7edc3f85183dd2b8a4154a00419ae3e990b1"),
    (["bands", "--c", "5,0,-5"],
     "55125f3409a8033003499b3cd55d6dedc11dfae1a8ce1b2085d6c624c1559e06"),
    (["bands", "--c", "8,-1,-7"],
     "9c48a044facdfec3a832332d63df4f2ddeaeb326a0ab56357e944395389f469d"),
    (["bands", "--c", "9,-3,-6"],
     "86becd9fb3d93ee9c6d8a6127768b9fef1101077dddb437a9395f6ed5d04df32"),
    # a block boundary inside each line, K rows on lines 1 and 2, non-default epsilon and gamma
    (["bands", "--c", "9,-3,-6", "--resolution", "5000", "--epsilon", "0.25", "--gamma", "1.5"],
     "36cbaa1c4834fb46c8f7a423ad365a64e6062ccf5dfe2b98d5172c6904ff2e1b"),
    (["gap", "--c", "5,0,-5"],
     "fd7924cdb9775449f23840811fac1e413119c1c5506f5d87bcec89a324739335"),
    (["gap", "--c", "4,-1,-3"],
     "bac7930295fcba6e2aada0827d0a65c200833f76dc69087a5cb2d266f244d139"),
    (["gap", "--c", "4,-2,-2", "--beta", "0.041"],
     "e18f7cb6d4318e509f99c1cd1d228fcb676e850c83c1a09f0549fed6e01e9063"),
    # the field path at gamma != 1
    (["gap", "--c", "7,-3,-4", "--beta", "0.01", "--gamma", "2.7", "--epsilon", "0.3"],
     "465d09a7e5ff99d399072f759a5a05ad7f49f18a902bb4a390507a435193bb76"),
    (["magsweep", "--c", "4,-2,-2", "--samples", "33", "--resolution", "256"],
     "74c6b67b483d56fb3ad90b8b1e76341a30f04d9711fb835e9975051c84b90ce4"),
    (["magsweep", "--c", "5,0,-5", "--samples", "17", "--gamma", "0.5"],
     "5cf7aa0be32647ba5d805bf12ffac75a7a2701a183a3afa1d623e2ed6e4cd1b9"),
    (["graphene-path"],
     "51df45020b4aadb61f8036e6a5910606ad970d800e105f8d043a8c7267555e47"),
    (["graphene-path", "--path", "K,G,M,K,G", "--samples", "500"],
     "32ad0dbd2c4486737ce4cb685d5acbdf38883a8e458e33d213d8183a637e5b77"),
    # segments of several blocks
    (["graphene-path", "--samples", "9000", "--path", "K,M,G,K"],
     "757114f0de1311bf208198e0d27e102124d74b984d808dac82f19eaba4bfafe6"),
    (["classify", "--c", "4,-2,-2"],
     "0e612caa2f793bddfdaf358e7ccc9896ce44be3bc95b099631be75f6df08d553"),
    (["neighbors", "--v", "0,0,1", "--c", "4,-2,-2"],
     "fcf4fb81218e6dbe378a5bceb991ad9ecfe3199d0025d6097d3455bed56f9c08"),
    (["neighbors", "--v", "0,0,0", "--c", "9,-3,-6"],
     "1f7318e29029ddf0c21ca76aee3611933a164a65431e659b903ddc4a8bcc58e3"),
    (["neighbors", "--v", "20,-3,-16", "--c", "7,-2,-5"],
     "cfacb5f4afdb29b3b853adad3d56534c72acc6e581dcc5ff5447182fa85aa248"),
    # every coordinate at the bound tube.MAX_COORD = 2**30
    (["neighbors", "--v", "1073741824,1,-1073741824", "--c", "1073741824,0,-1073741824"],
     "36edb4715d11e5ce75ce57067bafd2105be0e4e79ee80f8c2ab4c0f79179d4bc"),
]

VERIFY = ["verify", "--c", "5,0,-5", "--periods", "4"]


def stdout_of(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_digest(capsys, argv, digest):
    assert hashlib.sha256(stdout_of(capsys, argv)).hexdigest() == digest


def test_verify_report(capsys):
    # max_deviation is the rounding-level distance between the oracle's and the
    # analytic spectrum; it moves by ulps whenever either side is re-expressed,
    # so it is bounded here and every other field is pinned.
    rep = json.loads(stdout_of(capsys, VERIFY))
    assert rep.pop("max_deviation") < 1e-13
    # the pass bound 12 u gamma (h + 2) at h = q'/2 = 1, u = 2^-53: derived, not set
    assert rep == {"c": [5, 0, -5], "periods": 4, "dimension": 80,
                   "tolerance": 36 * 2.0 ** -53, "passed": True}


@pytest.mark.parametrize("argv", [a for a, _ in GOLDEN] + [VERIFY],
                         ids=[" ".join(a) for a, _ in GOLDEN] + [" ".join(VERIFY)])
def test_out_file_matches_stdout(tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout_of(capsys, argv)
