"""Bit-level pins of the reference ``compare`` run (seed 42, M=5000,
N=1000): the increment checksum and the SHA-256 of every CSV and
summary JSON it writes, plus the stdout of the 24 verification ops run
beside it in ``bench/golden.json``. A change that moves any of these
digests changes program output and has to say why.

The digests were taken with numpy 2.4.6 and scipy 1.17.1 (Python
3.11): the increments' bits come from scipy's ``ndtri`` and the paths'
from numpy's ``exp``, ``tanh`` and ``power``, so another version of
either library may move them. CI installs these versions through
``.github/constraints.txt``."""

import hashlib
import json

import pytest

from varexp_cir.cli import run

INCREMENT_CHECKSUM = "82f72994327fad33ef10e9a7a976b4491758ce09979455e7142a0d73dd397709"

DIGESTS = {
    "cir_hist.csv": "fc301000c65c7d179f5a646bc2bd49d5936047e026ceea7f817e495e9641d59b",
    "cir_path.csv": "c886c35360b105709ee002baefc45f8b374971e9082f7b0b27eda2190198f969",
    "cir_summary.json": "21b468f71d7669b9e4fc876d14fc1344b69023bfbf545ce4f58ea4917c3afe05",
    "gm_p1_hist.csv": "d9e5b2943349bcf7179a52a1d5da7dca6352172ad5f856f58a761eb48e2b5070",
    "gm_p1_path.csv": "d603f24bbbc87f013c70868668b5d831a6fc85fff315e97b0a958ccfb8a3f509",
    "gm_p1_summary.json": "fadaf43f7a3e54ee8429ba83f323a029cbc69af0cec8533e65c97e468f5585f0",
    "gm_p2_hist.csv": "57672f47dd868980ecfeeed2cc5de8fa95584da2bc8832e20e0018cedee740d1",
    "gm_p2_path.csv": "5c1bcd820e121193d92d30258fe001b6a4fffd4040c9143fbbf8b4458ebbd108",
    "gm_p2_summary.json": "338bb3ea4c28767a854fd80b39192c8ea999933ecf77a72f2a030232a2bab0c2",
    "gm_p3_hist.csv": "089d83c67b4b2a63ba911e687063af268470652f85dbdb5bd1a801b433b9fcb9",
    "gm_p3_path.csv": "384812f28c25c435f02b4ce6f616f03049ebee4c5bc16751cdb256c90cb9d29b",
    "gm_p3_summary.json": "c08676818cb4dc373816f4d8f2dec08b7c32594cf7fc9e296f204d745e27ed55",
}


def test_reference_compare_is_pinned(tmp_path, capsys):
    out = tmp_path / "ref"
    assert run(["compare", "--seed", "42", "--no-svg", "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["increment_checksum"] == INCREMENT_CHECKSUM
    written = {p.name for p in out.iterdir() if p.suffix in (".csv", ".json")} - {"manifest.json"}
    assert written == set(DIGESTS)
    for name, digest in DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


#: SHA-256 of the stdout of each verification op, from bench/golden.json.
VERIFY_DIGESTS = {
    "validate-exponent --exponent p1":
        "c569dc86341891d2f02addbcc82faae4d1ea7cb25da6f2da42a7b68f6a7e12ba",
    "validate-exponent --exponent p2":
        "f2521f28a7ebe25619840526473d930f8d2cc8fbcf307f58e052bdd02afa8da6",
    "validate-exponent --exponent p3":
        "ed736650e8890d526f247b52e17e6be199e3b7dc219f9509815d519c822a9f1a",
    "validate-exponent --exponent const:0.5":
        "45bba81fce204dcbf531f8ba1ee630f1da6b1465ae6072854e19df45ce5398d5",
    "feller --model cir":
        "d9f6f234f8a33415f9663fae2abc51e449607c6b6db464964ffb64991135dcb7",
    "feller --model gm:p1":
        "088ddece9dc5c245eba8c7c7a1ddd37b905ecd56d648afa2fd15e33f00a5d015",
    "feller --model gm:p2":
        "bb7f91dd46b088beda0075f7fd107afca331fb371c3f743aa09c0b5fa823feb3",
    "feller --model gm:p3":
        "e4d55a4a910a56c7235c01baae51642db05a76496e704579dbb81b8699882b16",
    "lipschitz --model cir --n 2":
        "bf95ff8e377c8f50b1bc5fb3750028b4f7b92be465ceab72a02048b577bbec6c",
    "lipschitz --model cir --n 10":
        "4bf1af3d6b8a8d6f63844a2e2a94f6925e6ac07096f5b08fac80c18b6c282de1",
    "lipschitz --model cir --n 100":
        "77a53ac731965b30468d4a2e9433ca683e801eada47df088aab711561263b56d",
    "lipschitz --model gm:p1 --n 2":
        "9f1bcbf5db7d26e4e1a727ae921d82d2c7c2b2545ee8cef548e61b887f3ac319",
    "lipschitz --model gm:p1 --n 10":
        "457b00466191539286f480ea13ef2b1c2f7aa6be68ad93e54c1511d4a5e56061",
    "lipschitz --model gm:p1 --n 100":
        "4795c3600c16fe54271ea7412228f15bf5a1530e8ae29bb72ace86493c2fe3f6",
    "lipschitz --model gm:p2 --n 2":
        "6e3e7ff3665efc146b99686757e9b1921260d2984b2de93f3b4dcd1aaa186c6e",
    "lipschitz --model gm:p2 --n 10":
        "54c04dc54f6fd53fed51dc7e180017d7b27e8fa613701cccb18d7d5ab7e2ba8f",
    "lipschitz --model gm:p2 --n 100":
        "8feb7147e0303023885580f731e0498e785224fce52d0644cef8c576a2f7ee04",
    "lipschitz --model gm:p3 --n 2":
        "ec04bad06c96e893472e1a36a3ccea867ad02ec05c449d6a828a17dc416acd85",
    "lipschitz --model gm:p3 --n 10":
        "b02784af1b3a88438cc285f2254ef8511c96aa65f9d004662c0fda181b1b224d",
    "lipschitz --model gm:p3 --n 100":
        "4cf41d107d645b8d8a6e25a6d270ad5239b19b65a5a17a7f36711385894b6c67",
    "picard-verify --model cir --seed 42":
        "8c21ad823ef5ff05dec6ae595102f4d9c7bf2fb01178d05910a33c0e92623cbc",
    "picard-verify --model gm:p1 --seed 42":
        "a5eab19c9276e199d5c097773531d4e7a963827e1d0ec50920a5bc8038421dc1",
    "picard-verify --model gm:p2 --seed 42":
        "b31c98224dc9763de3b91cbd62d8bcba501a93717b1da2ed5b10431dc96963c2",
    "picard-verify --model gm:p3 --seed 42":
        "9a6e2ee2655c056035ca8320143625fe31e88789677bcd7d2155a23b1805078b",
}


@pytest.mark.parametrize("op", list(VERIFY_DIGESTS))
def test_verification_stdout_is_pinned(op, capsys):
    assert run(op.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[op]
