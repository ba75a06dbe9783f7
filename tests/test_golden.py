"""Bit-level pins of the reference ``compare`` run (seed 42, M=5000,
N=1000): the increment checksum and the SHA-256 of every CSV and
summary JSON it writes. A change that moves any of these digests
changes program output and has to say why."""

import hashlib
import json

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
