"""Bit-level pins, read from ``bench/golden.json``: the reference
``compare`` run (seed 42, M=5000, N=1000), its increment checksum, and
the SHA-256 of its stdout and of every file it writes, figures included,
plus the stdout of the 24 verification ops run beside it. A change that
moves any of these digests changes program output and has to say why.

The digests were taken with numpy 2.4.6 and scipy 1.17.1 (Python
3.11), on a CPU where numpy dispatches to its AVX-512 target: the
increments' bits come from scipy's ``ndtri`` and the paths' from
numpy's ``exp``, ``tanh`` and ``power``, so another version of either
library, or another CPU dispatch target, may move them. numpy's SIMD
loops for these three differ in the last bit between targets: at its
AVX2 target (``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"``)
6 tests here fail, and 8 in the suite, which ROADMAP.md lists. CI
installs these versions through ``.github/constraints.txt`` and prints
``numpy.show_runtime()``, which names the target its numpy found."""

import hashlib
import json
from pathlib import Path

import pytest

from varexp_cir.cli import run

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text())
COMPARE = "compare --seed 42"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_reference_compare_is_pinned(tmp_path, capsys):
    out = tmp_path / "ref"
    assert run([*COMPARE.split(), "--out", str(out)]) == 0
    # digested as bench/child.py does: the output directory in stdout reads <out>,
    # and the manifest, which echoes library versions, counts by its checksum
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    files = {p.name: _sha256(p.read_bytes()) for p in out.iterdir() if p.name != "manifest.json"}
    checksum = json.loads((out / "manifest.json").read_text())["increment_checksum"]
    assert {**files, "stdout": _sha256(stdout.encode()),
            "manifest.increment_checksum": checksum} == GOLDEN[COMPARE]


@pytest.mark.parametrize("op", sorted(set(GOLDEN) - {COMPARE}))
def test_verification_stdout_is_pinned(op, capsys):
    assert run(op.split()) == 0
    assert _sha256(capsys.readouterr().out.encode()) == GOLDEN[op]["stdout"]
