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
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import varexp_cir
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


#: NPY_DISABLE_CPU_FEATURES of each numpy CPU target run: the default, then AVX2 (X86_V3)
#: and SSE4.2 (X86_V2) on a CPU with AVX-512; a target that reads as an earlier one is skipped
TARGETS = ["", "AVX512_SPR AVX512_ICL X86_V4", "AVX512_SPR AVX512_ICL X86_V4 X86_V3"]
#: fixed before any run; the SIMD exp, tanh and power differ between targets in the last bit
REL = 1e-12
NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:e[-+]?\d+)?)")
#: picard-verify's |Picard - Euler| gap, a rounding residue of order-one states (3.24e-16 at
#: the default target, 3.12e-16 at X86_V3), agrees to REL absolutely, the bound on its operands
RESIDUE = ('"sup_diff_vs_euler": ', "sup_diff=")

# every op of the pins into the directory argv[1]: {op: [exit code, stdout, stderr]}, or null
# where the target is out of reach: numpy refuses to disable a feature of its build's baseline
RUN_OPS = """
import contextlib, io, json, sys
try:
    import numpy
except RuntimeError:
    print("null")
    sys.exit()
from varexp_cir.cli import run
out, printed = sys.argv[1], {}
for op in json.loads(sys.argv[2]):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(op.split() + ["--out", out] * op.startswith("compare"))
    printed[op] = [code, stdout.getvalue().replace(out, "<out>"), stderr.getvalue()]
print(json.dumps(printed))
"""


def _agree(a: str, b: str) -> bool:
    """The texts are equal but for their numbers, which agree within REL relative, or
    a RESIDUE within REL absolutely."""
    xs, ys = NUMBER.split(a), NUMBER.split(b)
    return len(xs) == len(ys) and xs[::2] == ys[::2] and all(
        math.isclose(float(x), float(y), rel_tol=REL, abs_tol=REL * before.endswith(RESIDUE))
        for before, x, y in zip(xs[::2], xs[1::2], ys[1::2]))


def _manifest(out: Path):
    """The manifest's text less its CPU target line, and the target."""
    lines = (out / "manifest.json").read_text().splitlines(keepends=True)
    target = json.loads("".join(lines))["versions"]["numpy_cpu_target"]
    return "".join(line for line in lines if '"numpy_cpu_target"' not in line), target


def test_every_numpy_cpu_target_gives_the_same_outputs(tmp_path):
    # the CIR paths (sqrt only), every histogram and figure, the increments, the clamp
    # counts and the exit codes are identical at every target; other numbers agree to REL
    src = str(Path(varexp_cir.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    ops = [COMPARE, *sorted(set(GOLDEN) - {COMPARE})]
    procs = [subprocess.Popen(
        [sys.executable, "-c", RUN_OPS, str(tmp_path / str(i)), json.dumps(ops)], text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": disabled},
    ) for i, disabled in enumerate(TARGETS)]
    runs = {}
    for i, proc in enumerate(procs):
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        if (printed := json.loads(stdout)) is not None:
            out = tmp_path / str(i)
            manifest, target = _manifest(out)
            runs.setdefault(target, (printed, out, manifest))
    (printed, out, manifest), *others = runs.values()
    for other, other_out, other_manifest in others:
        assert {op: code for op, (code, *_) in other.items()} == {
            op: code for op, (code, *_) in printed.items()}
        assert all(_agree(printed[op][1], other[op][1]) and _agree(printed[op][2], other[op][2])
                   for op in ops)
        kept = [json.loads(text) for text in (manifest, other_manifest)]
        assert kept[0]["increment_checksum"] == kept[1]["increment_checksum"]
        assert kept[0]["clamp_stats"] == kept[1]["clamp_stats"]
        assert _agree(manifest, other_manifest)
        names = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert sorted(p.name for p in other_out.iterdir() if p.name != "manifest.json") == names
        for name in names:
            a, b = (out / name).read_text(), (other_out / name).read_text()
            exact = name.startswith("cir_") or name.endswith(("_hist.csv", ".svg"))
            assert a == b if exact else _agree(a, b), name
