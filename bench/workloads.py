"""Workload definitions: the CLI argument lists each workload runs.

A workload is a list of ops; each op is one ``varexp_cir.cli.run(argv)``
call. Ops that write files get ``--out <dir>`` appended by the runner,
so the argv listed here (and the golden keys built from it) never holds
a path of the checkout.
"""

from __future__ import annotations

MODELS = ("cir", "gm:p1", "gm:p2", "gm:p3")

#: Why each workload exists, shown in BENCHMARK.json as well.
WHY = {
    # the ROADMAP's reference experiment: increments, kernel, analysis
    # and the memory ceiling all show here and only here
    "compare_ref": "reference compare run, stresses increments, Euler kernel, analysis and peak memory",
    # the only workload reaching truncation, exponent and the model checks.
    # The scalar oracle is pure Python, whose speed on a shared machine
    # drifts by up to half over minutes, while the vectorised compare run
    # stays steady: 32 Picard ops alone gave run medians spread by 0.25
    # over ten seeds, so one Picard op per model rides on a compare run.
    "compare_verify": "compare run plus 24 verification ops, adds the scalar truncated Euler oracle, Picard and model checks",
}


def ops(workload: str, seed: int) -> list[list[str]]:
    """The argv of every op of ``workload`` at workload seed ``seed``."""
    if workload == "compare_ref":
        return [["compare", "--seed", str(seed)]]
    if workload == "compare_verify":
        out = [["compare", "--seed", str(seed)]]
        out += [["validate-exponent", "--exponent", e] for e in ("p1", "p2", "p3", "const:0.5")]
        out += [["feller", "--model", m] for m in MODELS]
        out += [["lipschitz", "--model", m, "--n", str(n)] for m in MODELS for n in (2, 10, 100)]
        out += [["picard-verify", "--model", m, "--seed", str(seed)] for m in MODELS]
        return out
    raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WHY)}")


def writes_files(argv: list[str]) -> bool:
    return argv[0] == "compare"


def op_key(argv: list[str]) -> str:
    """Golden-digest key of an op: its argv without the output directory."""
    return " ".join(argv)
