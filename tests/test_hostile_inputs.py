"""A hostile-input search generated from the CLI's own tables.

Each subcommand of ``COMMANDS`` gets up to 50 examples of its own, so
that no subcommand's share hangs on the draws; an example's slots are its
flags and every key of ``PARAMS`` and ``SETTINGS`` in its config file.
One or two slots get an extreme value (0, negatives, +-inf, nan,
5e-324, 1e100, 1.3e154, 1e308, 2**63, 2**64, strings, lists, booleans
and null), the rest a valid value or none. A flag and a config key are
read by one cast, and a flag typed by the parser refuses a value of
another type in one line too, so one value list serves every slot; the
truncation level adds extremes of its own. Runs stay small because the
defaults of paths, horizon and step and the size cap are lowered, not by
leaving hostile values out. A new flag or setting is drawn without a
case written for it. Each class this search has found is kept as a
fixed row of ``test_hostile_input_exit_codes``. At seed 20261019 the 8
subcommands take about 2.6 s together on 2 vCPUs, over 386 examples:
50 each, but ``validate-exponent``, whose one slot has 36 distinct
examples and no more. 62 of them exit other than 2.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import varexp_cir.cli as cli
import varexp_cir.stochastic as stochastic

#: the extremes every setting is drawn from: numbers, and values of another type
NUMBERS = [0, -1, -0.5, math.inf, -math.inf, math.nan, 5e-324, 1e100, 1.3e154, 1e308, 2**63, 2**64]
OTHERS = ["x", "", "1,2", [], [1, 0.5], True, False, None]

#: valid values of every setting and flag; a run's size comes from SMALL_DEFAULTS
VALID = {
    "kappa": [0.5, 2.0], "theta": [0.05, 1.0], "xi": [0.3, 2.0], "v0": [0.05, 3.0],
    "T": [0.02, 0.05], "dt": [0.01, 0.005], "paths": [2, 3], "seed": [0, 2**64 - 1], "out": ["o"],
    "model": ["cir", "gm:p1", "gm:const:0.5", "pkm:a=1,b=1.5", "pkm:a=0,b=0.5"],
    "exponent": ["p1", "const:1.2"], "exponents": ["p3", "const:0.5,p2"],
    "n": [1, 10], "no-svg": [True],
}
SMALL_DEFAULTS = {"T": 0.02, "dt": 0.01, "paths": 4}
#: the extremes of a flag that takes a spec, drawn instead of the shared ones, which it
#: gets as its constant exponent
SPECS = {
    "model": ["gm:const:1.5", "gm:const:nan", "gm:const:x", "pkm:a=2,b=1", "heston", ""],
    "exponent": ["const:0.4", "const:inf", "gm:p1", ""], "exponents": ["p1,p1", ",", "p9"],
}
CONSTANT = {"model": "gm:const:", "exponent": "const:", "exponents": "p1,const:"}
#: the extremes of a number typed by the parser, drawn beside the shared ones
OWN = {"n": [0, -1, 185364, 2**63, 10**200]}
SWITCHES = {flag for flag, spec in cli.FLAGS.items() if spec.get("action") == "store_true"}
#: report fields that may be non-finite: a moment ceiling, its growth constant and the
#: classical Feller side 2 kappa theta past the largest double, which still bound and
#: compare truly, and Picard's rate fit, nan with no positive update, which no verdict reads
NON_FINITE_ALLOWED = {"theoretical_bound", "C_m", "classical_lhs_2kt", "rate_envelope_constant"}
ABSENT = object()


def _text(value) -> str:
    """A value as a flag spells it: a list comma-separated."""
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


@st.composite
def invocations(draw, command):
    """(argv, config) of the subcommand. One or two of its flags and config
    keys get an extreme, a model parameter twice as often as the rest, since
    it drives every number a run computes; the others are valid or absent, so
    that a run gets past its first refusal."""
    flags = cli.COMMANDS[command][2]
    slots = [f"--{flag}" for flag in flags if flag != "config"]
    slots += [*cli.PARAMS, *cli.SETTINGS] * ("config" in flags)
    targets = [s for s in slots if s[2:] not in SWITCHES] + [*cli.PARAMS] * ("config" in flags)
    hostile = draw(st.lists(st.sampled_from(targets), min_size=1, max_size=2, unique=True))
    argv, config = [command], {}
    for slot in slots:
        name = slot.removeprefix("--")
        if slot in hostile:
            shared = NUMBERS * 2 + OTHERS
            extremes = (SPECS[name] + [CONSTANT[name] + _text(v) for v in shared] if name in SPECS
                        else OWN.get(name, []) + shared)
            value = draw(st.sampled_from(extremes))
        else:  # --exponent is required
            value = draw(st.sampled_from([ABSENT] * (name != "exponent") + VALID[name]))
        if value is ABSENT:
            continue
        if not slot.startswith("--"):
            config[slot] = value
        elif name in SWITCHES:
            argv.append(slot)
        else:  # --flag=value, so that a value may start with a minus sign
            argv.append(f"{slot}={_text(value)}")
    return argv, config if "config" in flags else None


def _non_finite_keys(obj, key=None):
    """Keys of every non-finite number in a parsed report."""
    if isinstance(obj, dict):
        return {k for key, v in obj.items() for k in _non_finite_keys(v, key)}
    if isinstance(obj, list):
        return {k for v in obj for k in _non_finite_keys(v, key)}
    if obj in ("inf", "-inf", "nan") or (isinstance(obj, float) and not math.isfinite(obj)):
        return {key}
    return set()


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@seed(20261019)
@settings(max_examples=50, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_hostile_inputs_exit_with_one_line_and_finite_verdicts(command, data):
    argv, config = data.draw(invocations(command))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        tmp = Path(tmp)
        mp.chdir(tmp)  # a relative --out lands in the scratch directory
        for key, value in SMALL_DEFAULTS.items():
            mp.setitem(cli.SETTINGS, key, (value, *cli.SETTINGS[key][1:]))
        mp.setattr(stochastic, "MAX_STORED_INCREMENTS", 20_000)
        if config is not None:
            (tmp / "cfg.json").write_text(json.dumps(config))
            argv = [*argv, "--config", "cfg.json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)  # a numpy warning is an error under the suite's filter
        out, err = out.getvalue(), err.getvalue()
        files = sorted(str(p.relative_to(tmp)) for p in tmp.rglob("*") if p.is_file())
        reports = [json.loads(p.read_text()) for p in tmp.rglob("*_summary.json")]
        if out.startswith("{"):  # a verification report
            reports.append(json.loads(out))

    assert code in (0, 1, 2, 3), (argv, config, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, config, err)
    if code in (2, 3):
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, config, err)
        assert files == ["cfg.json"] * (config is not None), (argv, config, err, files)
        return
    assert not _non_finite_keys(reports) - NON_FINITE_ALLOWED, (argv, config, out)
