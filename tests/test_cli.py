import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import varexp_cir
from varexp_cir import (
    ModelParams,
    PathBatch,
    check_moment_bounds,
    cir_model,
    make_grid,
    martingale_report,
    parse_model,
    sample_batch,
    simulate_batch,
    simulate_models,
    terminal_histogram,
)
from varexp_cir.cli import json_text, run, write_csv


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cli(*argv):
    """run(argv) with its stdout and stderr caught: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_json_text_formatting():
    text = json_text({"a": 1.0 / 3.0, "b": [1, True, None], "c": "x"})
    parsed = json.loads(text)
    assert parsed["a"] == 1.0 / 3.0  # 17 significant digits round-trip
    assert "0.33333333333333331" in text
    assert json.loads(json_text(float("nan"))) == "nan"
    assert json.loads(json_text(-math.inf)) == "-inf"


def test_validate_exponent_pass_and_fail(capsys):
    code, out, _ = _run(capsys, "validate-exponent", "--exponent", "p1")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"

    code, out, _ = _run(capsys, "validate-exponent", "--exponent", "const:1.2")
    assert code == 1
    assert json.loads(out)["verdict"] == "fail(sup_above_one)"

    code, out, _ = _run(capsys, "validate-exponent", "--exponent", "const:0.4")
    assert code == 1

    code, _, _ = _run(capsys, "validate-exponent", "--exponent", "nope")
    assert code == 2


def test_feller_subcommand(capsys):
    code, out, _ = _run(capsys, "feller", "--model", "cir")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "non-attainable"
    assert payload["classical_lhs_2kt"] == pytest.approx(0.2)

    code, out, _ = _run(capsys, "feller", "--model", "gm:p1")
    assert code == 0


def test_feller_attainable_exits_one(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kappa": 0.1, "theta": 0.1, "xi": 0.5}))
    code, out, _ = _run(capsys, "feller", "--model", "cir", "--config", str(cfg))
    assert code == 1
    assert json.loads(out)["verdict"] == "attainable"


def test_lipschitz_subcommand_keys(capsys):
    code, out, _ = _run(capsys, "lipschitz", "--model", "gm:p1", "--n", "10")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "n", "epsilon", "L_n", "C_n", "Lf_n", "Lg_n", "Lhat_n", "empirical_sup_quotient",
    }
    assert payload["n"] == 10


def test_malformed_config_exits_two(capsys, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code, _, err = _run(capsys, "feller", "--model", "cir", "--config", str(cfg))
    assert code == 2
    assert "error" in err


def test_unknown_subcommand_exits_two(capsys):
    code, _, _ = _run(capsys, "frobnicate")
    assert code == 2


def test_simulate_writes_outputs(capsys, tmp_path):
    out = tmp_path / "sim"
    code, _, _ = _run(
        capsys,
        "simulate", "--model", "gm:p1", "--paths", "64", "--T", "0.05",
        "--seed", "7", "--out", str(out),
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["gm_p1_hist.csv", "gm_p1_path.csv", "gm_p1_summary.json", "manifest.json"]
    summary = json.loads((out / "gm_p1_summary.json").read_text())
    assert summary["model"] == "gm_p1"
    assert summary["m_paths"] == 64
    assert len(summary["moments"]) == 12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["increment_checksum"] == summary["increment_checksum"]
    path_lines = (out / "gm_p1_path.csv").read_text().splitlines()
    assert path_lines[0] == "t,path_id,v"
    assert len(path_lines) == 1 + 51  # header + path 0 nodes


def test_compare_outputs_and_determinism(capsys, tmp_path):
    args = [
        "compare", "--exponents", "p1,p2,p3", "--paths", "96", "--T", "0.05",
        "--seed", "42",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code, _, _ = _run(capsys, *args, "--out", str(out1))
    assert code == 0
    code, _, _ = _run(capsys, *args, "--out", str(out2))
    assert code == 0

    names = sorted(p.name for p in out1.iterdir())
    csvs = [n for n in names if n.endswith(".csv")]
    svgs = [n for n in names if n.endswith(".svg")]
    assert len(csvs) == 8  # path/hist pairs for cir + three variants
    assert len(svgs) == 6  # figure pair per exponent
    assert sorted(p.name for p in out2.iterdir()) == names

    for name in csvs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    # all four summaries share one increment checksum (common random numbers)
    sums = [json.loads((out1 / n).read_text()) for n in names if n.endswith("_summary.json")]
    assert len(sums) == 4
    assert len({s["increment_checksum"] for s in sums}) == 1


def test_figures_are_named_by_the_model_ids(capsys, tmp_path):
    out = tmp_path / "const"
    code, _, err = _run(
        capsys, "compare", "--exponents", "const:0.50", "--paths", "4", "--T", "0.01",
        "--out", str(out),
    )
    assert code == 0, err
    assert sorted(p.name for p in out.glob("*const*")) == [
        "fig_const_0.5_hist.svg", "fig_const_0.5_path.svg",
        "gm_const_0.5_hist.csv", "gm_const_0.5_path.csv", "gm_const_0.5_summary.json",
    ]


def test_compare_no_svg(capsys, tmp_path):
    out = tmp_path / "nosvg"
    code, _, _ = _run(
        capsys,
        "compare", "--exponents", "p1", "--paths", "16", "--T", "0.01",
        "--out", str(out), "--no-svg",
    )
    assert code == 0
    assert not [p for p in out.iterdir() if p.suffix == ".svg"]


def test_moments_and_martingale_subcommands(capsys):
    code, out, _ = _run(
        capsys, "moments", "--model", "cir", "--paths", "128", "--T", "0.05",
    )
    assert code == 0
    assert all(r["satisfied"] for r in json.loads(out)["reports"])

    code, out, _ = _run(
        capsys, "martingale", "--model", "gm:p3", "--paths", "128", "--T", "0.05",
    )
    assert code == 0
    assert json.loads(out)["satisfied"]


def test_picard_verify_subcommand(capsys):
    code, out, _ = _run(
        capsys, "picard-verify", "--model", "gm:p1", "--n", "10",
        "--seed", "3", "--T", "0.2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"]
    assert payload["sup_diff_vs_euler"] <= 1e-9


def test_picard_verify_nonconvergence_exits_three(capsys):
    code, _, _ = _run(
        capsys, "picard-verify", "--model", "gm:p1", "--n", "10",
        "--seed", "3", "--T", "0.2", "--kmax", "1",
    )
    assert code == 3


def test_env_seed_override(capsys, tmp_path, monkeypatch):
    out1 = tmp_path / "env"
    monkeypatch.setenv("VAREXP_SEED", "99")
    code, _, _ = _run(
        capsys, "simulate", "--model", "cir", "--paths", "4", "--T", "0.01",
        "--out", str(out1),
    )
    assert code == 0
    assert json.loads((out1 / "manifest.json").read_text())["config"]["seed"] == 99

    # explicit flag wins over the environment
    out2 = tmp_path / "flag"
    code, _, _ = _run(
        capsys, "simulate", "--model", "cir", "--paths", "4", "--T", "0.01",
        "--seed", "5", "--out", str(out2),
    )
    assert json.loads((out2 / "manifest.json").read_text())["config"]["seed"] == 5


def test_reflection_policy_and_config_roundtrip(capsys, tmp_path):
    out1 = tmp_path / "refl"
    code, _, _ = _run(
        capsys, "simulate", "--model", "cir", "--paths", "8", "--T", "0.01",
        "--policy", "reflect", "--out", str(out1),
    )
    assert code == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config"]["policy"] == "reflection"

    # the echoed config must itself be a valid config file
    cfg = tmp_path / "echo.json"
    cfg.write_text(json.dumps(manifest["config"]))
    out2 = tmp_path / "refl2"
    code, _, _ = _run(
        capsys, "simulate", "--model", "cir", "--config", str(cfg), "--out", str(out2),
    )
    assert code == 0
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m2["increment_checksum"] == manifest["increment_checksum"]
    # the checkpoints used are echoed, and the output directory is not
    assert manifest["config"]["checkpoints"] == [0.002, 0.005, 0.007, 0.01]
    assert m2["config"] == manifest["config"]


def test_an_echo_holding_dump_paths_still_loads_as_a_config(capsys, tmp_path):
    # manifests echoed "dump_paths" while that flag existed; such an echo, true or false,
    # still runs as a config, and the key is read by nothing
    code, _, err = _run(capsys, "simulate", "--model", "cir", "--paths", "4", "--T", "0.01",
                        "--out", str(tmp_path / "now"))
    assert code == 0, err
    manifest = json.loads((tmp_path / "now" / "manifest.json").read_text())
    config = manifest["config"]
    assert "dump_paths" not in config
    for value in (True, False):
        cfg = tmp_path / f"echo-{value}.json"
        cfg.write_text(json.dumps({**config, "dump_paths": value}))
        out = tmp_path / f"old-{value}"
        code, _, err = _run(capsys, "simulate", "--model", "cir", "--config", str(cfg),
                            "--out", str(out))
        assert code == 0, err
        assert json.loads((out / "manifest.json").read_text()) == manifest


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kappa": 1.0, "theta": 0.1, "paths": 4, "T": 0.01, "seed": 11}))
    out = tmp_path / "cfgrun"
    code, _, _ = _run(
        capsys, "simulate", "--model", "cir", "--config", str(cfg),
        "--paths", "6", "--out", str(out),
    )
    assert code == 0
    conf = json.loads((out / "manifest.json").read_text())["config"]
    assert conf["kappa"] == 1.0
    assert conf["paths"] == 6  # flag overrides file
    assert conf["seed"] == 11  # file overrides default


HUGE_N = "1" + "0" * 200  # a 201-digit band index
XI_SQUARED = "error: config key 'xi' has a malformed value 1.4e+154\n"


@pytest.mark.parametrize(
    "argv, config, expected",
    [
        pytest.param(["lipschitz", "--n", HUGE_N], None, 2, id="lipschitz-huge-n"),
        pytest.param(["picard-verify", "--n", HUGE_N], None, 2, id="picard-huge-n"),
        pytest.param(["lipschitz", "--n", str(10**150)], None, 2, id="lipschitz-n-past-int64"),
        pytest.param(["lipschitz", "--n", "185363"], None, 0, id="lipschitz-n-at-max-band"),
        pytest.param(["lipschitz", "--n", "185364"], None, 2, id="lipschitz-n-past-max-band"),
        pytest.param(["picard-verify", "--n", "185364"], None, 2, id="picard-n-past-max-band"),
        pytest.param(["picard-verify", "--tol", "inf"], None, 2, id="picard-tol-inf"),
        pytest.param(["picard-verify", "--tol", "nan"], None, 2, id="picard-tol-nan"),
        pytest.param(
            ["picard-verify", "--kmax", "0"], None, (2, "error: k_max must be at least 1\n"),
            id="picard-kmax-0",
        ),
        pytest.param(["simulate", "--T", "1e300", "--dt", "1e-300"], None, 2, id="grid-inf-steps"),
        pytest.param(["simulate"], {"paths": None}, 2, id="config-paths-null"),
        pytest.param(["simulate"], {"kappa": [1]}, 2, id="config-kappa-list"),
        pytest.param(["feller"], {"kappa": [1]}, 2, id="feller-config-kappa-list"),
        pytest.param(["feller"], {"paths": 10.9}, 2, id="feller-config-paths-fractional"),
        pytest.param(["lipschitz"], {"dt": "x"}, 2, id="lipschitz-config-dt-malformed"),
        pytest.param(
            ["feller"], [1], (2, "error: config file <config> must hold a JSON object\n"),
            id="config-json-list",
        ),
        # a misspelled key is refused, the first in file order, not read as absent
        pytest.param(
            ["feller", "--model", "cir"], {"kapa": 3.0},
            (2, "error: config file <config> has an unknown key 'kapa'\n"), id="config-unknown-key",
        ),
        pytest.param(
            ["simulate", "--paths", "4", "--T", "0.01"], {"theta": 0.1, "sed": 5, "pths": 3},
            (2, "error: config file <config> has an unknown key 'sed'\n"),
            id="config-unknown-keys-first-in-file-order",
        ),
        # a parameter whose square overflows a double is refused by name
        pytest.param(
            ["simulate", "--model", "cir", "--paths", "8", "--T", "0.01"], {"xi": 1e300}, 2,
            id="huge-xi-overflow",
        ),
        pytest.param(["feller"], {"xi": 1.4e154}, (2, XI_SQUARED), id="feller-xi-squared"),
        pytest.param(
            ["lipschitz", "--model", "cir"], {"xi": 1.4e154}, (2, XI_SQUARED),
            id="lipschitz-xi-squared",
        ),
        pytest.param(
            ["lipschitz", "--model", "gm:p2", "--n", "185363"], {"xi": 1e150},
            (3, "numeric failure: gm_p2's Lhat_n at n=185363 is past the largest double "
                "(Lf_n 6.87189e+10, Lg_n 8.34804e+169)\n"),
            id="lipschitz-lhat-overflow",
        ),
        pytest.param(
            ["lipschitz"], {"kappa": 1e200},
            (2, "error: config key 'kappa' has a malformed value 1e+200\n"),
            id="lipschitz-kappa-squared",
        ),
        pytest.param(
            ["moments", "--paths", "2", "--T", "0.001", "--model", "cir"], {"xi": 1.4e154},
            (2, XI_SQUARED), id="moments-xi-squared",
        ),
        pytest.param(
            ["simulate", "--paths", "2", "--T", "0.001", "--model", "cir"], {"xi": 1.4e154},
            (2, XI_SQUARED), id="simulate-xi-squared",
        ),
        pytest.param(
            ["picard-verify", "--T", "2", "--dt", "1"], {"kappa": 1.3e154, "theta": 1.3e154},
            (3, "picard-verify: iterate 1 overflowed\n"), id="picard-iterate-overflow",
        ),
        pytest.param(["simulate", "--seed", "-1", "--paths", "4"], None, 2, id="negative-seed"),
        pytest.param(["simulate", "--seed", str(2**64), "--paths", "4"], None, 2, id="seed-64-bit"),
        # a seed is checked as a setting, so commands that draw nothing refuse it too
        pytest.param(["feller"], {"seed": -1}, 2, id="feller-config-seed-negative"),
        pytest.param(["lipschitz"], {"seed": 2**64}, 2, id="lipschitz-config-seed-64-bit"),
        pytest.param(["simulate", "--dt", "0.0003", "--paths", "4"], None, 2, id="off-grid-dt"),
        pytest.param(["simulate", "--model", "heston"], None, 2, id="unknown-model"),
        pytest.param(
            ["simulate", "--model", "pkm:a=0,b=2"], None,
            (2, "error: malformed pkm spec: 'pkm:a=0,b=2' (pkm diffusion power b must be one of "
                "(0.5, 1.0, 1.5), got 2.0)\n"),
            id="pkm-b-2",
        ),
        # a gm model's constant exponent is refused where its spec is parsed
        *(pytest.param(
            ["simulate", "--model", f"gm:const:{c}"], None,
            (2, f"error: constant exponent {c} outside the admissible range [1/2, 1]\n"),
            id=f"gm-const-{c}",
        ) for c in ("1.5", "0.4")),
        pytest.param(
            ["compare", "--exponents", "p1,const:inf"], None,
            (2, "error: constant exponent must be finite\n"), id="gm-const-inf",
        ),
        pytest.param(["compare", "--paths", "0"], None, 2, id="zero-paths"),
        # one path has no standard error, which every walking command's verdict reads
        *(pytest.param([command, "--paths", "1"], None, (2, "error: paths must be at least 2\n"),
                       id=f"{command}-one-path")
          for command in ("simulate", "compare", "moments", "martingale")),
        pytest.param(["moments", "--paths", "2", "--T", "0.01"], None, (0, "moments gm_p1: ok\n"),
                     id="moments-two-paths"),
        pytest.param(
            ["compare", "--exponents", ","], None,
            (2, "error: --exponents must name at least one exponent\n"), id="no-exponents",
        ),
        pytest.param(
            ["compare", "--exponents", "p1,p1", "--paths", "4"], None, 2, id="repeated-model",
        ),
        pytest.param(
            ["compare", "--exponents", "const:0.5,const:0.50", "--paths", "4"], None, 2,
            id="repeated-model-spelled-twice",
        ),
        pytest.param(["simulate"], {"paths": 10.9}, 2, id="config-paths-fractional"),
        pytest.param(["simulate"], {"seed": 42.5}, 2, id="config-seed-fractional"),
        pytest.param(["simulate"], {"paths": True}, 2, id="config-paths-bool"),
        pytest.param(["simulate"], {"kappa": True}, 2, id="config-kappa-bool"),
        pytest.param(["simulate"], {"orders": [2.5]}, 2, id="config-orders-fractional"),
        pytest.param(
            ["moments", "--paths", "8", "--T", "0.01"], {"orders": []}, 2, id="config-orders-empty",
        ),
        pytest.param(
            ["moments", "--paths", "8", "--T", "0.01"], {"checkpoints": []}, 2,
            id="config-checkpoints-empty",
        ),
        # a checkpoint far off the grid, or nan, is off the grid like any other time
        pytest.param(
            ["simulate", "--paths", "4", "--T", "0.01", "--checkpoints", "1e308"], None,
            (2, "error: time 1e+308 is not a node of the grid (dt=0.001)\n"), id="checkpoint-1e308",
        ),
        pytest.param(
            ["simulate", "--paths", "4", "--T", "0.01"], {"checkpoints": [-1e308]},
            (2, "error: time -1e+308 is not a node of the grid (dt=0.001)\n"),
            id="config-checkpoint-minus-1e308",
        ),
        pytest.param(
            ["simulate", "--paths", "4", "--T", "0.01"], {"checkpoints": [math.nan]},
            (2, "error: time nan is not a node of the grid (dt=0.001)\n"),
            id="config-checkpoint-nan",
        ),
        # the histograms count against the size cap, before any sampling
        *(pytest.param(
            ["simulate", "--paths", "20", "--T", "0.05", "--dt", "0.01", "--bins", str(bins)], None,
            (2, f"error: 20 paths of 5 steps hold {held} values, above the cap of 1000000000\n"),
            id=f"bins-{bins}",
        ) for bins, held in ((2**63, 27670116110564327705), (10**11, 300000000281))),
        # picard-verify holds the row (N) and, of N + 1 each, two Picard iterates, the
        # oracle's list and array, and their gap: 6N + 5
        pytest.param(
            ["picard-verify", "--T", "1000", "--dt", "1e-6"], None,
            (2, "error: 1 path of 1000000000 steps holds 6000000005 values, "
                "above the cap of 1000000000\n"),
            id="picard-size-cap",
        ),
        # a statistic that is not finite is a numeric failure, not a verdict
        pytest.param(
            ["compare", "--no-svg"], {"theta": 1e154, "paths": 20, "T": 0.05, "dt": 0.01},
            (3, "numeric failure: cir's order-2 moment at t=0.01 is not finite "
                "(mean 4e+304, standard error inf)\n"),
            id="compare-moment-not-finite",
        ),
        pytest.param(
            ["martingale", "--model", "gm:p3", "--paths", "20", "--T", "0.05", "--dt", "0.01"],
            {"v0": 1e9, "theta": 1e-8, "kappa": 1e100},
            (3, "numeric failure: gm_p3's martingale statistic at t=0.03 is not finite "
                "(mean 1e+188, standard error inf)\n"),
            id="martingale-statistic-not-finite",
        ),
        pytest.param(
            ["feller", "--model", "pkm:a=1,b=1.5"], {"xi": 1.3e154},
            (3, "numeric failure: pkm_a1_b1.5's boundary test function is not finite near 0\n"),
            id="feller-profile-not-finite",
        ),
        # C_m overflows, and exp(C_m t) at t = 0 is 1, not exp(nan)
        pytest.param(
            ["moments", "--checkpoints", "0", "--paths", "4", "--T", "0.02", "--dt", "0.01"],
            {"xi": 1.3e154}, (0, "moments gm_p1: ok\n"), id="moment-ceiling-at-zero-with-huge-c",
        ),
    ],
)
def test_hostile_input_exit_codes(capsys, tmp_path, monkeypatch, argv, config, expected):
    import varexp_cir.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("increments drawn for a refused run")

    expected, expected_err = expected if isinstance(expected, tuple) else (expected, None)
    if expected == 2:  # every refusal comes before a row is drawn
        monkeypatch.setattr(cli, "sample_batch", refuse)
        monkeypatch.setattr(cli, "path_increments", refuse)
    argv = list(argv)
    if argv[0] in ("simulate", "compare"):
        argv += ["--out", str(tmp_path / "out")]
    cfg = tmp_path / "cfg.json"
    if config is not None:
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    code, _, err = _run(capsys, *argv)
    assert code == expected
    assert "Traceback" not in err
    if expected_err is not None:  # the one line, with no numpy warning before it
        assert err == expected_err.replace("<config>", str(cfg))
    elif config is not None and expected == 2:
        assert f"config key {next(iter(config))!r}" in err  # the refusal names its source
    if expected in (2, 3):  # no output is left behind
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"] * bool(config)


@pytest.mark.parametrize(
    "source, value",
    [("--seed", "x"), ("--paths", "x"), ("--dt", "1/2"), ("--T", "one"), ("--policy", "clamp"),
     ("--bins", "2.5"), ("VAREXP_SEED", "0x2a"), ("--seed", "-1"), ("VAREXP_SEED", str(2**64)),
     # an order past the largest double, whose moment ceiling cannot be computed
     ("--orders", "1" + "0" * 400), ("--orders", "2,1" + "0" * 320)],
    ids=lambda v: v if len(v) < 30 else f"{v[:4]}...{len(v)}-chars",
)
def test_a_malformed_setting_is_refused_in_one_line(capsys, tmp_path, monkeypatch, source, value):
    # a setting flag's string is read by the cast a config value gets, not by the parser
    flags = {"--paths": "4", "--T": "0.01", "--out": str(tmp_path / "o")}
    monkeypatch.setattr("varexp_cir.cli.sample_batch", None)  # refused before a draw
    if source.startswith("--"):
        flags[source] = value
    else:
        monkeypatch.setenv(source, value)
    code, out, err = _run(capsys, "simulate", *(a for item in flags.items() for a in item))
    assert (code, out, err) == (2, "", f"error: {source} has a malformed value {value!r}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["lipschitz", "--n", "x"], ["picard-verify", "--tol", "x"],
        ["picard-verify", "--kmax", "1e3"], ["compare", "--bogus", "1"], ["lipschitz", "--n"], [],
    ],
    ids=["n-not-int", "tol-not-float", "kmax-not-int", "unknown-flag", "missing-value",
         "missing-subcommand"],
)
def test_a_parser_error_is_one_line(capsys, argv):
    # the parser's error, not its usage block, as every other refusal prints it
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1, err


def test_help_and_version_still_print_and_exit_zero(capsys):
    assert _run(capsys, "--version")[:2] == (0, f"{varexp_cir.__version__}\n")
    code, out, _ = _run(capsys, "picard-verify", "--help")
    assert code == 0 and out.startswith("usage: varexp-cir picard-verify") and "--kmax" in out


def test_a_settings_rows_help_states_its_own_default(capsys, monkeypatch):
    import varexp_cir.cli as cli

    def help_text():  # simulate's --help, one flag a line
        cli.build_parser.cache_clear()
        return _run(capsys, "simulate", "--help")[1]

    monkeypatch.setenv("COLUMNS", "200")
    try:
        text = help_text()
        assert "(default 42; env VAREXP_SEED)" in text and "(default full-trunc)" in text
        monkeypatch.setitem(cli.SETTINGS, "seed", (7, *cli.SETTINGS["seed"][1:]))
        monkeypatch.setitem(cli.SETTINGS, "policy", ("reflect", *cli.SETTINGS["policy"][1:]))
        text = help_text()
        assert "(default 7; env VAREXP_SEED)" in text and "(default reflect)" in text
    finally:
        monkeypatch.undo()
        cli.build_parser.cache_clear()


def test_repeated_model_is_refused_before_sampling(capsys, tmp_path, monkeypatch):
    import varexp_cir.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("sample_batch called for a repeated model")

    monkeypatch.setattr(cli, "sample_batch", refuse)
    out = tmp_path / "twice"
    code, _, err = _run(capsys, "compare", "--exponents", "const:0.5,const:0.50", "--out", str(out))
    assert code == 2
    assert "more than once" in err
    assert not out.exists()


def test_a_histogram_of_no_bins_is_refused_before_sampling(capsys, tmp_path, monkeypatch):
    import varexp_cir.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("sample_batch called for a refused setting")

    monkeypatch.setattr(cli, "sample_batch", refuse)
    for bins in ("0", "-3"):
        out = tmp_path / f"bins{bins}"
        code, _, err = _run(capsys, "simulate", "--bins", bins, "--out", str(out))
        assert (code, err) == (2, "error: n_bins must be >= 1\n")
        assert not out.exists()
    # and so is a moment order below 2, which the statistics would refuse only after the walk
    for command, order in itertools.product(("simulate", "compare", "moments"), ("1", "0", "-2")):
        out = tmp_path / f"{command}{order}"
        outputs = ("--out", str(out)) if command != "moments" else ()
        code, _, err = _run(capsys, command, "--orders", order, *outputs)
        assert (code, err) == (2, f"error: moment order must be an integer >= 2, got {order}\n")
        assert not out.exists()


def test_integer_config_values_are_checked_not_truncated(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"paths": 10.9}))
    code, _, err = _run(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "config key 'paths'" in err
    # integral values, as numbers, strings or the environment, still work
    cfg.write_text(json.dumps({"paths": "6", "bins": 5.0, "orders": [2, "3"], "T": 0.01}))
    monkeypatch.setenv("VAREXP_SEED", "7")
    code, _, err = _run(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "ok"))
    assert code == 0, err
    conf = json.loads((tmp_path / "ok" / "manifest.json").read_text())["config"]
    assert (conf["paths"], conf["seed"], conf["bins"], conf["orders"]) == (6, 7, 5, [2, 3])


def test_martingale_compensates_with_the_model_drift(capsys, tmp_path):
    # pkm a=1 drifts by kappa * x * (theta - x); compensating it with the
    # gm/cir drift kappa * (theta - x) reads a deviation of about 0.39
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"v0": 0.5, "xi": 0.1}))
    code, out, err = _run(capsys, "martingale", "--model", "pkm:a=1,b=0.5", "--config", str(cfg))
    assert code == 0, err
    assert json.loads(out)["satisfied"]


def test_moment_ceiling_beyond_double_is_inf(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"xi": 50}))
    out = tmp_path / "xi50"
    code, _, err = _run(
        capsys, "simulate", "--model", "cir", "--config", str(cfg),
        "--paths", "20", "--T", "0.1", "--out", str(out),
    )
    assert code == 0, err
    moments = json.loads((out / "cir_summary.json").read_text())["moments"]
    bounds = [m["theoretical_bound"] for m in moments]
    assert "inf" in bounds  # exp(C_4 t) is past the largest double
    assert any(isinstance(b, float) for b in bounds)
    assert all(m["satisfied"] for m in moments)


def test_run_size_cap_counts_paths_and_refuses_before_allocating(capsys, tmp_path, monkeypatch):
    import varexp_cir.cli as cli
    import varexp_cir.stochastic as stochastic

    # compare holds, per path, 4 models x (4 kept nodes + 4 compensated
    # values + 1 clamp count), plus one chunk of increments (here every
    # path, 100 steps each) once at any split, each later part filling
    # its own shared rows, plus 4 histograms of 50 bins x
    # (count, density, left edge) and a right edge: 49 paths hold 1764
    # + 4900 + 4 x 151 = 7268
    real_sample_batch = cli.sample_batch

    def refuse(*args, **kwargs):
        raise AssertionError("sample_batch called for an oversized run")

    for workers in (1, 3):
        forks = _workers(monkeypatch, workers)
        monkeypatch.setattr(stochastic, "MAX_STORED_INCREMENTS", 7_267)
        monkeypatch.setattr(cli, "sample_batch", refuse)
        out = tmp_path / f"big-{workers}"
        code, _, err = _run(capsys, "compare", "--paths", "49", "--T", "0.1", "--out", str(out))
        assert code == 2 and not out.exists()
        assert err == "error: 49 paths of 100 steps hold 7268 values, above the cap of 7267\n"

        monkeypatch.setattr(stochastic, "MAX_STORED_INCREMENTS", 7_268)
        monkeypatch.setattr(cli, "sample_batch", real_sample_batch)
        code, _, err = _run(capsys, "compare", "--paths", "49", "--T", "0.1", "--out", str(out))
        assert (code, len(forks)) == (0, workers - 1), err


def _workers(monkeypatch, workers):
    """Let the walk split a chunk into up to ``workers`` parts of one row or
    more, whatever this machine's CPU count; return the list each fork
    appends to."""
    import varexp_cir.cli as cli

    forks, real_fork = [], os.fork
    monkeypatch.setattr(cli, "_WORKER_INCREMENTS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    return forks


def _split_outputs(out):
    """compare's files, manifest and stdout, then the stdouts of moments and
    martingale, on 200 paths of 100 steps."""
    run, d = ["--paths", "200", "--T", "0.1"], out / "kept"
    code, stdout, err = _cli("compare", *run, "--out", str(d))
    assert code == 0, err
    files = {p.name: p.read_bytes() for p in d.iterdir() if p.name != "manifest.json"}
    manifest = json.loads((d / "manifest.json").read_text())  # holds no output directory
    outputs = [files, manifest, stdout.replace(str(d), "<out>")]
    for cmd in ("moments", "martingale"):
        outputs.append(_cli(cmd, "--model", "gm:p2", *run)[1])
    return outputs


@pytest.fixture(scope="module")
def one_process(tmp_path_factory):
    """_split_outputs of a walk in one chunk and one process: the reference
    every chunked or split walk is held to, computed once for this module."""
    import varexp_cir.cli as cli

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(cli, "_CHUNK", 200 * 100)
        forks = _workers(monkeypatch, 1)
        outputs = _split_outputs(tmp_path_factory.mktemp("one"))
    assert not forks
    assert len(outputs[0]) == 18 and all(outputs[i] for i in (2, 3, 4))
    return outputs


#: (workers, rows per chunk, failing call): each split configuration walked once
SPLITS = [
    *(pytest.param(1, rows, None, id=f"1-worker-{rows}-rows") for rows in (31, 32, 33, 64)),
    # a 1-row chunk cannot be split, so no fork may happen
    pytest.param(3, 1, None, id="3-workers-1-row"),
    *(
        pytest.param(workers, rows, None, id=f"{workers}-workers-{rows}-rows")
        for workers in (2, 3) for rows in (33, 200)
    ),
    pytest.param(4, 200, None, id="4-workers-200-rows"),
    # out of processes (EAGAIN) or memory (ENOMEM) to fork: the parts left are walked in
    # this process; every worker fails before it fills a row: its part is walked here
    *(
        pytest.param(3, 33, failing, id=f"failing-{failing}")
        for failing in ("fork", "every-second-fork", "worker")
    ),
]


@pytest.mark.parametrize("workers, rows, failing", SPLITS)
def test_every_split_gives_the_same_bytes(
    tmp_path, monkeypatch, one_process, workers, rows, failing
):
    # chunks of `rows` rows, each split between up to `workers` processes in
    # row order, give the bytes of a one-process walk and reap every worker
    import errno
    import mmap

    import numpy as np

    import varexp_cir.cli as cli

    monkeypatch.setattr(cli, "_CHUNK", rows * 100)
    _workers(monkeypatch, workers)
    forks, log, parent = [], tmp_path / "filled.log", os.getpid()
    real_sample_batch, real_fork = cli.sample_batch, os.fork

    def counted(seed, paths, grid, out=None):
        if failing == "worker" and os.getpid() != parent:
            raise OSError(errno.ENOSPC, "No space left on device")  # exit 2 from one process
        owner = out
        while isinstance(owner, np.ndarray):  # the view's arrays, then the buffer under them
            owner = owner.base
        # out fills the whole of one anonymous mapping, sized for this part alone
        mapping = getattr(owner, "obj", None)
        own = isinstance(mapping, mmap.mmap) and len(mapping) == 8 * len(paths) * grid.n_steps
        with open(log, "a") as fh:  # one line a fill, from this process or a worker
            fh.write(f"{os.getpid()} {paths.start} {len(paths)} {int(own)}\n")
        return real_sample_batch(seed, paths, grid, out=out)

    def fork():
        forks.append(1)
        if failing == "fork" or (failing == "every-second-fork" and len(forks) % 2 == 0):
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(cli, "sample_batch", counted)
    monkeypatch.setattr(os, "fork", fork)
    assert _split_outputs(tmp_path) == one_process
    fills = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    filled = [n for pid, _, n, _ in fills if pid == os.getpid()]
    # every row is filled once, and every fill is given its own mapping, the first
    # part of each round (rounds start at multiples of rows) as well as the others
    assert sum(n for _, _, n, _ in fills) == 3 * 200
    assert all(own for _, _, _, own in fills)
    # each of the three commands fills every chunk once, all in this process
    # when a chunk cannot be split or no part can be handed out
    if workers == 1 or rows == 1:
        assert filled == ([rows] * (200 // rows) + [200 % rows] * (200 % rows > 0)) * 3
    if failing in ("fork", "worker"):
        assert sum(filled) == 3 * 200
    # and forks in every split round
    assert bool(forks) == (workers > 1 and rows > 1)
    if failing in (None, "worker"):
        rounds = [min(rows, 200 - start) for start in range(0, 200, rows)]
        assert len(forks) == 3 * sum(min(workers, n) - 1 for n in rounds)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker was reaped


@pytest.mark.parametrize("failing", [None, "middle-worker"])
@pytest.mark.parametrize("workers", [3, 4])
def test_the_running_process_holds_one_part_at_a_time(
    tmp_path, monkeypatch, one_process, workers, failing
):
    # each part's increments fill the part's own shared mapping, which is freed once hashed,
    # so at every hash the running process holds only the part it hashes; a middle part
    # whose worker exits 1 is walked again here, into its own mapping
    import weakref

    import numpy as np

    import varexp_cir.cli as cli
    import varexp_cir.stochastic as stochastic

    forks, parent = _workers(monkeypatch, workers), os.getpid()
    parts = [range(200 * i // workers, 200 * (i + 1) // workers) for i in range(workers)]
    allocated, hashed, held, walked_here, whole = [], [], [], [], []
    real_shared, real_sample_batch, real_hash_rows = (
        cli._shared, cli.sample_batch, stochastic.hash_rows)

    def shared(count):
        array = owner = real_shared(count)
        while isinstance(owner.base, np.ndarray):  # the array that lives as long as its mapping
            owner = owner.base
        allocated.append(weakref.ref(owner))
        return array

    def live():  # rows of the hashed parts not yet freed
        return sum(rows for r, rows in hashed if r() is not None)

    def sample(seed, paths, grid, out=None):
        if os.getpid() == parent:
            walked_here.append((paths, live()))
        elif failing and paths == parts[1]:
            raise RuntimeError("the middle worker's stub")
        return real_sample_batch(seed, paths, grid, out=out)

    def hash_rows(h, increments):  # a _shared mapping's, which they fill whole
        owner, = (r for r in allocated if np.may_share_memory(r(), increments))
        whole.append(owner().size == increments.size)
        hashed.append((owner, len(increments)))  # rows hashed so far, each while it lives
        held.append(live())
        return real_hash_rows(h, increments)

    monkeypatch.setattr(cli, "_shared", shared)
    monkeypatch.setattr(cli, "sample_batch", sample)
    monkeypatch.setattr(stochastic, "hash_rows", hash_rows)
    assert _split_outputs(tmp_path) == one_process
    # each of the three commands hashes every part once, in row order, holding that part alone
    assert held == [len(p) for p in parts] * 3 and whole == [True] * 3 * workers
    assert len(forks) == 3 * (workers - 1)
    # and fills a part here only once every part before it is freed
    assert walked_here == [(parts[0], 0), *[(parts[1], 0)] * bool(failing)] * 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker was reaped


#: (seed, config, chunk rows, overflow named)
OVERFLOWS = [
    # path 495 overflows at step 12 and path 732 at step 11: a run raises the least
    # (step, path) of all its chunks, also where path 495's chunk of 500 comes first and
    # path 732's walks only through step 12
    pytest.param(7, {"xi": 100, "v0": 100}, 1000, "path 732, step 11",
                 id="7-config0-1000-path 732, step 11"),
    pytest.param(7, {"xi": 100, "v0": 100}, 500, "path 732, step 11",
                 id="7-500-path 732, step 11"),
    # only path 602 overflows; a chunk must name it by its run index
    *(pytest.param(10, {"xi": 30, "v0": 30}, rows, "path 602, step 13",
                   id=f"10-config{i}-{rows}-path 602, step 13")
      for i, rows in enumerate((100, 300, 1000), 1)),
]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("seed, config, rows, message", OVERFLOWS)
def test_overflow_names_the_run_path_at_every_split(
    capsys, tmp_path, monkeypatch, workers, seed, config, rows, message
):
    # a walk of each chunk in one process raises this (path, step); the split
    # into worker parts must neither hide it nor name another, and the run
    # leaves no output or temporary file behind
    import varexp_cir.cli as cli

    monkeypatch.setattr(cli, "_CHUNK", rows * 100)
    _workers(monkeypatch, workers)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, stdout, err = _run(
        capsys, "simulate", "--model", "pkm:a=0,b=1.5", "--paths", "1000", "--T", "1",
        "--dt", "0.01", "--seed", str(seed), "--config", str(cfg), "--out", str(tmp_path / "o"),
    )
    assert (code, stdout) == (3, "")
    assert err == f"numeric failure: non-finite state produced at {message}\n"
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [cfg]


def test_chunks_after_an_overflow_are_filled_through_its_step_alone(capsys, tmp_path, monkeypatch):
    # at 500-row chunks, path 495 overflows at step 12 in the first chunk, so the second is
    # filled on a grid of 12 steps, where path 732 overflows at step 11
    import varexp_cir.cli as cli

    fills, real = [], cli.sample_batch
    monkeypatch.setattr(cli, "sample_batch", lambda seed, paths, grid, out=None: fills.append(
        (paths, grid.n_steps)) or real(seed, paths, grid, out))
    monkeypatch.setattr(cli, "_CHUNK", 500 * 100)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"xi": 100, "v0": 100}))
    code, _, err = _run(capsys, "simulate", "--model", "pkm:a=0,b=1.5", "--paths", "1000",
                        "--T", "1", "--dt", "0.01", "--seed", "7", "--config", str(cfg),
                        "--out", str(tmp_path / "o"))
    assert (code, err) == (3, "numeric failure: non-finite state produced at path 732, step 11\n")
    assert fills == [(range(0, 500), 100), (range(500, 1000), 12)]


#: (seed, config, path, step) of every overflow in the OVERFLOWS runs
REPLAYS = [
    (7, {"xi": 100, "v0": 100}, 732, 11),
    (7, {"xi": 100, "v0": 100}, 495, 12),
    (10, {"xi": 30, "v0": 30}, 602, 13),
]


@pytest.mark.parametrize("seed, config, path, step", REPLAYS)
def test_an_overflowing_path_replays_alone(seed, config, path, step):
    # a row depends on (seed, path) alone, so the path a run names steps to the same
    # overflow as a one-row batch, with no chunk, worker or other path around it
    assert {f"path {p}, step {s}" for *_, p, s in REPLAYS} >= {c.values[3] for c in OVERFLOWS}
    grid = make_grid(1.0, 0.01)
    model = parse_model("pkm:a=0,b=1.5", ModelParams(**{"kappa": 2.0, "theta": 0.05, **config}))
    batch = sample_batch(seed, range(path, path + 1), grid)
    with pytest.raises(varexp_cir.PathOverflowError) as failure:
        simulate_batch(model, batch)
    assert (failure.value.step_index, failure.value.path_index) == (step, 0)


def test_the_replay_recipe_gives_any_range_of_paths_at_every_node(tmp_path):
    # README's recipe: a row depends on (seed, path) alone, so ranges of rows replayed
    # through the library give compare's path-0 CSV and, joined, every row of its summaries
    import numpy as np

    code, _, err = _cli("compare", "--paths", "40", "--T", "0.05", "--seed", "9", "--no-svg",
                        "--out", str(tmp_path))
    assert code == 0, err
    grid, checkpoints = make_grid(0.05, 0.001), (0.012, 0.025, 0.037, 0.05)
    models = [parse_model(spec, ModelParams(2.0, 0.05, 0.3, 0.05))
              for spec in ("cir", "gm:p1", "gm:p2", "gm:p3")]
    replays = [simulate_models(models, sample_batch(9, paths, grid))
               for paths in (range(0, 15), range(15, 40))]
    for model, (first, rest) in zip(models, zip(*replays)):
        mid = model.model_id
        rows = [(t, 0, v) for t, v in zip(grid.times, first.values[0])]
        path_csv = _old_csv_text(["t", "path_id", "v"], rows)
        assert (tmp_path / f"{mid}_path.csv").read_text() == path_csv, mid
        joined = PathBatch(model, grid, first.nodes, *(
            np.concatenate([getattr(first, name), getattr(rest, name)])
            for name in ("values", "compensated", "clamp_counts")), first.path0)
        expected = {
            "moments": check_moment_bounds(joined, (2, 3, 4), checkpoints),
            "martingale": martingale_report(joined, checkpoints),
            "terminal_histogram": terminal_histogram(joined, 0.05, 50),
        }
        summary = json.loads((tmp_path / f"{mid}_summary.json").read_text())
        assert summary["martingale"]["checkpoints"] == list(checkpoints)
        assert {key: summary[key] for key in expected} == json.loads(json_text(expected)), mid


def test_a_compare_overflow_names_its_earliest_step_at_every_split(tmp_path, monkeypatch):
    # at xi = 1e90 on 300 paths, cir never overflows, gm:p3 (listed first) first overflows at
    # path 265, step 7, in the last of three parts, and gm:p1 at path 58, step 6: the run names
    # p1's earlier step at every split, where a model-first order named p3's
    config = {"xi": 1e90, "seed": 11, "paths": 300, "T": 0.1, "dt": 0.01}
    grid, params = make_grid(config["T"], config["dt"]), ModelParams(2.0, 0.05, config["xi"], 0.05)
    batch, alone = sample_batch(config["seed"], config["paths"], grid), []
    for spec in ("cir", "gm:p3", "gm:p1"):
        try:
            simulate_batch(parse_model(spec, params), batch, nodes=[grid.n_steps])
            alone.append(None)
        except varexp_cir.PathOverflowError as exc:
            alone.append((exc.step_index, exc.path_index))
    assert alone == [None, (7, 265), (6, 58)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    errs = []
    for workers in (1, 2, 3):
        forks = _workers(monkeypatch, workers)
        code, stdout, err = _cli("compare", "--exponents", "p3,p1", "--no-svg", "--config",
                                 str(cfg), "--out", str(tmp_path / "o"))
        assert (code, stdout, len(forks)) == (3, "", workers - 1)
        errs.append(err)
    assert errs == ["numeric failure: non-finite state produced at path 58, step 6\n"] * 3
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [cfg]


def test_stderr_before_an_overflow_exit_is_the_same_at_every_worker_count(tmp_path):
    # numpy's overflow warning was printed once by every process whose rows
    # overflowed; the kernel's own finiteness check is the one report. 1,000
    # paths are one chunk, and split in two or three parts they put the
    # overflowing paths 495 and 732 in two different processes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"xi": 100, "v0": 100}))
    argv = ["simulate", "--model", "pkm:a=0,b=1.5", "--paths", "1000", "--T", "1",
            "--dt", "0.01", "--seed", "7", "--config", str(cfg), "--out", str(tmp_path / "o")]
    script = (  # a fresh process prints warnings as a user sees them, its workers' too
        "import sys, pytest\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "from test_cli import _workers\n"
        "from varexp_cir.cli import run\n"
        "forks = _workers(pytest.MonkeyPatch(), int(sys.argv[1]))\n"
        "code = run(sys.argv[2:])\n"
        "print(len(forks))\n"
        "sys.exit(code)\n"
    )
    src = str(Path(varexp_cir.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    errs = []
    for workers in (1, 2, 3):
        proc = subprocess.run(
            [sys.executable, "-c", script, str(workers), *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (3, f"{workers - 1}\n"), proc.stderr
        errs.append(proc.stderr)
    assert "RuntimeWarning" not in errs[0]
    assert errs == ["numeric failure: non-finite state produced at path 732, step 11\n"] * 3


@pytest.mark.parametrize("failure", ["memory-error", "killed", "parent-fails-first"])
def test_failing_worker_exits_two_and_leaves_nothing_behind(capsys, tmp_path, monkeypatch, failure):
    import signal
    import time

    import varexp_cir.cli as cli

    _workers(monkeypatch, 2)
    real_sample_batch = cli.sample_batch

    def failing(seed, paths, grid, out=None):
        in_child = paths.start > 0
        if failure == "memory-error" and in_child:
            raise MemoryError
        if failure == "killed" and in_child:
            os.kill(os.getpid(), signal.SIGKILL)
        if failure == "parent-fails-first":
            if in_child:
                time.sleep(60)  # still walking when the parent leaves
            else:
                raise MemoryError
        return real_sample_batch(seed, paths, grid, out=out)

    monkeypatch.setattr(cli, "sample_batch", failing)
    out = tmp_path / "oom"
    started = time.monotonic()
    code, stdout, err = _run(capsys, "compare", "--paths", "200", "--T", "0.1", "--no-svg",
                             "--out", str(out))
    assert time.monotonic() - started < 30
    assert code == 2 and err.startswith("error: not enough memory")
    assert "Traceback" not in err and stdout == ""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker was reaped
    # no output or temporary file, and no output directory
    assert not [p for p in tmp_path.rglob("*") if p.is_file()] and not out.exists()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_an_error_in_a_later_part_is_raised_as_in_one_process(tmp_path, monkeypatch, workers):
    # a worker exits 1 on any exception, and this process walks its part again, so
    # run() raises the error itself at every split, not a report of it
    import varexp_cir.cli as cli

    forks, real_sample_batch = _workers(monkeypatch, workers), cli.sample_batch

    def failing(seed, paths, grid, out=None):
        if 199 in paths:
            raise TypeError("the last part's stub")
        return real_sample_batch(seed, paths, grid, out=out)

    monkeypatch.setattr(cli, "sample_batch", failing)
    with pytest.raises(TypeError, match="^the last part's stub$"):
        _cli("compare", "--paths", "200", "--T", "0.1", "--no-svg", "--out", str(tmp_path / "o"))
    assert len(forks) == workers - 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker was reaped
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


def test_cli_walk_equals_the_library_on_a_full_batch(capsys, tmp_path):
    # T = 0.1 is not a checkpoint: the walk keeps it for the histogram only
    out = tmp_path / "walk"
    code, _, err = _run(
        capsys, "compare", "--paths", "200", "--T", "0.1", "--checkpoints", "0.025,0.05",
        "--no-svg", "--out", str(out),
    )
    assert code == 0, err
    batch = sample_batch(42, 200, make_grid(0.1, 0.001))
    checkpoints = (0.025, 0.05)
    for spec in ("cir", "gm:p1", "gm:p2", "gm:p3"):
        pb = simulate_batch(parse_model(spec, ModelParams(2.0, 0.05, 0.3, 0.05)), batch)
        summary = json.loads((out / f"{pb.model.model_id}_summary.json").read_text())
        expected = {
            "moments": check_moment_bounds(pb, (2, 3, 4), checkpoints),
            "martingale": martingale_report(pb, checkpoints),
            "terminal_histogram": terminal_histogram(pb, 0.1, 50),
        }
        assert {key: summary[key] for key in expected} == json.loads(json_text(expected)), spec


def test_memory_is_bounded_by_the_kept_state(capsys, tmp_path, monkeypatch):
    import varexp_cir.cli as cli

    # 40,000 paths x 100 steps in chunks of 1000 paths: the run holds 4
    # models x 40,000 paths x 9 kept values (11.5 MB) plus one 0.8 MB
    # chunk; the whole increment matrix alone would be 32 MB. The kept
    # values and each chunk live in shared mappings, which tracemalloc does
    # not see, so the most bytes mapped at once are added to its peak
    import weakref

    monkeypatch.setattr(cli, "_CHUNK", 1000 * 100)
    mapped, real_shared = [0, 0], cli._shared  # bytes mapped now, and the most at once

    def shared(count):
        array = real_shared(count)  # its mapping is unmapped when the array is freed
        mapped[0] += 8 * count
        mapped[1] = max(mapped)
        weakref.finalize(array, lambda: mapped.__setitem__(0, mapped[0] - 8 * count))
        return array

    monkeypatch.setattr(cli, "_shared", shared)
    tracemalloc.start()
    try:
        code, _, err = _run(
            capsys, "compare", "--paths", "40000", "--T", "0.1", "--no-svg",
            "--out", str(tmp_path / "big"),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert mapped[1] and peak + mapped[1] < 20 * 10**6


@pytest.mark.parametrize(
    "flag",
    [
        ["--paths", "5"], ["--bins", "0"], ["--out", "/nonexistent"], ["--exponents", "p1"],
        ["--no-svg"], ["--policy", "reflect"], ["--orders", "2"], ["--checkpoints", "0.5"],
    ],
)
def test_picard_verify_rejects_flags_it_does_not_read(capsys, flag):
    code, _, err = _run(capsys, "picard-verify", "--T", "0.01", *flag)
    assert code == 2
    assert "unrecognized arguments" in err


def test_dump_paths_is_refused_before_a_draw(capsys, tmp_path, monkeypatch):
    # every path at every node replays from the library (README), so no run writes more
    # than path 0, and the retired flag is an unknown one
    import varexp_cir.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("sample_batch called for a refused flag")

    monkeypatch.setattr(cli, "sample_batch", refuse)
    for command in ("simulate", "compare"):
        out = tmp_path / command
        code, stdout, err = _run(capsys, command, "--dump-paths", "--out", str(out))
        assert (code, stdout) == (2, "") and not out.exists()
        assert err == "error: unrecognized arguments: --dump-paths\n"


def test_python_dash_m_runs_the_cli():
    src = str(Path(varexp_cir.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for module in ("varexp_cir", "varexp_cir.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "feller", "--model", "cir"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verdict"] == "non-attainable"


def _old_csv_text(header, rows):
    """The CSV bytes of the one-string writer write_csv replaced."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row)
        )
    return "\n".join(lines) + "\n"


def test_path_csv_bytes_equal_the_one_string_formula(capsys, tmp_path):
    out = tmp_path / "path0"
    code, _, _ = _run(
        capsys,
        "simulate", "--model", "cir", "--paths", "8", "--T", "0.01",
        "--seed", "7", "--out", str(out),
    )
    assert code == 0
    grid = make_grid(0.01, 0.001)
    pb = simulate_batch(cir_model(ModelParams(2.0, 0.05, 0.3, 0.05)), sample_batch(7, 8, grid))
    rows = [(t, 0, v) for t, v in zip(grid.times, pb.values[0])]
    assert (out / "cir_path.csv").read_text() == _old_csv_text(["t", "path_id", "v"], rows)


def test_write_csv_streams_rows(tmp_path):
    def rows():
        for i in range(30_000):  # 1.1 MB of text
            yield (i * 1e-3, i % 7, 0.05 + i * 1e-9)

    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_csv(path, ["t", "path_id", "v"], ("%.17g,%d,%.17g\n" % row for row in rows()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    text = _old_csv_text(["t", "path_id", "v"], rows())
    assert path.read_text() == text
    assert peak < len(text) / 4
    assert [p.name for p in tmp_path.iterdir()] == ["big.csv"]  # no temporary left

    def failing_rows():
        yield from ["0,0,0.05\n"] * 3000  # some rows reach the file first
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError):
        write_csv(tmp_path / "partial.csv", ["t", "path_id", "v"], failing_rows())
    assert [p.name for p in tmp_path.iterdir()] == ["big.csv"]


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["feller", "--model", "cir"], 0),
        (["feller", "--model", "cir", "--config", "CFG"], 1),
        (["compare", "--paths", "8", "--T", "0.01", "--no-svg", "--out", "OUT"], 0),
    ],
)
def test_closed_stdout_keeps_the_computed_exit_code(monkeypatch, tmp_path, argv, expected):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kappa": 0.1, "theta": 0.05, "xi": 1.0, "v0": 0.05}))
    argv = [str(cfg) if a == "CFG" else str(tmp_path / "out") if a == "OUT" else a for a in argv]
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert run(argv) == expected


def test_reader_closing_stdout_early_is_not_an_error():
    src = str(Path(varexp_cir.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "varexp_cir", "feller", "--model", "cir"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    proc.stdout.close()  # no reader is left before the CLI writes anything
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0, err
    assert "Traceback" not in err and "Exception ignored" not in err
    assert "feller cir: non-attainable" in err


@pytest.mark.parametrize("command", ["compare", "moments"])
@pytest.mark.parametrize("stage", ["sample_batch", "simulate_models"])  # the names the walk calls
def test_out_of_memory_exits_two_without_traceback(capsys, tmp_path, monkeypatch, command, stage):
    import varexp_cir.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, stage, exhausted)
    argv = [command, "--paths", "10", "--T", "0.1"]
    if command == "compare":
        argv += ["--no-svg", "--out", str(tmp_path / "oom")]
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: not enough memory")
    assert "Traceback" not in err
    assert out == ""
