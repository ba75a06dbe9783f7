import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import varexp_cir
from varexp_cir import ModelParams, cir_model, make_grid, sample_batch, simulate_batch
from varexp_cir.cli import json_text, run, write_csv


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_simulate_dump_paths(capsys, tmp_path):
    out = tmp_path / "dump"
    code, _, _ = _run(
        capsys,
        "simulate", "--model", "cir", "--paths", "8", "--T", "0.01",
        "--seed", "7", "--out", str(out), "--dump-paths",
    )
    assert code == 0
    lines = (out / "cir_path.csv").read_text().splitlines()
    assert len(lines) == 1 + 8 * 11


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, config, expected",
    [
        pytest.param(["lipschitz", "--n", HUGE_N], None, 2, id="lipschitz-huge-n"),
        pytest.param(["picard-verify", "--n", HUGE_N], None, 2, id="picard-huge-n"),
        pytest.param(["lipschitz", "--n", str(10**150)], None, 2, id="lipschitz-n-past-int64"),
        pytest.param(["simulate", "--T", "1e300", "--dt", "1e-300"], None, 2, id="grid-inf-steps"),
        pytest.param(["simulate"], {"paths": None}, 2, id="config-paths-null"),
        pytest.param(["simulate"], {"kappa": [1]}, 2, id="config-kappa-list"),
        pytest.param(["feller"], {"kappa": [1]}, 2, id="feller-config-kappa-list"),
        pytest.param(
            ["simulate", "--model", "cir", "--paths", "8", "--T", "0.01"], {"xi": 1e300}, 3,
            id="huge-xi-overflow",
        ),
        pytest.param(["simulate", "--seed", "-1", "--paths", "4"], None, 2, id="negative-seed"),
        pytest.param(["simulate", "--seed", str(2**64), "--paths", "4"], None, 2, id="seed-64-bit"),
        pytest.param(["simulate", "--dt", "0.0003", "--paths", "4"], None, 2, id="off-grid-dt"),
        pytest.param(["simulate", "--model", "heston"], None, 2, id="unknown-model"),
        pytest.param(["compare", "--paths", "0"], None, 2, id="zero-paths"),
    ],
)
def test_hostile_input_exit_codes(capsys, tmp_path, argv, config, expected):
    argv = list(argv)
    if argv[0] in ("simulate", "compare"):
        argv += ["--out", str(tmp_path / "out")]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    code, _, err = _run(capsys, *argv)
    assert code == expected
    assert "Traceback" not in err


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

    # 100 paths x 100 steps: the increments alone (10^4) fit under the cap,
    # the increments plus a path matrix (100 x 201) do not
    monkeypatch.setattr(stochastic, "MAX_STORED_INCREMENTS", 10_000)
    real_sample_batch = cli.sample_batch

    def refuse(*args, **kwargs):
        raise AssertionError("sample_batch called for an oversized run")

    monkeypatch.setattr(cli, "sample_batch", refuse)
    out = tmp_path / "big"
    code, _, err = _run(capsys, "compare", "--paths", "100", "--T", "0.1", "--out", str(out))
    assert code == 2
    assert "cap" in err
    assert not out.exists()

    monkeypatch.setattr(cli, "sample_batch", real_sample_batch)
    code, _, _ = _run(capsys, "compare", "--paths", "49", "--T", "0.1", "--out", str(out))
    assert code == 0  # 49 x 201 = 9849 values fit


@pytest.mark.parametrize(
    "flag",
    [
        ["--paths", "5"], ["--bins", "0"], ["--out", "/nonexistent"], ["--dump-paths"],
        ["--no-svg"], ["--policy", "reflect"], ["--orders", "2"], ["--checkpoints", "0.5"],
    ],
)
def test_picard_verify_rejects_flags_it_does_not_read(capsys, flag):
    code, _, err = _run(capsys, "picard-verify", "--T", "0.01", *flag)
    assert code == 2
    assert "unrecognized arguments" in err


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


def test_dump_paths_bytes_equal_the_one_string_formula(capsys, tmp_path):
    # 400 paths x 11 nodes = 4400 rows: several chunks of rows
    out = tmp_path / "dump"
    code, _, _ = _run(
        capsys,
        "simulate", "--model", "cir", "--paths", "400", "--T", "0.01",
        "--seed", "7", "--out", str(out), "--dump-paths",
    )
    assert code == 0
    grid = make_grid(0.01, 0.001)
    pb = simulate_batch(cir_model(ModelParams(2.0, 0.05, 0.3, 0.05)), sample_batch(7, 400, grid))
    rows = [
        (grid.times[j], i, pb.values[i, j]) for i in range(400) for j in range(grid.n_steps + 1)
    ]
    expected = _old_csv_text(["t", "path_id", "v"], rows)
    assert (out / "cir_path.csv").read_text() == expected


def test_write_csv_streams_rows(tmp_path):
    def rows():
        for i in range(200_000):
            yield (i * 1e-3, i % 7, 0.05 + i * 1e-9)

    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_csv(path, ["t", "path_id", "v"], rows())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    text = _old_csv_text(["t", "path_id", "v"], rows())
    assert path.read_text() == text
    assert peak < len(text) / 4
    assert [p.name for p in tmp_path.iterdir()] == ["big.csv"]  # no temporary left

    def failing_rows():
        yield from [(0.0, 0, 0.05)] * 3000  # past the first chunk
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
