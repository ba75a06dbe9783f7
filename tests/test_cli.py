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
    check_moment_bounds,
    cir_model,
    make_grid,
    martingale_report,
    parse_model,
    sample_batch,
    simulate_batch,
    terminal_histogram,
)
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
        pytest.param(["lipschitz", "--n", "185363"], None, 0, id="lipschitz-n-at-max-band"),
        pytest.param(["lipschitz", "--n", "185364"], None, 2, id="lipschitz-n-past-max-band"),
        pytest.param(["picard-verify", "--n", "185364"], None, 2, id="picard-n-past-max-band"),
        pytest.param(["picard-verify", "--tol", "inf"], None, 2, id="picard-tol-inf"),
        pytest.param(["picard-verify", "--tol", "nan"], None, 2, id="picard-tol-nan"),
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
    if config is not None and expected == 2:
        assert f"config key {next(iter(config))!r}" in err  # the refusal names its source


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
    # path, 100 steps each): 100 paths hold 3600 + 10^4 values, past the
    # cap, while 49 paths hold 1764 + 4900 = 6664
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
    assert code == 0


def _walk(capsys, tmp_path, monkeypatch, rows):
    """Outputs of compare --dump-paths, moments and martingale on 200 paths of
    100 steps, walked in chunks of ``rows`` paths: compare's files and
    manifest (its output directory left out), then the two stdouts."""
    import varexp_cir.cli as cli

    monkeypatch.setattr(cli, "_CHUNK", rows * 100)
    filled = []
    real_sample_batch = cli.sample_batch

    def counted(seed, paths, grid):
        filled.append(len(paths))
        return real_sample_batch(seed, paths, grid)

    monkeypatch.setattr(cli, "sample_batch", counted)
    run = ["--paths", "200", "--T", "0.1"]
    out = tmp_path / f"rows{rows}"
    code, _, err = _run(capsys, "compare", *run, "--dump-paths", "--out", str(out))
    assert code == 0, err
    assert filled == [rows] * (200 // rows) + [200 % rows] * (200 % rows > 0)
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["config"]["out"]
    stdouts = [_run(capsys, cmd, "--model", "gm:p2", *run)[1] for cmd in ("moments", "martingale")]
    return files, manifest, stdouts


def test_every_chunk_size_gives_the_same_bytes(capsys, tmp_path, monkeypatch):
    files, manifest, stdouts = _walk(capsys, tmp_path, monkeypatch, 200)  # one chunk
    assert len(files) == 18 and all(stdouts)
    for rows in (1, 31, 32, 33, 64):
        assert _walk(capsys, tmp_path, monkeypatch, rows) == (files, manifest, stdouts), rows


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


def _split_outputs(capsys, out):
    """compare's files, manifest (its output directory left out) and stdout,
    then the stdouts of moments and martingale, on 200 paths of 100 steps."""
    run = ["--paths", "200", "--T", "0.1"]
    code, stdout, err = _run(capsys, "compare", *run, "--out", str(out))
    assert code == 0, err
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["config"]["out"]
    stdouts = [stdout.replace(str(out), "<out>")]
    for cmd in ("moments", "martingale"):
        stdouts.append(_run(capsys, cmd, "--model", "gm:p2", *run)[1])
    return files, manifest, stdouts


def test_every_worker_count_gives_the_same_bytes(capsys, tmp_path, monkeypatch):
    import varexp_cir.cli as cli

    def outputs(workers, rows):
        monkeypatch.setattr(cli, "_CHUNK", rows * 100)
        forks = _workers(monkeypatch, workers)
        result = _split_outputs(capsys, tmp_path / f"w{workers}r{rows}")
        rounds = [min(rows, 200 - start) for start in range(0, 200, rows)]
        assert len(forks) == 3 * sum(min(workers, n) - 1 for n in rounds)
        return result

    expected = outputs(1, 200)
    assert len(expected[0]) == 18 and all(expected[2])
    for workers in (1, 2, 3):
        for rows in (1, 33, 200):
            assert outputs(workers, rows) == expected, (workers, rows)


def test_a_split_past_the_cap_is_walked_in_one_process(capsys, tmp_path, monkeypatch):
    # 49 paths of 100 steps hold 1764 kept values and a 4900-value chunk; split
    # in three, a round also holds its later parts in a shared buffer, 3300
    # values more. Past the cap, that run is walked in one process, so
    # whether a run is refused does not depend on the CPU count
    import varexp_cir.stochastic as stochastic

    forks = _workers(monkeypatch, 3)
    for cap, expected_forks, expected_code in ((9964, 2, 0), (9963, 0, 0), (6663, 0, 2)):
        monkeypatch.setattr(stochastic, "MAX_STORED_INCREMENTS", cap)
        forks.clear()
        code, _, err = _run(capsys, "compare", "--paths", "49", "--T", "0.1", "--no-svg",
                            "--out", str(tmp_path / str(cap)))
        assert (code, len(forks)) == (expected_code, expected_forks), err
    assert "above the cap of 6663" in err


@pytest.mark.parametrize("failing", ["pipe", "fork", "every-second-fork"])
def test_a_failing_fork_walks_the_rest_here(capsys, tmp_path, monkeypatch, failing):
    # out of processes (EAGAIN) or memory (ENOMEM) to fork, or of descriptors
    # for the pipe (EMFILE): the parts left are walked in this process, in
    # row order, with the same bytes as a one-process walk and no pipe left open
    import errno

    import varexp_cir.cli as cli

    expected = _split_outputs(capsys, tmp_path / "one")
    monkeypatch.setattr(cli, "_CHUNK", 33 * 100)
    _workers(monkeypatch, 3)
    real_pipe, real_fork, pipes, forks = os.pipe, os.fork, [], []

    def pipe():
        if failing == "pipe":
            raise OSError(errno.EMFILE, "Too many open files")
        pipes.extend(real_pipe())
        return tuple(pipes[-2:])

    def fork():
        forks.append(1)
        if failing == "fork" or len(forks) % 2 == 0:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    assert _split_outputs(capsys, tmp_path / "split") == expected
    assert len(pipes) == 2 * len(forks) and bool(forks) == (failing != "pipe")
    for fd in pipes:
        with pytest.raises(OSError):
            os.fstat(fd)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "seed, config, rows, message",
    [
        # path 495 overflows at step 12 and path 732 at step 11: a chunk
        # raises the least (step, path) among its own rows
        (7, {"xi": 100, "v0": 100}, 1000, "path 732, step 11"),
        # only path 602 overflows; a chunk must name it by its run index
        (10, {"xi": 30, "v0": 30}, 100, "path 602, step 13"),
        (10, {"xi": 30, "v0": 30}, 300, "path 602, step 13"),
        (10, {"xi": 30, "v0": 30}, 1000, "path 602, step 13"),
    ],
)
def test_overflow_names_the_run_path_at_every_split(
    capsys, tmp_path, monkeypatch, workers, seed, config, rows, message
):
    # a walk of each chunk in one process raises this (path, step); the
    # split into worker parts must neither hide it nor name another
    import varexp_cir.cli as cli

    monkeypatch.setattr(cli, "_CHUNK", rows * 100)
    _workers(monkeypatch, workers)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _, err = _run(
        capsys, "simulate", "--model", "pkm:a=0,b=1.5", "--paths", "1000", "--T", "1",
        "--dt", "0.01", "--seed", str(seed), "--config", str(cfg), "--out", str(tmp_path / "o"),
    )
    assert code == 3
    assert err == f"numeric failure: non-finite state produced at {message}\n"


def test_stderr_before_an_overflow_exit_is_the_same_at_every_worker_count(tmp_path):
    # numpy's overflow warning was printed once by every process whose rows
    # overflowed; the kernel's own finiteness check is the one report
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"xi": 100, "v0": 100}))
    argv = ["simulate", "--model", "pkm:a=0,b=1.5", "--paths", "40000", "--T", "1",
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

    def failing(seed, paths, grid):
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
        return real_sample_batch(seed, paths, grid)

    monkeypatch.setattr(cli, "sample_batch", failing)
    out = tmp_path / "oom"
    started = time.monotonic()
    code, stdout, err = _run(capsys, "compare", "--paths", "200", "--T", "0.1", "--no-svg",
                             "--out", str(out))
    assert time.monotonic() - started < 30
    assert code == 2
    assert err.startswith("error: not enough memory")
    assert "Traceback" not in err and stdout == ""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker was reaped
    assert not out.exists() and not list(tmp_path.rglob("*.tmp-*"))


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
            "moments": [r.to_dict() for r in check_moment_bounds(pb, (2, 3, 4), checkpoints)],
            "martingale": martingale_report(pb, checkpoints).to_dict(),
            "terminal_histogram": terminal_histogram(pb, 0.1, 50).to_dict(),
        }
        assert {key: summary[key] for key in expected} == json.loads(json_text(expected)), spec


def test_memory_is_bounded_by_the_kept_state(capsys, tmp_path, monkeypatch):
    import varexp_cir.cli as cli

    # 40,000 paths x 100 steps in chunks of 1000 paths: the run holds 4
    # models x 40,000 paths x 9 kept values (11.5 MB) plus one 0.8 MB
    # chunk; the whole increment matrix alone would be 32 MB. The kept
    # values live in a shared mapping, which tracemalloc does not see, so
    # the bytes mapped are added to its peak
    monkeypatch.setattr(cli, "_CHUNK", 1000 * 100)
    mapped, real_shared = [], cli._shared
    monkeypatch.setattr(cli, "_shared", lambda n: mapped.append(8 * n) or real_shared(n))
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
    assert mapped and peak + sum(mapped) < 20 * 10**6


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


@pytest.mark.parametrize("command", ["compare", "moments"])
@pytest.mark.parametrize("stage", ["sample_batch", "simulate_batch"])
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
