"""Command-line front end reproducing the simulation experiments end to end.

One subcommand per verifiable claim plus the figure pipeline:

* ``validate-exponent`` -- numerical admissibility check of an exponent
* ``feller``            -- zero-boundary non-attainability test
* ``lipschitz``         -- truncation Lipschitz constants (JSON)
* ``simulate``          -- one model, summary JSON + CSVs + manifest
* ``compare``           -- CIR baseline vs variable-exponent models on
                           common random numbers, CSV/JSON/SVG outputs
* ``moments``           -- empirical moments vs growth ceilings
* ``martingale``        -- drift-compensated statistic check
* ``picard-verify``     -- Picard fixed point vs Euler on truncated
                           coefficients

Exit codes: 0 success, 1 verification check failed, 2 config/usage
error or not enough memory, 3 numeric failure (overflow,
non-convergence). Verification subcommands print their report as JSON
on stdout; file-producing subcommands print a one-line summary. A
reader that closes stdout early (``| head``) does not change the exit
code. All floats are serialized with 17 significant digits and files
are written atomically, so identical configurations produce
byte-identical outputs.

``python -m varexp_cir`` runs the same command line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from pathlib import Path as FsPath

import numpy as np
import scipy

from . import __version__, analysis, solver, stochastic
from .analysis import check_moment_bounds, martingale_report, terminal_histogram
from .exponent import (
    HypothesisViolationError,
    constant_exponent,
    make_builtin,
    validate_hypotheses,
)
from .figures import svg_histogram, svg_line_plot
from .model import ModelParams, feller_check, parse_model
from .solver import PathOverflowError, euler_maruyama_truncated, picard_solve, simulate_batch
from .stochastic import make_grid, path_increments, sample_batch
from .truncation import TruncationParams, lipschitz_constants

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

POLICY_NAMES = {
    "full-trunc": "full-truncation",
    "reflect": "reflection",
    # canonical names accepted too, so a manifest's config echo round-trips
    "full-truncation": "full-truncation",
    "reflection": "reflection",
}


# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def json_text(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [json_text(v, indent + 2) for v in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        items = [f'{json.dumps(str(k))}: {json_text(v, indent + 2)}' for k, v in obj.items()]
        if not items:
            return "{}"
        return "{\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def atomic_write(path: FsPath, text):
    """Write text, a string or an iterable of string chunks, to a temporary
    file beside path and move it into place."""
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    try:
        with open(tmp, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


#: Rows formatted per chunk of write_csv; a path CSV chunk is about 50 KB of text.
_CSV_CHUNK_ROWS = 1024


def _csv_chunks(header: list[str], rows):
    yield ",".join(header) + "\n"
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, _CSV_CHUNK_ROWS)):
        yield "".join(
            ",".join(
                format(v, ".17g") if isinstance(v, (float, np.floating)) else str(v)
                for v in row
            )
            + "\n"
            for row in chunk
        )


def write_csv(path: FsPath, header: list[str], rows):
    """Write a CSV atomically, formatting and writing the rows in fixed
    chunks so the file's text is never held whole."""
    atomic_write(path, _csv_chunks(header, rows))


# ---------------------------------------------------------------------------
# settings: flag, then config file, then VAREXP_SEED (seed only), then default

def _items(value) -> list:
    """A list setting: a JSON list, or one comma-separated string."""
    return list(value) if isinstance(value, (list, tuple)) else str(value).split(",")


def _int(value) -> int:
    """An integer setting; a number with a fractional part is refused."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value} is not an integer")
    return int(value)


def _ints(value) -> tuple:
    return tuple(_int(v) for v in _items(value))


def _checkpoints(value) -> tuple | None:
    return None if value is None else tuple(float(v) for v in _items(value))


def _policy(value) -> str:
    if value not in POLICY_NAMES:
        raise ValueError(f"unknown policy {value!r}; expected full-trunc or reflect")
    return POLICY_NAMES[value]


#: setting -> (default, cast). Defaults reproduce the reference experiment.
PARAMS = {"kappa": (2.0, float), "theta": (0.05, float), "xi": (0.3, float), "v0": (0.05, float)}
SETTINGS = {
    "T": (1.0, float),
    "dt": (0.001, float),
    "paths": (5000, _int),
    "seed": (42, _int),
    "policy": ("full-trunc", _policy),
    "bins": (50, _int),
    "orders": ("2,3,4", _ints),
    "checkpoints": (None, _checkpoints),
    "out": (".", FsPath),
}


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    raw = FsPath(path).read_text()
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed config file {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return cfg


def _setting(ns, cfg: dict, key: str):
    """Resolve one setting; a value its cast refuses, a boolean where a value
    or list item is expected, or an empty list, is a usage error."""
    default, cast = {**PARAMS, **SETTINGS}[key]
    if getattr(ns, key, None) is not None:
        value, source = getattr(ns, key), f"--{key}"
    elif key in cfg:
        value, source = cfg[key], f"config key {key!r}"
    elif key == "seed" and "VAREXP_SEED" in os.environ:
        value, source = os.environ["VAREXP_SEED"], "VAREXP_SEED"
    else:
        value, source = default, "default"
    try:
        items = value if isinstance(value, list) else [value]
        if not items or any(isinstance(v, bool) for v in items):
            raise TypeError("a boolean or an empty list is not a setting value")
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{source} has a malformed value {value!r}") from None


def _params(ns, cfg: dict) -> ModelParams:
    return ModelParams(*(_setting(ns, cfg, key) for key in PARAMS))


def _run_config(ns):
    """(settings, model parameters, grid) of a simulating subcommand."""
    cfg = _load_config_file(ns.config)
    settings = {key: _setting(ns, cfg, key) for key in SETTINGS}
    return settings, _params(ns, cfg), make_grid(settings["T"], settings["dt"])


def _versions() -> dict:
    return {
        "varexp_cir": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }


# ---------------------------------------------------------------------------
# simulation and per-model outputs

#: Increments per chunk of paths: 8,388 paths (64 MB) at N = 1000, so the reference
#: run is one chunk; smaller chunks pay numpy's per-call overhead on every step.
_CHUNK = 2**23


def _simulate(settings: dict, params: ModelParams, grid, specs: list[str], dump):
    """Walk the paths in chunks of rows, each filled once, hashed in row order
    and driving every model; return the increment checksum and one (spec,
    path batch) per model, holding the checkpoints and T. With dump, chunks
    keep every node and go to dump(path batch, first path). A repeated model
    or a run whose kept state plus one chunk passes the cap is refused first."""
    models = [(spec, parse_model(spec, params)) for spec in specs]
    if len({model.model_id for _, model in models}) < len(models):
        raise ValueError(f"the models {', '.join(specs)} name one model more than once")
    m_paths, n_steps = settings["paths"], grid.n_steps
    if m_paths < 1:
        raise ValueError("paths must be at least 1")
    checkpoints = settings["checkpoints"] or analysis.default_checkpoints(grid)
    nodes = sorted({grid.index_of(t) for t in checkpoints} | {n_steps})
    rows = min(max(1, _CHUNK // n_steps), m_paths)
    held = m_paths * len(models) * (2 * len(nodes) + 1) + rows * n_steps
    if held > stochastic.MAX_STORED_INCREMENTS:
        raise ValueError(
            f"{m_paths} paths of {n_steps} steps hold {held} values, "
            f"above the cap of {stochastic.MAX_STORED_INCREMENTS}"
        )
    shape = (m_paths, len(nodes))
    runs = [(spec, solver.PathBatch(
        model, grid, np.array(nodes), np.empty(shape, order="F"), np.empty(shape, order="F"),
        np.empty(m_paths, dtype=np.int64), np.empty(n_steps + 1), settings["policy"],
    )) for spec, model in models]
    columns = nodes if dump else slice(None)
    h = stochastic.checksum_start(m_paths, n_steps)
    for start in range(0, m_paths, rows):
        batch = sample_batch(settings["seed"], range(start, min(start + rows, m_paths)), grid)
        stochastic.hash_rows(h, batch.increments)
        for _, run in runs:
            pb = simulate_batch(run.model, batch, settings["policy"], None if dump else nodes)
            run.values[start : start + rows] = pb.values[:, columns]
            run.compensated[start : start + rows] = pb.compensated[:, columns]
            run.clamp_counts[start : start + rows] = pb.clamp_counts
            if start == 0:
                run.path0[:] = pb.path0
            if dump:
                dump(pb, start)
        del batch, pb  # free the chunk before the next one is filled
    return h.hexdigest(), runs


class _PathDump:
    """--dump-paths: every path at every node, appended a chunk at a time to a
    temporary file per model, moved into place (or removed) as the with block ends."""

    def __init__(self, out: FsPath, grid):
        self.out, self.files = out, {}
        self.times = [format(t, ".17g") for t in grid.times.tolist()]

    def __call__(self, pb, first_path: int):
        path = self.out / f"{pb.model.model_id}_path.csv"
        if path not in self.files:
            self.out.mkdir(parents=True, exist_ok=True)
            self.files[path] = open(path.with_name(path.name + f".tmp-{os.getpid()}"), "w")
            self.files[path].write("t,path_id,v\n")
        for i in range(pb.m_paths):
            row = zip(self.times, pb.values[i].tolist())
            self.files[path].write("".join([f"{t},{first_path + i},{v:.17g}\n" for t, v in row]))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        for path, fh in self.files.items():
            fh.close()
            if exc_type is None:
                os.replace(fh.name, path)
            else:
                os.unlink(fh.name)


def _model_outputs(settings: dict, checksum: str, pb, dump_paths: bool):
    """Write summary JSON, path CSV (unless dumped) and histogram CSV for the
    model of one path batch; return the summary, the histogram and the file names."""
    grid, mid = pb.grid, pb.model.model_id
    checkpoints = settings["checkpoints"]
    hist = terminal_histogram(pb, grid.horizon, settings["bins"])
    summary = {
        "model": mid,
        "seed": settings["seed"],
        "policy": pb.policy,
        "grid": {"T": grid.horizon, "dt": grid.dt, "n_steps": grid.n_steps},
        "m_paths": pb.m_paths,
        "increment_checksum": checksum,
        "clamp": {
            "clamped_steps": int(pb.clamp_counts.sum()),
            "fraction": pb.clamp_fraction,
        },
        "moments": [r.to_dict() for r in check_moment_bounds(pb, settings["orders"], checkpoints)],
        "martingale": martingale_report(pb, checkpoints).to_dict(),
        "terminal_histogram": hist.to_dict(),
    }
    files = [f"{mid}_summary.json", f"{mid}_path.csv", f"{mid}_hist.csv"]
    out = settings["out"]
    atomic_write(out / files[0], json_text(summary) + "\n")
    if not dump_paths:
        rows = zip(grid.times, itertools.repeat(0), pb.path0)
        write_csv(out / files[1], ["t", "path_id", "v"], rows)
    hist_rows = zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts, hist.densities)
    write_csv(out / files[2], ["bin_left", "bin_right", "count", "density"], hist_rows)
    return summary, hist, files


def _figures(out: FsPath, times, runs) -> list[str]:
    """Figure pair per exponent: sample path overlay and terminal
    histogram overlay of the CIR baseline (the first run) vs the
    variable-exponent run, both driven by common increments. Path index
    0 is shown so outputs are reproducible."""
    files = []
    _, _, cir_path, cir_hist = runs[0]
    for spec, _, path0, hist in runs[1:]:
        exponent_name = spec[len("gm:"):]
        slug = exponent_name.replace(":", "_")
        path_name = f"fig_{slug}_path.svg"
        hist_name = f"fig_{slug}_hist.svg"
        path_svg = svg_line_plot(
            [("cir", times, cir_path), (f"gm {exponent_name}", times, path0)],
            title=f"Sample path (path 0): cir vs gm {exponent_name}",
        )
        hist_svg = svg_histogram(
            [
                ("cir", cir_hist.bin_edges, cir_hist.densities),
                (f"gm {exponent_name}", hist.bin_edges, hist.densities),
            ],
            title=f"Terminal distribution: cir vs gm {exponent_name}",
        )
        atomic_write(out / path_name, path_svg)
        atomic_write(out / hist_name, hist_svg)
        files.extend([path_name, hist_name])
    return files


def _write_runs(ns, specs: list[str], figures: bool):
    """The simulate/compare pipeline: one walk over the paths, per-model
    outputs, optional figures, then the manifest. Returns the settings, the
    increment checksum and one (spec, summary, path 0, histogram) per model.
    """
    settings, params, grid = _run_config(ns)
    out = settings["out"]
    dump_paths = getattr(ns, "dump_paths", False)
    with _PathDump(out, grid) as dump:
        checksum, runs = _simulate(settings, params, grid, specs, dump if dump_paths else None)
    out.mkdir(parents=True, exist_ok=True)
    results, outputs = [], []
    for spec, pb in runs:
        summary, hist, files = _model_outputs(settings, checksum, pb, dump_paths)
        results.append((spec, summary, pb.path0, hist))
        outputs.extend(files)
    if figures:
        outputs.extend(_figures(out, grid.times, results))
    manifest = {
        "command": ns.command,
        "config": {
            **params.to_dict(),
            **{k: v for k, v in settings.items() if k != "out"},
            "dump_paths": dump_paths,
            "no_svg": getattr(ns, "no_svg", False),
            "models": specs,
            "out": str(out),
        },
        "increment_checksum": checksum,
        "clamp_stats": {summary["model"]: summary["clamp"] for _, summary, _, _ in results},
        "versions": _versions(),
        "outputs": sorted(outputs + ["manifest.json"]),
    }
    atomic_write(out / "manifest.json", json_text(manifest) + "\n")
    return settings, checksum, results


# ---------------------------------------------------------------------------
# subcommand handlers: file-producing ones return a summary line for run()
# to print on stdout; verification ones return (payload, ok, summary) for
# run() to print, with ok None for a numeric failure

def cmd_simulate(ns):
    settings, _, results = _write_runs(ns, [ns.model], figures=False)
    summary = results[0][1]
    return (
        f"simulate {summary['model']}: M={settings['paths']} seed={settings['seed']} "
        f"clamp_fraction={summary['clamp']['fraction']:.3g} -> {settings['out']}"
    )


def cmd_compare(ns):
    exponents = [e.strip() for e in ns.exponents.split(",") if e.strip()]
    if not exponents:
        raise ValueError("--exponents must name at least one exponent")
    specs = ["cir"] + [f"gm:{e}" for e in exponents]
    settings, checksum, _ = _write_runs(ns, specs, figures=not ns.no_svg)
    return (
        f"compare cir+{','.join(exponents)}: M={settings['paths']} seed={settings['seed']} "
        f"checksum={checksum[:12]} -> {settings['out']}"
    )


def cmd_validate_exponent(ns):
    try:
        fn = make_builtin(ns.exponent)
    except HypothesisViolationError:
        # out-of-range constant: diagnose it instead of refusing
        fn = constant_exponent(float(ns.exponent.split(":", 1)[1]))
    report = validate_hypotheses(fn)
    payload = {"exponent": ns.exponent, **report.to_dict()}
    return payload, report.passed, f"validate-exponent {ns.exponent}: {report.verdict}"


def cmd_feller(ns):
    model = parse_model(ns.model, _params(ns, _load_config_file(ns.config)))
    report = feller_check(model)
    payload = {"model": model.model_id, **report.to_dict()}
    return payload, report.verdict == "non-attainable", f"feller {model.model_id}: {report.verdict}"


def cmd_lipschitz(ns):
    model = parse_model(ns.model, _params(ns, _load_config_file(ns.config)))
    report = lipschitz_constants(TruncationParams(n=ns.n), model)
    ok = report.empirical_sup_quotient <= report.Lg_n * (1.0 + 1e-12)
    return report.to_dict(), ok, f"lipschitz n={ns.n}: {'ok' if ok else 'violated'}"


def cmd_moments(ns):
    settings, params, grid = _run_config(ns)
    _, [(_, pb)] = _simulate(settings, params, grid, [ns.model], None)
    reports = check_moment_bounds(pb, settings["orders"], settings["checkpoints"])
    ok = all(r.satisfied for r in reports)
    payload = {"model": pb.model.model_id, "reports": [r.to_dict() for r in reports]}
    return payload, ok, f"moments {pb.model.model_id}: {'ok' if ok else 'violated'}"


def cmd_martingale(ns):
    settings, params, grid = _run_config(ns)
    _, [(_, pb)] = _simulate(settings, params, grid, [ns.model], None)
    report = martingale_report(pb, settings["checkpoints"])
    payload = {"model": pb.model.model_id, **report.to_dict()}
    verdict = "ok" if report.satisfied else "violated"
    return payload, report.satisfied, f"martingale {pb.model.model_id}: {verdict}"


def cmd_picard_verify(ns):
    settings, params, grid = _run_config(ns)
    model = parse_model(ns.model, params)
    tp = TruncationParams(n=ns.n)
    row = path_increments(settings["seed"], 0, grid)
    report = picard_solve(tp, model, grid, row, tol=ns.tol, k_max=ns.kmax)
    if not report.converged:
        return report.to_dict(), None, f"picard-verify: no convergence within {ns.kmax} iterations"
    euler = euler_maruyama_truncated(tp, model, grid, row[None])[0]
    sup_diff = float(np.max(np.abs(report.fixed_point - euler)))
    ok = sup_diff <= ns.tol
    payload = {"model": model.model_id, "n": ns.n, **report.to_dict()}
    payload["sup_diff_vs_euler"] = sup_diff
    summary = (
        f"picard-verify {model.model_id} n={ns.n}: iterations={report.iterations_used} "
        f"sup_diff={sup_diff:.3g} {'ok' if ok else 'violated'}"
    )
    return payload, ok, summary


# ---------------------------------------------------------------------------
# parser: every subcommand declares exactly the flags it reads

FLAGS = {
    "exponent": dict(required=True, help="p1 | p2 | p3 | const:<float>"),
    "exponents": dict(default="p1,p2,p3", help="comma-separated exponent specs"),
    "model": dict(default="gm:p1", help="cir | gm:<exp> | pkm:a=..,b=.."),
    "config": dict(help="JSON config file (keys kappa, theta, xi, v0, ...)"),
    "seed": dict(type=int, help="64-bit seed (default 42; env VAREXP_SEED)"),
    "paths": dict(type=int, help="number of Monte Carlo paths"),
    "dt": dict(type=float, help="time step"),
    "T": dict(type=float, help="horizon"),
    "policy": dict(choices=sorted(POLICY_NAMES), help="positivity policy"),
    "bins": dict(type=int, help="histogram bin count"),
    "orders": dict(help="comma-separated moment orders"),
    "checkpoints": dict(help="comma-separated checkpoint times"),
    "out": dict(help="output directory"),
    "dump-paths": dict(action="store_true", help="write every path to CSV"),
    "no-svg": dict(action="store_true", help="skip SVG figures"),
    "n": dict(type=int, default=10, help="truncation level"),
    "tol": dict(type=float, default=1e-9),
    "kmax": dict(type=int, default=200),
}

_RUN = ("config", "seed", "paths", "dt", "T", "policy")
_OUTPUTS = ("bins", "orders", "checkpoints", "out", "dump-paths")

#: subcommand -> (handler, help, flags, flag defaults that differ)
COMMANDS = {
    "validate-exponent": (
        cmd_validate_exponent, "check exponent admissibility", ("exponent",), {},
    ),
    "feller": (
        cmd_feller, "zero-boundary non-attainability test", ("model", "config"), {"model": "cir"},
    ),
    "lipschitz": (
        cmd_lipschitz, "truncation Lipschitz constants", ("model", "n", "config"), {},
    ),
    "simulate": (
        cmd_simulate, "simulate one model, write outputs", ("model", *_RUN, *_OUTPUTS), {},
    ),
    "compare": (
        cmd_compare, "CIR baseline vs variable-exponent models",
        ("exponents", *_RUN, *_OUTPUTS, "no-svg"), {},
    ),
    "moments": (
        cmd_moments, "empirical moments vs ceilings", ("model", *_RUN, "orders", "checkpoints"), {},
    ),
    "martingale": (
        cmd_martingale, "drift-compensated statistic check", ("model", *_RUN, "checkpoints"), {},
    ),
    "picard-verify": (
        cmd_picard_verify, "Picard fixed point vs Euler recursion",
        ("model", "n", "tol", "kmax", "config", "seed", "dt", "T"), {},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varexp-cir",
        description="Simulation and verification toolkit for mean-reverting "
        "diffusions with variable-exponent volatility.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags, defaults) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.set_defaults(func=handler, **defaults)
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = ns.func(ns)
    except PathOverflowError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # a size under the storage cap can still exceed this machine's memory
        print("error: not enough memory for this run; use fewer paths or a coarser grid",
              file=sys.stderr)
        return EXIT_USAGE
    if isinstance(result, str):
        _say(result, sys.stdout)
        return EXIT_OK
    payload, ok, summary = result
    _say(json_text(payload), sys.stdout)
    _say(summary, sys.stderr)
    if ok is None:
        return EXIT_NUMERIC
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _say(text: str, stream):
    """Print one line; a reader that has closed the stream is not an error.

    The stream's file descriptor is then pointed at the null device, so
    the flush at interpreter exit does not fail on it again.
    """
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        try:
            fd = stream.fileno()
        except (AttributeError, OSError, ValueError):
            return  # not backed by a file descriptor: nothing is left to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
