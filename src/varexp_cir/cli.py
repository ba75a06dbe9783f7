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
import dataclasses
import functools
import itertools
import json
import math
import mmap
import os
import signal
import sys
import warnings
from pathlib import Path as FsPath

import numpy as np
import scipy

from . import __version__, analysis, solver, stochastic
from .analysis import check_moment_bounds, martingale_report, terminal_histogram
from .exponent import make_builtin, validate_hypotheses
from .figures import svg_histogram, svg_line_plot
from .model import ModelParams, feller_check, parse_model
from .solver import PathOverflowError, euler_maruyama_truncated, picard_solve, simulate_models

# Not called here: bench/tracer.py wraps this name in this module.
from .solver import simulate_batch  # noqa: F401
from .stochastic import make_grid, path_increments, sample_batch
from .truncation import TruncationParams, lipschitz_constants

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _payload(report) -> dict:
    """A report's JSON payload: its fields in declaration order, but those
    declared field(repr=False) and those whose value is None."""
    return {f.name: value for f in dataclasses.fields(report)
            if f.repr and (value := getattr(report, f.name)) is not None}


def json_text(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits; a dataclass
    is written as its payload."""
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
        items, brackets = [json_text(v, indent + 2) for v in obj], "[]"
    elif isinstance(obj, dict):
        items = [f'{json.dumps(str(k))}: {json_text(v, indent + 2)}' for k, v in obj.items()]
        brackets = "{}"
    elif dataclasses.is_dataclass(obj):
        return json_text(_payload(obj), indent)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(inner + it for it in items) + "\n" + pad + brackets[1]


def atomic_write(path: FsPath, text):
    """Write text, a string or an iterable of string chunks, to a temporary
    file beside path, making its directory if need be, and move it into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    try:
        with open(tmp, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def write_csv(path: FsPath, header: list[str], lines):
    """Write a CSV atomically: the header, then lines, formatted rows drawn one
    at a time from an iterable, so the file's text is never held whole."""
    atomic_write(path, itertools.chain([",".join(header) + "\n"], lines))


# ---------------------------------------------------------------------------
# settings: flag, then config file, then default; one cast each

def _int(value) -> int:
    """An integer setting; a number with a fractional part is refused."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value} is not an integer")
    return int(value)


def _param(value) -> float:
    """A model parameter. The models square kappa and xi as Python floats, so a
    value whose square is past the largest double is refused here, by name."""
    value = float(value)
    _ = value**2  # OverflowError from about 1.34e154 on
    return value


#: setting -> (default, cast), and for a SETTINGS row its flag's help, to which --help
#: appends the default. Defaults reproduce the reference experiment.
PARAMS = {k: (v, _param) for k, v in {"kappa": 2.0, "theta": 0.05, "xi": 0.3, "v0": 0.05}.items()}
SETTINGS = {
    "T": (1.0, float, "horizon"),
    "dt": (0.001, float, "time step"),
    "paths": (5000, _int, "number of Monte Carlo paths"),
    "seed": (42, lambda value: stochastic._check_seed(_int(value)), "64-bit seed"),
    "out": (".", FsPath, "output directory"),
}


def _setting(ns, cfg: dict, key: str):
    """Resolve one setting; a value its cast refuses, or a boolean, is a usage error."""
    default, cast = {**PARAMS, **SETTINGS}[key][:2]
    if getattr(ns, key, None) is not None:
        value, source = getattr(ns, key), f"--{key}"
    elif key in cfg:
        value, source = cfg[key], f"config key {key!r}"
    else:
        value, source = default, "default"
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean is not a setting value")
        return cast(value)
    except (TypeError, ValueError, LookupError, OverflowError):
        raise ValueError(f"{source} has a malformed value {value!r}") from None


def _run_config(ns):
    """(settings, model parameters, grid) of a subcommand that reads --config. The file holds
    a JSON object whose keys are PARAMS and SETTINGS keys; the first other key is refused."""
    cfg = {}
    if ns.config is not None:
        try:
            cfg = json.loads(FsPath(ns.config).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed config file {ns.config}: {exc}") from None
        if not isinstance(cfg, dict):
            raise ValueError(f"config file {ns.config} must hold a JSON object")
        if unknown := [key for key in cfg if key not in {*PARAMS, *SETTINGS}]:
            raise ValueError(f"config file {ns.config} has an unknown key {unknown[0]!r}")
    settings = {key: _setting(ns, cfg, key) for key in SETTINGS}
    params = ModelParams(*(_setting(ns, cfg, key) for key in PARAMS))
    return settings, params, make_grid(settings["T"], settings["dt"])


def _versions() -> dict:
    umath = np._core._multiarray_umath  # numpy's highest CPU dispatch target this CPU runs
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return {
        "varexp_cir": __version__,
        "numpy": np.__version__,
        "numpy_cpu_target": (targets or umath.__cpu_baseline__ or ["none"])[-1],
        "scipy": scipy.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }


# ---------------------------------------------------------------------------
# simulation and per-model outputs

#: Bins of every terminal histogram a run writes.
HIST_BINS = 50

#: Increments per chunk of paths: 8,388 paths (64 MB) at N = 1000, so the reference
#: run is one chunk; smaller chunks pay numpy's per-call overhead on every step.
_CHUNK = 2**23

#: Fewest increments (rows x steps) in a worker's part. Split on 2 CPUs, parts of 2**18 lost
#: time (one model, N = 1000), and every part from 2**20 on won (N = 10, 100 and 1000).
_WORKER_INCREMENTS = 2**20


def _shared(count: int) -> np.ndarray:
    """count float64 zeros in an anonymous mapping, which forked children share."""
    return np.frombuffer(mmap.mmap(-1, 8 * count), dtype=np.float64)


def _round(h, seed: int, grid, job, parts: list[range]):
    """Walk a chunk's parts, each into its own shared time-major rows: the first here, each
    other in a child forked at once, or here once a fork fails. job(batch, paths) runs where a
    part was filled and returns its least (step, model index, path) overflow, or None.
    A child reports by its exit status alone: 0 walked, 2 out of memory, 1 an overflow or any
    other exception, and this process then walks that part itself, so it finds what one
    process would. Feed h each part's increments in row order, freeing them before the next
    part is read, and return the least overflow, or None."""
    children, faults = {}, []
    rows = {paths: _shared(len(paths) * grid.n_steps).reshape(grid.n_steps, -1).T
            for paths in parts}

    def walk(paths):  # fill the part's rows; the job's overflow, or None
        return job(sample_batch(seed, paths, grid, out=rows[paths]), paths)

    try:
        for paths in parts[1:]:
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns on fork while numpy's idle BLAS threads exist. The child
                    # is safe: it runs only ufuncs and Philox, then os._exit.
                    warnings.filterwarnings("ignore", "This process .* fork", DeprecationWarning)
                    pid = os.fork()
            except OSError:  # no process or memory to spare (EAGAIN, ENOMEM): walk the rest here
                break
            if pid == 0:  # the child: walk its rows, report by its exit status alone
                try:
                    os._exit(1 if walk(paths) else 0)
                except MemoryError:
                    os._exit(2)
                finally:  # any other exception: this process walks the part again
                    os._exit(1)
            children[paths] = pid
        for paths in parts:  # in row order: wait for the part's child, or walk the part here
            code = 1  # the first part, one no child took and one whose child failed
            if pid := children.pop(paths, None):
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code not in (0, 1):  # 2, or killed before it could exit: it ran out of memory
                raise MemoryError
            faults.append(walk(paths) if code else None)
            stochastic.hash_rows(h, rows.pop(paths))  # freed before the next part is read
        return min(filter(None, faults), default=None)
    finally:  # on an exception, each child not yet reaped is stopped and reaped
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _simulate(settings: dict, params: ModelParams, grid, specs: list[str]):
    """Walk the paths in chunks of rows, each filled once, hashed in row order
    and driving every model; return the increment checksum and one path batch
    per model, holding the checkpoints and T. A chunk is split between this
    process and forked workers, one per CPU in its affinity set, each part of
    _WORKER_INCREMENTS or more; no output changes. An overflow is raised after
    the last chunk, at the run's least (step, model, path): once one is found
    at step s, later chunks are filled, hashed and walked on a grid of s steps,
    to find an equal or earlier one. A repeated model, fewer than two paths, or
    a run that would hold more than the cap, is refused first."""
    models = [parse_model(spec, params) for spec in specs]
    if len({model.model_id for model in models}) < len(models):
        raise ValueError(f"the models {', '.join(specs)} name one model more than once")
    m_paths, n_steps = settings["paths"], grid.n_steps
    if m_paths < 2:
        raise ValueError("paths must be at least 2")
    nodes = [grid.index_of(t) for t in analysis.default_checkpoints(grid)]  # T among them
    rows = min(max(1, _CHUNK // n_steps), m_paths)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    least = max(1, _WORKER_INCREMENTS // n_steps)  # rows in a worker's part
    workers = (cpus or 1) if hasattr(os, "fork") else 1
    k = len(nodes)  # per model: k rows of values, k of compensated, 1 of clamp counts
    kept = m_paths * len(models) * (2 * k + 1)
    # a round's increments, held once at any split (each part fills its own shared rows),
    # so a refusal does not depend on the CPU count
    held = kept + rows * n_steps
    if held > (cap := stochastic.MAX_STORED_INCREMENTS):
        raise ValueError(f"{m_paths} paths of {n_steps} steps hold {held} values, "
                         f"above the cap of {cap}")
    blocks = _shared(kept).reshape(len(models), 2 * k + 1, m_paths)
    arrays = blocks[:, :k], blocks[:, k:-1], blocks[:, -1].view(np.int64)  # as the kernel writes
    runs = [solver.PathBatch(model, grid, np.array(nodes), v.T, c.T, counts, np.empty(n_steps + 1))
            for model, v, c, counts in zip(models, *arrays)]

    def job(batch, paths):  # every model in one stack, into its rows of the kept arrays
        full = batch.grid is grid  # else a walk through an earlier chunk's failing step
        into = tuple(a[..., paths.start : paths.stop] for a in arrays) if full else None
        try:
            pbs = simulate_models(models, batch, solver.POLICIES[0],
                                  nodes if full else [batch.grid.n_steps], into)
        except PathOverflowError as exc:
            return exc.step_index, exc.model_index, paths.start + exc.path_index
        for run, pb in zip(runs, pbs if paths.start == 0 else ()):  # the first part holds path 0
            run.path0[:] = pb.path0

    h, fault = stochastic.checksum_start(m_paths, n_steps), None  # the least overflow so far
    for start in range(0, m_paths, rows):
        stop = min(start + rows, m_paths)
        n_parts = max(1, min(workers, (stop - start) // least))
        cuts = [start + (stop - start) * i // n_parts for i in range(n_parts + 1)]
        # past a fault at step s, s steps: a row's first s increments are the whole grid's, and
        # the run raises, so h's digest is never read
        walked = grid if not fault else stochastic.TimeGrid(fault[0] * grid.dt, grid.dt, fault[0])
        found = _round(h, settings["seed"], walked, job, list(map(range, cuts, cuts[1:])))
        fault = min(filter(None, (fault, found)), default=None)
    if fault:
        raise PathOverflowError(fault[0], fault[2], model_index=fault[1])
    return h.hexdigest(), runs


def _summary(settings: dict, checksum: str, pb) -> dict:
    """The summary of one path batch's model, its terminal histogram among its entries."""
    grid = pb.grid
    return {
        "model": pb.model.model_id,
        "seed": settings["seed"],
        "policy": solver.POLICIES[0],
        "grid": {"T": grid.horizon, "dt": grid.dt, "n_steps": grid.n_steps},
        "m_paths": pb.m_paths,
        "increment_checksum": checksum,
        "clamp": {"clamped_steps": int(pb.clamp_counts.sum()), "fraction": pb.clamp_fraction},
        "moments": check_moment_bounds(pb),
        "martingale": martingale_report(pb),
        "terminal_histogram": terminal_histogram(pb, grid.horizon, HIST_BINS),
    }


def _model_outputs(out: FsPath, pb, summary: dict) -> list[str]:
    """Write one model's summary JSON, path CSV (t,path_id,v of path 0 at every node) and
    histogram CSV; return the file names."""
    mid, hist = summary["model"], summary["terminal_histogram"]
    files = [f"{mid}_summary.json", f"{mid}_path.csv", f"{mid}_hist.csv"]
    atomic_write(out / files[0], json_text(summary) + "\n")
    write_csv(out / files[1], ["t", "path_id", "v"], (
        f"{t:.17g},0,{v:.17g}\n" for t, v in zip(pb.grid.times.tolist(), pb.path0.tolist())))
    hist_rows = zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts, hist.densities)
    write_csv(out / files[2], ["bin_left", "bin_right", "count", "density"],
              ("%.17g,%.17g,%d,%.17g\n" % row for row in hist_rows))
    return files


def _figures(out: FsPath, times, results) -> list[str]:
    """Figure pair per exponent, named by its kind: sample path overlay and
    terminal histogram overlay of the CIR baseline (the first run) vs the
    variable-exponent run, both driven by common increments. Path index
    0 is shown so outputs are reproducible."""
    files = []
    cir, cir_hist = results[0][0], results[0][1]["terminal_histogram"]
    for pb, summary in results[1:]:
        hist = summary["terminal_histogram"]
        exponent_name = pb.model.exponent.kind
        slug = exponent_name.replace(":", "_")
        path_name, hist_name = f"fig_{slug}_path.svg", f"fig_{slug}_hist.svg"
        path_svg = svg_line_plot(
            [("cir", times, cir.path0), (f"gm {exponent_name}", times, pb.path0)],
            title=f"Sample path (path 0): cir vs gm {exponent_name}",
        )
        hist_svg = svg_histogram(
            [("cir", cir_hist.bin_edges, cir_hist.densities),
             (f"gm {exponent_name}", hist.bin_edges, hist.densities)],
            title=f"Terminal distribution: cir vs gm {exponent_name}",
        )
        atomic_write(out / path_name, path_svg)
        atomic_write(out / hist_name, hist_svg)
        files.extend([path_name, hist_name])
    return files


def _write_runs(ns, specs: list[str], figures: bool):
    """The simulate/compare pipeline: one walk over the paths, per-model
    outputs, optional figures, then the manifest. Every model's statistics are
    computed before the first output is written. Returns the settings, the
    increment checksum and one (path batch, summary) per model.
    """
    settings, params, grid = _run_config(ns)
    out = settings["out"]
    checksum, runs = _simulate(settings, params, grid, specs)
    results = [(pb, _summary(settings, checksum, pb)) for pb in runs]
    outputs = [name for pb, summary in results for name in _model_outputs(out, pb, summary)]
    if figures:
        outputs.extend(_figures(out, grid.times, results))
    manifest = {
        "command": ns.command,
        "models": specs,
        "no_svg": getattr(ns, "no_svg", False),
        # exactly the run's settings but out: it reloads as a --config
        "config": {**_payload(params), **{k: v for k, v in settings.items() if k != "out"}},
        "increment_checksum": checksum,
        "clamp_stats": {summary["model"]: summary["clamp"] for _, summary in results},
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
    settings, _, [(_, summary)] = _write_runs(ns, [ns.model], figures=False)
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
    report = validate_hypotheses(make_builtin(ns.exponent))
    payload = {"exponent": ns.exponent, **_payload(report)}
    return payload, report.passed, f"validate-exponent {ns.exponent}: {report.verdict}"


def cmd_feller(ns):
    model = parse_model(ns.model, _run_config(ns)[1])
    report = feller_check(model)
    payload = {"model": model.model_id, **_payload(report)}
    return payload, report.verdict == "non-attainable", f"feller {model.model_id}: {report.verdict}"


def cmd_lipschitz(ns):
    model = parse_model(ns.model, _run_config(ns)[1])
    report = lipschitz_constants(TruncationParams(n=ns.n), model)
    ok = report.empirical_sup_quotient <= report.Lg_n * (1.0 + 1e-12)
    return report, ok, f"lipschitz {model.model_id} n={ns.n}: {'ok' if ok else 'violated'}"


def cmd_moments(ns):
    settings, params, grid = _run_config(ns)
    _, [pb] = _simulate(settings, params, grid, [ns.model])
    reports = check_moment_bounds(pb)
    ok = all(r.satisfied for r in reports)
    payload = {"model": pb.model.model_id, "reports": reports}
    return payload, ok, f"moments {pb.model.model_id}: {'ok' if ok else 'violated'}"


def cmd_martingale(ns):
    settings, params, grid = _run_config(ns)
    _, [pb] = _simulate(settings, params, grid, [ns.model])
    report = martingale_report(pb)
    payload = {"model": pb.model.model_id, **_payload(report)}
    verdict = "ok" if report.satisfied else "violated"
    return payload, report.satisfied, f"martingale {pb.model.model_id}: {verdict}"


def cmd_picard_verify(ns):
    settings, params, grid = _run_config(ns)
    model = parse_model(ns.model, params)
    tp = TruncationParams(n=ns.n)
    # the row (N) and, of N + 1 each, two Picard iterates, the oracle's list and array, their gap
    held = grid.n_steps + 5 * (grid.n_steps + 1)
    if held > (cap := stochastic.MAX_STORED_INCREMENTS):
        raise ValueError(f"1 path of {grid.n_steps} steps holds {held} values, "
                         f"above the cap of {cap}")
    row = path_increments(settings["seed"], 0, grid)
    report = picard_solve(tp, model, grid, row)
    if not report.converged:
        overflowed = report.sup_diffs[-1] == math.inf
        failure = (f"iterate {report.iterations_used} overflowed" if overflowed
                   else f"no convergence within {report.iterations_used} iterations")
        return report, None, f"picard-verify: {failure}"
    euler = euler_maruyama_truncated(tp, model, grid, row[None])[0]
    sup_diff = float(np.max(np.abs(report.fixed_point - euler)))
    ok = sup_diff <= solver.PICARD_TOL
    payload = {"model": model.model_id, "n": ns.n, **_payload(report)}
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
    "config": dict(help=f"JSON config file (keys {', '.join([*PARAMS, *SETTINGS])})"),
    "no-svg": dict(action="store_true", help="skip SVG figures"),
    "n": dict(type=int, default=10, help="truncation level"),
}

_RUN = ("config", "seed", "paths", "dt", "T")

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
        cmd_simulate, "simulate one model, write outputs", ("model", *_RUN, "out"), {},
    ),
    "compare": (
        cmd_compare, "CIR baseline vs variable-exponent models",
        ("exponents", *_RUN, "out", "no-svg"), {},
    ),
    "moments": (
        cmd_moments, "empirical moments vs ceilings", ("model", *_RUN), {},
    ),
    "martingale": (
        cmd_martingale, "drift-compensated statistic check", ("model", *_RUN), {},
    ),
    "picard-verify": (
        cmd_picard_verify, "Picard fixed point vs Euler recursion",
        ("model", "n", "config", "seed", "dt", "T"), {},
    ),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # run() prints it as its one "error:" line, not under usage
        raise ValueError(message)


@functools.cache  # built once per process; each run parses into a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="varexp-cir",
        description="Simulation and verification toolkit for mean-reverting "
        "diffusions with variable-exponent volatility.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags, defaults) in COMMANDS.items():
        # a flag is spelled in full: compare would read --exponent as its --exponents
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:  # a SETTINGS row's flag: its help, then the row's default
            p.add_argument(f"--{flag}", **FLAGS.get(flag)
                           or dict(help="{2} (default {0})".format(*SETTINGS[flag])))
        p.set_defaults(func=handler, **defaults)
    return parser


def run(argv) -> int:
    try:
        ns = build_parser().parse_args(argv)
        result = ns.func(ns)
    except SystemExit as exc:  # --help or --version, printed
        return int(exc.code or 0)
    except ArithmeticError as exc:  # a path's overflow, or a parameter's square past a double
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
    return EXIT_NUMERIC if ok is None else EXIT_OK if ok else EXIT_CHECK_FAILED


def _say(text: str, stream):
    """Print one line; a reader that has closed the stream is not an error. The
    stream's descriptor then points at the null device, so the flush at exit passes."""
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
