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
from .solver import simulate_batch  # noqa: F401  not called here: bench/tracer.py wraps it
from .stochastic import make_grid, path_increments, sample_batch
from .truncation import TruncationParams, lipschitz_constants

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

POLICY_NAMES = {"full-trunc": "full-truncation", "reflect": "reflection"}


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
        items, brackets = [json_text(v, indent + 2) for v in obj], "[]"
    elif isinstance(obj, dict):
        items = [f'{json.dumps(str(k))}: {json_text(v, indent + 2)}' for k, v in obj.items()]
        brackets = "{}"
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
# settings: flag, then config file, then VAREXP_SEED (seed only), then default; one cast each

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
    """A short policy name, or the solver's own, as a manifest's config echoes it."""
    return value if value in solver.POLICIES else POLICY_NAMES[value]


def _param(value) -> float:
    """A model parameter. The models square kappa and xi as Python floats, so a
    value whose square is past the largest double is refused here, by name."""
    value = float(value)
    _ = value**2  # OverflowError from about 1.34e154 on
    return value


#: setting -> (default, cast). Defaults reproduce the reference experiment.
PARAMS = {k: (v, _param) for k, v in {"kappa": 2.0, "theta": 0.05, "xi": 0.3, "v0": 0.05}.items()}
SETTINGS = {
    "T": (1.0, float),
    "dt": (0.001, float),
    "paths": (5000, _int),
    "seed": (42, lambda value: stochastic._check_seed(_int(value))),  # refused before a draw
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
    except (TypeError, ValueError, LookupError, OverflowError):
        raise ValueError(f"{source} has a malformed value {value!r}") from None


def _run_config(ns):
    """(settings, model parameters, grid) of a subcommand that reads --config;
    the checkpoints default to the grid's quarter-horizon nodes."""
    cfg = _load_config_file(ns.config)
    settings = {key: _setting(ns, cfg, key) for key in SETTINGS}
    params = ModelParams(*(_setting(ns, cfg, key) for key in PARAMS))
    grid = make_grid(settings["T"], settings["dt"])
    settings["checkpoints"] = settings["checkpoints"] or analysis.default_checkpoints(grid)
    return settings, params, grid


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

#: Fewest increments (rows x steps) in a worker's part. Split on 2 CPUs, parts of 2**18 lost
#: time (one model, N = 1000), and every part from 2**20 on won (N = 10, 100 and 1000).
_WORKER_INCREMENTS = 2**20


def _shared(count: int) -> np.ndarray:
    """count float64 zeros in an anonymous mapping, which forked children share."""
    return np.frombuffer(mmap.mmap(-1, 8 * max(count, 1)), dtype=np.float64)[:count]


def _walk_rows(settings: dict, grid, runs, nodes, dump, paths: range, out=None):
    """Fill the increments of a range of paths (into out if given), step every model on them in
    one stack into its rows of the kept arrays and path 0 (with dump, one model at a time at every
    node, as the size cap counts); return the increments and the least overflow or None."""
    batch = sample_batch(settings["seed"], paths, grid, out=out)
    size, kept, columns = (1, None, nodes) if dump else (len(runs), nodes, slice(None))
    for first in range(0, len(runs), size):
        stack = runs[first : first + size]
        try:
            pbs = simulate_models([run.model for run in stack], batch, settings["policy"], kept)
        except PathOverflowError as exc:
            return batch.increments, (first + exc.model_index, exc.step_index,
                                      paths.start + exc.path_index)
        for run, pb in zip(stack, pbs):
            run.values[paths.start : paths.stop] = pb.values[:, columns]
            run.compensated[paths.start : paths.stop] = pb.compensated[:, columns]
            run.clamp_counts[paths.start : paths.stop] = pb.clamp_counts
            if paths.start == 0:
                run.path0[:] = pb.path0
            if dump:
                dump(pb, paths.start)
        del pbs, pb  # before the next model's arrays are made
    return batch.increments, None


def _round(h, walk, parts: list[range], n_steps: int):
    """Walk the first part of a chunk's rows here and fill every other part's rows of a
    time-major shared buffer in a forked child at once, or here once a pipe or fork fails;
    feed the increments to h in row order and raise the overflow of least (model index,
    step, path), as a one-process walk does. Kill and reap every child on the way out."""
    children, rest, first = [], [], parts[0].stop
    carried = (OSError, ValueError, MemoryError)  # a worker's failure keeps the class run() reads
    buffer = _shared((parts[-1].stop - first) * n_steps).reshape(n_steps, -1).T

    def keep(paths):  # walk a later part into its rows of the buffer; return its overflow
        return walk(paths, buffer[paths.start - first : paths.stop - first])[1]

    try:
        for n, paths in enumerate(parts[1:], 1):
            fds = ()
            try:
                fds = r, w = os.pipe()
                with warnings.catch_warnings():
                    # Python 3.12+ warns on fork while numpy's idle BLAS threads exist. The child
                    # is safe: it runs only ufuncs, Philox and file writes, then os._exit.
                    warnings.filterwarnings("ignore", "This process .* fork", DeprecationWarning)
                    pid = os.fork()
            except OSError:  # no process or descriptor to spare (EAGAIN, ENOMEM, EMFILE)
                list(map(os.close, fds))
                rest = parts[n:]
                break
            if pid == 0:  # the child: walk its rows, report in plain values, exit
                try:
                    try:
                        report = keep(paths)
                    except Exception as exc:  # short enough for one atomic pipe write
                        kind = next((k for k in carried if isinstance(exc, k)), type(exc))
                        report = (kind.__name__, str(exc)[:300])
                    os.write(w, json.dumps(report or ()).encode())
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r))
        increments, fault = walk(parts[0])
        stochastic.hash_rows(h, increments)
        del increments  # free this part before the later parts' rows are read
        faults = [fault, *map(keep, rest)]
        for _, r in children:  # a child killed before it could report ran out of memory
            report = json.loads(os.read(r, 4096) or b'["MemoryError"]')
            if report and isinstance(report[0], str):
                kind = {k.__name__: k for k in carried}.get(report[0])
                raise kind(*report[1:]) if kind else RuntimeError(": ".join(report))
            faults.append(tuple(report))
        if any(faults):
            model, step, path = min(f for f in faults if f)
            raise PathOverflowError(step, path, model)
        stochastic.hash_rows(h, buffer)
    finally:  # each child has reported, or this process leaves on an exception
        for pid, r in children:
            os.kill(pid, signal.SIGKILL)
            os.close(r)
            os.waitpid(pid, 0)


def _simulate(settings: dict, params: ModelParams, grid, specs: list[str], dump=None, bins=None):
    """Walk the paths in chunks of rows, each filled once, hashed in row order
    and driving every model; return the increment checksum and one path batch
    per model, holding the checkpoints and T. A chunk is split between this
    process and forked workers, one per CPU in its affinity set, each part of
    _WORKER_INCREMENTS or more; no output changes. With dump, a part keeps
    every node for dump(path batch, first path), in the process walking it.
    A repeated model, a histogram of fewer than one bin, or a run that would
    hold more than the cap with each model's histogram of bins bins (None: no
    histogram), is refused first."""
    models = [parse_model(spec, params) for spec in specs]
    if len({model.model_id for model in models}) < len(models):
        raise ValueError(f"the models {', '.join(specs)} name one model more than once")
    m_paths, n_steps = settings["paths"], grid.n_steps
    if m_paths < 1:
        raise ValueError("paths must be at least 1")
    if bins is not None and bins < 1:
        raise ValueError("n_bins must be >= 1")
    nodes = sorted({grid.index_of(t) for t in settings["checkpoints"]} | {n_steps})
    rows = min(max(1, _CHUNK // n_steps), m_paths)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    least = max(1, _WORKER_INCREMENTS // n_steps)  # rows in a worker's part
    workers = 1 if not hasattr(os, "fork") else max(1, min(cpus or 1, rows // least))
    k = len(nodes)  # per model: k rows of values, k of compensated, 1 of clamp counts
    kept = m_paths * len(models) * (2 * k + 1)
    # a round's increments, held once at any split (its later parts fill their rows of the
    # shared buffer), so a refusal does not depend on the CPU count; with dump, one model's
    # values and compensated at every node; every histogram's counts, densities, bins + 1 edges
    held = kept + rows * (n_steps + (2 * n_steps + 2 if dump else 0))
    held += len(models) * (3 * bins + 1) if bins else 0
    if held > (cap := stochastic.MAX_STORED_INCREMENTS):
        raise ValueError(f"{m_paths} paths of {n_steps} steps hold {held} values, "
                         f"above the cap of {cap}")
    blocks = _shared(kept).reshape(len(models), 2 * k + 1, m_paths)
    runs = [solver.PathBatch(
        model, grid, np.array(nodes), block[:k].T, block[k:-1].T, block[-1].view(np.int64),
        np.empty(n_steps + 1),
    ) for model, block in zip(models, blocks)]
    walk = functools.partial(_walk_rows, settings, grid, runs, nodes, dump)
    h = stochastic.checksum_start(m_paths, n_steps)
    for start in range(0, m_paths, rows):
        stop = min(start + rows, m_paths)
        n_parts = max(1, min(workers, (stop - start) // least))
        cuts = [start + (stop - start) * i // n_parts for i in range(n_parts + 1)]
        _round(h, walk, [range(a, b) for a, b in zip(cuts, cuts[1:])], n_steps)
    return h.hexdigest(), runs


def _path_rows(grid, first_path: int, values):
    """The path CSV's lines t,path_id,v of each row of values, numbered from
    first_path, at every node of the grid: one string per path."""
    template = "".join(f"{t:.17g},%d,%.17g\n" for t in grid.times.tolist())
    args = [0, 0.0] * (grid.n_steps + 1)
    for i, row in enumerate(values, first_path):
        args[::2], args[1::2] = [i] * (grid.n_steps + 1), row.tolist()
        yield template % tuple(args)


def _dump(out: FsPath, tag: str, pb, first_path: int):
    """--dump-paths, in the process that walked the part: its paths at every
    node, to a segment of the model's path CSV whose name order is row order."""
    segment = out / f"{pb.model.model_id}_path.csv{tag}{first_path:020d}"
    atomic_write(segment, _path_rows(pb.grid, first_path, pb.values))


def _joined(segments):
    """The segments' text in order, each deleted once it has been read."""
    for segment in segments:
        with open(segment) as fh:
            yield from iter(functools.partial(fh.read, 2**20), "")
        segment.unlink()


def _summary(settings: dict, checksum: str, pb):
    """The summary and terminal histogram of one path batch's model."""
    grid, checkpoints = pb.grid, settings["checkpoints"]
    hist = terminal_histogram(pb, grid.horizon, settings["bins"])
    summary = {
        "model": pb.model.model_id,
        "seed": settings["seed"],
        "policy": settings["policy"],
        "grid": {"T": grid.horizon, "dt": grid.dt, "n_steps": grid.n_steps},
        "m_paths": pb.m_paths,
        "increment_checksum": checksum,
        "clamp": {"clamped_steps": int(pb.clamp_counts.sum()), "fraction": pb.clamp_fraction},
        "moments": [r.to_dict() for r in check_moment_bounds(pb, settings["orders"], checkpoints)],
        "martingale": martingale_report(pb, checkpoints).to_dict(),
        "terminal_histogram": hist.to_dict(),
    }
    return summary, hist


def _model_outputs(out: FsPath, summary: dict, hist, path_rows) -> list[str]:
    """Write one model's summary JSON, path CSV (path_rows behind the header) and
    histogram CSV; return the file names."""
    mid = summary["model"]
    files = [f"{mid}_summary.json", f"{mid}_path.csv", f"{mid}_hist.csv"]
    atomic_write(out / files[0], json_text(summary) + "\n")
    write_csv(out / files[1], ["t", "path_id", "v"], path_rows)
    hist_rows = zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts, hist.densities)
    write_csv(out / files[2], ["bin_left", "bin_right", "count", "density"],
              ("%.17g,%.17g,%d,%.17g\n" % row for row in hist_rows))
    return files


def _figures(out: FsPath, times, runs) -> list[str]:
    """Figure pair per exponent, named by its kind: sample path overlay and
    terminal histogram overlay of the CIR baseline (the first run) vs the
    variable-exponent run, both driven by common increments. Path index
    0 is shown so outputs are reproducible."""
    files = []
    cir, _, cir_hist = runs[0]
    for pb, _, hist in runs[1:]:
        exponent_name = pb.model.exponent.kind
        slug = exponent_name.replace(":", "_")
        path_name, hist_name = f"fig_{slug}_path.svg", f"fig_{slug}_hist.svg"
        path_svg = svg_line_plot(
            [("cir", times, cir.path0), (f"gm {exponent_name}", times, pb.path0)],
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
    outputs, optional figures, then the manifest. Every model's statistics are
    computed before the first output is written. Returns the settings, the
    increment checksum and one (path batch, summary, histogram) per model.
    """
    settings, params, grid = _run_config(ns)
    out = settings["out"]
    dump_paths = getattr(ns, "dump_paths", False)
    tag = f".part-{os.getpid()}-"  # a segment is {path CSV}{tag}{first path}
    dump = functools.partial(_dump, out, tag) if dump_paths else None
    outputs = []
    try:
        checksum, runs = _simulate(settings, params, grid, specs, dump, settings["bins"])
        results = [(pb, *_summary(settings, checksum, pb)) for pb in runs]
        for pb, summary, hist in results:
            rows = (_joined(sorted(out.glob(f"{pb.model.model_id}_path.csv{tag}*"))) if dump
                    else _path_rows(grid, 0, pb.path0[None]))
            outputs.extend(_model_outputs(out, summary, hist, rows))
    finally:  # every segment of this run, and any temporary file a killed worker left
        list(map(FsPath.unlink, out.glob(f"*{tag}*")))
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
        },
        "increment_checksum": checksum,
        "clamp_stats": {summary["model"]: summary["clamp"] for _, summary, _ in results},
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
    report = validate_hypotheses(make_builtin(ns.exponent))
    payload = {"exponent": ns.exponent, **report.to_dict()}
    return payload, report.passed, f"validate-exponent {ns.exponent}: {report.verdict}"


def cmd_feller(ns):
    model = parse_model(ns.model, _run_config(ns)[1])
    report = feller_check(model)
    payload = {"model": model.model_id, **report.to_dict()}
    return payload, report.verdict == "non-attainable", f"feller {model.model_id}: {report.verdict}"


def cmd_lipschitz(ns):
    model = parse_model(ns.model, _run_config(ns)[1])
    report = lipschitz_constants(TruncationParams(n=ns.n), model)
    ok = report.empirical_sup_quotient <= report.Lg_n * (1.0 + 1e-12)
    return report.to_dict(), ok, f"lipschitz n={ns.n}: {'ok' if ok else 'violated'}"


def cmd_moments(ns):
    settings, params, grid = _run_config(ns)
    _, [pb] = _simulate(settings, params, grid, [ns.model])
    reports = check_moment_bounds(pb, settings["orders"], settings["checkpoints"])
    ok = all(r.satisfied for r in reports)
    payload = {"model": pb.model.model_id, "reports": [r.to_dict() for r in reports]}
    return payload, ok, f"moments {pb.model.model_id}: {'ok' if ok else 'violated'}"


def cmd_martingale(ns):
    settings, params, grid = _run_config(ns)
    _, [pb] = _simulate(settings, params, grid, [ns.model])
    report = martingale_report(pb, settings["checkpoints"])
    payload = {"model": pb.model.model_id, **report.to_dict()}
    verdict = "ok" if report.satisfied else "violated"
    return payload, report.satisfied, f"martingale {pb.model.model_id}: {verdict}"


def cmd_picard_verify(ns):
    settings, params, grid = _run_config(ns)
    model = parse_model(ns.model, params)
    tp = TruncationParams(n=ns.n)
    solver.check_picard_settings(ns.tol, ns.kmax)  # before the row is drawn
    # the row, Picard's two iterates, and the oracle's values, compensated values and path 0
    held = grid.n_steps + 5 * (grid.n_steps + 1)
    if held > (cap := stochastic.MAX_STORED_INCREMENTS):
        raise ValueError(f"1 path of {grid.n_steps} steps holds {held} values, "
                         f"above the cap of {cap}")
    row = path_increments(settings["seed"], 0, grid)
    report = picard_solve(tp, model, grid, row, tol=ns.tol, k_max=ns.kmax)
    if not report.converged:
        overflowed = report.sup_diffs[-1] == math.inf
        failure = (f"iterate {report.iterations_used} overflowed" if overflowed
                   else f"no convergence within {ns.kmax} iterations")
        return report.to_dict(), None, f"picard-verify: {failure}"
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
    "seed": dict(help="64-bit seed (default 42; env VAREXP_SEED)"),
    "paths": dict(help="number of Monte Carlo paths"),
    "dt": dict(help="time step"),
    "T": dict(help="horizon"),
    "policy": dict(help=f"positivity policy: {' or '.join(POLICY_NAMES)} (default full-trunc)"),
    "bins": dict(help="histogram bin count"),
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
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
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
