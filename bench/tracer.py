"""Outside-in tracer: per-layer spans and counts without touching src/.

``Tracer.install`` replaces public names of the program where its
callers look them up (``varexp_cir.cli.<name>`` for what the CLI calls,
``varexp_cir.solver.<name>`` for what the Euler kernels call, and
``BrownianBatch.checksum`` on the class) with wrappers that record a
span: name, start, end, parent span and op id. Spans stay in memory and
are written out once the repetition is over. Layer self time is a
span's duration minus the time its child spans cover.

Only the outermost call of a directly recursive function (``json_text``)
gets a span: a call whose innermost open span has the same name runs
unwrapped.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from time import perf_counter

# (metric name, unit). Bytes of in-memory traffic are labelled computed:
# the working sets here can sit in a large last-level cache, so they are
# not memory traffic that was measured.
PER_LAYER = [
    ("stochastic.sample_batch_s", "s"),
    ("stochastic.path_increments_s", "s"),
    ("stochastic.increments", "count"),
    ("stochastic.increments_per_s", "1/s"),
    ("stochastic.checksum_calls", "count"),
    ("stochastic.checksum_s", "s"),
    ("stochastic.checksum_bytes", "bytes_computed"),
    ("solver.simulate_batch_s", "s"),
    ("solver.path_steps", "count"),
    ("solver.path_steps_per_s", "1/s"),
    ("solver.clamped_steps", "count"),
    ("solver.bytes_computed", "bytes_computed"),
    ("solver.euler_truncated_s", "s"),
    ("solver.euler_truncated_calls", "count"),
    ("solver.picard_solve_s", "s"),
    ("solver.picard_iterations", "count"),
    ("model.coeff_evals", "count"),
    ("model.coeff_s", "s"),
    ("model.feller_check_s", "s"),
    ("exponent.validate_hypotheses_s", "s"),
    ("truncation.truncated_drift_calls", "count"),
    ("truncation.truncated_diffusion_calls", "count"),
    ("truncation.s", "s"),
    ("truncation.lipschitz_constants_s", "s"),
    ("analysis.martingale_report_s", "s"),
    ("analysis.check_moment_bounds_s", "s"),
    ("analysis.terminal_histogram_s", "s"),
    ("analysis.terminal_histogram_calls", "count"),
    ("figures.svg_s", "s"),
    ("figures.svg_bytes", "bytes"),
    ("cli.run_self_s", "s"),
    ("cli.write_csv_s", "s"),
    ("cli.atomic_write_s", "s"),
    ("cli.json_text_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.files_written", "count"),
    ("cli.write_mb_per_s", "MB/s"),
    ("process.cpu_s", "s"),
    ("trace.overhead_s", "s"),
]

#: Per-layer metrics that are counts of work; they must repeat exactly
#: between two traced runs of the same code and seed.
COUNTS = [name for name, unit in PER_LAYER if unit in ("count", "bytes", "bytes_computed")]


def _increments_batch(counts, args, batch):
    counts["stochastic.increments"] += batch.increments.size


def _increments_row(counts, args, row):
    counts["stochastic.increments"] += row.size


def _checksum(counts, args, digest):
    counts["stochastic.checksum_bytes"] += args[0].increments.nbytes


def _simulated(counts, args, paths):
    m_paths, n_nodes = paths.values.shape
    counts["solver.path_steps"] += m_paths * (n_nodes - 1)
    counts["solver.clamped_steps"] += int(paths.clamp_counts.sum())
    # increments read plus path values written
    counts["solver.bytes_computed"] += args[1].increments.nbytes + paths.values.nbytes


def _picard(counts, args, report):
    counts["solver.picard_iterations"] += report.iterations_used


def _svg(counts, args, text):
    counts["figures.svg_bytes"] += len(text.encode())


def _written(counts, args, result):
    counts["cli.bytes_written"] += os.path.getsize(args[0])


# name in varexp_cir.cli -> (span name, count hook)
CLI_NAMES = {
    "sample_batch": ("stochastic.sample_batch", _increments_batch),
    "path_increments": ("stochastic.path_increments", _increments_row),
    "simulate_batch": ("solver.simulate_batch", _simulated),
    "euler_maruyama_truncated": ("solver.euler_truncated", None),
    "picard_solve": ("solver.picard_solve", _picard),
    "feller_check": ("model.feller_check", None),
    "validate_hypotheses": ("exponent.validate_hypotheses", None),
    "lipschitz_constants": ("truncation.lipschitz_constants", None),
    "check_moment_bounds": ("analysis.check_moment_bounds", None),
    "martingale_report": ("analysis.martingale_report", None),
    "terminal_histogram": ("analysis.terminal_histogram", None),
    "svg_line_plot": ("figures.svg_line_plot", _svg),
    "svg_histogram": ("figures.svg_histogram", _svg),
    "write_csv": ("cli.write_csv", None),
    "atomic_write": ("cli.atomic_write", _written),
    "json_text": ("cli.json_text", None),
}

# name in varexp_cir.solver -> span name
SOLVER_NAMES = {
    "truncated_drift": "truncation.truncated_drift",
    "truncated_diffusion": "truncation.truncated_diffusion",
}


class Tracer:
    """Span recorder for one process; ``op`` is the id of the running op."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = None
        self._open: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        spans, calls, counts, open_ = self.spans, self.calls, self.counts, self._open

        def traced(*args, **kwargs):
            if open_ and spans[open_[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1] if open_ else -1, self.op])
            open_.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[index][1] = start
                spans[index][2] = end
                calls[name] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def install(self, cli, solver, stochastic):
        """Wrap the program's names in the modules that call them."""
        for attr, (name, hook) in CLI_NAMES.items():
            setattr(cli, attr, self.wrap(name, getattr(cli, attr), hook))
        for attr, name in SOLVER_NAMES.items():
            setattr(solver, attr, self.wrap(name, getattr(solver, attr)))

        coefficients = solver.coefficients

        def traced_coefficients(model):
            f, g = coefficients(model)
            return self.wrap("model.coeff", f), self.wrap("model.coeff", g)

        solver.coefficients = traced_coefficients
        batch_cls = stochastic.BrownianBatch
        batch_cls.checksum = self.wrap("stochastic.checksum", batch_cls.checksum, _checksum)

    def self_times(self) -> Counter:
        """Seconds per span name, less the time of each span's children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def layer_metrics(self) -> dict:
        """Every per-layer metric the trace gives (all but process and trace)."""
        t = self.self_times()
        c = self.counts
        increments_s = t["stochastic.sample_batch"] + t["stochastic.path_increments"]
        write_s = t["cli.write_csv"] + t["cli.atomic_write"]
        kernel_s = t["solver.simulate_batch"] + t["model.coeff"]  # inclusive kernel time
        return {
            "stochastic.sample_batch_s": t["stochastic.sample_batch"],
            "stochastic.path_increments_s": t["stochastic.path_increments"],
            "stochastic.increments": c["stochastic.increments"],
            "stochastic.increments_per_s": _rate(c["stochastic.increments"], increments_s),
            "stochastic.checksum_calls": self.calls["stochastic.checksum"],
            "stochastic.checksum_s": t["stochastic.checksum"],
            "stochastic.checksum_bytes": c["stochastic.checksum_bytes"],
            "solver.simulate_batch_s": t["solver.simulate_batch"],
            "solver.path_steps": c["solver.path_steps"],
            "solver.path_steps_per_s": _rate(c["solver.path_steps"], kernel_s),
            "solver.clamped_steps": c["solver.clamped_steps"],
            "solver.bytes_computed": c["solver.bytes_computed"],
            "solver.euler_truncated_s": t["solver.euler_truncated"],
            "solver.euler_truncated_calls": self.calls["solver.euler_truncated"],
            "solver.picard_solve_s": t["solver.picard_solve"],
            "solver.picard_iterations": c["solver.picard_iterations"],
            "model.coeff_evals": self.calls["model.coeff"],
            "model.coeff_s": t["model.coeff"],
            "model.feller_check_s": t["model.feller_check"],
            "exponent.validate_hypotheses_s": t["exponent.validate_hypotheses"],
            "truncation.truncated_drift_calls": self.calls["truncation.truncated_drift"],
            "truncation.truncated_diffusion_calls": self.calls["truncation.truncated_diffusion"],
            "truncation.s": t["truncation.truncated_drift"] + t["truncation.truncated_diffusion"],
            "truncation.lipschitz_constants_s": t["truncation.lipschitz_constants"],
            "analysis.martingale_report_s": t["analysis.martingale_report"],
            "analysis.check_moment_bounds_s": t["analysis.check_moment_bounds"],
            "analysis.terminal_histogram_s": t["analysis.terminal_histogram"],
            "analysis.terminal_histogram_calls": self.calls["analysis.terminal_histogram"],
            "figures.svg_s": t["figures.svg_line_plot"] + t["figures.svg_histogram"],
            "figures.svg_bytes": c["figures.svg_bytes"],
            "cli.run_self_s": t["cli.run"],
            "cli.write_csv_s": t["cli.write_csv"],
            "cli.atomic_write_s": t["cli.atomic_write"],
            "cli.json_text_s": t["cli.json_text"],
            "cli.bytes_written": c["cli.bytes_written"],
            "cli.files_written": self.calls["cli.atomic_write"],
            "cli.write_mb_per_s": _rate(c["cli.bytes_written"] / 1e6, write_s),
        }

    def overhead_s(self, calls: int = 10000) -> float:
        """Time the wrappers added to the traced repetition: the spans it
        recorded times the extra cost of one wrapped call over a bare one,
        each timed on a no-op (best of five rounds of ``calls``)."""

        def noop():
            return None

        def per_call(fn) -> float:
            best = float("inf")
            for _ in range(5):
                start = perf_counter()
                for _ in range(calls):
                    fn()
                best = min(best, perf_counter() - start)
            return best / calls

        wrapped = Tracer().wrap("noop", noop)
        return len(self.spans) * (per_call(wrapped) - per_call(noop))

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _rate(amount, seconds: float) -> float:
    return amount / seconds if seconds > 0.0 else 0.0
