"""One benchmark repetition, run by bench/run.py in a fresh process.

Times the import of ``varexp_cir.cli`` (set-up) and one pass over the
workload's ops through ``varexp_cir.cli.run`` (from the first call to
the last return), then, outside the timed region, hashes every op's
stdout and output files. Prints one JSON object on stdout.

Set-up is the CPU time of the importing thread. Its wall time also
counts waiting for a CPU, which on a shared machine drifts with the
neighbours' load by more than the set-up bound.

The process reports its own peak RSS (``RUSAGE_SELF``), so each
repetition's figure belongs to that repetition alone.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter, thread_time

import workloads


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _digests(stdout: str, out_dir: Path | None) -> dict:
    """Digest of stdout and of every output file. The output directory
    in stdout reads ``<out>``. manifest.json is represented by its
    increment_checksum field: its bytes echo the output directory and
    library versions."""
    if out_dir is not None:
        stdout = stdout.replace(str(out_dir), "<out>")
    digests = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    if out_dir is not None and out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            if path.name == "manifest.json":
                manifest = json.loads(path.read_text())
                digests["manifest.increment_checksum"] = manifest["increment_checksum"]
            else:
                digests[path.name] = _sha256_file(path)
    return digests


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, help="checkout holding src/varexp_cir")
    ap.add_argument("--work", required=True, help="scratch directory for op outputs")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", help="file to write the spans of a traced repetition to")
    ap.add_argument("--import-only", action="store_true")
    args = ap.parse_args()

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))
    t0 = thread_time()
    import varexp_cir.cli as cli
    setup_s = thread_time() - t0
    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"varexp_cir was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.import_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import scipy

    out_root = Path(args.work) / "out"
    shutil.rmtree(out_root, ignore_errors=True)
    ops = []
    for i, argv in enumerate(workloads.ops(args.workload, args.seed)):
        out_dir = out_root / f"op{i}" if workloads.writes_files(argv) else None
        ops.append((argv, argv + ["--out", str(out_dir)] if out_dir else argv, out_dir))

    tracer = None
    run = cli.run
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cli, sys.modules["varexp_cir.solver"], sys.modules["varexp_cir.stochastic"])
        run = tracer.wrap("cli.run", cli.run)

    results = []
    cpu0 = _cpu_s()
    t_start = perf_counter()
    for i, (_, argv, _) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        out, err = io.StringIO(), io.StringIO()
        error = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        except Exception:  # an op that raises is a failed op, not a crashed benchmark
            code, error = None, traceback.format_exc(limit=3)
        results.append((code, error, out.getvalue(), err.getvalue()))
    run_s = perf_counter() - t_start
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    report_ops = []
    for (key_argv, _, out_dir), (code, error, stdout, stderr) in zip(ops, results):
        op = {"key": workloads.op_key(key_argv), "exit": code,
              "digests": _digests(stdout, out_dir)}
        if code != 0:
            op["error"] = error or stderr[-2000:]
        report_ops.append(op)

    report = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": report_ops,
        "versions": {
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["spans"] = len(tracer.spans)
        report["trace_overhead_s"] = tracer.overhead_s()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
