"""Benchmark of the varexp-cir command line, end to end and per layer.

    python3 bench/run.py --workload compare_ref --seed 42 --seconds 60 --trace 0

Each repetition is one pass over the workload's op list (bench/workloads.py)
through ``varexp_cir.cli.run``, in a fresh child process (bench/child.py),
one at a time, the way a user of the CLI pays for it. Repetitions run
until ``--seconds`` is spent (at least a few).

``--trace 0`` reports the end-to-end metrics, each the median over the
repetitions:

* ``run_s``       wall seconds from the first op's call to the last return
* ``setup_s``     CPU seconds of the main thread importing ``varexp_cir.cli``
                  in a fresh process (see bench/child.py)
* ``peak_rss_mb`` peak resident set of the process running one repetition

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of bench/tracer.py (medians over traced repetitions),
``process.cpu_s`` of the untraced ones and ``trace.overhead_s`` (spans
recorded times the cost of one wrapper, see ``Tracer.overhead_s``).
Every per-layer count must be the same in every traced repetition, or
the run fails.

Every op's stdout and output files are hashed outside the timed region.
An op fails on a non-zero exit, an exception, or a digest that differs
from bench/golden.json (pinned at seed 42; regenerate with
bench/pin.py) or from the first repetition of the run. ``error_rate`` is
failed ops over attempted ops.

A human-readable report (with the sample count of every metric and the
machine) precedes the last stdout line, which is one JSON object with
the keys correct, attempted, failed and metrics. The full record,
including every sample, goes to .bench_work/results/ and the spans of
traced repetitions to .bench_work/spans/.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import COUNTS, PER_LAYER  # noqa: E402

END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

MIN_REPS = 3  # per kind of repetition: untraced, and traced when --trace 1
DEADLINE_S = 170.0  # the whole run, child time included, stays inside this


def run_child(args: list[str], timeout: float) -> dict:
    """Run bench/child.py with ``args``; return its JSON report."""
    env = {k: v for k, v in os.environ.items() if k != "VAREXP_SEED"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--root", str(ROOT), "--work", str(WORK), *args],
        capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu": platform.processor() or None}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}"] = size
    return info


def check_outputs(reps: list[dict], golden: dict) -> list[str]:
    """Mark failed ops in place; return one line per failure."""
    problems = []
    first = {op["key"]: op["digests"] for op in reps[0]["ops"]}
    for r, rep in enumerate(reps):
        for op in rep["ops"]:
            reasons = []
            if op["exit"] != 0:
                reasons.append(f"exit {op['exit']}: {op.get('error', '').strip()[-300:]}")
            for name, digest in golden.get(op["key"], {}).items():
                if op["digests"].get(name) != digest:
                    reasons.append(f"{name} differs from bench/golden.json")
            if op["digests"] != first[op["key"]]:
                reasons.append("outputs differ from the first repetition")
            op["failed"] = bool(reasons)
            problems += [f"rep {r} `{op['key']}`: {why}" for why in reasons]
    return problems


def check_counts(traced: list[dict]) -> list[str]:
    problems = []
    for name in COUNTS:
        values = [rep["layers"][name] for rep in traced]
        if len(set(values)) != 1:
            problems.append(f"count {name} differs between traced repetitions: {values}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, default=42, help="workload seed (default 42)")
    ap.add_argument("--seconds", type=float, default=60.0, help="time to spend on repetitions")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "varexp_cir" / "cli.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'varexp_cir'} is missing", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    with open(WORK / "lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print(f"another benchmark run holds {WORK / 'lock'}", file=sys.stderr)
            return 2
        return measure(args)


def measure(args) -> int:
    """Run the repetitions, check them, print the report; 0 if correct."""
    started = time.monotonic()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_dir = WORK / "spans" / tag
    shutil.rmtree(spans_dir, ignore_errors=True)
    if args.trace:
        spans_dir.mkdir(parents=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    golden = json.loads((HERE / "golden.json").read_text())

    # Compiles the package's bytecode, which a user pays once, not per run.
    run_child(["--import-only"], timeout=DEADLINE_S)

    kinds = [0, 1] if args.trace else [0]
    reps: dict[int, list[dict]] = {0: [], 1: []}
    walls: list[float] = []
    t0 = time.monotonic()
    try:
        while True:
            traced = kinds[len(walls) % len(kinds)]
            extra = ["--spans", str(spans_dir / f"rep{len(reps[1])}.jsonl")] if traced else []
            t = time.monotonic()
            rep = run_child(
                ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(traced), *extra],
                timeout=DEADLINE_S - (t - started),
            )
            walls.append(time.monotonic() - t)
            reps[traced].append(rep)
            spent = time.monotonic() - t0
            enough = all(len(reps[k]) >= MIN_REPS for k in kinds)
            typical = statistics.median(walls)
            if enough and spent + typical > args.seconds:
                break
            if time.monotonic() - started + 2 * max(walls) > DEADLINE_S:
                if not enough:
                    raise RuntimeError("too few repetitions fit in the deadline")
                break
    finally:
        shutil.rmtree(WORK / "out", ignore_errors=True)

    every = reps[0] + reps[1]
    problems = check_outputs(every, golden)
    if args.trace:
        problems += check_counts(reps[1])
    attempted = sum(len(rep["ops"]) for rep in every)
    failed = sum(op["failed"] for rep in every for op in rep["ops"])
    correct = not problems

    def median_of(rs, key):
        return statistics.median(rep[key] for rep in rs)

    if args.trace:
        # counts are the same in every traced repetition (check_counts)
        first = reps[1][0]["layers"]
        values = {name: first[name] if name in COUNTS
                  else statistics.median(rep["layers"][name] for rep in reps[1])
                  for name in first}
        values["process.cpu_s"] = median_of(reps[0], "cpu_s")
        values["trace.overhead_s"] = median_of(reps[1], "trace_overhead_s")
        samples = {name: len(reps[1]) for name in values}
        samples["process.cpu_s"] = len(reps[0])
        units = PER_LAYER
    else:
        values = {name: median_of(reps[0], name) for name, _ in END_TO_END}
        samples = {name: len(reps[0]) for name in values}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}

    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": {**machine(), **every[0]["versions"]},
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "metrics": {name: {**m, "samples": samples[name]} for name, m in metrics.items()},
        "repetitions": [
            {k: rep.get(k) for k in ("setup_s", "run_s", "cpu_s", "peak_rss_mb", "layers", "trace_overhead_s")} | {"traced": t}
            for t in kinds for rep in reps[t]
        ],
    }
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps[0])} untraced, {len(reps[1])} traced")
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:>16.6g} {m['unit']:15s} median of {samples[name]}")
    print(f"  {'error_rate':38s} {failed / attempted:>16.6g} {'failed/ops':15s} {failed} of {attempted} ops")
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in record["machine"].items()))
    for line in problems[:20]:
        print(f"  FAIL {line}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
