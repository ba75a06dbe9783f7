"""Write bench/golden.json: the digests every workload must reproduce.

    python3 bench/pin.py

Runs each workload once at the default seed 42 and pins, per op, the
SHA-256 of its stdout report and of every file it writes (CSV, summary
JSON, SVG figure). manifest.json is pinned by its increment checksum
only: its bytes echo the output directory and library versions. Re-pin only
for a change that alters program output on purpose and says why.
"""

from __future__ import annotations

import json
import sys

from run import HERE, run_child
import workloads

SEED = 42


def main() -> int:
    golden = {}
    for workload in sorted(workloads.WHY):
        rep = run_child(["--workload", workload, "--seed", str(SEED)], timeout=600)
        for op in rep["ops"]:
            if op["exit"] != 0:
                print(f"{op['key']}: exit {op['exit']}\n{op.get('error', '')}", file=sys.stderr)
                return 1
            golden[op["key"]] = op["digests"]
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(golden)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
