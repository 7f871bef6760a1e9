"""Record the reference reports that later runs are checked against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run from the repository root, at a commit whose answers are trusted.  Each
workload's queries for the default seed run once, untimed, and every report
is stored with its exit code in ``perfbench/reference/WORKLOAD.json.gz``,
keyed by query.  Catalog queries do not depend on the seed, so their
references apply to every seed.
"""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import worker, workloads  # noqa: E402


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record(workload: str) -> Path:
    queries = workloads.setup(workload, workloads.DEFAULT_SEED)
    runner = worker.Runner(queries,
                           workloads.work_dir(workload, workloads.DEFAULT_SEED) / "out")
    for i in range(len(queries)):
        runner.run(i)
    if runner.failed:
        raise SystemExit(f"{workload}: {runner.failed} queries failed: "
                         f"{dict(runner.problems)}")
    doc = {
        "commit": commit(),
        "seed": workloads.DEFAULT_SEED,
        "queries": {queries[i].key: {"exit": code,
                                     "report": runner.first_report(i)}
                    for i, (code, _) in sorted(runner.first.items())},
    }
    path = worker.REFERENCE_DIR / f"{workload}.json.gz"
    path.parent.mkdir(exist_ok=True)
    data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(gzip.compress(data, mtime=0))
    return path


def main(argv=None) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    for workload in (argv or sorted(workloads.WORKLOADS)):
        print(record(workload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
