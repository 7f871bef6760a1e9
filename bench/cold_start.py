"""Cold start: fresh-interpreter wall time of ``import woldlab`` and of one
CLI run per subcommand, on a baseline revision and on the working tree.

Each run is a new ``python`` process with one BLAS thread, timed from
start to exit by the parent: ``import woldlab``, and ``python -m
woldlab.cli`` on ``wold`` and ``pair`` at depth 16, ``wander``, ``wander
--strong``, ``spectral`` and ``catalog``, all on catalog inputs, with
``--format json``.  Each of 11 repeats runs every case on both trees,
alternating which tree goes first.  The record keeps every run, the median
and quartiles per case and tree, whether the exit codes and reports are
byte-identical between the trees, and ``PYTHONDONTWRITEBYTECODE``, which
decides whether each process compiles the package's source.  Only the
standard library is used.

    python3 bench/cold_start.py --baseline REV --out FILE

REV is any git revision of this repository; it is exported with
``git archive`` into a temporary directory.  FILE has no default, so a run
never overwrites an earlier record by accident.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from depth_scan import _export, _git  # noqa: E402

TIMEOUT_S = 300
REPEATS = 11
# (case, interpreter arguments)
CASES = [
    ("import woldlab", ["-c", "import woldlab"]),
    ("wold bilateral_plus_shift 16",
     ["-m", "woldlab.cli", "wold", "--input", "catalog:bilateral_plus_shift",
      "--depth", "16", "--format", "json"]),
    ("pair pair_shifts_2_3 16",
     ["-m", "woldlab.cli", "pair", "--input", "catalog:pair_shifts_2_3",
      "--depth", "16", "--format", "json"]),
    ("wander bilateral_plus_shift 1:0=1",
     ["-m", "woldlab.cli", "wander", "--input", "catalog:bilateral_plus_shift",
      "--vector", "1:0=1", "--format", "json"]),
    ("wander --strong bilateral_plus_shift 1:0=1",
     ["-m", "woldlab.cli", "wander", "--strong",
      "--input", "catalog:bilateral_plus_shift", "--vector", "1:0=1",
      "--format", "json"]),
    ("spectral kerchy",
     ["-m", "woldlab.cli", "spectral", "--input", "catalog:kerchy",
      "--format", "json"]),
    ("catalog", ["-m", "woldlab.cli", "catalog", "--format", "json"]),
]


def _run(tree: Path, args: list[str]) -> dict:
    """One fresh interpreter, waited for with a blocking wait and killed by
    a timer: ``subprocess.run(timeout=...)`` polls with sleeps of up to
    50 ms, which would round the wall time up to that poll grid."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env, cwd=tree,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    try:
        report, _ = proc.communicate()
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    return {"wall_s": wall, "exit": proc.returncode,
            "report_sha256": hashlib.sha256(report).hexdigest()}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median_s": median, "q1_s": q1, "q3_s": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--out", type=Path, required=True,
                        help="where to write the JSON record")
    args = parser.parse_args(argv)

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"baseline": Path(tmp), "change": ROOT}
        _export(args.baseline, trees["baseline"])
        for repeat in range(REPEATS):
            order = ["baseline", "change"] if repeat % 2 == 0 \
                else ["change", "baseline"]
            for case, case_args in CASES:
                for side in order:
                    run = _run(trees[side], case_args)
                    run.update({"side": side, "repeat": repeat, "case": case})
                    runs.append(run)
            print(f"repeat {repeat + 1}/{REPEATS} done", file=sys.stderr)

    summary = []
    for case, _ in CASES:
        mine = {side: [r for r in runs if r["case"] == case
                       and r["side"] == side]
                for side in ("baseline", "change")}
        row = {"case": case}
        for side, rs in mine.items():
            row[side] = _spread([r["wall_s"] for r in rs])
        row["change_pct"] = 100.0 * (row["change"]["median_s"]
                                     / row["baseline"]["median_s"] - 1.0)
        row["same_exit"] = len({r["exit"] for r in runs
                                if r["case"] == case}) == 1
        row["same_report"] = len({r["report_sha256"] for r in runs
                                  if r["case"] == case}) == 1
        summary.append(row)

    result = {
        "script": "bench/cold_start.py",
        "what": "wall time of a fresh interpreter from start to exit, one "
                "BLAS thread, medians and quartiles over repeats that "
                "alternate which tree runs first",
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": importlib.metadata.version("numpy"),
                    "PYTHONDONTWRITEBYTECODE":
                        os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "baseline": {"rev": _git("rev-parse", args.baseline)},
        "change": {"rev": _git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(_git("status", "--porcelain"))},
        "repeats": REPEATS,
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for row in summary:
        print(f"{row['case']:44} {row['baseline']['median_s']:6.3f} -> "
              f"{row['change']['median_s']:6.3f} s "
              f"({row['change_pct']:+5.1f}%)  "
              f"report {'same' if row['same_report'] else 'differs'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
