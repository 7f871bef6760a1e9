"""Depth scan: deep CLI queries and library calls timed on a baseline
revision and on the working tree, on the same machine.

Each query (``wold`` on ``bilateral_plus_shift`` and ``feeding_core``,
``pair`` on ``pair_grid`` and ``pair_shifts_2_3`` at depths 64, 128, 256,
512 and 1024; ``wander --strong`` of e_(1,0) on ``bilateral_plus_shift``
at horizons 64, 128, 256 and 512, the largest ``MAX_HORIZON`` allows;
``wold.strongly_wandering_span`` on ``fixed_plus_shift`` and
``bilateral_plus_shift`` at depths 64, 128 and 256, since depth 512 needs
a horizon above ``MAX_HORIZON``) runs in a
fresh interpreter with one BLAS thread.  The probe times
``woldlab.cli.main`` or the library call alone (imports excluded) and
reads the peak resident memory of its process.  A library call's report
is the bits of its generators.  Repeats alternate which tree runs first;
the summary gives medians, the speed-up, and whether the reports are
byte-identical between the trees.

    python3 bench/depth_scan.py --baseline REV --out FILE [--repeats 3]

REV is any git revision of this repository; it is exported with
``git archive`` into a temporary directory.  Run from anywhere; FILE has
no default, so a run never overwrites an earlier record by accident.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (64, 128, 256, 512)
DEPTHS = SIZES + (1024,)
SPAN_SIZES = (64, 128, 256)
# (query, probe, argv without the size, the option the size goes to, sizes)
QUERIES = [
    ("wold bilateral_plus_shift", "cli",
     ["wold", "--input", "catalog:bilateral_plus_shift"], "depth", DEPTHS),
    ("wold feeding_core", "cli",
     ["wold", "--input", "catalog:feeding_core"], "depth", DEPTHS),
    ("pair pair_grid", "cli",
     ["pair", "--input", "catalog:pair_grid"], "depth", DEPTHS),
    ("pair pair_shifts_2_3", "cli",
     ["pair", "--input", "catalog:pair_shifts_2_3"], "depth", DEPTHS),
    ("wander --strong bilateral_plus_shift 1:0=1", "cli",
     ["wander", "--strong", "--input", "catalog:bilateral_plus_shift",
      "--vector=1:0=1"], "horizon", SIZES),
    ("strongly_wandering_span fixed_plus_shift", "span",
     ["fixed_plus_shift"], "depth", SPAN_SIZES),
    ("strongly_wandering_span bilateral_plus_shift", "span",
     ["bilateral_plus_shift"], "depth", SPAN_SIZES),
]
# the depth-512 target of the roadmap's support-component item
TARGET = {"depth": 512, "wall_s": 1.0,
          "queries": ["wold bilateral_plus_shift", "pair pair_grid"]}

_REPORT = r"""
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"wall_s": wall, "peak_rss_mb": rss, "exit": code,
                  "report_sha256": hashlib.sha256(
                      report.encode()).hexdigest()}))
"""
# run in the child, keyed by probe name
PROBES = {
    # argv = the command line without ``--format json``
    "cli": r"""
import contextlib, hashlib, io, json, resource, sys, time
from woldlab import cli
argv = sys.argv[1:] + ["--format", "json"]
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = cli.main(argv)
wall = time.perf_counter() - start
report = out.getvalue()
""" + _REPORT,
    # argv = [catalog entry, "--depth", depth]
    "span": r"""
import hashlib, json, resource, sys, time
from woldlab import catalog, wold
op = catalog.get(sys.argv[1]).build()
start = time.perf_counter()
span = wold.strongly_wandering_span(op, int(sys.argv[3]))
wall = time.perf_counter() - start
code = 0
report = repr([[(idx.lane, idx.position, c.real.hex(), c.imag.hex())
                for idx, c in g._entries.items()] for g in span.generators])
""" + _REPORT,
}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _probe(tree: Path, probe: str, argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", PROBES[probe], *argv],
                          env=env,
                          check=True, capture_output=True, text=True,
                          timeout=600)
    return json.loads(proc.stdout.splitlines()[-1])


def _machine() -> dict:
    import numpy
    return {"platform": platform.platform(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, required=True,
                        help="where to write the JSON record")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"baseline": Path(tmp), "change": ROOT}
        _export(args.baseline, trees["baseline"])
        for repeat in range(args.repeats):
            order = ["baseline", "change"] if repeat % 2 == 0 \
                else ["change", "baseline"]
            for query, probe, argv, knob, sizes in QUERIES:
                for size in sizes:
                    for side in order:
                        run = _probe(trees[side], probe,
                                     argv + [f"--{knob}", str(size)])
                        run.update({"side": side, "repeat": repeat,
                                    "query": query, knob: size})
                        runs.append(run)
                        print(f"{side:8} {query} {size}: "
                              f"{run['wall_s']:.3f} s "
                              f"{run['peak_rss_mb']:.1f} MB", file=sys.stderr)

    summary = []
    for query, _, _, knob, sizes in QUERIES:
        for size in sizes:
            mine = {side: [r for r in runs if r["query"] == query
                           and r.get(knob) == size and r["side"] == side]
                    for side in ("baseline", "change")}
            row = {"query": query, knob: size}
            for side, rs in mine.items():
                row[f"{side}_wall_s"] = statistics.median(r["wall_s"] for r in rs)
                row[f"{side}_peak_rss_mb"] = statistics.median(
                    r["peak_rss_mb"] for r in rs)
            row["speedup"] = row["baseline_wall_s"] / row["change_wall_s"]
            row["same_exit"] = len({r["exit"] for side in mine
                                    for r in mine[side]}) == 1
            row["same_report"] = len({r["report_sha256"] for side in mine
                                      for r in mine[side]}) == 1
            summary.append(row)

    deep = {row["query"]: row for row in summary
            if row.get("depth") == TARGET["depth"]}
    result = {
        "script": "bench/depth_scan.py",
        "what": "wall time of woldlab.cli.main (imports excluded) and peak "
                "RSS of its process, one BLAS thread, medians over repeats",
        "machine": _machine(),
        "baseline": {"rev": _git("rev-parse", args.baseline)},
        "change": {"rev": _git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(_git("status", "--porcelain"))},
        "repeats": args.repeats,
        "summary": summary,
        "target": dict(TARGET, met={
            q: deep[q]["change_wall_s"] < TARGET["wall_s"]
            for q in TARGET["queries"]}),
        "runs": runs,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for row in summary:
        size = row.get("depth", row.get("horizon"))
        print(f"{row['query']:46} {size:4}  "
              f"{row['baseline_wall_s']:7.3f} -> {row['change_wall_s']:6.3f} s "
              f"({row['speedup']:5.1f}x)  {row['baseline_peak_rss_mb']:6.1f} -> "
              f"{row['change_peak_rss_mb']:6.1f} MB  "
              f"report {'same' if row['same_report'] else 'differs'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
