"""Compare the reports of the benchmark's queries between a baseline
revision and the working tree.

Every query of the three ``perfbench.workloads`` (``catalog_cli``,
``strong_wander``, ``random_small``) runs once per seed on each tree, in a
fresh interpreter with one BLAS thread.  A query's outcome is its exit code
and the bytes it leaves: the JSON report, or the error line on stderr, or
the exception it raised.  Outcomes are compared byte for byte, and the
number of differing queries is printed per workload and seed.

    python3 bench/compare_reports.py --baseline REV [--seeds 1 2 3]
        [--workloads catalog_cli strong_wander random_small]

REV is any git revision of this repository; it is exported with
``git archive`` into a temporary directory.  Both trees import
``perfbench`` from the working tree and write their inputs under the same
temporary directory, so a query reads the same files and paths on both.
Exits 1 when any query differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from depth_scan import _export  # noqa: E402

WORKLOADS = ("catalog_cli", "strong_wander", "random_small")

# runs in the child, in the shared work directory: argv = [workload, seed];
# prints {query key: [exit code, sha256 of the bytes left]}
PROBE = r"""
import contextlib, hashlib, io, json, sys
from pathlib import Path
from perfbench import worker, workloads
from woldlab import cli

queries = workloads.setup(sys.argv[1], int(sys.argv[2]))
out = workloads.work_dir(sys.argv[1], int(sys.argv[2])) / "out"
seen = {}
for i, q in enumerate(queries):
    path = out / f"q{i:03d}.json"
    path.unlink(missing_ok=True)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            if q.span:
                import woldlab
                name, depth = q.span
                result = woldlab.strongly_wandering_span(
                    woldlab.catalog.get(name).build(), depth)
                code, report = 0, json.dumps(worker.span_report(q, result),
                                             sort_keys=True).encode()
            else:
                code = cli.main([*q.argv, "--output", str(path)])
                report = path.read_bytes() if path.exists() else b""
    except (Exception, SystemExit) as exc:
        code, report = None, f"{type(exc).__name__}: {exc}".encode()
    digest = hashlib.sha256(report + b"\0" + err.getvalue().encode())
    seen[q.key] = [code, digest.hexdigest()]
print(json.dumps(seen))
"""


def _outcomes(tree: Path, work: Path, workload: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                   [str(tree / "src"), str(ROOT)]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", PROBE, workload, str(seed)],
                          cwd=work, env=env, check=True, capture_output=True,
                          text=True, timeout=3600)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    args = parser.parse_args(argv)

    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        baseline, work = Path(tmp) / "baseline", Path(tmp) / "work"
        baseline.mkdir()
        work.mkdir()
        _export(args.baseline, baseline)
        for workload in args.workloads:
            for seed in args.seeds:
                old = _outcomes(baseline, work, workload, seed)
                new = _outcomes(ROOT, work, workload, seed)
                keys = sorted(old.keys() | new.keys())
                diff = [k for k in keys if old.get(k) != new.get(k)]
                differing += len(diff)
                print(f"{workload:14} seed {seed}: {len(diff)} of "
                      f"{len(keys)} reports differ")
                for key in diff[:5]:
                    print(f"  {key}: {old.get(key)} -> {new.get(key)}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
