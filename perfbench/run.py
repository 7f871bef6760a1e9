"""woldlab benchmark: one command, one process, one caller at a time.

    python3 perfbench/run.py --workload catalog_cli --seed 1 --seconds 35 --trace 0

Run it from the repository root.  It times ``setup_s`` over several fresh
interpreters, then starts one workload process (``perfbench/worker.py``)
that drives woldlab in-process through ``woldlab.cli.main`` and public
library functions, checks every answer, and reports.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines above it name every metric
with its unit and sample count, the machine record, and any failed check.

Workloads (``perfbench/workloads.py``): ``catalog_cli``,
``strong_wander`` and ``random_small``; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.tracer import PER_LAYER_UNITS  # noqa: E402

SETUP_PROBES = 11
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 160

END_TO_END_UNITS = {
    "wall_s": "s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Fixed values make runs comparable; the thread pins are set again inside
# the worker before numpy loads.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def worker_command(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, "-m", "perfbench.worker", "--workload", workload,
            "--seed", str(seed), *extra]


def measure_setup(workload: str, seed: int, env: dict) -> list[float]:
    """Fresh interpreter to exit: import woldlab, generate and write the
    inputs.  One sample per probe.

    The probe is waited for with a blocking wait and killed by a timer:
    ``subprocess.run(timeout=...)`` polls with sleeps of up to 50 ms, which
    would round every sample up to that poll grid."""
    cmd = worker_command(workload, seed, "--setup-only")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL)
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return times


def _notes(info: dict, setup: list[float]) -> dict[str, str]:
    per_query = (f"{info['queries']} queries, each at its median latency "
                 f"over {info['samples']} runs of queries")
    return {
        "wall_s": f"one pass: sum over {per_query}",
        "query_p50_s": f"Harrell-Davis median of {per_query}",
        "query_tail_s": f"Harrell-Davis p{info['tail_percentile']:.1f} of "
                        f"{per_query}; centred on the rank with 10 queries "
                        f"above it",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "peak_rss_mb": "peak resident memory of the workload process",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="woldlab benchmark (closed loop, one caller)")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "woldlab" / "__init__.py").is_file():
        print(f"error: no woldlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    env = dict(os.environ, **CHILD_ENV)
    base = ROOT / workloads.work_dir(args.workload, args.seed)
    base.mkdir(parents=True, exist_ok=True)
    result_path = base / f"result-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    try:
        setup = [] if args.trace else measure_setup(args.workload, args.seed,
                                                    env)
        subprocess.run(
            worker_command(args.workload, args.seed,
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--result", str(result_path)),
            cwd=ROOT, env=env, check=True, timeout=WORKER_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())
    info, metrics = result["info"], result["metrics"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 caller")
    print(f"machine: python {info['python']}, numpy {info['numpy']}, "
          f"nproc {info['nproc']} (affinity {info['affinity']}), "
          f"calibration loop {info['calibration_before_s']:.4f} s before, "
          f"{info['calibration_after_s']:.4f} s after")
    if args.trace:
        units = PER_LAYER_UNITS
        print(f"traced pass: {info['spans']} spans; untraced pass "
              f"{info['untraced_wall_s']:.4f} s, traced pass "
              f"{info['traced_wall_s']:.4f} s")
        notes = {}
    else:
        units = END_TO_END_UNITS
        metrics["setup_s"] = statistics.median(setup)
        notes = _notes(info, setup)
    attempted, failed = result["attempted"], result["failed"]
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{note}")
    print(f"failed_frac = {failed / attempted:.6g}  "
          f"({failed} of {attempted} queries failed)")
    for key, problems in list(result["problems"].items())[:10]:
        print(f"FAILED {key}: {'; '.join(problems[:3])}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
