"""The workload process: one closed-loop caller driving woldlab in-process.

Started by ``run.py`` as ``python3 -m perfbench.worker`` from the
repository root.  It generates the workload's inputs, runs one warm-up
query, then runs every query once in order and goes on running them,
cheapest first, until ``--seconds`` have passed.  Garbage is collected
before each query, outside its timing.  The first output of every query is
checked afterwards, and every later output must be byte-identical to it.

With ``--trace 1`` it instead makes three full passes: untraced, traced
(spans around the public functions, see ``tracer.py``) and counting
(``HVector`` operations), and reports per-layer metrics.

``--setup-only`` stops after the inputs are written; ``run.py`` times that
from process start to exit as ``setup_s``.
"""

from __future__ import annotations

import os

# before numpy is imported: one BLAS/OpenMP thread, so the one caller is
# the only thing running
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TAIL_ABOVE = 10  # samples above the reported tail percentile
HD_GRID = 64  # integration points per order statistic in harrell_davis


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop, to make machine drift visible."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def span_report(query, result) -> dict:
    """Library results get a report shaped like the CLI's.  It is built
    here, not with ``woldlab.serialize``, so a traced run does not count it
    as the program's time."""
    name, depth = query.span
    return {
        "command": "strong_span",
        "input": f"catalog:{name}",
        "depth": depth,
        "basis": [[{"lane": idx.lane, "position": idx.position,
                    "re": c.real, "im": c.imag} for idx, c in v.items()]
                  for v in result.generators],
    }


class Runner:
    """Runs queries, times them, and keeps what the checks need."""

    def __init__(self, queries, out_dir: Path):
        import woldlab
        from woldlab import cli

        self.woldlab, self.cli = woldlab, cli
        self.queries = queries
        self.out_dir = out_dir
        # first outputs wait on disk for the checks, so holding them does
        # not add to the process's memory
        self.first_dir = out_dir.parent / "first"
        self.first_dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, tuple[int, bytes]] = {}  # code, output digest
        self.repeats: dict[int, int] = defaultdict(int)  # equal to first
        self.problems: dict[int, list[str]] = defaultdict(list)

    def execute(self, i: int):
        """(exit code, library result or None); CLI reports go to a file."""
        q = self.queries[i]
        if q.span:
            name, depth = q.span
            op = self.woldlab.catalog.get(name).build()
            result = self.woldlab.strongly_wandering_span(op, depth)
            return 0, result
        path = self.out_dir / f"q{i:03d}.json"
        return self.cli.main([*q.argv, "--output", str(path)]), None

    def run(self, i: int) -> float:
        """Run query ``i`` once; return its latency in seconds."""
        q = self.queries[i]
        path = self.out_dir / f"q{i:03d}.json"
        path.unlink(missing_ok=True)
        gc.collect()
        error = None
        t0 = time.perf_counter()
        try:
            code, result = self.execute(i)
        # a query that raises (argparse exits too) is a failed query, not a
        # failed benchmark
        except (Exception, SystemExit) as exc:  # noqa: BLE001
            error = exc
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if error is not None:
            self._fail(i, f"raised {type(error).__name__}: {error}")
        elif code == 1:
            self._fail(i, "exit code 1")
        else:
            payload = (json.dumps(span_report(q, result), sort_keys=True)
                       .encode() if q.span else
                       path.read_bytes() if path.exists() else None)
            if payload is None:
                self._fail(i, "no report written")
            elif i not in self.first:
                self.keep_first(i, code, payload)
            elif self.first[i] == (code, hashlib.sha256(payload).digest()):
                self.repeats[i] += 1
            else:
                self._fail(i, "output differs from the query's first run")
        return elapsed

    def keep_first(self, i: int, code: int, payload: bytes) -> None:
        (self.first_dir / f"q{i:03d}.json").write_bytes(payload)
        self.first[i] = (code, hashlib.sha256(payload).digest())

    def first_report(self, i: int) -> dict:
        return json.loads((self.first_dir / f"q{i:03d}.json").read_bytes())

    def _fail(self, i: int, problem: str) -> None:
        self.failed += 1
        self.problems[i].append(problem)

    def check(self, reference: dict) -> None:
        """Check each first output; a bad one fails every run that
        reproduced it."""
        from perfbench import check

        for i, (code, _) in sorted(self.first.items()):
            q = self.queries[i]
            try:
                report = self.first_report(i)
                problems = check.structural_problems(q.argv, code, report)
                ref = reference.get(q.key)
                if ref is not None:
                    if ref["exit"] != code:
                        problems.append(
                            f"exit code {code}, reference {ref['exit']}")
                    problems += check.compare(report, ref["report"])
                entry = catalog_entry(q)
                if entry is not None:
                    problems += check.catalog_problems(entry, report)
            # a report too malformed to check is a wrong answer
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problems = [f"report not checkable: {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1 + self.repeats[i]
                self.problems[i] += problems


def catalog_entry(query):
    """The catalog entry whose frozen expected map covers this query:
    depth-64 ``wold``/``pair`` and every ``spectral`` on a catalog input."""
    argv = query.argv
    if not argv or argv[0] not in ("wold", "pair", "spectral"):
        return None
    spec = argv[argv.index("--input") + 1]
    if not spec.startswith("catalog:"):
        return None
    if argv[0] != "spectral" and argv[argv.index("--depth") + 1] != "64":
        return None
    from woldlab import catalog
    return catalog.get(spec.split(":", 1)[1])


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json.gz"
    if not path.exists():
        return {}
    with gzip.open(path, "rt") as fh:
        return json.load(fh)["queries"]


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: the mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass of each
    ``[(i-1)/n, i/n]``, centred on rank p(n+1).

    On ``catalog_cli`` most queries get one or two samples in a run, and
    one sample of a one-second query reads up to 25% slow on a shared
    host; a single order statistic passes that straight on, this spreads
    it over the neighbouring queries."""
    import numpy

    xs = numpy.sort(numpy.asarray(values, dtype=float))
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = (numpy.arange(n * HD_GRID) + 0.5) / (n * HD_GRID)
    log_pdf = (a - 1) * numpy.log(grid) + (b - 1) * numpy.log1p(-grid)
    weights = numpy.exp(log_pdf - log_pdf.max()).reshape(n, HD_GRID).sum(1)
    return float(weights @ xs / weights.sum())


def latency_metrics(samples: dict[int, list[float]], count: int) -> dict:
    """wall_s, query_p50_s and query_tail_s.

    Each query counts once, at its median latency over the run, so the
    percentiles do not depend on how many passes fitted in the run.  The
    tail is centred on the rank with ``TAIL_ABOVE`` queries above it."""
    latency = [statistics.median(samples[i]) for i in range(count)]
    tail_p = max(count - TAIL_ABOVE, 1) / (count + 1)
    return {
        "wall_s": sum(latency),
        "query_p50_s": harrell_davis(latency, 0.5),
        "query_tail_s": harrell_davis(latency, tail_p),
        "samples": sum(len(runs) for runs in samples.values()),
        "tail_percentile": 100.0 * tail_p,
    }


def timed_loop(runner: Runner, seconds: float) -> dict[int, list[float]]:
    """One pass in the seeded order, then passes cheapest query first, until
    ``seconds`` have passed.

    When a pass takes most of the run, as on ``catalog_cli``, the time left
    after the first pass then buys second samples for as many queries as
    possible, rather than for whichever came first in the order."""
    start = time.perf_counter()
    n = len(runner.queries)
    samples = {i: [runner.run(i)] for i in range(n)}
    order = sorted(range(n), key=lambda i: samples[i][0])
    k = 0
    while time.perf_counter() - start < seconds:
        samples[order[k % n]].append(runner.run(order[k % n]))
        k += 1
    return samples


def one_pass(runner: Runner) -> float:
    return sum(runner.run(i) for i in range(len(runner.queries)))


def traced_passes(runner: Runner, base: Path) -> dict:
    from perfbench import tracer as tr

    untraced = one_pass(runner)
    tracer = tr.Tracer()
    tr.install(tracer)
    try:
        traced = 0.0
        for i in range(len(runner.queries)):
            tracer.query = i
            traced += runner.run(i)
    finally:
        tracer.restore()
    counter = tr.HVectorCounter(runner.woldlab.HVector)
    counter.install()
    try:
        one_pass(runner)
    finally:
        counter.restore()
    tracer.write(base / "spans.json.gz")
    metrics = tr.layer_metrics(tracer)
    metrics["core.hvector.ops"] = counter.count
    metrics["trace.overhead_s"] = traced - untraced
    return {"metrics": metrics, "spans": len(tracer.names),
            "untraced_wall_s": untraced, "traced_wall_s": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import woldlab  # noqa: F401

    from perfbench import workloads

    queries = workloads.setup(args.workload, args.seed)
    if args.setup_only:
        return 0

    import numpy

    base = workloads.work_dir(args.workload, args.seed)
    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "calibration_before_s": calibrate(),
        "queries": len(queries),
    }
    runner = Runner(queries, base / "out")
    runner.cli.main([*workloads.WARMUP, "--output", str(base / "warmup.json")])
    # what exists now lives for the whole run: keep it out of the
    # per-query collections
    gc.collect()
    gc.freeze()
    if args.trace:
        traced = traced_passes(runner, base)
        metrics = traced.pop("metrics")
        info.update(traced)
    else:
        metrics = latency_metrics(timed_loop(runner, args.seconds),
                                  len(queries))
        info["samples"] = metrics.pop("samples")
        info["tail_percentile"] = metrics.pop("tail_percentile")
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info["calibration_after_s"] = calibrate()
    runner.check(load_reference(args.workload))
    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": {runner.queries[i].key: p
                     for i, p in sorted(runner.problems.items())},
        "metrics": metrics,
        "info": info,
    }
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
