"""Every wrapped function records at least one call on the workload
expected to reach it (a shortened version of that workload)."""

import pytest

from perfbench import tracer as tr
from perfbench import worker, workloads


def _names(module, *attrs):
    return {tr.span_name(module, a) for a in attrs}


EXPECTED = {
    "catalog_cli": (
        _names("core", "StructuredIsometry.__init__", "StructuredIsometry.apply",
               "StructuredIsometry.apply_adjoint", "commutes",
               "doubly_commutes", "compose")
        | {tr.span_name("_linalg", a) for a, _ in tr.WRAPPED["_linalg"]}
        | _names("wold", "forward_orbit", "shift_orbit_vectors",
                 "kernel_of_adjoint", "wold_decompose", "is_wandering",
                 "wandering_span_decompose")
        | {tr.span_name("pairs", a) for a, _ in tr.WRAPPED["pairs"]}
        | {tr.span_name("spectral", a) for a, _ in tr.WRAPPED["spectral"]}
        | _names("serialize", *(a for a, _ in tr.WRAPPED["serialize"]))
        | _names("cli", "main")
    ),
    "strong_wander": _names("core", "lanes_reducing")
                     | _names("wold", "backward_orbit", "is_unitary",
                            "is_strongly_wandering", "strongly_wandering_span")
                     | _names("fileformat", "parse_vector_literal"),
    "random_small": _names("fileformat", "parse_operator", "parse_spectral",
                           "phase_from_turns"),
}


def shortened(workload, queries):
    if workload == "catalog_cli":
        return [q for q in queries if "128" not in q.argv]
    if workload == "strong_wander":
        return ([q for q in queries if not q.span][:20]
                + [q for q in queries if q.span and q.span[0] == "shift"])
    return queries[:120]


def test_expectations_cover_every_wrapped_function():
    wrapped = {tr.span_name(m, a) for m, attrs in tr.WRAPPED.items()
               for a, _ in attrs}
    assert set().union(*EXPECTED.values()) == wrapped


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_wrapped_functions_are_reached(workload):
    queries = shortened(workload, workloads.setup(workload,
                                                  workloads.DEFAULT_SEED))
    runner = worker.Runner(queries,
                           workloads.work_dir(workload,
                                              workloads.DEFAULT_SEED) / "out")
    tracer = tr.Tracer()
    tr.install(tracer)
    try:
        for i in range(len(queries)):
            runner.run(i)
    finally:
        tracer.restore()
    assert runner.failed == 0, dict(runner.problems)
    assert EXPECTED[workload] - set(tracer.names) == set()
