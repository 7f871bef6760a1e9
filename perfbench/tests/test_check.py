import copy
import json

from perfbench import check, worker, workloads

KEY = "wold --input catalog:fixed_plus_shift --depth 64 --format json"


def runner_with_output(report: dict, code: int, repeats: int):
    query = workloads.Query(KEY, tuple(KEY.split()))
    runner = worker.Runner([query], workloads.work_dir("selftest", 0) / "out")
    runner.keep_first(0, code, json.dumps(report).encode())
    runner.repeats[0] = repeats
    return runner


def reference():
    return worker.load_reference("catalog_cli")


def test_reference_report_passes():
    ref = reference()[KEY]
    runner = runner_with_output(ref["report"], ref["exit"], repeats=2)
    runner.check(reference())
    assert runner.failed == 0, dict(runner.problems)


def test_flipped_verdict_fails_every_run():
    ref = reference()[KEY]
    report = copy.deepcopy(ref["report"])
    cert = report["wandering_span"]["certificate"]
    assert cert["verdict"] == "true"
    cert["verdict"] = "false"
    runner = runner_with_output(report, ref["exit"], repeats=2)
    runner.check(reference())
    assert runner.failed == 3
    assert any("verdict" in p for p in runner.problems[0])


def test_dropped_basis_vector_fails():
    ref = reference()[KEY]
    report = copy.deepcopy(ref["report"])
    hw = report["wandering_span"]["hw"]["generators"]
    assert len(hw) > 1
    del hw[-1]
    runner = runner_with_output(report, ref["exit"], repeats=0)
    runner.check(reference())
    assert runner.failed == 1
    assert any("dimension" in p for p in runner.problems[0])


def test_equal_subspace_in_another_basis_passes():
    e0 = [{"lane": 0, "position": 0, "re": 1.0, "im": 0.0}]
    e1 = [{"lane": 0, "position": 1, "re": 1.0, "im": 0.0}]
    s = 0.5 ** 0.5
    plus = [{"lane": 0, "position": 0, "re": s, "im": 0.0},
            {"lane": 0, "position": 1, "re": s, "im": 0.0}]
    minus = [{"lane": 0, "position": 0, "re": 0.0, "im": s},
             {"lane": 0, "position": 1, "re": 0.0, "im": -s}]
    assert check.compare({"b": [plus, minus]}, {"b": [e0, e1]}) == []
    assert check.compare({"b": [plus, e1]}, {"b": [e0, e1]}) != []


def test_structural_rechecks_a_false_wander_witness():
    argv = ["wander", "--input", "catalog:shift", "--vector", "0:0=1,0:1=1"]
    report = {"command": "wander", "input": "catalog:shift",
              "certificate": {"verdict": "false", "exact": True, "horizon": 8,
                              "witness": {"kind": "exponent", "n": 1}}}
    assert check.structural_problems(argv, 0, report) == []
    report["certificate"]["witness"]["n"] = 3  # <S^3 x, x> = 0
    assert check.structural_problems(argv, 0, report) != []
    assert check.structural_problems(argv, 1, report) == ["exit code 1"]


def test_malformed_report_fails_without_crashing():
    ref = reference()[KEY]
    report = copy.deepcopy(ref["report"])
    del report["wold"]
    runner = runner_with_output(report, ref["exit"], repeats=1)
    runner.check(reference())
    assert runner.failed == 2
    assert any("not checkable" in p for p in runner.problems[0])
