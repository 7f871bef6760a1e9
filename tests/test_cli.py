"""CLI contract: report content, exit codes, format parity, determinism."""

import json

import pytest

from woldlab import cli, wold


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_wold_fixed_plus_shift_json(capsys):
    code, out, _ = run_cli(
        capsys, "wold", "--input", "catalog:fixed_plus_shift",
        "--depth", "64", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["wold"]["exact"] is True
    assert report["wold"]["bases"]["unitary_window"] == [
        [{"lane": 0, "position": 0, "re": 1.0, "im": 0.0}]
    ]
    assert report["wandering_span"]["h0"]["generators"] == [
        [{"lane": 0, "position": 0, "re": 1.0, "im": 0.0}]
    ]


def test_wold_undecided_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "wold", "--input", "catalog:lingering_core", "--format", "json",
    )
    assert code == 2
    report = json.loads(out)
    assert report["wold"]["verdict"] == "undecided"


def test_wander_bilateral_strong(capsys):
    code, out, _ = run_cli(
        capsys, "wander", "--input", "catalog:bilateral",
        "--vector", "0:0=1", "--strong", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["certificate"]["verdict"] == "true"


def test_wander_fixed_point_witness(capsys):
    code, out, _ = run_cli(
        capsys, "wander", "--input", "catalog:fixed_plus_shift",
        "--vector", "0:0=1,1:0=1", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["certificate"]["verdict"] == "false"
    assert report["certificate"]["witness"] == {"kind": "exponent", "n": 1}


def test_pair_report(capsys):
    code, out, _ = run_cli(
        capsys, "pair", "--input", "catalog:pair_shifts_2_3",
        "--depth", "24", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["commutes"]["verdict"] == "true"
    assert report["doubly_commutes"]["verdict"] == "false"
    assert report["weak_bishift"]["verdict"] == "true"
    assert report["decomposition"]["uu"]["basis"] == []


def test_spectral_kerchy(capsys):
    code, out, _ = run_cli(
        capsys, "spectral", "--input", "catalog:kerchy", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["bilateral_shift"]["verdict"] is False
    assert report["bilateral_shift"]["reason"] == "non-constant multiplicity"
    assert len(report["cover"]["layers"]) == 3
    assert report["profile"] == {"breakpoints": ["0", "3/5"],
                                 "values": [3, 1], "atoms": []}


def test_spectral_from_file(tmp_path, capsys):
    spec = tmp_path / "kerchy.json"
    spec.write_text(
        '{"arcs": [{"start": "0", "length": "3/5"}, {"start": 0, "length": 1}, '
        '{"start": "0", "length": "3/5"}], "atoms": []}'
    )
    code, out, _ = run_cli(
        capsys, "spectral", "--input", str(spec), "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["profile"]["values"] == [3, 1]


def test_operator_file_input(tmp_path, capsys):
    op_file = tmp_path / "shift.op"
    op_file.write_text("lane 0 naturals\ntail 0 0 -> 0 offset 1 phase 0\n")
    code, out, _ = run_cli(
        capsys, "wold", "--input", str(op_file), "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["wold"]["bases"]["unitary_window"] == []


def test_pair_file_input_with_separator(tmp_path, capsys):
    text = ("lane 0 naturals\ntail 0 0 -> 0 offset 2 phase 0\n"
            "==\n"
            "lane 0 naturals\ntail 0 0 -> 0 offset 3 phase 0\n")
    pair_file = tmp_path / "pair.op"
    pair_file.write_text(text)
    code, out, _ = run_cli(
        capsys, "pair", "--input", str(pair_file), "--depth", "16",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["weak_bishift"]["verdict"] == "true"


def test_invalid_input_exit_code(capsys):
    code, _, err = run_cli(capsys, "wold", "--input", "catalog:nope")
    assert code == 1
    assert "error" in err


def test_invalid_vector_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "wander", "--input", "catalog:shift", "--vector", "junk",
    )
    assert code == 1
    assert "error" in err


def test_huge_tail_threshold_fails_short(tmp_path, capsys):
    # a threshold of 10^6 would need a million explicit columns; validation
    # counts them instead of listing them
    op_file = tmp_path / "huge.op"
    op_file.write_text("lane 0 naturals\ntail 0 1000000 -> 0 offset 1 phase 0\n")
    code, out, err = run_cli(capsys, "wold", "--input", str(op_file))
    assert code == 1
    assert out == ""
    assert len(err.encode()) < 1024
    assert "missing columns for [0:0, 0:1," in err
    assert "… and 999990 more" in err


def test_catalog_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--format", "json")
    assert code == 0
    names = [e["name"] for e in json.loads(out)["entries"]]
    assert "fixed_plus_shift" in names and "kerchy" in names


def test_catalog_export_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "exported.op"
    code, _, _ = run_cli(
        capsys, "catalog", "--export", "fixed_plus_shift",
        "--output", str(out_file),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "wold", "--input", str(out_file), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["wold"]["exact"] is True


def test_catalog_export_pair_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "pair.op"
    code, _, _ = run_cli(
        capsys, "catalog", "--export", "pair_shifts_2_3",
        "--output", str(out_file),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "pair", "--input", str(out_file), "--depth", "16",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["weak_bishift"]["verdict"] == "true"


def test_catalog_export_spectral_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "kerchy.json"
    code, _, _ = run_cli(
        capsys, "catalog", "--export", "kerchy", "--output", str(out_file),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "spectral", "--input", str(out_file), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["profile"]["values"] == [3, 1]


def test_text_and_json_report_identical_verdicts(capsys):
    _, json_out, _ = run_cli(
        capsys, "spectral", "--input", "catalog:arc_restriction",
        "--format", "json",
    )
    _, text_out, _ = run_cli(
        capsys, "spectral", "--input", "catalog:arc_restriction",
        "--format", "text",
    )
    report = json.loads(json_out)
    assert report["bilateral_shift"]["verdict"] is False
    assert "verdict: false" in text_out
    assert "support not full circle" in text_out


@pytest.mark.parametrize("args", [
    ("wold", "--input", "catalog:fixed_plus_shift", "--format", "json"),
    ("wander", "--input", "catalog:bilateral", "--vector", "0:0=1",
     "--strong", "--format", "json"),
    ("spectral", "--input", "catalog:kerchy", "--format", "json"),
    ("pair", "--input", "catalog:pair_shifts_2_3", "--depth", "16",
     "--format", "json"),
])
def test_reports_are_deterministic(capsys, args):
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    assert first.encode() == second.encode()


def test_reports_deterministic_across_processes():
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "woldlab.cli", "wold",
           "--input", "catalog:fixed_plus_shift", "--depth", "24",
           "--format", "json"]
    runs = [subprocess.run(cmd, capture_output=True, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_wander_horizon_flag_and_file_input(tmp_path, capsys):
    op_file = tmp_path / "shift.op"
    op_file.write_text("lane 0 naturals\ntail 0 0 -> 0 offset 1 phase 0\n")
    code, out, _ = run_cli(
        capsys, "wander", "--input", str(op_file), "--vector", "0:0=1",
        "--horizon", "7", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["horizon"] == 7
    assert report["certificate"]["verdict"] == "true"


def test_text_output_file(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    code, _, _ = run_cli(
        capsys, "spectral", "--input", "catalog:kerchy",
        "--format", "text", "--output", str(out_file),
    )
    assert code == 0
    assert "non-constant multiplicity" in out_file.read_text()


@pytest.mark.parametrize("args", [
    ("wold", "--input", "catalog:shift", "--depth", "abc"),
    ("wold",),
    ("frobnicate",),
    ("wander", "--input", "catalog:shift", "--vector", "0:0=1", "--depth", "8"),
    ("spectral", "--input", "catalog:kerchy", "--depth", "8"),
])
def test_usage_errors_exit_invalid(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == cli.INVALID
    assert out == ""
    assert "error" in err


def test_help_exits_ok(capsys):
    code, out, _ = run_cli(capsys, "wold", "--help")
    assert code == cli.OK
    assert "--depth" in out


@pytest.mark.parametrize("horizon", ["0", "-2"])
def test_wander_rejects_nonpositive_horizon(capsys, horizon):
    for strong in ((), ("--strong",)):
        code, out, err = run_cli(
            capsys, "wander", "--input", "catalog:shift", "--vector", "0:0=1",
            "--horizon", horizon, *strong,
        )
        assert code == cli.INVALID
        assert out == ""
        assert err == "error: horizon must be positive\n"


@pytest.mark.parametrize("vector", [
    "0:0=1e300,0:1=1e300", "0:0=1e200", "0:0=inf", "0:0=nan",
    "0:0=1+nani", "0:0=1e308,0:0=1e308",
])
def test_wander_rejects_non_finite_vector(capsys, vector):
    code, out, err = run_cli(
        capsys, "wander", "--input", "catalog:shift", "--vector", vector,
    )
    assert code == cli.INVALID
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_wold_runs_one_decomposition(capsys, monkeypatch):
    calls = []
    decompose = wold.wold_decompose

    def counted(*args, **kwargs):
        calls.append(args)
        return decompose(*args, **kwargs)

    monkeypatch.setattr(wold, "wold_decompose", counted)
    code, _, _ = run_cli(
        capsys, "wold", "--input", "catalog:fixed_plus_shift", "--depth", "16",
    )
    assert code == cli.OK
    assert len(calls) == 1


@pytest.mark.parametrize("raw", ["1", "inf"])
def test_vacuous_tolerance_exits_invalid(capsys, monkeypatch, raw):
    monkeypatch.setenv("WOLDLAB_TOLERANCE", raw)
    code, out, err = run_cli(
        capsys, "wander", "--input", "catalog:shift", "--vector", "0:0=1",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: WOLDLAB_TOLERANCE") and err.count("\n") == 1


def test_parser_is_built_once(capsys, monkeypatch, tmp_path):
    """Calls sharing one parser, usage errors and --help among them, answer
    exactly as calls with a fresh parser each."""
    wander = ("wander", "--input", "catalog:fixed_plus_shift",
              "--vector", "0:0=1,1:0=1", "--format", "json")
    runs = [
        wander + ("--strong", "--horizon", "4"),
        ("wander", "--strong", "--input", "catalog:shift"),  # no --vector
        wander,
        ("wold", "--input", "catalog:shift", "--depth", "8"),
        ("wold", "--input", "catalog:shift", "--horizon", "8"),  # no such flag
        ("catalog", "--output", str(tmp_path / "listing.txt")),
        ("--help",),
        ("catalog",),
        wander + ("--horizon", "3"),
    ]
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or real())
    try:
        fresh = []
        for args in runs:
            cli._parser.cache_clear()
            fresh.append(run_cli(capsys, *args))
        cli._parser.cache_clear()
        built.clear()
        shared = [run_cli(capsys, *args) for args in runs]
    finally:
        cli._parser.cache_clear()
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 1, 0, 0, 1, 0, 0, 0, 0]
    assert len(built) == 1
