"""CLI contract: report content, exit codes, format parity, determinism."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import operator_texts, spectral_texts, vector_literals
from woldlab import catalog, cli, core, fileformat, pairs, wold
from woldlab.config import MAX_WINDOW
from woldlab.core import StructuredIsometry


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


@pytest.mark.parametrize("command, name, message", [
    ("pair", "shift", "'shift' is an operator, expected a pair"),
    ("wold", "pair_grid", "'pair_grid' is a pair, expected an operator"),
    ("spectral", "fixed_plus_shift",
     "'fixed_plus_shift' is an operator, expected a spectral"),
])
def test_catalog_entry_of_the_wrong_kind(capsys, command, name, message):
    code, out, err = run_cli(capsys, command, "--input", f"catalog:{name}")
    assert code == 1
    assert out == ""
    assert err == f"error: catalog entry {message}\n"


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


@pytest.mark.parametrize("depth", ["0", "-2"])
def test_depth_must_be_positive(tmp_path, capsys, depth):
    """``wold``, and ``pair`` on a commuting and on a non-commuting pair,
    refuse the depth with one stderr line, the non-commuting pair too,
    whose commutation check reads no window."""
    pair_file = tmp_path / "swap_flip.op"
    pair_file.write_text(SWAP + "==\n" + FLIP)
    for argv in (("wold", "--input", "catalog:shift"),
                 ("pair", "--input", "catalog:pair_shifts_2_3"),
                 ("pair", "--input", str(pair_file))):
        code, out, err = run_cli(capsys, *argv, "--depth", depth)
        assert (code, out, err) == \
            (cli.INVALID, "", "error: depth must be positive\n"), argv


def test_wander_rejects_horizon_above_the_bound(capsys):
    for strong in ((), ("--strong",)):
        code, out, err = run_cli(
            capsys, "wander", "--input", "catalog:bilateral_plus_shift",
            "--vector", "1:0=1", "--horizon", "513", *strong,
        )
        assert code == cli.INVALID
        assert out == ""
        assert err == "error: horizon must be at most 512, got 513\n"


@pytest.mark.parametrize("command, name, depth, size", [
    ("pair", "pair_grid", 100000, 200000), ("pair", "pair_grid", 4096, 8192),
    ("wold", "bilateral_plus_shift", 2048, 6145)])
def test_window_beyond_the_bound_is_refused(capsys, command, name, depth,
                                            size):
    """A window of more than MAX_WINDOW indices is refused before anything
    window-sized is built; pair_grid at depth 100000 used to end in numpy's
    memory error on a 200000 x 200000 coefficient matrix."""
    code, out, err = run_cli(capsys, command, "--input", f"catalog:{name}",
                             "--depth", str(depth))
    assert (code, out) == (cli.INVALID, "")
    assert err == (f"error: the window of depth {depth} holds {size} "
                   f"indices, more than the {MAX_WINDOW} allowed\n")


def test_every_catalog_window_fits_up_to_depth_1024():
    """Computed, not run: every catalog operator's window at depth 1024 is
    inside the bound, the largest dense coefficient matrix the bound admits
    (rows x rows complex entries) stays at 256 MiB, and pair_grid at depth
    4096, refused, would need 1 GiB."""
    for entry in catalog.fixtures():
        if entry.kind in ("operator", "pair"):
            built = entry.build()
            for op in built if entry.kind == "pair" else (built,):
                assert len(op.window_indices(1024)) <= MAX_WINDOW
    cell = np.dtype(complex).itemsize
    assert MAX_WINDOW ** 2 * cell <= 2 ** 28
    grid, _ = catalog.get("pair_grid").build()
    rows = sum(len(lane.window_positions(4096)) for lane in grid.lanes)
    assert rows > MAX_WINDOW and rows ** 2 * cell >= 2 ** 30


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


@pytest.mark.parametrize("command, name, text", [
    # a zero-denominator phase in an operator file
    ("wold", "phase.op",
     "lane 0 naturals\ntail 0 0 -> 0 offset 1 phase 1/0\n"),
    # a zero-denominator arc start in a spectral file
    ("spectral", "arc.json", '{"arcs": [{"start": "1/0", "length": "1/2"}]}'),
    # a column whose squared norm overflows
    ("wold", "column.op",
     "lane 0 naturals\nlane 1 finite 1\ncolumn 1:0 = 1:0 1e308 0\n"
     "tail 0 0 -> 0 offset 1 phase 0\n"),
    # JSON infinity as an arc start, arcs that are not a list, a nan angle
    ("spectral", "inf.json", '{"arcs": [{"start": 1e400, "length": "1/2"}]}'),
    ("spectral", "arcs.json", '{"arcs": 5}'),
    ("spectral", "nan.json", '{"atoms": [{"angle": "nan", "mult": 1}]}'),
    # an atom multiplicity that is no integer, a finite lane beyond maxsize
    ("spectral", "mult.json", '{"atoms": [{"angle": "1/3", "mult": 1e400}]}'),
    ("wold", "lane.op", "lane 0 finite 99999999999999999999\n"),
], ids=["phase_1/0", "arc_start_1/0", "column_1e308", "arc_start_1e400",
        "arcs_5", "angle_nan", "mult_1e400", "finite_lane_1e20"])
def test_malformed_description_fails_in_one_line(tmp_path, capsys, command,
                                                 name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert code == cli.INVALID
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("literal", ["-1:0=1", "--strong", "-h"])
def test_vector_value_may_start_with_a_dash(capsys, literal):
    """The token after --vector is its value, as in the = form: a negative
    lane gets the one-line lane error, not argparse's usage text."""
    spaced = run_cli(capsys, "wander", "--input", "catalog:shift",
                     "--vector", literal)
    joined = run_cli(capsys, "wander", "--input", "catalog:shift",
                     f"--vector={literal}")
    assert spaced == joined
    code, out, err = spaced
    assert (code, out) == (cli.INVALID, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_tiny_lane_component_is_not_the_zero_vector(capsys):
    """A nonzero component of norm below the tolerance on its own lane does
    not make the strong test refuse the whole vector as zero."""
    code, out, err = run_cli(
        capsys, "wander", "--strong", "--input", "catalog:cycle_plus_shift",
        "--vector", "1:0=1,0:0=1e-10", "--horizon", "8", "--format", "json",
    )
    assert (code, err) == (cli.OK, "")
    certificate = json.loads(out)["certificate"]
    assert certificate["verdict"] == "true" and certificate["exact"] is True


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(operator_texts.map(lambda t: ("wold", t, "")),
                 spectral_texts.map(lambda t: ("spectral", t, "")),
                 vector_literals.map(lambda v: ("wander", "", v))))
def test_every_error_is_one_stderr_line(query):
    """Whatever the description or vector literal, the CLI answers with a
    report, or exits 1 with one line on stderr and nothing on stdout."""
    command, text, vector = query
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text)
        argv = [command, "--input", str(path)]
        if command == "wold":
            argv += ["--depth", "2"]
        if command == "wander":
            argv = [command, "--input", "catalog:shift", "--vector", vector,
                    "--horizon", "2"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    if code == cli.INVALID:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == "" and out.getvalue()


SWAP = "lane 0 finite 2\ncolumn 0:0 = 0:1 1 0\ncolumn 0:1 = 0:0 1 0\n"
FLIP = "lane 0 finite 2\ncolumn 0:0 = 0:0 1 0\ncolumn 0:1 = 0:1 -1 0\n"


def test_pair_report_on_a_non_commuting_pair(tmp_path, capsys):
    """The swap and diag(1, -1) anticommute: the report carries the
    commutation witness, leaves every other section null and exits 0."""
    pair_file = tmp_path / "swap_flip.op"
    pair_file.write_text(SWAP + "==\n" + FLIP)
    code, out, _ = run_cli(
        capsys, "pair", "--input", str(pair_file), "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["commutes"]["verdict"] == "false"
    assert report["commutes"]["witness"] == {
        "kind": "basis_index", "lane": 0, "position": 0}
    for key in ("doubly_commutes", "weak_bishift", "decomposition",
                "completely_non_doubly_commuting"):
        assert report[key] is None, key


def test_pair_input_as_two_files(tmp_path, capsys):
    """--input A.op,B.op reads one operator from each file and reports as
    the one-file form with a separator line does."""
    shifts = ["lane 0 naturals\ntail 0 0 -> 0 offset 2 phase 0\n",
              "lane 0 naturals\ntail 0 0 -> 0 offset 3 phase 0\n"]
    first, second, both = (tmp_path / "s2.op", tmp_path / "s3.op",
                           tmp_path / "s23.op")
    first.write_text(shifts[0])
    second.write_text(shifts[1])
    both.write_text(shifts[0] + "==\n" + shifts[1])
    reports = []
    for spec in (f"{first},{second}", str(both)):
        code, out, _ = run_cli(capsys, "pair", "--input", spec,
                               "--depth", "16", "--format", "json")
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0]["weak_bishift"]["verdict"] == "true"
    assert reports[0]["doubly_commutes"]["verdict"] == "false"
    for report in reports:
        del report["input"]
    assert reports[0] == reports[1]


def test_pair_decomposes_each_operator_once(monkeypatch, capsys):
    """The CNDC search reads the unitary-type parts that the decomposition
    built: one Wold decomposition per operator, plus the product's for the
    weak bi-shift test."""
    calls = []
    decompose = wold.wold_decompose
    monkeypatch.setattr(wold, "wold_decompose",
                        lambda *a, **k: calls.append(a) or decompose(*a, **k))
    code, _, _ = run_cli(capsys, "pair", "--input", "catalog:pair_shifts_2_3",
                         "--depth", "32")
    assert code == cli.OK
    assert len(calls) == 3


def test_pair_builds_one_product(monkeypatch, capsys):
    """A `pair` query builds the two operators and the one product that the
    weak bi-shift test analyses.  Its two commutation checks, the pair
    analysis's, whose certificate the report's `commutes` section reads,
    and the one opening `doubly_commutes`, build none."""
    built, composed, checked = [], [], []
    init, compose, commutes = (StructuredIsometry.__init__, pairs.compose,
                               core.commutes)
    monkeypatch.setattr(
        StructuredIsometry, "__init__",
        lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    monkeypatch.setattr(pairs, "compose",
                        lambda *a: composed.append(a) or compose(*a))
    for owner in (core, cli, pairs):
        monkeypatch.setattr(owner, "commutes",
                            lambda *a: checked.append(a) or commutes(*a))
    code, _, _ = run_cli(capsys, "pair", "--input", "catalog:pair_shifts_2_3",
                         "--depth", "64")
    assert code == cli.OK
    assert (len(built), len(composed), len(checked)) == (3, 1, 2)


def test_pair_with_an_invalid_product_is_undecided(tmp_path, capsys):
    """A column of norm 1 + 0.9e-9 passes validation at the working
    tolerance, but its square in V1V2 does not: the pair still commutes,
    the weak bi-shift test is undecided and the report is emitted."""
    near_unit = ("lane 0 finite 1\nlane 1 naturals\n"
                 "column 0:0 = 0:0 1.0000000009 0.0\n"
                 "tail 1 0 -> 1 offset 1 phase 0\n")
    path = tmp_path / "near.op"
    path.write_text(near_unit + "==\n" + near_unit)
    code, out, err = run_cli(capsys, "pair", "--input", str(path),
                             "--depth", "16", "--format", "json")
    assert (code, err) == (cli.UNDECIDED_EXIT, "")
    report = json.loads(out)
    assert report["commutes"]["verdict"] == "true"
    assert report["weak_bishift"] == {"verdict": "undecided", "exact": False,
                                      "horizon": 16, "witness": None}


def test_pair_query_keeps_no_operator_alive(monkeypatch, tmp_path, capsys):
    """Once a `pair` query returns, nothing holds its operators."""
    refs, parse = [], fileformat.parse_operator

    def parse_tracked(*args, **kwargs):
        op = parse(*args, **kwargs)
        refs.append(weakref.ref(op))
        return op

    monkeypatch.setattr(fileformat, "parse_operator", parse_tracked)
    path = tmp_path / "s23.op"
    path.write_text("lane 0 naturals\ntail 0 0 -> 0 offset 2 phase 0\n==\n"
                    "lane 0 naturals\ntail 0 0 -> 0 offset 3 phase 0\n")
    code, _, _ = run_cli(capsys, "pair", "--input", str(path), "--depth", "16")
    assert code == cli.OK
    gc.collect()
    assert len(refs) == 2 and all(ref() is None for ref in refs)


# The unilateral shift with e_(i,n) relabelled e_(3n+i).  Its kernel orbit
# moves one position every three steps, too slowly to leave the window, so
# its Wold decomposition is not exact at any depth.
SLOW_SHIFT = ("lane 0 naturals\nlane 1 naturals\nlane 2 naturals\n"
              "tail 0 0 -> 1 offset 0 phase 0\n"
              "tail 1 0 -> 2 offset 0 phase 0\n"
              "tail 2 0 -> 0 offset 1 phase 0\n")
# (S, -iS) with the same relabelling by two lanes
SLOW_PAIR = ("lane 0 naturals\nlane 1 naturals\n"
             "tail 0 0 -> 1 offset 0 phase 1/2\n"
             "tail 1 0 -> 0 offset 1 phase 3/4\n",
             "lane 0 naturals\nlane 1 naturals\n"
             "tail 0 0 -> 1 offset 0 phase 1/4\n"
             "tail 1 0 -> 0 offset 1 phase 1/2\n")


def test_pair_of_slow_shifts_draws_no_verdict_from_an_inexact_wold(
        tmp_path, capsys):
    """(T, T) is unitarily equivalent to `pair_parallel_shifts`, whose
    product is pure.  T's Wold decomposition is not exact, so the window
    basis it leaves for the unitary part of T² witnesses nothing: the weak
    bi-shift test and the CNDC search are undecided, not false."""
    single, both = tmp_path / "t.op", tmp_path / "tt.op"
    single.write_text(SLOW_SHIFT)
    both.write_text(SLOW_SHIFT + "==\n" + SLOW_SHIFT)
    code, out, _ = run_cli(capsys, "wold", "--input", str(single),
                           "--depth", "32", "--format", "json")
    assert code == cli.UNDECIDED_EXIT
    assert json.loads(out)["wold"]["exact"] is False
    code, out, _ = run_cli(capsys, "pair", "--input", str(both),
                           "--depth", "32", "--format", "json")
    assert code == cli.UNDECIDED_EXIT
    report = json.loads(out)
    undecided = {"verdict": "undecided", "exact": False, "horizon": 32,
                 "witness": None}
    assert report["weak_bishift"] == undecided
    assert report["completely_non_doubly_commuting"] == undecided


@pytest.mark.parametrize("depth", [6, 16, 64])
def test_cndc_of_a_pair_with_inexact_wolds_is_undecided(tmp_path, capsys,
                                                         depth):
    """Both operators of this relabelled (S, -iS), a CNDC pair, have
    inexact Wold decompositions; the unitary-type part read from them
    is no witness of a doubly commuting piece."""
    for i, text in enumerate(SLOW_PAIR):
        (tmp_path / f"v{i}.op").write_text(text)
        code, _, _ = run_cli(capsys, "wold", "--input",
                             str(tmp_path / f"v{i}.op"), "--depth", str(depth))
        assert code == cli.UNDECIDED_EXIT
    (tmp_path / "pair.op").write_text("==\n".join(SLOW_PAIR))
    code, out, _ = run_cli(capsys, "pair", "--input", str(tmp_path / "pair.op"),
                           "--depth", str(depth), "--format", "json")
    assert code == cli.UNDECIDED_EXIT
    assert json.loads(out)["completely_non_doubly_commuting"] == {
        "verdict": "undecided", "exact": False, "horizon": depth,
        "witness": None}



def test_cndc_with_inexact_wolds_still_finds_a_doubly_commuting_component(
        tmp_path, capsys):
    """(T + U, T + U), U the bilateral shift on a lane of its own.  T's
    inexact Wold decomposition leaves a unitary window basis that is no
    witness, but lane 3 is a component on which the pair doubly commutes:
    the CNDC search still answers an exact false."""
    op = SLOW_SHIFT + "lane 3 integers\ntail 3 0 -> 3 offset 1 phase 0\n"
    (tmp_path / "pair.op").write_text(op + "==\n" + op)
    code, out, _ = run_cli(capsys, "pair", "--input", str(tmp_path / "pair.op"),
                           "--depth", "32", "--format", "json")
    assert code == cli.UNDECIDED_EXIT
    report = json.loads(out)
    assert report["decomposition"]["uu"]["basis"]
    assert report["completely_non_doubly_commuting"] == {
        "verdict": "false", "exact": True, "horizon": 32,
        "witness": {"kind": "note", "text": "lanes (3,)"}}

# -- cold start: numpy loads on the first linear-algebra call ---------------

SRC = Path(cli.__file__).resolve().parents[1]
# argv = [imports, cli argv...]; prints the exit code, whether numpy is
# loaded, and the report
COLD_PROBE = r"""
import contextlib, io, json, sys
for name in sys.argv[1].split():
    __import__(name)
from woldlab import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[2:])
print(json.dumps([code, "numpy" in sys.modules, out.getvalue()]))
"""


def fresh_python(code, *argv):
    """Standard output of ``code`` run with ``argv`` in a fresh interpreter
    on this source tree."""
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=300).stdout


def fresh_cli(*argv, imports=""):
    """(exit code, whether numpy was loaded, stdout) of ``cli.main(argv)``
    in a fresh interpreter, after importing the space-separated modules
    ``imports``."""
    return tuple(json.loads(fresh_python(COLD_PROBE, imports, *argv)))


@pytest.mark.parametrize("module", ["woldlab", "woldlab.cli"])
def test_import_leaves_numpy_unloaded(module):
    code = f"import sys, {module}; print('numpy' in sys.modules)"
    assert fresh_python(code) == "False\n"


@pytest.mark.parametrize("argv", [
    ("wander", "--input", "catalog:bilateral_plus_shift", "--vector", "1:0=1"),
    ("wander", "--strong", "--input", "catalog:bilateral_plus_shift",
     "--vector", "1:0=1"),
    ("spectral", "--input", "catalog:kerchy"),
    ("spectral", "--input", "catalog:arc_restriction"),
    ("catalog",),
    ("catalog", "--export", "pair_grid"),
], ids=" ".join)
def test_commands_without_linear_algebra_leave_numpy_unloaded(argv):
    code, loaded, out = fresh_cli(*argv, "--format", "json")
    assert (code, loaded) == (cli.OK, False)
    assert out


def test_wold_loads_numpy_on_first_use_with_the_same_report():
    argv = ("wold", "--input", "catalog:bilateral_plus_shift", "--depth", "16",
            "--format", "json")
    lazy = fresh_cli(*argv)
    eager = fresh_cli(*argv, imports="numpy")
    assert lazy[:2] == (cli.OK, True)
    assert lazy == eager
