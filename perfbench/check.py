"""Output checks, run outside the timed region.

Three kinds, each returning a list of problems (empty means correct):

* ``compare`` against a reference report recorded at an earlier commit:
  verdicts, ``exact`` flags, witnesses, exit codes and every other scalar
  exactly, basis dimensions exactly, and bases by the subspace they span
  (projector difference within the working tolerance), so a bit-different
  but equal basis passes.
* ``catalog_problems`` against the frozen ``expected`` maps in
  ``woldlab.catalog`` (depth-64 reports and spectral entries).
* ``structural_problems`` on any report: exit code 0 or 2 and consistent
  with the verdicts, orthonormal bases, and every ``false`` wander witness
  re-checked with ``apply_power``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

TOLERANCE = 1e-9  # woldlab's working tolerance (config.DEFAULT_TOLERANCE)
ENTRY_KEYS = {"lane", "position", "re", "im"}


def _is_vector(x) -> bool:
    return isinstance(x, list) and bool(x) and all(
        isinstance(e, dict) and set(e) == ENTRY_KEYS for e in x)


def _is_basis(x) -> bool:
    return isinstance(x, list) and bool(x) and all(_is_vector(v) for v in x)


def _matrix(basis, support) -> np.ndarray:
    pos = {idx: i for i, idx in enumerate(support)}
    m = np.zeros((len(support), len(basis)), dtype=complex)
    for j, vec in enumerate(basis):
        for e in vec:
            m[pos[(e["lane"], e["position"])], j] = complex(e["re"], e["im"])
    return m


def _support(*bases) -> list:
    return sorted({(e["lane"], e["position"])
                   for basis in bases for vec in basis for e in vec})


def same_subspace(a, b, tol: float = TOLERANCE) -> bool:
    support = _support(a, b)
    pa, pb = _matrix(a, support), _matrix(b, support)
    diff = pa @ pa.conj().T - pb @ pb.conj().T
    return bool(np.linalg.norm(diff, 2) <= tol) if diff.size else True


def orthonormal(basis, tol: float = TOLERANCE) -> bool:
    m = _matrix(basis, _support(basis))
    gram = m.conj().T @ m
    return bool(np.abs(gram - np.eye(len(basis))).max() <= tol)


def compare(got, want, path: str = "report") -> list[str]:
    """Problems found comparing a report with its reference."""
    if _is_basis(got) or _is_basis(want):
        if not (isinstance(got, list) and isinstance(want, list)):
            return [f"{path}: basis expected"]
        if len(got) != len(want):
            return [f"{path}: dimension {len(got)}, reference {len(want)}"]
        if not same_subspace(got, want):
            return [f"{path}: spans a different subspace than the reference"]
        return []
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ from the reference"]
        return [p for key in sorted(want)
                for p in compare(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs from the reference"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        return [] if abs(got - want) <= TOLERANCE else [
            f"{path}: {got!r}, reference {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r}, reference {want!r}"]
    return []


# -- frozen catalog expectations ----------------------------------------------


def _catalog_view(kind: str, report: dict) -> dict:
    """The report's answers under the keys of the catalog's expected maps."""
    if kind == "operator":
        kernel = report["wold"]["bases"]["shift_wandering"]
        return {
            "kernel_of_adjoint": kernel,
            "wold_exact": report["wold"]["exact"],
            "wold_unitary_dim": len(report["wold"]["bases"]["unitary_window"]),
            "is_unitary": not kernel,
            "h0_basis": report["wandering_span"]["h0"]["generators"],
        }
    if kind == "pair":
        doubly = report["doubly_commutes"] or {}
        decomposition = report["decomposition"] or {}
        return {
            "commutes": report["commutes"]["verdict"],
            "doubly_commutes": {"verdict": doubly.get("verdict"),
                                "witness": doubly.get("witness")},
            "weak_bishift": (report["weak_bishift"] or {}).get("verdict"),
            "pair_dims": {part: len(decomposition[part]["basis"])
                          for part in ("uu", "us", "su", "ws")
                          if part in decomposition},
        }
    return {
        "profile": report["profile"],
        "bilateral_shift": {"verdict": report["bilateral_shift"]["verdict"],
                            "reason": report["bilateral_shift"]["reason"]},
        "wandering_vector": {"verdict": report["wandering_vector"]["verdict"]},
        "cover": {"success": report["cover"]["success"],
                  "layers": len(report["cover"]["layers"])},
    }


def catalog_problems(entry, report: dict) -> list[str]:
    view = _catalog_view(entry.kind, report)
    return [p for key in sorted(entry.expected)
            for p in compare(view[key], entry.expected[key],
                             f"{entry.name}.{key}")]


# -- structural checks ------------------------------------------------------------


def _bases(x, path="report"):
    if _is_basis(x):
        yield path, x
    elif isinstance(x, dict):
        for key in sorted(x):
            yield from _bases(x[key], f"{path}.{key}")
    elif isinstance(x, list) and not _is_vector(x):
        for i, item in enumerate(x):
            yield from _bases(item, f"{path}[{i}]")


def _expected_exit(report: dict) -> int | None:
    command = report.get("command")
    if command == "wold":
        undecided = (not report["wold"]["exact"]) or \
            report["wandering_span"]["certificate"]["verdict"] == "undecided"
        return 2 if undecided else 0
    if command == "wander":
        return 2 if report["certificate"]["verdict"] == "undecided" else 0
    if command == "pair":
        if report["commutes"]["verdict"] != "true":
            return 0 if report["commutes"]["verdict"] == "false" else 2
        certs = [report[k] for k in ("doubly_commutes", "weak_bishift",
                                     "completely_non_doubly_commuting")]
        return 2 if any(c["verdict"] == "undecided" for c in certs) else 0
    return 0


def _load_operator(spec: str):
    from woldlab import catalog, fileformat
    if spec.startswith("catalog:"):
        return catalog.get(spec.split(":", 1)[1]).build()
    return fileformat.parse_operator(Path(spec).read_text(),
                                     name=Path(spec).stem)


def _witness_problems(argv, report: dict) -> list[str]:
    """Re-check a false wander verdict's witness with apply_power."""
    cert = report["certificate"]
    if cert["verdict"] != "false":
        return []
    from woldlab import fileformat
    op = _load_operator(report["input"])
    x = fileformat.parse_vector_literal(argv[argv.index("--vector") + 1])
    witness = cert["witness"] or {}
    if witness.get("kind") == "exponent":  # <V^n x, x> != 0
        n, m = witness["n"], 0
    elif witness.get("kind") == "exponents":  # <V^n x, V^m x> != 0
        n, m = witness["n"], witness["m"]
    else:
        return [f"wander witness of unknown form {witness!r}"]
    value = op.apply_power(x, n).inner(op.apply_power(x, m))
    if abs(value) <= TOLERANCE:
        return [f"wander witness ({n}, {m}) does not violate orthogonality"]
    return []


def structural_problems(argv, code: int, report) -> list[str]:
    if code not in (0, 2):
        return [f"exit code {code}"]
    problems = []
    for path, basis in _bases(report):
        if not orthonormal(basis):
            problems.append(f"{path}: basis is not orthonormal")
    if isinstance(report, dict) and "command" in report:
        want = _expected_exit(report)
        if code != want:
            problems.append(f"exit code {code}, verdicts imply {want}")
        if report["command"] == "wander":
            problems += _witness_problems(argv, report)
    return problems
