"""Command-line front end.

Subcommands: ``wold`` (Wold + wandering-span decomposition), ``wander``
(wandering / strongly wandering certification of a vector), ``pair``
(commutation, weak bi-shift classification and the four-part
decomposition), ``spectral`` (multiplicity profile, bilateral-shift test and
cover), and ``catalog`` (list or export the built-in operators).

Exit codes: 0 for decided verdicts, 2 when some verdict is undecided (the
partial report is still emitted), 1 for invalid input, usage errors
included.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import catalog, fileformat, pairs, serialize, spectral, wold
from .config import DEFAULT_DEPTH, DEFAULT_HORIZON
# ``commutes`` is not called here (a pair analysis keeps the certificate of
# its one check), but perfbench's tracer test pins this module as one of
# its lookup sites
from .core import commutes, doubly_commutes  # noqa: F401
from .errors import PreconditionError, WoldlabError

OK, INVALID, UNDECIDED_EXIT = 0, 1, 2

PAIR_SEPARATOR = "=="


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="woldlab",
        description="structured-isometry analyses with exactness certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, depth=False):
        p.add_argument("--input", required=True,
                       help="catalog:NAME or a description file path")
        if depth:
            p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--output", default=None, help="write the report here")

    p_wold = sub.add_parser("wold", help="Wold and wandering-span decomposition")
    common(p_wold, depth=True)

    p_wander = sub.add_parser("wander", help="certify a wandering vector")
    common(p_wander)
    p_wander.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    p_wander.add_argument("--vector", required=True,
                          help='inline vector, e.g. "0:0=1,0:2=0.5+0.5i"')
    p_wander.add_argument("--strong", action="store_true",
                          help="test the two-sided (strong) condition")

    p_pair = sub.add_parser("pair", help="analyze a commuting pair")
    common(p_pair, depth=True)

    p_spec = sub.add_parser("spectral", help="spectral multiplicity analyses")
    common(p_spec)

    p_cat = sub.add_parser("catalog", help="list or export catalog entries")
    p_cat.add_argument("--export", default=None, metavar="NAME")
    p_cat.add_argument("--format", choices=("json", "text"), default="text")
    p_cat.add_argument("--output", default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every call: parsing
    leaves it unchanged, and building it costs about a millisecond."""
    return build_parser()


# -- input loading ---------------------------------------------------------


def _with_article(kind: str) -> str:
    return f"{'an' if kind[0] in 'aeiou' else 'a'} {kind}"


def _load_entry_build(spec: str, kind: str):
    name = spec.split(":", 1)[1]
    entry = catalog.get(name)
    if entry.kind != kind:
        raise WoldlabError(
            f"catalog entry {name!r} is {_with_article(entry.kind)}, "
            f"expected {_with_article(kind)}"
        )
    return entry.build()


def _load_operator(spec: str):
    if spec.startswith("catalog:"):
        return _load_entry_build(spec, "operator")
    text = Path(spec).read_text()
    return fileformat.parse_operator(text, name=Path(spec).stem)


def _load_pair(spec: str):
    if spec.startswith("catalog:"):
        return _load_entry_build(spec, "pair")
    if "," in spec:
        first, second = (part.strip() for part in spec.split(",", 1))
        return _load_operator(first), _load_operator(second)
    text = Path(spec).read_text()
    if PAIR_SEPARATOR in text.splitlines():
        lines = text.splitlines()
        cut = lines.index(PAIR_SEPARATOR)
        stem = Path(spec).stem
        return (
            fileformat.parse_operator("\n".join(lines[:cut]), name=stem + "_1"),
            fileformat.parse_operator("\n".join(lines[cut + 1:]), name=stem + "_2"),
        )
    raise WoldlabError(
        "pair input needs catalog:NAME, 'file1,file2', or one file with an "
        f"'{PAIR_SEPARATOR}' separator line"
    )


def _load_spectral(spec: str):
    if spec.startswith("catalog:"):
        return _load_entry_build(spec, "spectral")
    return fileformat.parse_spectral(Path(spec).read_text())


# -- reports ------------------------------------------------------------------


def _run_wold(args) -> tuple[dict, int]:
    op = _load_operator(args.input)
    span = wold.wandering_span_decompose(op, args.depth)
    report = {
        "command": "wold",
        "input": args.input,
        "depth": args.depth,
        "wold": serialize.wold_to_jsonable(span.wold),
        "wandering_span": serialize.wandering_span_to_jsonable(span),
    }
    undecided = (not span.wold.exact) or span.certificate.is_undecided
    return report, (UNDECIDED_EXIT if undecided else OK)


def _run_wander(args) -> tuple[dict, int]:
    op = _load_operator(args.input)
    vector = fileformat.parse_vector_literal(args.vector)
    if args.strong:
        cert = wold.is_strongly_wandering(op, vector, args.horizon)
    else:
        cert = wold.is_wandering(op, vector, args.horizon)
    report = {
        "command": "wander",
        "input": args.input,
        "vector": serialize.vector_to_jsonable(vector),
        "strong": bool(args.strong),
        "horizon": args.horizon,
        "certificate": serialize.certificate_to_jsonable(cert),
    }
    return report, (UNDECIDED_EXIT if cert.is_undecided else OK)


def _run_pair(args) -> tuple[dict, int]:
    v1, v2 = _load_pair(args.input)
    try:
        pair = pairs.PairAnalysis(v1, v2, args.depth)
        comm = pair.commutes
    except PreconditionError as exc:  # the pair does not commute
        pair, comm = None, exc.certificate
    report = {
        "command": "pair",
        "input": args.input,
        "depth": args.depth,
        "commutes": serialize.certificate_to_jsonable(comm),
    }
    if pair is None:
        report.update(doubly_commutes=None, weak_bishift=None,
                      decomposition=None, completely_non_doubly_commuting=None)
        return report, (OK if comm.is_false else UNDECIDED_EXIT)
    doubly = doubly_commutes(v1, v2, args.depth)
    weak = pairs.weak_bishift_classify(pair)
    decomposition = pairs.pair_decompose(pair)
    ncdc = pairs.is_completely_non_doubly_commuting(pair)
    report.update(
        doubly_commutes=serialize.certificate_to_jsonable(doubly),
        weak_bishift=serialize.certificate_to_jsonable(weak),
        decomposition=serialize.pair_report_to_jsonable(decomposition),
        completely_non_doubly_commuting=serialize.certificate_to_jsonable(ncdc),
    )
    undecided = any(c.is_undecided for c in (doubly, weak, ncdc))
    return report, (UNDECIDED_EXIT if undecided else OK)


def _run_spectral(args) -> tuple[dict, int]:
    u = _load_spectral(args.input)
    profile = spectral.multiplicity_profile(u)
    report = {
        "command": "spectral",
        "input": args.input,
        "spectrum": serialize.spectral_to_jsonable(u),
        "profile": serialize.profile_to_jsonable(profile),
        "bilateral_shift": serialize.finding_to_jsonable(
            spectral.is_bilateral_shift(u)
        ),
        "wandering_vector": serialize.finding_to_jsonable(
            spectral.has_wandering_vector(u)
        ),
        "cover": serialize.cover_to_jsonable(spectral.bilateral_cover(u)),
    }
    return report, OK


def _run_catalog(args) -> tuple[object, int]:
    if args.export is None:
        entries = [
            {"name": e.name, "kind": e.kind, "description": e.description}
            for e in catalog.fixtures()
        ]
        return {"command": "catalog", "entries": entries}, OK
    entry = catalog.get(args.export)
    built = entry.build()
    if entry.kind == "operator":
        return fileformat.format_operator(built), OK
    if entry.kind == "pair":
        v1, v2 = built
        text = (fileformat.format_operator(v1) + PAIR_SEPARATOR + "\n"
                + fileformat.format_operator(v2))
        return text, OK
    if entry.kind == "spectral":
        return json.dumps(serialize.spectral_to_jsonable(built),
                          sort_keys=True, indent=2) + "\n", OK
    raise WoldlabError(f"catalog entry {entry.name!r} is not exportable")


# -- rendering ------------------------------------------------------------------


def _text_lines(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(value)}")
        return lines
    if isinstance(obj, list):
        lines = []
        for value in obj:
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}-")
                lines.extend(_text_lines(value, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(value)}")
        return lines
    return [f"{pad}{_scalar(obj)}"]


def _scalar(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dict, list)):
        return "{}" if isinstance(value, dict) else "[]"
    return str(value)


def _emit(report, fmt: str, output: str | None) -> None:
    if isinstance(report, str):
        payload = report
    elif fmt == "json":
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        payload = "\n".join(_text_lines(report)) + "\n"
    if output:
        Path(output).write_text(payload)
    else:
        sys.stdout.write(payload)


def _bind_vector(argv: list[str]) -> list[str]:
    """``--vector X`` as ``--vector=X``: the token after ``--vector`` is its
    value even when it starts with "-", as a literal with a negative lane
    does, which argparse would otherwise read as an option."""
    argv = list(argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--vector":
            argv[i:i + 2] = [f"--vector={argv[i + 1]}"]
    return argv


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(
            _bind_vector(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which would read as "undecided"
        return INVALID if exc.code else OK
    runners = {
        "wold": _run_wold,
        "wander": _run_wander,
        "pair": _run_pair,
        "spectral": _run_spectral,
        "catalog": _run_catalog,
    }
    try:
        report, code = runners[args.command](args)
    except WoldlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVALID
    _emit(report, getattr(args, "format", "text"), getattr(args, "output", None))
    return code


if __name__ == "__main__":
    sys.exit(main())
