"""Stable JSON forms for every report the package emits.

Vectors serialize entry-by-entry as {lane, position, re, im} sorted by
index; angles serialize as exact fraction strings.  Every collection is
emitted in a deterministic order, so identical inputs at identical depths
produce byte-identical documents in the same environment.  Basis
coefficients come from BLAS matrix products, so their last digits can
depend on the BLAS build and its thread count; verdicts, witnesses,
dimensions and exit codes do not.
"""

from __future__ import annotations

from fractions import Fraction

from .certificates import Certificate
from .core import BasisIndex, HVector, Subspace
from .spectral import (
    Arc,
    BilateralCover,
    Finding,
    MultiplicityProfile,
    SpectralUnitary,
)


def vector_to_jsonable(v: HVector) -> list[dict]:
    return [
        {"lane": idx.lane, "position": idx.position,
         "re": float(c.real), "im": float(c.imag)}
        for idx, c in v.items()
    ]


def basis_to_jsonable(vectors) -> list[list[dict]]:
    return [vector_to_jsonable(v) for v in vectors]


def subspace_to_jsonable(s: Subspace) -> dict:
    return {
        "generators": basis_to_jsonable(s.generators),
        "closure": {"kind": s.closure.kind, "operator": s.closure.operator},
    }


def witness_to_jsonable(witness) -> object:
    if witness is None:
        return None
    if isinstance(witness, BasisIndex):
        return {"kind": "basis_index", "lane": witness.lane,
                "position": witness.position}
    if isinstance(witness, int):
        return {"kind": "exponent", "n": witness}
    if isinstance(witness, tuple):
        if len(witness) == 2 and all(isinstance(x, int) for x in witness):
            return {"kind": "exponents", "n": witness[0], "m": witness[1]}
        return {"kind": "note",
                "text": " ".join(str(part) for part in witness)}
    return {"kind": "note", "text": str(witness)}


def certificate_to_jsonable(c: Certificate) -> dict:
    return {
        "verdict": c.verdict,
        "witness": witness_to_jsonable(c.witness),
        "horizon": c.horizon,
        "exact": c.exact,
    }


def wold_to_jsonable(res) -> dict:
    return {
        "verdict": res.verdict,
        "witness": None,
        "horizon": res.depth,
        "exact": res.exact,
        "bases": {
            "shift_wandering": basis_to_jsonable(res.shift_wandering_basis),
            "unitary_window": basis_to_jsonable(res.unitary_window_basis),
        },
    }


def wandering_span_to_jsonable(res) -> dict:
    return {
        "h0": subspace_to_jsonable(res.h0),
        "hw": subspace_to_jsonable(res.hw),
        "certificate": certificate_to_jsonable(res.certificate),
        "reducing": certificate_to_jsonable(res.reducing),
        "depth": res.depth,
    }


def _fraction_str(f: Fraction) -> str:
    return str(f)


def arc_to_jsonable(a: Arc) -> dict:
    return {"start": _fraction_str(a.start), "length": _fraction_str(a.length)}


def spectral_to_jsonable(u: SpectralUnitary) -> dict:
    return {
        "arcs": [arc_to_jsonable(a) for a in u.continuous_pieces],
        "atoms": [
            {"angle": _fraction_str(angle), "mult": mult}
            for angle, mult in u.atoms
        ],
    }


def profile_to_jsonable(p: MultiplicityProfile) -> dict:
    return {
        "breakpoints": [_fraction_str(b) for b in p.breakpoints],
        "values": list(p.values),
        "atoms": [
            {"angle": _fraction_str(angle), "mult": mult}
            for angle, mult in p.atom_overrides
        ],
    }


def _obstruction_to_jsonable(obstruction) -> object:
    if obstruction is None:
        return None
    if isinstance(obstruction, Arc):
        return {"kind": "arc", **arc_to_jsonable(obstruction)}
    if isinstance(obstruction, tuple) and len(obstruction) == 2:
        angle, mult = obstruction
        return {"kind": "atom", "angle": _fraction_str(angle), "mult": mult}
    return {"kind": "note", "text": str(obstruction)}


def finding_to_jsonable(f: Finding) -> dict:
    return {
        "verdict": bool(f.value),
        "reason": f.reason,
        "obstruction": _obstruction_to_jsonable(f.obstruction),
    }


def cover_to_jsonable(c: BilateralCover) -> dict:
    return {
        "success": c.success,
        "reason": c.reason,
        "obstruction": _obstruction_to_jsonable(c.obstruction),
        "layers": [
            {
                "slices": [
                    {"arc": arc_to_jsonable(s.arc), "copy": s.copy,
                     "reused": s.reused}
                    for s in layer.slices
                ]
            }
            for layer in c.layers
        ],
    }


def pair_part_to_jsonable(part) -> dict:
    return {
        "basis": basis_to_jsonable(part.basis),
        "certificate": certificate_to_jsonable(part.certificate),
    }


def pair_report_to_jsonable(report) -> dict:
    return {
        "uu": pair_part_to_jsonable(report.uu),
        "us": pair_part_to_jsonable(report.us),
        "su": pair_part_to_jsonable(report.su),
        "ws": pair_part_to_jsonable(report.ws),
        "depth": report.depth,
        "wandering_generators": {
            "v1": basis_to_jsonable(report.wandering_generators["v1"]),
            "v2": basis_to_jsonable(report.wandering_generators["v2"]),
        },
    }
