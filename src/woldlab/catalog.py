"""Named constructors for the operators the test suite reasons about, each
tagged with its known analysis results for regression checking.

Entries come in four kinds: a single structured operator, a commuting pair,
a spectral unitary, or a combined arc-plus-shift report.  The ``expected``
map of an entry freezes serialized results of named analyses at default
depth; ``regression_results`` recomputes them so the catalog doubles as the
regression suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import pairs as pairs_mod
from . import serialize, wold
from .core import (
    BasisIndex,
    HVector,
    LaneSpec,
    StructuredIsometry,
    TailRule,
    doubly_commutes,
)
from .errors import MalformedInputError
from .spectral import (
    Arc,
    SpectralUnitary,
    arc_double,
    has_wandering_vector,
    multiplicity_profile,
    spectral_of_extension,
)

_SQRT_HALF = 0.7071067811865476


# -- structured operators -----------------------------------------------------


def unilateral_shift(step: int = 1) -> StructuredIsometry:
    """e_n -> e_{n+step} on one naturals lane (the shift of multiplicity
    ``step``)."""
    if step < 1:
        raise MalformedInputError("shift step must be >= 1")
    return StructuredIsometry(
        [LaneSpec(0, "naturals", label="e")],
        {},
        [TailRule(0, 0, 0, step)],
        name="S" if step == 1 else f"S^{step}",
    )


def bilateral_shift() -> StructuredIsometry:
    """e_n -> e_{n+1} on one integers lane."""
    return StructuredIsometry(
        [LaneSpec(0, "integers", label="e")],
        {},
        [TailRule(0, 0, 0, 1)],
        name="B",
    )


def example_fixed_plus_shift() -> StructuredIsometry:
    """A fixed unit vector f plus a unilateral shift: Vf = f, Ve_i = e_{i+1}.

    The unitary part is the line through f, yet no wandering vector has an
    f-component, so the space is not spanned by wandering vectors.
    """
    return StructuredIsometry(
        [LaneSpec(0, "finite", 1, label="f"), LaneSpec(1, "naturals", label="e")],
        {BasisIndex(0, 0): HVector.basis(0, 0)},
        [TailRule(1, 0, 1, 1)],
        name="fixed_plus_shift",
    )


def cycle_plus_shift() -> StructuredIsometry:
    """The swap of a two-element lane direct-summed with a shift lane."""
    return StructuredIsometry(
        [LaneSpec(0, "finite", 2, label="c"), LaneSpec(1, "naturals", label="e")],
        {BasisIndex(0, 0): HVector.basis(0, 1),
         BasisIndex(0, 1): HVector.basis(0, 0)},
        [TailRule(1, 0, 1, 1)],
        name="C2+S",
    )


def bilateral_plus_shift() -> StructuredIsometry:
    return StructuredIsometry(
        [LaneSpec(0, "integers", label="b"), LaneSpec(1, "naturals", label="e")],
        {},
        [TailRule(0, 0, 0, 1), TailRule(1, 0, 1, 1)],
        name="B+S",
    )


def lingering_core() -> StructuredIsometry:
    """An isometry whose kernel orbit keeps a shrinking but never-vanishing
    component on a finite lane, so no drift or recurrence certificate exists
    and depth-bounded analyses stay honest about it (exact = False)."""
    c0 = HVector([(BasisIndex(0, 1), _SQRT_HALF), (BasisIndex(1, 0), _SQRT_HALF)])
    c1 = HVector.basis(0, 0)
    return StructuredIsometry(
        [LaneSpec(0, "finite", 2, label="m"), LaneSpec(1, "naturals", label="e")],
        {BasisIndex(0, 0): c0, BasisIndex(0, 1): c1},
        [TailRule(1, 0, 1, 1)],
        name="lingering_core",
    )


def feeding_core() -> StructuredIsometry:
    """An isometry with an explicit core feeding forward into the tails; its
    kernel mixes basis directions, exercising the backward-orbit form of the
    minimal unitary extension."""
    col = HVector([(BasisIndex(0, 1), _SQRT_HALF), (BasisIndex(1, 0), _SQRT_HALF)])
    return StructuredIsometry(
        [LaneSpec(0, "naturals", label="a"), LaneSpec(1, "naturals", label="b")],
        {BasisIndex(0, 0): col},
        [TailRule(0, 1, 0, 1), TailRule(1, 0, 1, 1)],
        name="feeding_core",
    )


def grid_pair() -> tuple[StructuredIsometry, StructuredIsometry]:
    """Two-lane grid encoding of a tensor pair: the first operator shifts
    both rows in parallel, the second permutes the rows at fixed position.

    The row swap is unitary, so the pair doubly commutes.
    """
    lanes = [LaneSpec(0, "naturals", label="row0"), LaneSpec(1, "naturals", label="row1")]
    v1 = StructuredIsometry(
        lanes, {}, [TailRule(0, 0, 0, 1), TailRule(1, 0, 1, 1)], name="SxI"
    )
    v2 = StructuredIsometry(
        lanes, {}, [TailRule(0, 0, 1, 0), TailRule(1, 0, 0, 0)], name="IxC"
    )
    return v1, v2


# -- spectral examples ----------------------------------------------------------


DEFAULT_KERCHY_ALPHA = Arc(Fraction(0), Fraction(3, 5))


def example_kerchy(alpha: Arc | None = None) -> SpectralUnitary:
    """Multiplication by z on L2(alpha) + L2(2*alpha) + L2(alpha) with the
    arc chosen so that alpha together with its doubling covers the circle:
    a span of bilateral shifts whose multiplicity is not constant, hence not
    a bilateral shift."""
    if alpha is None:
        alpha = DEFAULT_KERCHY_ALPHA
    doubled = arc_double(alpha)
    pieces = (alpha, *doubled, alpha)
    cover = multiplicity_profile(SpectralUnitary((alpha, *doubled)))
    if cover.min_value < 1:
        raise MalformedInputError(
            "alpha and its doubling must cover the whole circle; "
            f"got a gap with alpha = {alpha}"
        )
    return SpectralUnitary(pieces, name="kerchy")


def arc_restriction() -> SpectralUnitary:
    """Multiplication by z restricted to the upper half circle: a reducing
    slice of a bilateral shift that is not itself a bilateral shift (its
    spectrum does not fill the circle)."""
    return SpectralUnitary((Arc(Fraction(0), Fraction(1, 2)),),
                           name="arc_restriction")


@dataclass(frozen=True)
class FinalExampleReport:
    """Arc-multiplication unitary part plus a bilateralized shift part.

    The unitary part admits no wandering vector (its spectrum misses part of
    the circle), so the strongly wandering span is exactly the shift part,
    while the minimal unitary extension is still a span of bilateral shifts.
    """

    unitary_part: SpectralUnitary
    shift_generators: int
    extension_spectrum: SpectralUnitary
    wandering_finding: object
    hws_equals_hs: bool

    def to_jsonable(self) -> dict:
        return {
            "unitary_part": serialize.spectral_to_jsonable(self.unitary_part),
            "shift_generators": self.shift_generators,
            "extension_profile": serialize.profile_to_jsonable(
                multiplicity_profile(self.extension_spectrum)
            ),
            "has_wandering_vector": serialize.finding_to_jsonable(
                self.wandering_finding
            ),
            "hws_equals_hs": self.hws_equals_hs,
        }


def example_final(alpha: Arc | None = None,
                  shift_generators: int = 1) -> FinalExampleReport:
    if alpha is None:
        alpha = Arc(Fraction(0), Fraction(1, 2))
    if alpha.is_full:
        raise MalformedInputError("the unitary part must live on a proper arc")
    if shift_generators < 1:
        raise MalformedInputError("need at least one shift generator")
    unitary_part = SpectralUnitary((alpha,))
    stub_kernel = tuple(HVector.basis(0, i) for i in range(shift_generators))
    wold_stub = wold.WoldResult(stub_kernel, (), depth=0, exact=True)
    extension = spectral_of_extension(wold_stub, unitary_part)
    finding = has_wandering_vector(unitary_part)
    # no wandering vectors in the unitary part means the strongly wandering
    # span collapses onto the shift part
    return FinalExampleReport(
        unitary_part=unitary_part,
        shift_generators=shift_generators,
        extension_spectrum=extension,
        wandering_finding=finding,
        hws_equals_hs=not finding.value,
    )


# -- the catalog ---------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # operator | pair | spectral | report
    description: str
    build: Callable
    expected: dict = field(default_factory=dict)


def _v(lane, position):
    return [{"lane": lane, "position": position, "re": 1.0, "im": 0.0}]


_ENTRIES: list[CatalogEntry] = [
    CatalogEntry(
        "shift", "operator", "unilateral shift e_n -> e_{n+1}",
        unilateral_shift,
        expected={
            "kernel_of_adjoint": [_v(0, 0)],
            "wold_exact": True,
            "wold_unitary_dim": 0,
            "is_unitary": False,
            "h0_basis": [],
        },
    ),
    CatalogEntry(
        "double_shift", "operator", "shift of multiplicity two e_n -> e_{n+2}",
        lambda: unilateral_shift(2),
        expected={
            "kernel_of_adjoint": [_v(0, 0), _v(0, 1)],
            "wold_exact": True,
            "wold_unitary_dim": 0,
            "is_unitary": False,
        },
    ),
    CatalogEntry(
        "bilateral", "operator", "bilateral shift on an integer lane",
        bilateral_shift,
        expected={
            "kernel_of_adjoint": [],
            "wold_exact": True,
            "wold_unitary_dim": 129,
            "is_unitary": True,
            "h0_basis": [],
        },
    ),
    CatalogEntry(
        "fixed_plus_shift", "operator",
        "fixed unit vector plus a unilateral shift (Vf = f, Ve_i = e_{i+1})",
        example_fixed_plus_shift,
        expected={
            "kernel_of_adjoint": [_v(1, 0)],
            "wold_exact": True,
            "wold_unitary_dim": 1,
            "is_unitary": False,
            "h0_basis": [_v(0, 0)],
        },
    ),
    CatalogEntry(
        "cycle_plus_shift", "operator", "two-cycle permutation plus a shift",
        cycle_plus_shift,
        expected={
            "kernel_of_adjoint": [_v(1, 0)],
            "wold_exact": True,
            "wold_unitary_dim": 2,
            "is_unitary": False,
            "h0_basis": [_v(0, 0), _v(0, 1)],
        },
    ),
    CatalogEntry(
        "bilateral_plus_shift", "operator", "bilateral shift plus a unilateral shift",
        bilateral_plus_shift,
        expected={
            "kernel_of_adjoint": [_v(1, 0)],
            "wold_exact": True,
            "wold_unitary_dim": 129,
            "is_unitary": False,
            "h0_basis": [],
        },
    ),
    CatalogEntry(
        "lingering_core", "operator",
        "kernel orbit with a never-vanishing finite-lane component "
        "(stays honestly undecided)",
        lingering_core,
        expected={
            "wold_exact": False,
            "is_unitary": False,
        },
    ),
    CatalogEntry(
        "feeding_core", "operator",
        "explicit core feeding forward; kernel mixes basis directions",
        feeding_core,
        expected={
            "wold_exact": True,
            "is_unitary": False,
        },
    ),
    CatalogEntry(
        "pair_shifts_2_3", "pair", "the powers (S^2, S^3) of one shift",
        lambda: (unilateral_shift(2), unilateral_shift(3)),
        expected={
            "commutes": "true",
            "doubly_commutes": {
                "verdict": "false",
                "witness": {"kind": "basis_index", "lane": 0, "position": 0},
            },
            "weak_bishift": "true",
            "pair_dims": {"uu": 0, "us": 0, "su": 0, "ws": 64},
        },
    ),
    CatalogEntry(
        "pair_parallel_shifts", "pair", "a shift paired with itself",
        lambda: (unilateral_shift(), unilateral_shift()),
        expected={
            "commutes": "true",
            "doubly_commutes": {
                "verdict": "false",
                "witness": {"kind": "basis_index", "lane": 0, "position": 0},
            },
            "weak_bishift": "true",
            "pair_dims": {"uu": 0, "us": 0, "su": 0, "ws": 64},
        },
    ),
    CatalogEntry(
        "pair_grid", "pair",
        "grid encoding: parallel row shifts with a unitary row swap",
        grid_pair,
        expected={
            "commutes": "true",
            "doubly_commutes": {"verdict": "true", "witness": None},
            "weak_bishift": "false",
            "pair_dims": {"uu": 0, "us": 0, "su": 128, "ws": 0},
        },
    ),
    CatalogEntry(
        "pair_bilateral", "pair", "the bilateral shift paired with itself",
        lambda: (bilateral_shift(), bilateral_shift()),
        expected={
            "commutes": "true",
            "doubly_commutes": {"verdict": "true", "witness": None},
            "weak_bishift": "false",
            "pair_dims": {"uu": 129, "us": 0, "su": 0, "ws": 0},
        },
    ),
    CatalogEntry(
        "pair_fixed_plus_shift", "pair",
        "the fixed-point-plus-shift operator paired with itself",
        lambda: (example_fixed_plus_shift(), example_fixed_plus_shift()),
        expected={
            "commutes": "true",
            "doubly_commutes": {
                "verdict": "false",
                "witness": {"kind": "basis_index", "lane": 1, "position": 0},
            },
            "weak_bishift": "false",
            "pair_dims": {"uu": 1, "us": 0, "su": 0, "ws": 64},
        },
    ),
    CatalogEntry(
        "kerchy", "spectral",
        "arc + doubled arc + arc: a span of bilateral shifts that is not "
        "a bilateral shift",
        example_kerchy,
        expected={
            "profile": {"breakpoints": ["0", "3/5"], "values": [3, 1], "atoms": []},
            "bilateral_shift": {"verdict": False,
                                "reason": "non-constant multiplicity"},
            "wandering_vector": {"verdict": True},
            "cover": {"success": True, "layers": 3},
        },
    ),
    CatalogEntry(
        "arc_restriction", "spectral",
        "multiplication by z on a proper arc",
        arc_restriction,
        expected={
            "profile": {"breakpoints": ["0", "1/2"], "values": [1, 0], "atoms": []},
            "bilateral_shift": {"verdict": False,
                                "reason": "support not full circle"},
            "wandering_vector": {"verdict": False},
            "cover": {"success": False, "layers": 0},
        },
    ),
    CatalogEntry(
        "arc_with_shift", "report",
        "proper-arc unitary part with a bilateralized shift part",
        example_final,
        expected={
            "final": {
                "has_wandering": False,
                "hws_equals_hs": True,
                "extension_profile": {"breakpoints": ["0", "1/2"],
                                      "values": [2, 1], "atoms": []},
            },
        },
    ),
]


def fixtures() -> list[CatalogEntry]:
    return list(_ENTRIES)


def names() -> list[str]:
    return [e.name for e in _ENTRIES]


def get(name: str) -> CatalogEntry:
    for entry in _ENTRIES:
        if entry.name == name:
            return entry
    raise MalformedInputError(f"unknown catalog entry {name!r}")


# -- regression runners ----------------------------------------------------------


def _run_operator(op, key):
    if key == "kernel_of_adjoint":
        return serialize.basis_to_jsonable(wold.kernel_of_adjoint(op).generators)
    if key == "wold_exact":
        return wold.wold_decompose(op).exact
    if key == "wold_unitary_dim":
        return len(wold.wold_decompose(op).unitary_window_basis)
    if key == "is_unitary":
        return wold.is_unitary(op)
    if key == "h0_basis":
        return serialize.basis_to_jsonable(
            wold.wandering_span_decompose(op).h0.generators
        )
    raise MalformedInputError(f"unknown operator regression key {key!r}")


def _run_pair(pair, key):
    if key == "commutes":
        return pair.commutes.verdict
    if key == "doubly_commutes":
        cert = doubly_commutes(pair.v1, pair.v2)
        return {"verdict": cert.verdict,
                "witness": serialize.witness_to_jsonable(cert.witness)}
    if key == "weak_bishift":
        return pairs_mod.weak_bishift_classify(pair).verdict
    if key == "pair_dims":
        report = pairs_mod.pair_decompose(pair)
        return {"uu": report.uu.dim, "us": report.us.dim,
                "su": report.su.dim, "ws": report.ws.dim}
    raise MalformedInputError(f"unknown pair regression key {key!r}")


def _run_spectral(u, key):
    from .spectral import bilateral_cover, is_bilateral_shift

    if key == "profile":
        return serialize.profile_to_jsonable(multiplicity_profile(u))
    if key == "bilateral_shift":
        finding = is_bilateral_shift(u)
        return {"verdict": finding.value, "reason": finding.reason}
    if key == "wandering_vector":
        return {"verdict": has_wandering_vector(u).value}
    if key == "cover":
        cover = bilateral_cover(u)
        return {"success": cover.success, "layers": len(cover.layers)}
    raise MalformedInputError(f"unknown spectral regression key {key!r}")


def _run_report(report, key):
    if key == "final":
        full = report.to_jsonable()
        return {
            "has_wandering": full["has_wandering_vector"]["verdict"],
            "hws_equals_hs": full["hws_equals_hs"],
            "extension_profile": full["extension_profile"],
        }
    raise MalformedInputError(f"unknown report regression key {key!r}")


_RUNNERS = {
    "operator": _run_operator,
    "pair": _run_pair,
    "spectral": _run_spectral,
    "report": _run_report,
}


def regression_results(entry: CatalogEntry) -> dict:
    """Re-run the analyses named by the entry's expected map."""
    built = entry.build()
    if entry.kind == "pair":
        built = pairs_mod.PairAnalysis(*built)
    runner = _RUNNERS[entry.kind]
    return {key: runner(built, key) for key in sorted(entry.expected)}
