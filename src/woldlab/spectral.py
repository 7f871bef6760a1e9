"""Unitaries in spectral form: arcs and atoms on the unit circle with
multiplicities.

Angles are stored as exact fractions of a turn, so breakpoint arithmetic
(profile sums, arc doubling, cover peeling) is exact.  Irrational inputs
are snapped to the nearest fraction with denominator at most 10^12.

The model covers Lebesgue measure on finitely many arcs plus finitely many
atoms; that is enough for every operator this package reasons about
spectrally, and general singular-continuous spectra are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import MalformedInputError, PreconditionError

_MAX_DENOM = 10 ** 12


def _fraction(value, what: str) -> Fraction:
    """An exact fraction from a Fraction, an int or a string, or from a
    finite float snapped to denominator at most _MAX_DENOM."""
    try:
        if isinstance(value, (Fraction, int, str)):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(value).limit_denominator(_MAX_DENOM)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass  # malformed text, a zero denominator, inf or nan
    raise MalformedInputError(f"cannot read {what} from {value!r}")


def as_angle(value) -> Fraction:
    """Normalize an angle (in turns) to an exact fraction in [0, 1)."""
    return _fraction(value, "an angle") % 1


def as_length(value) -> Fraction:
    f = _fraction(value, "a length")
    if not 0 < f <= 1:
        raise MalformedInputError(f"arc length must lie in (0, 1], got {f}")
    return f


@dataclass(frozen=True)
class Arc:
    """Subarc of the circle: ``start`` in turns, positive ``length``;
    length 1 is the full circle.  Arcs may wrap past angle 1."""

    start: Fraction
    length: Fraction

    def __post_init__(self):
        object.__setattr__(self, "start", as_angle(self.start))
        object.__setattr__(self, "length", as_length(self.length))

    @classmethod
    def full_circle(cls) -> "Arc":
        return cls(Fraction(0), Fraction(1))

    @property
    def is_full(self) -> bool:
        return self.length == 1

    def segments(self) -> list[tuple[Fraction, Fraction]]:
        """Non-wrapping pieces [lo, hi) with 0 <= lo < hi <= 1."""
        end = self.start + self.length
        if end <= 1:
            return [(self.start, end)]
        return [(self.start, Fraction(1)), (Fraction(0), end - 1)]

    def contains(self, angle: Fraction) -> bool:
        a = angle % 1
        return any(lo <= a < hi for lo, hi in self.segments())


def arc_double(a: Arc) -> list[Arc]:
    """Image of an arc under z -> z^2 (angle doubling), wrapped; doubling a
    length >= 1/2 covers the whole circle."""
    doubled = 2 * a.length
    if doubled >= 1:
        return [Arc.full_circle()]
    return [Arc((2 * a.start) % 1, doubled)]


@dataclass(frozen=True)
class SpectralUnitary:
    """Multiplication by z on a direct sum of arc pieces plus atoms.

    Each arc contributes multiplicity one on its support; overlapping arcs
    add.  Atoms are (angle, multiplicity) eigenvalues.
    """

    continuous_pieces: tuple[Arc, ...] = ()
    atoms: tuple[tuple[Fraction, int], ...] = ()
    name: str | None = None

    def __post_init__(self):
        pieces = tuple(self.continuous_pieces)
        object.__setattr__(self, "continuous_pieces", pieces)
        normalized = []
        for angle, mult in self.atoms:
            if mult < 1:
                raise MalformedInputError(f"atom multiplicity must be >= 1, got {mult}")
            normalized.append((as_angle(angle), int(mult)))
        normalized.sort()
        angles = [a for a, _ in normalized]
        if len(set(angles)) != len(angles):
            raise MalformedInputError("atom angles must be distinct")
        object.__setattr__(self, "atoms", tuple(normalized))

    def direct_sum(self, other: "SpectralUnitary") -> "SpectralUnitary":
        atoms: dict[Fraction, int] = {}
        for angle, mult in self.atoms + other.atoms:
            atoms[angle] = atoms.get(angle, 0) + mult
        return SpectralUnitary(
            self.continuous_pieces + other.continuous_pieces,
            tuple(sorted(atoms.items())),
        )


@dataclass(frozen=True)
class MultiplicityProfile:
    """Piecewise-constant multiplicity: ``values[i]`` holds on
    [breakpoints[i], breakpoints[i+1]) with circular wrap on the last."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[int, ...]
    atom_overrides: tuple[tuple[Fraction, int], ...] = ()

    def __post_init__(self):
        if len(self.breakpoints) != len(self.values) or not self.breakpoints:
            raise MalformedInputError("breakpoints and values must align")
        if any(v < 0 for v in self.values):
            raise MalformedInputError("multiplicities must be nonnegative")
        if list(self.breakpoints) != sorted(set(self.breakpoints)):
            raise MalformedInputError("breakpoints must be strictly increasing")

    def intervals(self) -> list[tuple[Fraction, Fraction, int]]:
        """(lo, hi, value) triples; the last hi is breakpoints[0] + 1."""
        out = []
        k = len(self.breakpoints)
        for i in range(k):
            lo = self.breakpoints[i]
            hi = self.breakpoints[(i + 1) % k]
            if i == k - 1:
                hi = self.breakpoints[0] + 1
            out.append((lo, hi, self.values[i]))
        return out

    def value_at(self, angle) -> int:
        a = as_angle(angle)
        for lo, hi, value in self.intervals():
            if lo <= a < hi or lo <= a + 1 < hi:
                return value
        raise MalformedInputError(f"angle {angle} not covered")  # pragma: no cover

    @property
    def min_value(self) -> int:
        return min(self.values)

    @property
    def max_value(self) -> int:
        return max(self.values)

    @property
    def is_constant(self) -> bool:
        return len(set(self.values)) == 1

    def pointwise_add(self, other: "MultiplicityProfile") -> "MultiplicityProfile":
        cuts = sorted(set(self.breakpoints) | set(other.breakpoints))
        values = []
        for i, lo in enumerate(cuts):
            hi = cuts[(i + 1) % len(cuts)] + (1 if i == len(cuts) - 1 else 0)
            mid = (lo + hi) / 2
            values.append(self.value_at(mid) + other.value_at(mid))
        atoms: dict[Fraction, int] = {}
        for angle, mult in self.atom_overrides + other.atom_overrides:
            atoms[angle] = atoms.get(angle, 0) + mult
        return _canonical_profile(cuts, values, tuple(sorted(atoms.items())))


def _canonical_profile(breakpoints, values, atoms) -> MultiplicityProfile:
    if len(set(values)) == 1:
        return MultiplicityProfile((Fraction(0),), (values[0],), atoms)
    k = len(breakpoints)
    # drop breakpoints where the value does not change (circularly)
    kept_b, kept_v = [], []
    for i in range(k):
        if values[i] != values[(i - 1) % k]:
            kept_b.append(breakpoints[i])
            kept_v.append(values[i])
    order = sorted(range(len(kept_b)), key=lambda i: kept_b[i])
    return MultiplicityProfile(
        tuple(kept_b[i] for i in order),
        tuple(kept_v[i] for i in order),
        atoms,
    )


def multiplicity_profile(u: SpectralUnitary) -> MultiplicityProfile:
    """Sum the indicator functions of the arc pieces; atoms are reported
    separately."""
    cuts = {Fraction(0)}
    for arc in u.continuous_pieces:
        for lo, hi in arc.segments():
            cuts.add(lo)
            if hi < 1:
                cuts.add(hi)
    breakpoints = sorted(cuts)
    values = []
    k = len(breakpoints)
    for i in range(k):
        lo = breakpoints[i]
        hi = breakpoints[(i + 1) % k] + (1 if i == k - 1 else 0)
        mid = (lo + hi) / 2
        values.append(sum(1 for arc in u.continuous_pieces if arc.contains(mid)))
    return _canonical_profile(breakpoints, values, u.atoms)


@dataclass(frozen=True)
class Finding:
    """A boolean answer with its reason and, when negative, the obstruction
    (an uncovered Arc or an offending atom)."""

    value: bool
    reason: str
    obstruction: object = None

    def __bool__(self):
        return self.value


REASON_NOT_FULL = "support not full circle"
REASON_NON_CONSTANT = "non-constant multiplicity"
REASON_ATOMS = "atomic spectrum present"


def _first_gap(profile: MultiplicityProfile) -> Arc:
    for lo, hi, value in profile.intervals():
        if value == 0:
            return Arc(lo % 1, hi - lo)
    raise MalformedInputError("no gap to report")  # pragma: no cover


def is_bilateral_shift(u: SpectralUnitary) -> Finding:
    """A spectral unitary is a bilateral shift iff its spectrum is Lebesgue
    on the full circle with constant multiplicity."""
    profile = multiplicity_profile(u)
    if profile.min_value < 1:
        return Finding(False, REASON_NOT_FULL, _first_gap(profile))
    if u.atoms:
        return Finding(False, REASON_ATOMS, u.atoms[0])
    if not profile.is_constant:
        return Finding(False, REASON_NON_CONSTANT)
    return Finding(
        True, f"constant multiplicity {profile.min_value} on the full circle"
    )


def has_wandering_vector(u: SpectralUnitary) -> Finding:
    """True iff the continuous profile is >= 1 on the whole circle, i.e. a
    full-circle multiplicity-one reducing slice (a bilateral shift, whose
    basis vectors wander) can be carved out."""
    profile = multiplicity_profile(u)
    if profile.min_value >= 1:
        return Finding(True, "continuous spectrum covers the circle")
    gap = _first_gap(profile)
    return Finding(
        False,
        f"no continuous spectral mass on the arc starting at {gap.start} "
        f"of length {gap.length}",
        gap,
    )


@dataclass(frozen=True)
class CoverSlice:
    """One interval copy used by a layer.  ``reused`` marks overlap slices
    that re-span a copy some earlier layer already claimed."""

    arc: Arc
    copy: int
    reused: bool


@dataclass(frozen=True)
class CoverLayer:
    slices: tuple[CoverSlice, ...]

    def spectral(self) -> SpectralUnitary:
        """The layer as a spectral unitary: its slices tile the full circle
        with multiplicity one, so it is a bilateral shift."""
        return SpectralUnitary(tuple(s.arc for s in self.slices))

    def fresh_profile(self) -> MultiplicityProfile:
        """Indicator of the fresh (non-reused) slices: the layer's share of
        the exhaustion accounting."""
        fresh = SpectralUnitary(
            tuple(s.arc for s in self.slices if not s.reused)
        )
        return multiplicity_profile(fresh)


@dataclass(frozen=True)
class BilateralCover:
    """Either a list of full-circle multiplicity-one layers whose closed
    span is everything, or a refusal naming the obstruction."""

    success: bool
    layers: tuple[CoverLayer, ...] = ()
    reason: str = ""
    obstruction: object = None

    def assignment_profile(self) -> MultiplicityProfile:
        """Sum of the layers' fresh profiles; equals the input profile when
        the cover succeeds (every copy is claimed fresh exactly once)."""
        if not self.layers:
            raise PreconditionError("no layers to sum")
        total = self.layers[0].fresh_profile()
        for layer in self.layers[1:]:
            total = total.pointwise_add(layer.fresh_profile())
        return total


def bilateral_cover(u: SpectralUnitary) -> BilateralCover:
    """Greedy peeling of full-circle multiplicity-one layers.

    Each layer takes a fresh copy from every interval that still has one and
    re-spans an already-claimed copy where the remaining count has dropped to
    zero; the layer count is the maximum multiplicity.  Refuses when an atom
    is present or the continuous profile has a gap.
    """
    profile = multiplicity_profile(u)
    if u.atoms:
        return BilateralCover(False, reason=REASON_ATOMS, obstruction=u.atoms[0])
    if profile.min_value < 1:
        gap = _first_gap(profile)
        return BilateralCover(False, reason=REASON_NOT_FULL, obstruction=gap)
    intervals = profile.intervals()
    remaining = [value for _, _, value in intervals]
    layers = []
    for _ in range(profile.max_value):
        slices = []
        for j, (lo, hi, value) in enumerate(intervals):
            arc = Arc(lo % 1, hi - lo)
            if remaining[j] > 0:
                slices.append(CoverSlice(arc, copy=value - remaining[j], reused=False))
                remaining[j] -= 1
            else:
                slices.append(CoverSlice(arc, copy=0, reused=True))
        layers.append(CoverLayer(tuple(slices)))
    return BilateralCover(
        True,
        tuple(layers),
        reason=f"span of {len(layers)} bilateral shift layers",
    )


def spectral_of_extension(wold_result, unitary_spec: SpectralUnitary) -> SpectralUnitary:
    """Spectral picture of the minimal unitary extension: the given unitary
    part plus one full-circle multiplicity-one piece per shift wandering
    generator (each unilateral shift extends to a bilateral shift)."""
    if not wold_result.exact:
        raise PreconditionError(
            "spectral_of_extension requires an exact Wold decomposition"
        )
    k = len(wold_result.shift_wandering_basis)
    pieces = unitary_spec.continuous_pieces + tuple(
        Arc.full_circle() for _ in range(k)
    )
    return SpectralUnitary(pieces, unitary_spec.atoms)
