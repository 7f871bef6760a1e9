"""woldlab: exactly-computable isometries on countable orthonormal bases.

Structured isometries (explicit columns plus tail rules) support exact
application, adjoints, composition and commutation checks; on top of that
the package computes Wold decompositions, certifies wandering and strongly
wandering vectors, splits spaces along spans of wandering vectors, builds
minimal unitary extensions, analyzes commuting pairs (weak bi-shift
classification, four-part decompositions), and reasons about unitaries in
spectral form (multiplicity profiles, bilateral-shift covers).
"""

from .certificates import FALSE, TRUE, UNDECIDED, Certificate
from .core import (
    BasisIndex,
    Closure,
    HVector,
    LaneSpec,
    StructuredIsometry,
    Subspace,
    TailRule,
    commutes,
    compose,
    doubly_commutes,
    inner,
)
from .errors import (
    CompositionError,
    DescriptionParseError,
    InvalidOperatorError,
    MalformedInputError,
    PreconditionError,
    WoldlabError,
)
from .pairs import (
    ExhaustResult,
    H0PlusResult,
    PairAnalysis,
    PairPart,
    PairReport,
    exhaust_h0,
    h0_plus,
    is_completely_non_doubly_commuting,
    pair_decompose,
    weak_bishift_classify,
)
from .spectral import (
    Arc,
    BilateralCover,
    Finding,
    MultiplicityProfile,
    SpectralUnitary,
    arc_double,
    bilateral_cover,
    has_wandering_vector,
    is_bilateral_shift,
    multiplicity_profile,
    spectral_of_extension,
)
from .wold import (
    ExtensionResult,
    WanderingSpanResult,
    WoldResult,
    bilateral_orbit,
    is_strongly_wandering,
    is_unitary,
    is_wandering,
    kernel_of_adjoint,
    minimal_unitary_extension,
    strongly_wandering_span,
    wandering_span_decompose,
    wold_decompose,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
