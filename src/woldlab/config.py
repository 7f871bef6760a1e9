"""Numeric policy: one global tolerance, overridable via WOLDLAB_TOLERANCE."""

import os

from .errors import MalformedInputError

DEFAULT_TOLERANCE = 1e-9

# Residual threshold below which a vector is dropped during
# orthonormalization; looser than the working tolerance on purpose so that
# bases stay deterministic under floating-point noise.
ORTHO_DROP_TOL = 1e-7

# Coefficients below this are pruned at vector construction.  This is a
# numerical noise floor, deliberately far below the working tolerance:
# pruning at the working tolerance would silently destroy the small
# orthogonalization corrections the certificates depend on, while any
# geometrically decaying support still crosses this floor and stays finite.
PRUNE_TOL = 1e-14

# Rank cutoff of the SVD behind constraint walls (``orthonormal_span``),
# used both absolutely and relative to the largest singular value: a wall
# keeps every direction down to the numerical rank, so that near-dependent
# constraints are still fully projected out.
SPAN_RANK_TOL = 1e-12

# Rank cutoffs of the SVD behind nullspaces (``nullspace_combinations`` and
# ``intersect_spans``): a singular value counts as zero below the absolute
# cutoff or below the relative one times the largest singular value.  Much
# looser than the wall cutoff, because a combination counts as vanishing
# once it is lost in the noise of the Gram-Schmidt residuals.
NULLSPACE_ATOL = 1e-8
NULLSPACE_RTOL = 1e-10

# Singular values of (P V V* P - I) on an adjoint-kernel iterate below this
# count as zero when pulling a span back through an operator
# (``pairs._preimage_under``): those directions lie in the range of V.
PREIMAGE_RANK_TOL = 1e-8

# Projections of shift-orbit vectors onto the wandering-span part whose norm
# is at most this are dropped from the pair decomposition's wandering
# generators.
GENERATOR_ZERO_TOL = 1e-9

# Largest residual against the wandering-span residual of V1 that an input
# of ``pairs.h0_plus`` may have and still count as lying inside it.
H0_MEMBERSHIP_TOL = 1e-6

DEFAULT_DEPTH = 64
DEFAULT_HORIZON = 64


def tolerance() -> float:
    """Working tolerance for norm and orthogonality checks.

    Reads WOLDLAB_TOLERANCE on every call so tests and CLI runs can
    override it per process.
    """
    raw = os.environ.get("WOLDLAB_TOLERANCE")
    if raw is None:
        return DEFAULT_TOLERANCE
    try:
        value = float(raw)
    except ValueError:
        raise MalformedInputError(
            f"WOLDLAB_TOLERANCE is not a number: {raw!r}"
        ) from None
    if not value > 0.0:
        raise MalformedInputError(
            f"WOLDLAB_TOLERANCE must be positive, got {value!r}"
        )
    return value
