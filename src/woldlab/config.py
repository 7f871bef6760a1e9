"""Numeric policy: one global tolerance, overridable via WOLDLAB_TOLERANCE."""

import os

from .errors import MalformedInputError

DEFAULT_TOLERANCE = 1e-9

# Exclusive upper bound on WOLDLAB_TOLERANCE.  The tolerance decides when a
# norm counts as zero and an overlap as orthogonal; at 1 every unit vector
# would be "zero" and every pair of them "orthogonal", so verdicts would be
# vacuous.  0.1 still admits deliberately loose runs such as 1e-2.
MAX_TOLERANCE = 0.1

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
# used both absolutely and relative to the largest singular value of the
# whole matrix (not of one support component): a wall keeps every direction
# down to the numerical rank, so that near-dependent constraints are still
# fully projected out.
SPAN_RANK_TOL = 1e-12

# Rank cutoffs of the SVD behind nullspaces (``nullspace_combinations`` and
# ``intersect_spans``): a singular value counts as zero below the absolute
# cutoff or below the relative one times the largest singular value of the
# whole matrix (not of one support component).  Much
# looser than the wall cutoff, because a combination counts as vanishing
# once it is lost in the noise of the Gram-Schmidt residuals.
NULLSPACE_ATOL = 1e-8
NULLSPACE_RTOL = 1e-10

# Projections of shift-orbit vectors onto the wandering-span part whose norm
# is at most this are dropped from the pair decomposition's wandering
# generators.
GENERATOR_ZERO_TOL = 1e-9

# Largest |norm(g_i) - 1| and |<g_i, g_j>| that the generators of a
# ``core.Subspace`` may show and still count as orthonormal.  Fixed, not
# the working tolerance, and looser than it, so that bases built by
# Gram-Schmidt sweeps over deep windows are accepted.
SUBSPACE_ORTHONORMAL_TOL = 1e-6

# Lower bound on the tolerance of ``wold.reducing_certificate``'s column
# check of P V = V P: a WOLDLAB_TOLERANCE tighter than this would measure
# the rounding of the window projections, not whether the subspace reduces.
REDUCING_TOL_FLOOR = 1e-9

# Largest residual against the wandering-span residual of V1 that an input
# of ``pairs.h0_plus`` may have and still count as lying inside it.
H0_MEMBERSHIP_TOL = 1e-6

# Largest ||V V* b - b|| and ||V* V b - b|| at which ``pairs.h0_plus``
# reports V1 as unitary on a basis vector b of H0+.  Looser than the working
# tolerance: the basis comes out of Gram-Schmidt sweeps whose rounding the
# two applications carry along.
H0_UNITARY_TOL = 1e-8

# Largest ||c| - 1| of the single coefficient c of a vector that still
# counts as a plain basis vector (``HVector.plain_index``, the bound itself
# included): ``pairs`` asks it of a peel's basis to see whether the peel is
# a union of whole finite lanes, and ``wold.minimal_unitary_extension`` of
# the kernel generators to see whether their lanes may be widened to
# integer lanes.
PLAIN_BASIS_TOL = 1e-9

# Largest ||phase| - 1| a tail rule's phase may show and still count as
# unimodular.  Near double rounding, so that phases given as turns pass but
# hand-written approximations do not.
TAIL_PHASE_TOL = 1e-12

# Largest |phase - root| at which a tail phase is written back to a
# description file as the exact fraction of turns of that root of unity
# (0, 1/4, 1/2, 3/4) rather than as a float.
EXACT_PHASE_TOL = 1e-12

DEFAULT_DEPTH = 64
DEFAULT_HORIZON = 64

# Largest horizon at which ``wold.wandering_span_decompose`` certifies the
# window basis vectors as wandering; shallower windows use their depth.
WANDERING_HORIZON_CAP = 32

# Largest number of indices a window (``window_indices``) may hold.  Window
# analyses keep dense arrays with a row per window index: the nullspace
# coefficients behind ``intersect_spans`` have up to rows x rows complex
# entries, 256 MiB at this bound, where an unbounded depth ends in numpy's
# memory error (pair_grid at depth 100000 asks for 596 GiB).  Every catalog
# entry stays inside it up to depth 1024 (the largest window there,
# bilateral_plus_shift's, has 3073 indices); pair_grid reaches it at 2048.
MAX_WINDOW = 4096

# Largest horizon ``is_wandering`` and ``is_strongly_wandering`` accept.  The
# tests keep the orbit vectors (up to 2h + dip + 3 forward, h + 1 backward)
# and, for the strong test, an index from basis indices to the vectors
# holding them, so memory grows like h times the vectors' support.  The
# strong test measures every pair of vectors sharing an index, which is
# up to about 2h^2 pairs when an orbit keeps returning to the same indices.
# At 512 the strong test of e_(1,0) on the catalog's bilateral_plus_shift
# peaks at about 31 MB of resident memory (interpreter included), and that
# of e_(1,0) + 1e-8 e_(0,0) on cycle_plus_shift, whose orbit vectors all
# touch the two-element cycle, takes about 0.55 s.
MAX_HORIZON = 512


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
    if not 0.0 < value < MAX_TOLERANCE:
        raise MalformedInputError(
            f"WOLDLAB_TOLERANCE must be positive and below {MAX_TOLERANCE}, "
            f"got {value!r}"
        )
    return value
