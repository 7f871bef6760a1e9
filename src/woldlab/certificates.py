"""Depth-bounded answers with an explicit exactness flag.

Every "for all n" style question gets finitized to a horizon.  A
Certificate records the verdict on the horizon, the witness when the
verdict is negative, and whether structural reasoning (support drift out of
the window, or finite-lane recurrence) closes the quantifier so the answer
holds beyond the horizon as well.
"""

from __future__ import annotations

from dataclasses import dataclass

TRUE = "true"
FALSE = "false"
UNDECIDED = "undecided"

_VERDICTS = (TRUE, FALSE, UNDECIDED)


@dataclass(frozen=True)
class Certificate:
    verdict: str
    witness: object = None
    horizon: int = 0
    exact: bool = False

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == FALSE and self.witness is None:
            raise ValueError("a false verdict requires a witness")
        if self.exact and self.verdict == UNDECIDED:
            raise ValueError("an exact certificate cannot be undecided")

    @property
    def is_true(self) -> bool:
        return self.verdict == TRUE

    @property
    def is_false(self) -> bool:
        return self.verdict == FALSE

    @property
    def is_undecided(self) -> bool:
        return self.verdict == UNDECIDED


def true_certificate(horizon, exact) -> Certificate:
    return Certificate(TRUE, None, horizon, exact)


def false_certificate(horizon, witness) -> Certificate:
    # A concrete counterexample settles the question for good.
    return Certificate(FALSE, witness, horizon, True)


def undecided_certificate(horizon) -> Certificate:
    return Certificate(UNDECIDED, None, horizon, False)
