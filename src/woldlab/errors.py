"""Exception taxonomy shared by every woldlab module."""


class WoldlabError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInputError(WoldlabError):
    """A vector, index, angle or literal does not satisfy its contract."""


class InvalidOperatorError(WoldlabError):
    """A structured-isometry description violates a structural invariant.

    The message names the failing check, e.g. which two columns are not
    orthogonal and by how much.
    """


class CompositionError(WoldlabError):
    """Composing two operators produced a malformed result."""


class PreconditionError(WoldlabError):
    """An analysis refused to run because its precondition fails.

    Carries the offending evidence in ``witness`` when one exists (for
    example the exponent pair showing a vector is not wandering), and the
    failed check's ``certificate`` when the refusal comes from one.
    """

    def __init__(self, message, witness=None, certificate=None):
        super().__init__(message)
        self.witness = witness
        self.certificate = certificate


class DescriptionParseError(MalformedInputError):
    """An operator or spectral description file failed to parse."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
