"""Exception hierarchy.

Two error families matter to callers: bad input data (InputError, CLI exit
code 1) and violated mathematical preconditions (PreconditionError, CLI exit
code 2). Everything else is a bug.
"""


class LiecurvError(Exception):
    """Base class for all library errors."""


class InputError(LiecurvError):
    """Malformed or inconsistent input data (documents, shapes, ranges)."""


class DimensionMismatchError(InputError):
    """Operands disagree on the algebra dimension."""


class PreconditionError(LiecurvError):
    """A mathematical precondition of an operation does not hold."""


class NormBoundError(PreconditionError):
    """Randers drift must satisfy g(Q, Q) < 1 strictly."""


class DegeneratePlaneError(PreconditionError):
    """The two spanning vectors are linearly dependent."""


class NonBerwaldError(PreconditionError):
    """The requested quantity is only defined for parallel (Berwald) drift."""


class UndefinedAtOriginError(PreconditionError):
    """The Finsler quantities are not defined at y = 0."""
