"""Exception types shared across the package."""


class CremError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CremError):
    """A parameter or state violates a documented invariant."""


class NonPhysicalLength(CremError):
    """A secondary-backbone length of the whole segment is non-positive."""


class NoConvergence(CremError):
    """An iterative solve exhausted its iteration budget."""


class SingularNormalEquations(CremError):
    """The weighted normal equations of the identification step are singular."""


class ParseError(CremError):
    """A config or dataset file could not be parsed."""


class FrameError(CremError):
    """A dataset declares a frame for which no transform is available."""
