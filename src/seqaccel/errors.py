"""Exception types shared across the package."""


class SeqAccelError(Exception):
    """Base class for all package errors."""


class WindowError(SeqAccelError):
    """An operation asked for sequence elements outside the supplied range."""


class NonFiniteError(SeqAccelError):
    """A sequence value is NaN or infinite."""


class EmptyInputError(SeqAccelError):
    """A nonempty sequence was required."""


class SingularError(SeqAccelError):
    """A determinant ratio has an exactly zero denominator."""


class KernelDegeneracyError(SeqAccelError):
    """The kernel certification system is singular; membership is not certified."""


class SpecError(SeqAccelError):
    """Invalid generator or run configuration."""


class ModeUnsupportedError(SeqAccelError):
    """The requested quantity is not representable in the active scalar mode."""


class IngestError(SeqAccelError):
    """A sequence file could not be parsed."""
