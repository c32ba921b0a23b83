"""Exception hierarchy shared by the whole package.

Verification FAILURES (a sequence that is not exact, a class that is not
trivial) are report content, never exceptions.  Exceptions are reserved for
inputs that break a construction's contract.
"""


class TauCoverError(Exception):
    """Base class for all package errors."""


class FieldMismatch(TauCoverError):
    """Operands belong to different finite fields."""


class RingMismatch(TauCoverError):
    """Operands belong to different chart rings."""


class DivisionByZero(TauCoverError, ZeroDivisionError):
    """Inversion of the zero element."""


class NotAUnit(TauCoverError):
    """Element is not invertible in the chart ring."""


class NotIrreducible(TauCoverError):
    """A polynomial required to be monic irreducible is not."""


class InvalidCocycle(TauCoverError):
    """Transition data violates the cocycle or n-th power identities."""


class CertificateFailure(TauCoverError):
    """An exact certificate failed its check: an SNF identity, or the grading
    that lets a matrix be reduced one weight block at a time."""


class StabilityFailure(TauCoverError):
    """Derivative of a submodule element left the submodule."""


class NotCoprime(TauCoverError):
    """Operation requires gcd(n, p) = 1."""


class GluingFailure(TauCoverError):
    """Chart-level data disagrees on an overlap."""


class MalformedInput(TauCoverError, ValueError):
    """JSON or expression input does not parse against the schema."""
