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


class IllDefinedMap(TauCoverError):
    """A module map's well-definedness certificate failed."""


class DegreeOverflow(TauCoverError):
    """Wedge product would exceed the top degree of the complex."""


class StabilityFailure(TauCoverError):
    """Derivative of a submodule element left the submodule."""


class NotCoprime(TauCoverError):
    """Operation requires gcd(n, p) = 1."""


class GluingFailure(TauCoverError):
    """Chart-level data disagrees on an overlap."""


class MalformedInput(TauCoverError, ValueError):
    """JSON or expression input does not parse against the schema."""
