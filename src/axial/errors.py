"""Exception hierarchy. Every failure mode raised by the library derives from AxialError."""


class AxialError(Exception):
    """Base class for all library errors."""


class _TextError(AxialError):
    """Text that does not read; carries the offending position, if it has one."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class ScalarParseError(_TextError):
    """Scalar text does not match the exact-scalar grammar for the field, or
    a scalar is too long to read or write as text (Python's int-string
    digit limit)."""


class PolyParseError(_TextError):
    """Identity-polynomial text is malformed."""


class SchemaError(AxialError):
    """JSON document does not match the documented schema."""


class DimensionMismatch(AxialError):
    """Vector/matrix/structure dimensions are inconsistent."""


class AsymmetricStructure(AxialError):
    """Structure constants violate commutativity."""


class AlgebraMismatch(AxialError):
    """Elements of different algebras were combined."""


class NotIdempotent(AxialError):
    """An operation requiring x*x = x was given a non-idempotent."""


class BadLambda(AxialError):
    """The eigenvalue parameter must avoid 0 and 1."""


class IncompleteDecomposition(AxialError):
    """Eigenspaces do not sum to the whole algebra."""


class SingularVandermonde(AxialError):
    """Repeated eigenvalues make the component-recovery system singular."""


class NotAnAxis(AxialError):
    """An operation requiring a certified axis was given something else."""


class NotAxes(AxialError):
    """A pair operation requires both inputs to be certified primitive axes."""


class OrbitOverflow(AxialError):
    """Miyamoto closure exceeded the size cap; the orbit may be infinite."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class MissingForm(AxialError):
    """A bracket factor was evaluated without a bilinear form."""


class UnboundVariable(AxialError):
    """Evaluation met a variable or slot with no assignment."""


class FreshCollision(AxialError):
    """The requested fresh variable index already occurs in the polynomial."""


class FieldTooSmall(AxialError):
    """The field has too few elements for the multilinear argument and
    exhaustive enumeration exceeds the budget."""


class UnknownIdentity(AxialError):
    """No catalog identity with the requested name."""


class InvalidTripleSystem(AxialError):
    """Point/line data is not a partial linear space on 3-point lines."""


class SelfCheckFailed(AxialError):
    """A construction failed its own certification."""


class UnsupportedShape(AxialError):
    """The subalgebra is not of a shape the solver handles."""
