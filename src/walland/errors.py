"""Error hierarchy shared across the package.

The CLI maps these onto exit codes: SchemaError -> 2, PreconditionError
(and subclasses) -> 3, CertificateFailure -> 4.
"""


class WallandError(Exception):
    pass


class SchemaError(WallandError):
    """Malformed input data: bad JSON, wrong field shapes, unparsable numbers."""


class PreconditionError(WallandError):
    """Operation called outside its stated domain."""


class DimensionMismatch(PreconditionError):
    pass


class MixedRadicalError(PreconditionError):
    """Arithmetic mixing two distinct quadratic extensions; out of scope."""


class ZeroChargeError(PreconditionError):
    """Central charge vanished (character proportional to the kernel point)."""


class NotInHeartError(PreconditionError):
    """Character fails the heart sign check at the given parameter point."""


class DegenerateGeometryError(PreconditionError):
    """Tangent / empty / vertical intersection where a secant is required."""


class InvariantError(WallandError):
    """An internal consistency check failed: a defect, not a bad input."""


class CertificateFailure(WallandError):
    """Neither branch inequality of a vanishing certificate holds.

    Carries a machine-readable counterexample payload; never raised silently
    in place of a wrong answer.
    """

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload if payload is not None else {}
