"""Exception hierarchy shared by all siegelkit modules."""


class SiegelKitError(Exception):
    """Base class for all errors raised by siegelkit."""


class DimensionMismatch(SiegelKitError):
    """Operands have incompatible shapes."""


class TypeMismatch(SiegelKitError):
    """Values built over different lattice types, or a type that disagrees with omega."""


class DegenerateForm(SiegelKitError):
    """A symplectic Gram matrix has zero determinant."""


class NotAntisymmetric(SiegelKitError):
    """A Gram matrix fails G^T = -G."""


class NotUnimodular(SiegelKitError):
    """An integer matrix expected to be invertible over Z is not."""


class InvalidTaming(SiegelKitError):
    """A complex structure fails the taming axioms beyond tolerance."""


class NonPositiveY(SiegelKitError):
    """The imaginary part of a Siegel upper half space point is not positive."""


class NotSymplectic(SiegelKitError):
    """A matrix does not preserve the given symplectic form."""


class BadSignature(SiegelKitError):
    """A point metric is not symmetric of signature (-,+,+,+).

    Also raised for an orientation other than +1 or -1.
    """


class InvalidFundamentalForm(SiegelKitError):
    """A fundamental form sample fails validation against its taming.

    ``report`` is the failing validation report as a dict.
    """

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class InvalidComplex(SiegelKitError):
    """A twisted complex violates boundary, flatness or transport axioms.

    ``report`` is the failing validation report as a dict, or None when
    the complex was refused before it could be validated.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotACocycle(SiegelKitError):
    """A cochain fails the cocycle condition of the twisted differential."""


class InvalidModel(SiegelKitError):
    """A finite scalar model violates its closure or validation axioms."""


class BoundTooLargeForBudget(SiegelKitError):
    """A bounded enumeration would exceed the configured search budget.

    ``details`` holds what the refusal counted, as JSON values: always
    ``budget``; ``volume`` and the per-coefficient ``limits`` for a
    coefficient box; ``tested`` (column tests so far) for a column search.
    """

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


class ParseError(SiegelKitError):
    """Malformed input: bad JSON, or a value the codecs or floats cannot hold."""
