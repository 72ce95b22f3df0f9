"""Domain error hierarchy.

Every recoverable failure raised by the library derives from
:class:`DomainError`, so the CLI can map any of them to a single
diagnostic line and exit status 1.  A failed internal cross-check raises
:class:`InternalError` instead: it is a bug, never bad input.
"""

from __future__ import annotations


class DomainError(Exception):
    """Base class for all domain-level failures."""


class InternalError(Exception):
    """Two derivations of the same fact disagree."""


def check(ok: bool, what: str, *args: object) -> None:
    """A cross-check that, unlike assert, also runs under python -O.

    The message is what % args, formatted only when the check fails.
    """
    if not ok:
        raise InternalError(what % args if args else what)


class NotCoprime(DomainError):
    """Modular inverse requested for non-coprime arguments."""


class ZeroPolynomial(DomainError):
    """Operation undefined for the zero polynomial."""


class PositiveSum(DomainError):
    """Divisor pair has a point where d_plus + d_minus > 0."""


class NegativeDegreeParabolic(DomainError):
    """Negative graded piece requested from a parabolic ring."""


class IrrationalLocus(DomainError):
    """A denominator does not split over the rationals."""


class FractionalPlusSpread(DomainError):
    """The fractional part of d_plus is supported at two or more points."""


class NonRationalRoots(DomainError):
    """Polynomial does not split over the rationals."""


class GcdViolation(DomainError):
    """gcd(k, root multiplicities) > 1; k is not minimal."""


class InvalidEquation(DomainError):
    """u^k v = P needs k >= 1 and a nonconstant P."""


class NotUnitary(DomainError):
    """Polynomial is not monic."""


class InadmissibleDegree(DomainError):
    """No homogeneous locally nilpotent derivation of this degree exists."""


class CapExceeded(DomainError):
    """An input size or an iteration count is over its cap."""


class NegativeSize(DomainError):
    """An input size or an iteration count is negative."""


class NoKernelGenerator(DomainError):
    """No closed-form kernel generator: elliptic spec or negative degree."""


class NotSmallGroup(DomainError):
    """Cyclic group data with gcd(e', d) > 1 defines a non-small action."""


class UnknownName(DomainError):
    """Catalog name not recognised."""


class BadParams(DomainError):
    """Catalog parameters out of range."""


class ParseError(DomainError):
    """Input text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidSpecFile(DomainError):
    """Surface-spec document is malformed."""
