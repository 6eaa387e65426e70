"""Exception types shared across the package."""

from __future__ import annotations


class AlgmechError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(AlgmechError):
    """Malformed expression source.

    ``offset`` is the byte offset of the first offending character.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(AlgmechError):
    """Identifier not present in the declared coordinate list."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}' (at offset {offset})")
        self.name = name
        self.offset = offset


# a longer subexpression is named by this many leading characters and its length
SUBEXPRESSION_CHARS = 200


class EvaluationDomainError(AlgmechError):
    """Numeric domain violation (log/sqrt domain, zero division) or overflow.

    The message names the subexpression, printed in full up to
    :data:`SUBEXPRESSION_CHARS` characters and beyond that as its leading
    characters and its length; ``subexpression`` keeps the tree."""

    def __init__(self, message: str, subexpression=None):
        self.subexpression = subexpression
        if subexpression is not None:
            from .expr import to_source

            src = to_source(subexpression)
            named = f"'{src}'"
            if len(src) > SUBEXPRESSION_CHARS:
                named = f"'{src[:SUBEXPRESSION_CHARS]}...' ({len(src)} characters)"
            message = f"{message} in {named}"
        super().__init__(message)

    def at(self, point) -> "EvaluationDomainError":
        """This error with ``at <point>`` appended, its subexpression kept."""
        named = EvaluationDomainError(f"{self} at {point}")
        named.subexpression = self.subexpression
        return named


class FiberDependenceError(AlgmechError):
    """A base-level operation received data depending on fiber coordinates."""


class SingularMetricError(AlgmechError):
    """The fiber Hessian of the Lagrangian is (numerically) singular at
    ``point``, the sample at place ``index`` of the list checked: its 1-norm
    reciprocal condition number ``rcond`` is below 1e-10 (0 at a zero pivot)."""

    def __init__(self, point, determinant: float, index: int, rcond: float):
        super().__init__(
            f"singular fiber metric at {point} (det = {determinant:.6e}, rcond1 = {rcond:.6e})"
        )
        self.point = point
        self.determinant = determinant
        self.index = index
        self.rcond = rcond


class SingularPairingError(AlgmechError):
    """The symplectic pairing matrix cannot be inverted at a sample point."""


class ExactnessWitnessError(AlgmechError):
    """Supplied witness function fails to make the Lie-derived one-section exact."""


class IntegrationAbortError(AlgmechError):
    """Domain error hit during time integration; carries the partial trajectory."""

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = partial


class ConfigError(AlgmechError):
    """Invalid system configuration file.

    ``path`` is a JSON-pointer-style location of the offending entry, left out if empty.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
