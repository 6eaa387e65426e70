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


class EvaluationDomainError(AlgmechError):
    """Numeric domain violation (log/sqrt domain, zero division) or overflow."""

    def __init__(self, message: str, subexpression=None):
        self.subexpression = subexpression
        if subexpression is not None:
            from .expr import to_source

            message = f"{message} in '{to_source(subexpression)}'"
        super().__init__(message)


class FiberDependenceError(AlgmechError):
    """A base-level operation received data depending on fiber coordinates."""


class SingularMetricError(AlgmechError):
    """The fiber Hessian of the Lagrangian is (numerically) singular."""

    def __init__(self, point, determinant: float):
        super().__init__(
            f"singular fiber metric at {point} (det = {determinant:.6e})"
        )
        self.point = point
        self.determinant = determinant


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

    ``path`` is a JSON-pointer-style location of the offending entry.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
