"""Exception types shared across the package."""


class CliffcertError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(CliffcertError, ValueError):
    """Operands act on different qubit counts."""


class CapacityError(CliffcertError, ValueError):
    """A size above the supported qubit guard or the package's memory budget.

    The minimizer checks its unit-ball draws, its pure-state cross-check and
    the dense re-evaluation of the minimizing state against
    ``tolerances.MEMORY_BUDGET`` before it draws anything; ``verify`` checks
    its projection chunks, ``rotors.lift`` its unitary, and
    ``clifford.graded_basis`` its rows, the same way.
    """


def check_budget(what: str, nbytes: float, budget: float) -> None:
    """Raise :class:`CapacityError` when ``what`` needs more than ``budget`` bytes."""
    if nbytes > budget:
        raise CapacityError(f"{what} needs {nbytes / 2**30:.1f} GiB, above the "
                            f"{budget / 2**30:.0f} GiB memory budget")


class ParseError(CliffcertError, ValueError):
    """A Pauli label or serialized document could not be parsed."""


class DomainError(CliffcertError, ValueError):
    """An argument lies outside the operation's domain."""


class ValidationError(CliffcertError, ValueError):
    """A matrix failed density-matrix validation."""


class BallViolationError(ValidationError):
    """Expectation coefficients lie outside the closed unit ball."""


class OrientationError(DomainError):
    """An extended-set transformation must have determinant +1."""
