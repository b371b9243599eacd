"""Exception types shared across the package, and the checks that raise them."""

import math
import numbers


class CliffcertError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(CliffcertError, ValueError):
    """Operands act on different qubit counts."""


class CapacityError(CliffcertError, ValueError):
    """A size above the supported qubit guard or the package's memory budget.

    Every check is arithmetic and runs before the allocation it guards,
    against ``tolerances.MEMORY_BUDGET``: the minimizer's unit-ball draws
    and pure-state cross-check; ``verify``'s projection chunks, its
    per-chunk seeds and results, and its rotor suite's state batch;
    ``rotors.lift``'s unitary; ``clifford.graded_basis``'s rows; and the
    dense observable stack ``GeneratorSet.dense_extended``.
    """


def check_budget(what: str, nbytes: float, budget: float) -> None:
    """Raise :class:`CapacityError` when ``what`` needs more than ``budget`` bytes."""
    if nbytes > budget:
        raise CapacityError(f"{what} needs {nbytes / 2**30:.1f} GiB, above the "
                            f"{budget / 2**30:.0f} GiB memory budget")


def check_integer(value, what: str, lo: int, hi: float = math.inf) -> int:
    """``value`` as an int in lo..hi: an integer, numpy's included; bools and non-integers refused.

    Raises :class:`DomainError` otherwise.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise DomainError(f"{what} {value} out of range {lo}..{hi}")
    return int(value)


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
