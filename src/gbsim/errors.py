"""Exception hierarchy shared by all gbsim modules, and the one rule for each kind
of number a caller passes: `integer` for every count, size and seed, and `real`
for every variance, squeezing, headroom and inline matrix entry."""

import numbers
import operator


class GbsimError(Exception):
    """Base class for all gbsim errors."""


class ValidationError(GbsimError):
    """Invalid input data: unphysical state, non-unitary matrix, bad config."""


def integer(value, what: str) -> int:
    """`value` as an int; anything else (a bool, float, string) raises "<what> must be an integer"."""
    try:
        if isinstance(value, bool):  # operator.index(True) is 1
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


def real(value, what: str) -> float:
    """An int, float or numpy real `value` as a float; anything else (a bool, string, None,
    complex, array, or an int beyond float range) raises "<what> must be a number"."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValidationError(f"{what} must be a number, got {value!r}")


class ContractError(ValidationError):
    """An engine was called outside its stated precondition."""


class CutoffError(ValidationError):
    """Fock-space truncation out of reach: basis above the cap, or a sector off unitarity."""


class CostLimitError(GbsimError):
    """Requested computation exceeds the configured exponential-cost bound."""


class NumericalIntegrityError(GbsimError):
    """A value that must be real (up to roundoff) came out complex or negative,
    a probability came out above 1, or a result left the float range: judged for
    a kernel value and the PSD estimator's rescaled estimate alike by one rule,
    `matrix_functions.in_float_range`, and for a PSD permanent also by its lower
    bound prod(h_ii).

    Never downgraded to a warning, nor returned as nan or inf.
    """
