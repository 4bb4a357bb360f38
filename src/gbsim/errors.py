"""Exception hierarchy shared by all gbsim modules, and `integer`, the one
rule that every count, size and seed argument goes through."""

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


class ContractError(ValidationError):
    """An engine was called outside its stated precondition."""


class CutoffError(ValidationError):
    """Fock-space truncation out of reach: basis above the cap, or a sector off unitarity."""


class CostLimitError(GbsimError):
    """Requested computation exceeds the configured exponential-cost bound."""


class NumericalIntegrityError(GbsimError):
    """A value that must be real (up to roundoff) came out complex or negative.

    This signals an implementation bug, not a user error, and is never
    downgraded to a warning.
    """
