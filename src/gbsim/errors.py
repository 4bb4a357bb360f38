"""Exception hierarchy shared by all gbsim modules."""


class GbsimError(Exception):
    """Base class for all gbsim errors."""


class ValidationError(GbsimError):
    """Invalid input data: unphysical state, non-unitary matrix, bad config."""


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
