"""Exception types shared across the library.

Every domain error derives from :class:`AccountingError`, which itself
derives from ``ValueError`` so that generic callers can catch a single
base class. Scenario-file problems get their own branch so the CLI can
map them to a distinct exit code. ``HeterogeneousInputError`` is an
``IncompatibleTheoremError``: one ``except`` catches every theorem refusal.
"""


class AccountingError(ValueError):
    """Base class for all domain errors raised by this library."""


class NonNormalizedError(AccountingError):
    """Hypothesis weights do not sum to 1 within tolerance."""


class MixedLengthError(AccountingError):
    """Bit vectors of different lengths were mixed in one operation."""


class NonPositiveWeightError(AccountingError):
    """A hypothesis atom carries weight <= 0."""


class DuplicateAtomError(AccountingError):
    """A hypothesis lists the same bit vector more than once."""


class InvalidSlackError(AccountingError):
    """Advanced composition slack outside (0, 1)."""


class IncompatibleTheoremError(AccountingError):
    """The selected composition theorem cannot be applied to the sequence."""


class HeterogeneousInputError(IncompatibleTheoremError):
    """Advanced composition got no guarantees or guarantees that are not all identical."""


class IncompatibleModeError(AccountingError):
    """The neighborhood mode cannot be combined with the given constraint."""


class KTooLargeError(AccountingError):
    """An exhaustive enumeration was requested for an infeasible length."""


class NonzeroDeltaError(AccountingError):
    """Parallel composition requires pure epsilon-DP guarantees."""


class InvalidRateError(AccountingError):
    """A probability-valued rate parameter is out of range."""


class InvalidBoundariesError(AccountingError):
    """Block boundaries for the exclusive-groups bound are inconsistent."""


class ViewSpaceTooLargeError(AccountingError):
    """Exact view enumeration would exceed the supported size."""


class MismatchedSupportError(AccountingError):
    """Two view distributions do not share the same view space."""


class EmptySetError(AccountingError):
    """An aggregate over hypothesis pairs received an empty collection."""


class ScenarioError(AccountingError):
    """Base class for scenario-file problems (CLI exit code 1)."""


class ScenarioParseError(ScenarioError):
    """The scenario file could not be read or parsed."""


class ScenarioValidationError(ScenarioError):
    """The scenario file parsed but violates an invariant."""
