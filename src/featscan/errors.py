"""Exception hierarchy shared across the package.

Every error carries an ``exit_code`` so the command-line layer can map
failures onto its contract: 1 for configuration problems, 2 for data
problems, 3 for numeric problems. Each class takes its code from its
category: :class:`FeatscanError` itself for configuration problems,
:class:`DataError` and :class:`NumericError` for the other two.
"""

EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class FeatscanError(Exception):
    """Base class for all package errors."""

    exit_code = EXIT_CONFIG


# --- configuration / usage errors ---------------------------------------

class KTooLargeError(FeatscanError):
    """Requested more features than are available."""


class UnknownFeatureError(FeatscanError):
    """A referenced feature does not exist in the dataset."""


class InvalidSpecError(FeatscanError):
    """A synthetic-data or pipeline spec fails validation."""


class MismatchedFeatureSetsError(FeatscanError):
    """Rankings to be merged do not cover the same features."""


class NoFeaturesError(FeatscanError):
    """An operation was asked to run over an empty feature list."""


# --- data errors ---------------------------------------------------------

class DataError(FeatscanError):
    """The input data cannot support the requested operation."""

    exit_code = EXIT_DATA


class SchemaMismatchError(DataError):
    """CSV columns or observed values do not match the declared schema."""


class NonBinaryOutcomeError(DataError):
    """An outcome cell is not 0 or 1."""


class ParseError(DataError):
    """A cell could not be parsed under its declared feature kind."""


class MissingValueError(DataError):
    """A missing cell was found under the Error missing-value policy."""


class DegenerateColumnError(DataError):
    """A column is empty where values are required."""


class DegenerateOutcomeError(DataError):
    """The outcome vector is constant, so no anomaly contrast exists."""


class EmptySubsetError(DataError):
    """A subset descriptor matches no rows."""


class FullSubsetError(DataError):
    """A subset descriptor excludes no rows."""


class EmptyRecordsError(DataError):
    """No value of a feature has any members under the conditioning."""


class SingleClassOutcomeError(DataError):
    """Classifier training needs both outcome classes present."""


# --- numeric errors -------------------------------------------------------

class NumericError(FeatscanError):
    """A statistic or fit is numerically undefined on the given input."""

    exit_code = EXIT_NUMERIC


class ConstantInputError(NumericError):
    """A statistic is undefined because an input has zero variance."""


class InsufficientRowsError(NumericError):
    """Too few rows for the requested regression."""


class DegenerateTableError(NumericError):
    """A contingency table collapsed below 2x2 after pruning."""


class AlphaOutOfRangeError(NumericError):
    """The global expectation must lie strictly between 0 and 1."""
