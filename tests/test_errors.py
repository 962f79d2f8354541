"""Each error class's exit code, as the command line reports it."""

import inspect

import pytest

from featscan import errors

EXIT_CODES = {
    "FeatscanError": 1,
    "KTooLargeError": 1,
    "UnknownFeatureError": 1,
    "InvalidSpecError": 1,
    "MismatchedFeatureSetsError": 1,
    "NoFeaturesError": 1,
    "DataError": 2,
    "SchemaMismatchError": 2,
    "NonBinaryOutcomeError": 2,
    "ParseError": 2,
    "MissingValueError": 2,
    "DegenerateColumnError": 2,
    "DegenerateOutcomeError": 2,
    "EmptySubsetError": 2,
    "FullSubsetError": 2,
    "EmptyRecordsError": 2,
    "SingleClassOutcomeError": 2,
    "NumericError": 3,
    "ConstantInputError": 3,
    "InsufficientRowsError": 3,
    "DegenerateTableError": 3,
    "AlphaOutOfRangeError": 3,
}


def test_every_error_class_is_pinned():
    declared = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
                if issubclass(cls, errors.FeatscanError)}
    assert declared == set(EXIT_CODES)


@pytest.mark.parametrize("name, code", EXIT_CODES.items())
def test_exit_code(name, code):
    assert getattr(errors, name)("message").exit_code == code
