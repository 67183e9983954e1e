"""Exception types shared across the package."""


class InfluenceMarketError(Exception):
    """Base class for all errors raised by this package."""


class InvalidValue(InfluenceMarketError, ValueError):
    """An argument has a value the operation cannot accept: a non-finite
    number, a negative count or coefficient, or a repeated arrival index.
    Also a ValueError, so ``except ValueError`` catches it."""


class DimensionMismatch(InfluenceMarketError):
    """Feature vector or parameter dimensions do not agree."""


class SingularDesign(InfluenceMarketError):
    """The augmented Gram matrix is not invertible (and no ridge was supplied)."""


class EmptyDataset(InfluenceMarketError):
    """An operation that needs at least one point received an empty dataset."""


class IndexOutOfRange(InfluenceMarketError):
    """A point index does not address any point in the dataset."""


class InsufficientInitialization(InfluenceMarketError):
    """Too few initialization points to define a starting model."""


class EmptyStream(InfluenceMarketError):
    """The mechanism was started on an empty report stream."""


class DomainError(InfluenceMarketError):
    """A numeric argument lies outside the domain of the requested function."""


class MissingColumn(InfluenceMarketError):
    """A column named by the schema is absent from the CSV header."""


class NonNumericCell(InfluenceMarketError):
    """A cell could not be parsed as a number (carries row/column coordinates)."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class EmptyAfterFiltering(InfluenceMarketError):
    """Row filtering (NA policy, column drops) removed every row."""


class IoError(InfluenceMarketError):
    """A file could not be read or written."""
