"""Exception types shared across the package."""


class FedAnomError(Exception):
    """Base class for all library errors."""


class ShapeError(FedAnomError, ValueError):
    """Array dimensions disagree with a declared contract."""


class ConfigError(FedAnomError, ValueError):
    """Invalid hyperparameter or configuration value."""


class DataError(FedAnomError, ValueError):
    """Invalid dataset input (empty, malformed, inconsistent)."""


class SchemaError(FedAnomError, ValueError):
    """CSV schema violation during ingestion."""


class NumericError(FedAnomError, ArithmeticError):
    """Non-finite or otherwise degenerate numeric state."""


class DivergenceError(NumericError):
    """Training produced a non-finite loss at the epoch and batch named."""


class DegenerateLossError(NumericError):
    """q-power reweighting hit a zero local loss with q > 0."""


class DegenerateAggregationError(NumericError):
    """Aggregation denominator collapsed to zero."""
