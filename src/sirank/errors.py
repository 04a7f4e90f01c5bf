"""Exception types shared across the library."""


class SirankError(Exception):
    """Base class for library errors."""


class DomainError(SirankError):
    """A numeric input lies outside the mathematical domain of an operation."""


class ValidationError(SirankError):
    """A record or dataset violates a declared invariant."""


class ParseError(ValidationError):
    """A file could not be decoded; message carries the line number."""


class SchemaError(SirankError):
    """Feature schema mismatch (unknown feature, fingerprint conflict, ...)."""


class ConfigError(SirankError):
    """An invalid configuration value."""


class ContractError(SirankError):
    """A caller broke an API contract (unstandardized data, mismatched gradients, ...)."""


class TrainingError(SirankError):
    """Training aborted (non-finite loss or gradient); message carries context."""
