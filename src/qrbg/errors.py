"""Exception hierarchy shared across the package.

Each class maps to one CLI exit code (see cli.EXIT_CODES).
"""


class QrbgError(Exception):
    """Base class for all package-specific errors."""


class InvalidStateError(QrbgError):
    """A Stokes vector violates physicality constraints."""


class InvalidDecompositionError(QrbgError):
    """Decomposition weights are negative or do not sum to one."""


class ParameterError(QrbgError):
    """An argument is outside its documented range."""


class InsufficientDataError(QrbgError):
    """Not enough samples to run an estimator or statistical test."""


class EmptyInputError(InsufficientDataError):
    """An operation received an empty log or stream."""


class InsufficientEntropyError(QrbgError):
    """The certified entropy rate does not admit any extractor output."""


class ConfigError(QrbgError):
    """A pipeline configuration file is malformed or contains unknown keys."""
