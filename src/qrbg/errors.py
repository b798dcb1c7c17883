"""Exception hierarchy shared across the package.

Each class carries the exit code the CLI ends with when it is raised.
"""


class QrbgError(Exception):
    """Base class for all package-specific errors; raised itself, it is a
    failed internal check."""

    exit_code = 5


class ParameterError(QrbgError):
    """An argument, a configuration value or an input file's content is
    outside its documented range."""


class InsufficientDataError(QrbgError):
    """Not enough samples to run an estimator or statistical test."""

    exit_code = 3


class InsufficientEntropyError(QrbgError):
    """The certified entropy rate does not admit any extractor output."""

    exit_code = 2
