"""Exception types, the process exit codes the CLI maps them to, and the
one way to add context to an error.

The class alone decides the exit code: ConfigError and its subclasses
exit 2, DataError and its subclasses exit 3, anything else exits 4.
"""

from contextlib import contextmanager

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


class FuzzylocError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(FuzzylocError):
    """Unusable experiment configuration or CLI invocation."""


class InvalidInputError(ConfigError):
    """An operation was called with arguments that violate its contract."""


class SchemaError(ConfigError):
    """Input table does not provide the requested columns or label format."""


class DataError(FuzzylocError):
    """Data content cannot be used (unparseable cells, empty file, ...)."""


class InsufficientDataError(DataError):
    """Too few instances for the requested computation."""


class ZeroFiringError(FuzzylocError):
    """No rule fired for the given observation."""


class RuleBaseFormatError(DataError):
    """Rule-base document is malformed or violates a structural invariant."""


class RuleBaseVersionError(DataError):
    """Rule-base document was written with an unsupported format version."""


@contextmanager
def prefixed(prefix, catch=FuzzylocError, as_type=None):
    """Re-raise an error of the catch type(s) raised in the block as
    as_type (by default its own class), its message prefixed with prefix."""
    try:
        yield
    except catch as exc:
        raise (as_type or type(exc))(f"{prefix}: {exc}") from exc
