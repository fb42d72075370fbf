"""Exception hierarchy. Everything raised on purpose derives from TeaYieldError."""

from contextlib import contextmanager


class TeaYieldError(Exception):
    """Base class for all errors this package raises deliberately."""


class DataError(TeaYieldError):
    """Malformed or out-of-contract input data (bad CSV, schema mismatch,
    out-of-range values, dimension mismatches)."""


class ConfigError(TeaYieldError):
    """Invalid configuration file, option, or parameter value."""


class FitError(TeaYieldError):
    """A model or transform could not be fitted on the given data."""


@contextmanager
def naming(where: str):
    """Raise a TeaYieldError raised inside again, of the same type, with
    ``where: `` in front of its message."""
    try:
        yield
    except TeaYieldError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
