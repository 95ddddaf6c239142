"""Exception types shared across the package, and the kind checks its configs share."""

import numbers


class MasaKitError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(MasaKitError, ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class ConfigurationError(MasaKitError, ValueError):
    """A configuration value is outside its legal range."""


class UsageError(MasaKitError, RuntimeError):
    """An API was called in a way its contract forbids."""


class TrainingError(MasaKitError, RuntimeError):
    """Training hit non-finite state; the message names the step."""


def require_integer(what: str, value, least: int | None = None) -> int:
    """``value`` as an ``int`` if it is an int or numpy integer (not a bool) of at least ``least``.

    The one statement of the integer rule and its count floors. A value of another kind raises
    ``ConfigurationError`` "<what> must be an integer, got <value>"; one below ``least`` raises
    "<what> must be at least <least>, got <value>".
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigurationError(f"{what} must be at least {least}, got {value}")
    return int(value)


def require_kind(what: str, value, kind: type, least: int | None = None):
    """``value`` checked as ``kind`` (int, float or bool), or ``ConfigurationError`` naming ``what``.

    An int goes through ``require_integer`` with the floor ``least``. A float is a real number in
    the float range but not a bool, and comes back unchanged. A bool is a Python or numpy bool, and
    comes back as ``bool``. The config types and the config reader state no kind rule of their own.
    """
    if kind is int:
        return require_integer(what, value, least)
    if kind is float:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            try:
                float(value)
                return value
            except OverflowError:  # an integer beyond the float range
                pass
        raise ConfigurationError(f"{what} must be a real number in the float range, got {value!r}")
    import numpy as np  # loaded by then; a module-level import would precede _threads

    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ConfigurationError(f"{what} must be a bool, got {value!r}")
