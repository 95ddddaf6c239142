"""Exception types shared across the package, and the integer check its configs share."""

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

    Anything else raises ``ConfigurationError`` naming ``what``.
    """
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral or least is not None and value < least:
        bound = "" if least is None else f" of at least {least}"
        raise ConfigurationError(f"{what} must be an integer{bound}, got {value!r}")
    return int(value)
