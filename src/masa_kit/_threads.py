"""Worker-count pinning via MASA_KIT_THREADS.

BLAS backends read their thread settings when they load, so this must run
before numpy is imported anywhere in the process. The package __init__
imports this module first. Only a positive integer is forwarded to the BLAS
variables; ``workers`` refuses any other value, and the CLI calls it first.
"""

import os

from .errors import ConfigurationError

_VALUE = os.environ.get("MASA_KIT_THREADS", "")
_VALID = _VALUE.isascii() and _VALUE.isdigit() and int(_VALUE) > 0

if _VALID:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, str(int(_VALUE)))


def workers() -> str:
    """The pinned worker count, or "default" when MASA_KIT_THREADS is unset or empty.

    Raises ``ConfigurationError`` when the variable holds anything but a positive integer.
    """
    if not _VALUE:
        return "default"
    if not _VALID:
        raise ConfigurationError(f"MASA_KIT_THREADS must be a positive integer, got {_VALUE!r}")
    return str(int(_VALUE))
