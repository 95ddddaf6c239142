"""Process set-up shared by the benchmark's entry points.

BLAS reads its thread count when numpy loads, so ``pin_threads`` must run
before anything imports numpy. The variables are overwritten rather than
defaulted, so a caller's OMP_NUM_THREADS cannot change the numbers.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREADS = 2
"""BLAS threads in every benchmark process except the one-thread baseline."""


def pin_threads(n: int) -> None:
    for var in ("MASA_KIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def use_checkout_sources() -> None:
    """Import masa_kit from the checkout's ``src/``; exit 1 if it is missing."""
    if not (SRC / "masa_kit" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'masa_kit'} not found; run from the root of a masa-kit checkout")
    sys.path.insert(0, str(SRC))
