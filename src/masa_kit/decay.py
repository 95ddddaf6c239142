"""Spatial decay constructors for distance-weighted attention.

Builds the per-head decay-rate schedule, 1D causal and bidirectional decay
matrices, the 2D Manhattan-distance decay matrix over a token grid, and its
exact axial factorization (the Kronecker product of the two 1D bidirectional
matrices reproduces the 2D matrix entrywise). The attention kernels take the
factorization as two axial kernels over token offsets, the centre profiles of
those 1D matrices.

All functions are pure and safe to call concurrently. Matrices come back as
constant (non-tracked) tensors.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, require_integer, require_kind
from .tensor import Tensor


@dataclass(frozen=True)
class GridShape:
    """Token-grid geometry: flat index n maps to (x, y) = (n mod W, n div W)."""

    height: int
    width: int

    def __post_init__(self) -> None:
        for name in ("height", "width"):
            object.__setattr__(self, name, require_integer(f"grid {name}", getattr(self, name), 1))

    @property
    def size(self) -> int:
        return self.height * self.width

    def coords(self, n):
        """(x, y) coordinates of flat token index n (row-major, y major); n may be an array."""
        return n % self.width, n // self.width


def gamma_schedule(lower: float, upper: float, num_heads: int) -> tuple[float, ...]:
    """One decay rate per head, spread over the exponent range (lower, upper].

    Head i of N receives rate 1 - 2**-(lower + (upper - lower) * i / N) for
    i = 1..N, so rates increase strictly with the head index and the last head
    lands exactly on 1 - 2**-upper: receptive scale grows per head. Bounds whose
    rates round to 0 or 1 in float64 are refused.
    """
    require_kind("lower", lower, float)
    require_kind("upper", upper, float)
    num_heads = require_integer("num_heads", num_heads, 1)
    if not (0.0 < lower < upper):
        raise ConfigurationError(f"need 0 < lower < upper, got lower={lower}, upper={upper}")
    exponents = [lower + (upper - lower) * i / num_heads for i in range(1, num_heads + 1)]
    exponents[-1] = upper  # keep the endpoint exact despite float rounding
    return tuple(_check_gamma(1.0 - 2.0 ** -float(e), f" from lower={lower}, upper={upper}")
                 for e in exponents)


def _check_gamma(gamma: float, source: str = "") -> float:
    if not isinstance(gamma, numbers.Real):
        raise ConfigurationError(f"decay rate{source} must be a real number, got {gamma!r}")
    gamma = float(gamma)
    if not (0.0 < gamma < 1.0):
        raise ConfigurationError(f"decay rate{source} must lie strictly inside (0, 1), got {gamma}")
    return gamma


def decay_causal_1d(length: int, gamma: float) -> Tensor:
    """Lower-triangular decay: D[n, m] = gamma**(n - m) for n >= m, else 0."""
    gamma = _check_gamma(gamma)
    length = require_integer("length", length, 1)
    n = np.arange(length)
    delta = n[:, None] - n[None, :]
    d = np.where(delta >= 0, gamma ** np.maximum(delta, 0), 0.0)
    return Tensor(d)


def decay_bidirectional_1d(length: int, gamma: float) -> Tensor:
    """Symmetric decay with unit diagonal: D[n, m] = gamma**|n - m|."""
    gamma = _check_gamma(gamma)
    length = require_integer("length", length, 1)
    n = np.arange(length)
    return Tensor(gamma ** np.abs(n[:, None] - n[None, :]))


def decay_manhattan_2d(grid: GridShape, gamma: float) -> Tensor:
    """Decay by Manhattan distance between token-grid coordinates.

    D[n, m] = gamma**(|x_n - x_m| + |y_n - y_m|) under the row-major index map.
    """
    gamma = _check_gamma(gamma)
    x, y = grid.coords(np.arange(grid.size))
    dist = np.abs(x[:, None] - x[None, :]) + np.abs(y[:, None] - y[None, :])
    return Tensor(gamma ** dist)


def decay_axial_pair(grid: GridShape, gamma: float) -> tuple[Tensor, Tensor]:
    """1D decay matrices for the height and width axes of a grid, at one rate.

    Their Kronecker product (height factor first) equals the full Manhattan
    matrix, so splitting attention per axis keeps the same spatial prior.
    """
    return decay_bidirectional_1d(grid.height, gamma), decay_bidirectional_1d(grid.width, gamma)


def decay_axial_kernels(grid: GridShape, gamma: float | tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The decay along the height and width axes of a grid as kernels over token offsets.

    The height kernel is a[i] = gamma**|i - (H - 1)| for i < 2H - 1, the centre
    profile of the 1D bidirectional matrix, and the width kernel b likewise over
    2W - 1 offsets, so the Manhattan decay is
    D[n, m] = a[y_m - y_n + H - 1] * b[x_m - x_n + W - 1]: the form
    ``decayed_attention`` takes. A tuple of rates, one per head, gives the
    kernels stacked as [heads, 2H - 1] and [heads, 2W - 1].
    """
    if not isinstance(gamma, tuple):
        rates = _check_gamma(gamma)
    elif not gamma:
        raise ConfigurationError("a tuple of decay rates needs at least one rate")
    else:
        rates = np.array([_check_gamma(g, f" of head {i}") for i, g in enumerate(gamma)])[:, None]
    return tuple(rates ** np.abs(np.arange(1 - n, n)) for n in (grid.height, grid.width))
