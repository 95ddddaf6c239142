"""Attention kernels with distance decay.

Covers causal retention in recurrent and parallel form, its bidirectional
variant, softmax attention weighted by a 2D Manhattan decay (full and
axis-decomposed), a depthwise local-context term, and the multi-head layer
that composes them. Kernels are pure functions; per-head and per-row work is
independent. Every Manhattan attention pass is one ``decayed_attention`` call,
which streams query rows in blocks and takes the decay as two axial kernels
over token offsets, so no N x N array is kept.

Score/apply cost: full attention spends 2*N^2*d MACs on an N-token grid while
the decomposed form spends 2*N*(H+W)*d, so decomposition wins for any square
grid with side above 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decay import (GridShape, _check_gamma, decay_axial_kernels, decay_bidirectional_1d,
                    decay_causal_1d)
from .errors import ConfigurationError, DimensionError, require_kind
from .tensor import (Tensor, concat, decayed_attention, depthwise_conv2d, hadamard, init_kernel,
                     init_weight, matmul, mul_scalar, reshape, slice_axis, transpose)

LCE_KERNEL = 5


@dataclass(frozen=True)
class MaSAConfig:
    """Shape and decay settings for one Manhattan self-attention layer."""

    dim: int
    num_heads: int
    decomposed: bool
    decay: tuple[float, ...]  # one rate per head, as ``gamma_schedule`` returns

    def __post_init__(self) -> None:
        for name, kind, least in (("dim", int, 1), ("num_heads", int, 1), ("decomposed", bool, None)):
            object.__setattr__(self, name, require_kind(f"masa {name}", getattr(self, name), kind, least))
        if self.dim % self.num_heads:
            raise ConfigurationError(f"dim {self.dim} is not divisible by num_heads {self.num_heads}")
        if not isinstance(self.decay, tuple):
            raise ConfigurationError(f"decay must be a tuple of one rate per head, got {self.decay!r}")
        if len(self.decay) != self.num_heads:
            raise ConfigurationError(
                f"decay schedule covers {len(self.decay)} heads but the layer has {self.num_heads}")
        for head, rate in enumerate(self.decay):
            _check_gamma(rate, f" of head {head}")

    @property
    def head_dim(self) -> int:
        return self.dim // self.num_heads


@dataclass
class MaSAParams:
    """Projection weights and the [k, k, dim] local-context kernel for one layer."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    lce_kernel_weights: Tensor


def init_masa_params(config: MaSAConfig, rng: np.random.Generator) -> MaSAParams:
    d = config.dim
    return MaSAParams(wq=init_weight(rng, d, d), wk=init_weight(rng, d, d),
                      wv=init_weight(rng, d, d), wo=init_weight(rng, d, d),
                      lce_kernel_weights=init_kernel(rng, d, LCE_KERNEL, LCE_KERNEL))


def _check_qkv(q: Tensor, k: Tensor, v: Tensor) -> tuple[int, int]:
    if q.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
        raise DimensionError(f"q, k, v must share one [L, d] shape, got {q.shape}, {k.shape}, {v.shape}")
    return q.shape


def retention_recurrent(q: Tensor, k: Tensor, v: Tensor, gamma: float) -> Tensor:
    """Causal decayed attention via the running state S_n = gamma*S_{n-1} + k_n^T v_n."""
    length, d = _check_qkv(q, k, v)
    gamma = _check_gamma(gamma)
    state = Tensor(np.zeros((d, d)))
    rows = []
    for n in range(length):
        kn = slice_axis(k, 0, n, n + 1)
        vn = slice_axis(v, 0, n, n + 1)
        qn = slice_axis(q, 0, n, n + 1)
        state = mul_scalar(state, gamma) + matmul(transpose(kn), vn)
        rows.append(matmul(qn, state))
    return concat(rows, axis=0)


def retention_parallel(q: Tensor, k: Tensor, v: Tensor, gamma: float) -> Tensor:
    """Same map as ``retention_recurrent`` computed as (Q K^T (.) D_causal) V."""
    length, _ = _check_qkv(q, k, v)
    d_causal = decay_causal_1d(length, gamma)
    return matmul(hadamard(matmul(q, transpose(k)), d_causal), v)


def bi_retention(q: Tensor, k: Tensor, v: Tensor, gamma: float) -> Tensor:
    """Retention without the causal mask: decay by |n - m| in both directions."""
    length, _ = _check_qkv(q, k, v)
    d_bi = decay_bidirectional_1d(length, gamma)
    return matmul(hadamard(matmul(q, transpose(k)), d_bi), v)


def token_image(x: Tensor, grid: GridShape) -> Tensor:
    """[N, ..., C] tokens as the channels-last [H, W, ..., C] map of their grid: one reshape."""
    if x.ndim < 2 or x.shape[0] != grid.size:
        raise DimensionError(f"expected [N, ..., C] tokens filling a {grid.height}x{grid.width} grid, "
                             f"got {x.shape}")
    return reshape(x, (grid.height, grid.width) + x.shape[1:])


def _check_rates(q: Tensor, gamma: float | tuple[float, ...] | None) -> None:
    if isinstance(gamma, tuple) and (q.ndim < 3 or q.shape[-2] != len(gamma)):
        raise DimensionError(f"{len(gamma)} decay rates need a head axis of that length "
                             f"just before the features, got {q.shape}")


def _kernels(grid: GridShape,
             gamma: float | tuple[float, ...] | None) -> tuple[np.ndarray, np.ndarray] | None:
    return None if gamma is None else decay_axial_kernels(grid, gamma)


def masa_full(q: Tensor, k: Tensor, v: Tensor, grid: GridShape,
              gamma: float | tuple[float, ...] | None) -> Tensor:
    """Softmax attention with a Manhattan decay prior over a 2D token grid.

    q, k and v are [N, ..., d] over the N tokens of ``grid``: tokens first,
    features last, and the axes between them a batch. Softmax runs row-wise
    first; the decay matrix then multiplies the weights entrywise and the rows
    are deliberately not renormalized. The logits are divided by sqrt(d) before
    the softmax, as ``decayed_attention`` does. ``gamma`` is one rate, None (no
    decay: plain softmax attention), or a tuple with one rate per entry of the
    axis just before the features (the heads), shared by any axes before it.
    The decay enters as its two axial kernels over token offsets
    (``decay_axial_kernels``), so no N x N matrix is built.
    """
    if q.shape[:1] != (grid.size,):
        raise DimensionError(f"expected [N, ..., d] tokens filling a {grid.height}x{grid.width} grid, "
                             f"got {q.shape}")
    _check_rates(q, gamma)
    return decayed_attention(q, k, v, _kernels(grid, gamma), axis=0)


def masa_decomposed(q: Tensor, k: Tensor, v: Tensor, grid: GridShape,
                    gamma: float | tuple[float, ...] | None) -> Tensor:
    """Axis-decomposed Manhattan attention: ``decayed_attention`` along each grid row, then each column.

    Takes q, k, v and ``gamma`` as ``masa_full`` does. Each axis applies softmax
    attention weighted by its own 1D decay matrix, the decay of a one-row grid.
    Because the 2D decay factors exactly over the axes, the spatial prior of
    the full form is preserved; with uniform attention weights the two forms
    coincide. Both passes attend over the same [H, W, ..., d] images of q and k:
    the row pass along the W axis (1), and the column pass along the H axis (0),
    with the row pass's output as its v. No grid axis is swapped by a copy.
    """
    _check_rates(q, gamma)
    qi, ki, vi = (token_image(t, grid) for t in (q, k, v))
    rows = decayed_attention(qi, ki, vi, _kernels(GridShape(1, grid.width), gamma), axis=1)
    out = decayed_attention(qi, ki, rows, _kernels(GridShape(1, grid.height), gamma), axis=0)
    return reshape(out, v.shape)


def lce(v: Tensor, grid: GridShape, kernel: Tensor) -> Tensor:
    """Local context enhancement: depthwise conv of V on its [H, W, d] grid map."""
    return reshape(depthwise_conv2d(token_image(v, grid), kernel), v.shape)


def masa_layer_forward(x: Tensor, params: MaSAParams, config: MaSAConfig,
                       grid: GridShape) -> Tensor:
    """Multi-head Manhattan attention layer.

    Projects Q, K, V and splits the channels into heads by a reshape,
    [N, heads, head_dim], a view of each projection. The heads run as the
    batch axis of one kernel call, each with its own decay rate: no head is
    sliced out, no head output is concatenated and nothing is transposed. The
    kernel (``masa_full`` or ``masa_decomposed``) follows the config. The
    depthwise local-context term of the undivided V is added to the merged
    heads, and the output projection is applied to the sum.
    """
    dim = config.dim
    if x.shape != (grid.size, dim):
        raise DimensionError(f"expected [{grid.size}, {dim}] tokens for the grid, got {x.shape}")
    square, k_sz = (dim, dim), (params.lce_kernel_weights.shape or (0,))[0]  # k is read from the weight
    for name, shape in (("wq", square), ("wk", square), ("wv", square), ("wo", square),
                        ("lce_kernel_weights", (k_sz, k_sz, dim))):
        if getattr(params, name).shape != shape:
            raise ConfigurationError(f"{name} must have shape {shape}, got {getattr(params, name).shape}")
    if k_sz % 2 == 0:
        raise ConfigurationError(f"lce_kernel_weights must have an odd kernel size, got {k_sz}")

    q, k, v = (matmul(x, wt) for wt in (params.wq, params.wk, params.wv))
    qh, kh, vh = (reshape(t, (grid.size, config.num_heads, config.head_dim)) for t in (q, k, v))
    out = (masa_decomposed if config.decomposed else masa_full)(qh, kh, vh, grid, config.decay)
    return matmul(reshape(out, x.shape) + lce(v, grid, params.lce_kernel_weights), params.wo)


def attention_score_apply_macs(mode: str, height: int, width: int, head_dim: int) -> int:
    """MACs spent on attention scores plus their application to values.

    Decay and softmax contribute only elementwise work and are excluded, so
    ``vanilla`` matches ``full`` exactly.
    """
    n = height * width
    if mode in ("full", "vanilla"):
        return 2 * n * n * head_dim
    if mode == "decomposed":
        return 2 * n * (height + width) * head_dim
    raise ConfigurationError(f"unknown attention mode {mode!r}; use full, decomposed, or vanilla")
