"""Attention kernels with distance decay.

Covers causal retention in recurrent and parallel form, its bidirectional
variant, softmax attention weighted by a 2D Manhattan decay (full and
axis-decomposed), a depthwise local-context term, and the multi-head layer
that composes them. Kernels are pure functions; per-head and per-row work is
independent. Every Manhattan attention pass is one ``decayed_attention`` call,
which streams query rows in blocks and takes the decay as axial factors, so
no N x N array is kept.

Score/apply cost: full attention spends 2*N^2*d MACs on an N-token grid while
the decomposed form spends 2*N*(H+W)*d, so decomposition wins for any square
grid with side above 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decay import (DecaySpec, GridShape, decay_axial_pair, decay_bidirectional_1d,
                    decay_causal_1d)
from .errors import ConfigurationError, DimensionError
from .tensor import (Tensor, concat, decayed_attention, depthwise_conv2d, hadamard, matmul,
                     mul_scalar, reshape, slice_axis, transpose, trunc_normal)


@dataclass(frozen=True)
class MaSAConfig:
    """Shape and decay settings for one Manhattan self-attention layer."""

    dim: int
    num_heads: int
    decomposed: bool
    decay: DecaySpec
    lce_kernel: int = 5

    def __post_init__(self) -> None:
        if self.dim < 1 or self.num_heads < 1:
            raise ConfigurationError(f"dim and num_heads must be positive, got {self.dim}, {self.num_heads}")
        if self.dim % self.num_heads:
            raise ConfigurationError(f"dim {self.dim} is not divisible by num_heads {self.num_heads}")
        if self.decay.num_heads != self.num_heads:
            raise ConfigurationError(
                f"decay schedule covers {self.decay.num_heads} heads but the layer has {self.num_heads}")
        if self.lce_kernel < 1 or self.lce_kernel % 2 == 0:
            raise ConfigurationError(f"lce_kernel must be odd and positive, got {self.lce_kernel}")

    @property
    def head_dim(self) -> int:
        return self.dim // self.num_heads


@dataclass
class MaSAParams:
    """Projection weights and the local-context kernel for one layer."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    lce_kernel_weights: Tensor


def init_masa_params(config: MaSAConfig, rng: np.random.Generator,
                     requires_grad: bool = True) -> MaSAParams:
    d, k = config.dim, config.lce_kernel
    def w(*shape):
        return Tensor(trunc_normal(rng, shape), requires_grad=requires_grad)
    return MaSAParams(wq=w(d, d), wk=w(d, d), wv=w(d, d), wo=w(d, d),
                      lce_kernel_weights=w(d, k, k))


def _check_qkv(q: Tensor, k: Tensor, v: Tensor, grid: GridShape | None = None) -> tuple[int, int]:
    if q.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
        raise DimensionError(f"q, k, v must share one [L, d] shape, got {q.shape}, {k.shape}, {v.shape}")
    if grid is not None and q.shape[0] != grid.size:
        raise DimensionError(f"{q.shape[0]} tokens do not fill a {grid.height}x{grid.width} grid")
    return q.shape


def retention_recurrent(q: Tensor, k: Tensor, v: Tensor, gamma: float) -> Tensor:
    """Causal decayed attention via the running state S_n = gamma*S_{n-1} + k_n^T v_n."""
    length, d = _check_qkv(q, k, v)
    if not (0.0 < float(gamma) < 1.0):
        raise ConfigurationError(f"decay rate must lie strictly inside (0, 1), got {gamma}")
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
    """[N, C] tokens as the channels-last [H, W, C] map of their grid: one reshape."""
    if x.ndim != 2 or x.shape[0] != grid.size:
        raise DimensionError(f"expected [N, C] tokens filling a {grid.height}x{grid.width} grid, "
                             f"got {x.shape}")
    return reshape(x, (grid.height, grid.width, x.shape[1]))


# The 1x1 outer factor that turns one axial decay into the factor pair of ``decayed_attention``.
_UNIT = Tensor(np.ones((1, 1)))


def _swap_grid_axes(t: Tensor) -> Tensor:
    """[..., H, W, d] -> [..., W, H, d]."""
    n = t.ndim
    return transpose(t, tuple(range(n - 3)) + (n - 2, n - 3, n - 1))


def _decomposed(q: Tensor, k: Tensor, v: Tensor, d_h: Tensor | None, d_w: Tensor | None,
                scale: float) -> Tensor:
    """Width pass per row, then height pass per column, of [..., H, W, d] tokens.

    Returns [..., W, H, d]; the caller's own transpose restores the grid order.
    """
    along_w = None if d_w is None else (_UNIT, d_w)
    along_h = None if d_h is None else (_UNIT, d_h)
    mixed = _swap_grid_axes(decayed_attention(q, k, v, along_w, scale))
    return decayed_attention(_swap_grid_axes(q), _swap_grid_axes(k), mixed, along_h, scale)


def masa_full(q: Tensor, k: Tensor, v: Tensor, grid: GridShape, gamma: float | None) -> Tensor:
    """Softmax attention with a Manhattan decay prior over a 2D token grid.

    Softmax runs row-wise first; the decay matrix then multiplies the weights
    entrywise and the rows are deliberately not renormalized. ``gamma=None``
    skips the decay entirely (plain softmax attention). The logits are divided
    by sqrt(d) before the softmax. The decay enters as its two axial factors,
    so no N x N matrix is built.
    """
    _, d = _check_qkv(q, k, v, grid)
    factors = decay_axial_pair(grid, gamma) if gamma is not None else None
    return decayed_attention(q, k, v, factors, 1.0 / math.sqrt(d))


def masa_decomposed(q: Tensor, k: Tensor, v: Tensor, grid: GridShape,
                    gamma: float | None) -> Tensor:
    """Axis-decomposed Manhattan attention: width pass per row, then height per column.

    Each axis applies softmax attention weighted by its own 1D decay matrix.
    Because the 2D decay factors exactly over the axes, the spatial prior of
    the full form is preserved; with uniform attention weights the two forms
    coincide.
    """
    n_tokens, d = _check_qkv(q, k, v, grid)
    d_h, d_w = decay_axial_pair(grid, gamma) if gamma is not None else (None, None)
    q3, k3, v3 = (token_image(t, grid) for t in (q, k, v))
    out = _decomposed(q3, k3, v3, d_h, d_w, 1.0 / math.sqrt(d))
    return reshape(_swap_grid_axes(out), (n_tokens, d))


def lce(v: Tensor, grid: GridShape, kernel: Tensor) -> Tensor:
    """Local context enhancement: depthwise conv of V on its [H, W, d] grid map."""
    return reshape(depthwise_conv2d(token_image(v, grid), kernel), v.shape)


def masa_layer_forward(x: Tensor, params: MaSAParams, config: MaSAConfig,
                       grid: GridShape) -> Tensor:
    """Multi-head Manhattan attention layer.

    Projects Q, K, V and splits the channels into heads that run as one batch
    axis, each with its own decay rate: the per-head axial decay factors are
    stacked and broadcast over the batch, so no head is sliced out and no
    head output is concatenated. The mode (full or decomposed) follows the
    config. The depthwise local-context term of the undivided V is added to
    the merged heads, and the output projection is applied to the sum.
    """
    dim = config.dim
    if x.shape != (grid.size, dim):
        raise DimensionError(f"expected [{grid.size}, {dim}] tokens for the grid, got {x.shape}")
    square, k_sz = (dim, dim), config.lce_kernel
    for name, shape in (("wq", square), ("wk", square), ("wv", square), ("wo", square),
                        ("lce_kernel_weights", (dim, k_sz, k_sz))):
        if getattr(params, name).shape != shape:
            raise ConfigurationError(f"{name} must have shape {shape}, got {getattr(params, name).shape}")

    q, k, v = (matmul(x, wt) for wt in (params.wq, params.wk, params.wv))
    heads, hd, gammas = config.num_heads, config.head_dim, config.decay.gammas
    scale = 1.0 / math.sqrt(hd)
    h, w = grid.height, grid.width
    d_h, d_w = (np.stack([decay_bidirectional_1d(n, g).data for g in gammas]) for n in (h, w))
    if config.decomposed:
        qh, kh, vh = (transpose(reshape(t, (h, w, heads, hd)), (2, 0, 1, 3)) for t in (q, k, v))
        out = _decomposed(qh, kh, vh, Tensor(d_h[:, None]), Tensor(d_w[:, None]), scale)
        out = transpose(out, (2, 1, 0, 3))
    else:
        qh, kh, vh = (transpose(reshape(t, (grid.size, heads, hd)), (1, 0, 2)) for t in (q, k, v))
        out = transpose(decayed_attention(qh, kh, vh, (Tensor(d_h), Tensor(d_w)), scale), (1, 0, 2))
    attn = reshape(out, (grid.size, dim))
    return matmul(attn + lce(v, grid, params.lce_kernel_weights), params.wo)


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
