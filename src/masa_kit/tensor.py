"""Dense float64 tensors with reverse-mode automatic differentiation.

Just large enough for spatial-decay attention experiments: batched matmul,
numerically stable softmax, a fused decayed-softmax attention op, elementwise
arithmetic, reductions, shape moves, and 2D convolutions, each with a
hand-written adjoint. Feature maps are channels-last, [H, W, C], so an
image and its [H*W, C] token grid are one reshape apart. Every operation that
returns successfully yields finite values; NaN or Inf raises ``UsageError``.

A ``Tensor`` is immutable after construction except for gradient population,
and a gradient tape must stay on the thread that built it. Multiply-accumulate
counts for matmul, attention and convolution ops can be captured with
``count_macs``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from .errors import ConfigurationError, DimensionError, UsageError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Logits per block of query rows in ``decayed_attention``, summed over the
# batch axes: its working memory is a few float64 arrays of this many entries.
ATTENTION_BLOCK_ELEMENTS = 1 << 20


class MacCounter:
    """Running total of multiply-accumulate operations (one MAC = one FLOP)."""

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0


_MAC_STACK: list[MacCounter] = []


@contextmanager
def count_macs() -> Iterator[MacCounter]:
    """Count MACs executed by matmul/attention/conv ops inside the ``with`` block."""
    counter = MacCounter()
    _MAC_STACK.append(counter)
    try:
        yield counter
    finally:
        _MAC_STACK.remove(counter)


def _record_macs(n: int) -> None:
    for counter in _MAC_STACK:
        counter.total += n


class Tensor:
    """Row-major float64 array with optional gradient tracking.

    ``data`` must not be mutated after construction; optimizers replace the
    array wholesale between training steps instead of writing in place.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_done")

    def __init__(self, data, requires_grad: bool = False) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise UsageError("tensor values must be finite (found NaN or Inf)")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; scalars go through the *_scalar ops.
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return add_scalar(self, float(other))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return hadamard(self, other)
        return mul_scalar(self, float(other))

    __rmul__ = __mul__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return add_scalar(self, -float(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _ensure(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _result(data: np.ndarray, parents: Sequence[Tensor]) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    out._parents = tuple(p for p in parents if p.requires_grad)
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    # no gradient is written in place, so the first is kept as given, even a view
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if squeeze:
        g = g.sum(axis=squeeze, keepdims=True)
    return g


def _broadcast_shape(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


@dataclass
class GradTape:
    """Topologically ordered record of the operations reaching a tensor.

    Replaying ``nodes`` in reverse propagates adjoints so that every tracked
    leaf receives its gradient exactly once. Confined to one thread.
    """

    nodes: list[Tensor]


def tape_for(root: Tensor) -> GradTape:
    order: list[Tensor] = []
    seen = {id(root)}
    stack: list[tuple[Tensor, Iterator[Tensor]]] = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        pushed = False
        for p in parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                pushed = True
                break
        if not pushed:
            order.append(node)
            stack.pop()
    return GradTape(order)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tracked tensor the scalar ``loss`` depends on."""
    if loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise UsageError("loss is detached: it does not depend on any tracked tensor")
    if loss._done:
        raise UsageError("backward already ran from this tensor; rebuild the graph first")
    tape = tape_for(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    loss._done = True


# ---------------------------------------------------------------------------
# Elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    _broadcast_shape(a, b, "add")
    out = _result(a.data + b.data, (a, b))
    if out.requires_grad:
        def vjp(g: np.ndarray) -> None:
            if a.requires_grad:
                _accum(a, _unbroadcast(g, a.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(g, b.shape))
        out._backward = vjp
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, neg(b))


def neg(a: Tensor) -> Tensor:
    a = _ensure(a)
    out = _result(-a.data, (a,))
    if out.requires_grad:
        out._backward = lambda g: _accum(a, -g)
    return out


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; shapes must be equal or broadcastable."""
    a, b = _ensure(a), _ensure(b)
    _broadcast_shape(a, b, "hadamard")
    out = _result(a.data * b.data, (a, b))
    if out.requires_grad:
        def vjp(g: np.ndarray) -> None:
            if a.requires_grad:
                _accum(a, _unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(g * a.data, b.shape))
        out._backward = vjp
    return out


def mul_scalar(a: Tensor, c: float) -> Tensor:
    a = _ensure(a)
    c = float(c)
    out = _result(a.data * c, (a,))
    if out.requires_grad:
        out._backward = lambda g: _accum(a, g * c)
    return out


def add_scalar(a: Tensor, c: float) -> Tensor:
    a = _ensure(a)
    out = _result(a.data + float(c), (a,))
    if out.requires_grad:
        out._backward = lambda g: _accum(a, g)
    return out


def powf(a: Tensor, p: float) -> Tensor:
    """Elementwise power with float exponent (inputs must keep the result finite)."""
    a = _ensure(a)
    p = float(p)
    out = _result(a.data ** p, (a,))
    if out.requires_grad:
        out._backward = lambda g: _accum(a, g * p * a.data ** (p - 1.0))
    return out


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian error linear unit, 0.5 * x * (1 + erf(x / sqrt(2)))."""
    a = _ensure(a)
    cdf = 0.5 * (1.0 + erf(a.data / _SQRT2))
    out = _result(a.data * cdf, (a,))
    if out.requires_grad:
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT_2PI
        out._backward = lambda g: _accum(a, g * (cdf + a.data * pdf))
    return out


# ---------------------------------------------------------------------------
# Matrix products and shape moves


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; leading batch dims agree or broadcast from 1."""
    a, b = _ensure(a), _ensure(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner dimensions disagree for {a.shape} and {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise DimensionError(f"matmul: batch dimensions disagree for {a.shape} and {b.shape}") from None
    data = a.data @ b.data
    m, k, n = a.shape[-2], a.shape[-1], b.shape[-1]
    _record_macs(int(np.prod(data.shape[:-2], dtype=np.int64)) * m * k * n)
    out = _result(data, (a, b))
    if out.requires_grad:
        def vjp(g: np.ndarray) -> None:
            if a.requires_grad:
                _accum(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))
        out._backward = vjp
    return out


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    a = _ensure(a)
    perm = tuple(axes) if axes is not None else tuple(reversed(range(a.ndim)))
    out = _result(a.data.transpose(perm).copy(), (a,))
    if out.requires_grad:
        inverse = tuple(np.argsort(perm))
        out._backward = lambda g: _accum(a, g.transpose(inverse))
    return out


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = _ensure(a)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise DimensionError(f"cannot reshape {a.shape} into {shape}")
    out = _result(a.data.reshape(shape).copy(), (a,))
    if out.requires_grad:
        out._backward = lambda g: _accum(a, g.reshape(a.shape))
    return out


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [_ensure(p) for p in parts]
    if not parts:
        raise DimensionError("concat needs at least one tensor")
    out = _result(np.concatenate([p.data for p in parts], axis=axis), parts)
    if out.requires_grad:
        sizes = [p.shape[axis] for p in parts]
        offsets = np.cumsum([0] + sizes)

        def vjp(g: np.ndarray) -> None:
            for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
                if p.requires_grad:
                    index = [slice(None)] * g.ndim
                    index[axis] = slice(start, stop)
                    _accum(p, g[tuple(index)])
        out._backward = vjp
    return out


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    a = _ensure(a)
    if not (0 <= start < stop <= a.shape[axis]):
        raise DimensionError(f"slice [{start}:{stop}] is out of range for axis {axis} of {a.shape}")
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)
    out = _result(a.data[tuple(index)].copy(), (a,))
    if out.requires_grad:
        def vjp(g: np.ndarray) -> None:
            full = np.zeros_like(a.data)
            full[tuple(index)] = g
            _accum(a, full)
        out._backward = vjp
    return out


# ---------------------------------------------------------------------------
# Reductions and normalizing maps


def sum_all(a: Tensor) -> Tensor:
    a = _ensure(a)
    out = _result(a.data.sum(), (a,))
    if out.requires_grad:
        out._backward = lambda g: _accum(a, np.broadcast_to(g, a.shape).copy())
    return out


def sum_axes(a: Tensor, axes: tuple[int, ...], keepdims: bool = False) -> Tensor:
    a = _ensure(a)
    axes = tuple(ax % a.ndim for ax in axes)
    out = _result(a.data.sum(axis=axes, keepdims=keepdims), (a,))
    if out.requires_grad:
        def vjp(g: np.ndarray) -> None:
            if not keepdims:
                g = np.expand_dims(g, axes)
            _accum(a, np.broadcast_to(g, a.shape).copy())
        out._backward = vjp
    return out


def mean_axes(a: Tensor, axes: tuple[int, ...], keepdims: bool = False) -> Tensor:
    a = _ensure(a)
    count = int(np.prod([a.shape[ax % a.ndim] for ax in axes], dtype=np.int64))
    return mul_scalar(sum_axes(a, axes, keepdims=keepdims), 1.0 / count)


def softmax_last(a: Tensor) -> Tensor:
    """Softmax over the last axis, computed with unconditional max-subtraction."""
    a = _ensure(a)
    if a.ndim < 1 or a.shape[-1] < 1:
        raise DimensionError(f"softmax_last needs a non-empty last axis, got shape {a.shape}")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    out = _result(s, (a,))
    if out.requires_grad:
        out._backward = lambda g: _accum(a, s * (g - (g * s).sum(axis=-1, keepdims=True)))
    return out


def log_softmax_last(a: Tensor) -> Tensor:
    a = _ensure(a)
    if a.ndim < 1 or a.shape[-1] < 1:
        raise DimensionError(f"log_softmax_last needs a non-empty last axis, got shape {a.shape}")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - logsum
    out = _result(y, (a,))
    if out.requires_grad:
        out._backward = lambda g: _accum(a, g - np.exp(y) * g.sum(axis=-1, keepdims=True))
    return out


# ---------------------------------------------------------------------------
# Decayed softmax attention


def _row_blocks(batch: int, length: int) -> list[tuple[int, int]]:
    step = max(1, ATTENTION_BLOCK_ELEMENTS // max(1, batch * length))
    return [(start, min(start + step, length)) for start in range(0, length, step)]


def _softmax_rows(q_rows: np.ndarray, kt: np.ndarray, scale: float) -> np.ndarray:
    s = q_rows @ kt
    s *= scale
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _decay_rows(a: np.ndarray, b: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start..stop of the Kronecker product of a [..., Ha, Ha] and b [..., Wb, Wb]."""
    rows = np.arange(start, stop)
    wb = b.shape[-1]
    block = np.take(a, rows // wb, axis=-2)[..., :, None] * np.take(b, rows % wb, axis=-2)[..., None, :]
    return block.reshape(block.shape[:-2] + (-1,))


def decayed_attention(q: Tensor, k: Tensor, v: Tensor, factors: tuple[Tensor, Tensor] | None,
                      scale: float) -> Tensor:
    """softmax(scale * q k^T), times a decay D entrywise without renormalizing, applied to v.

    ``q`` and ``k`` are [..., L, d] and ``v`` is [..., L, dv], with the same
    leading (batch) axes. ``factors`` is None (no decay) or a pair of constant
    tensors a [..., Ha, Ha] and b [..., Wb, Wb] with Ha * Wb = L, whose leading
    axes broadcast to the batch; D is their Kronecker product,
    D[n, m] = a[n // Wb, m // Wb] * b[n % Wb, m % Wb].

    Query rows run in blocks of about ``ATTENTION_BLOCK_ELEMENTS`` logits. A
    row's softmax needs only its own keys, so the blocks are exact, and the
    backward pass recomputes each block from q and k: no [L, L] array outlives
    a block. The MACs counted are those of q k^T and of the weights times v,
    in the forward pass only.
    """
    q, k, v = _ensure(q), _ensure(k), _ensure(v)
    if q.ndim < 2 or k.shape != q.shape or v.ndim != q.ndim or v.shape[:-1] != q.shape[:-1]:
        raise DimensionError(f"decayed_attention needs q, k [..., L, d] and v [..., L, dv], "
                             f"got {q.shape}, {k.shape}, {v.shape}")
    batch, length = q.shape[:-2], q.shape[-2]
    fa = fb = None
    if factors is not None:
        a, b = (_ensure(f) for f in factors)
        if a.requires_grad or b.requires_grad:
            raise UsageError("decay factors are constants; they take no gradient")
        if (a.ndim < 2 or b.ndim < 2 or a.shape[-1] != a.shape[-2] or b.shape[-1] != b.shape[-2]
                or a.shape[-1] * b.shape[-1] != length):
            raise DimensionError(f"decay factors {a.shape} and {b.shape} do not span {length} keys")
        try:
            fits = np.broadcast_shapes(a.shape[:-2], b.shape[:-2], batch) == batch
        except ValueError:
            fits = False
        if not fits:
            raise DimensionError(f"decay factors {a.shape} and {b.shape} do not broadcast to batch {batch}")
        fa, fb = a.data, b.data
    qd, kd, vd = q.data, k.data, v.data
    kt = kd.swapaxes(-1, -2)
    n_batch = int(np.prod(batch, dtype=np.int64))
    blocks = _row_blocks(n_batch, length)
    data = np.empty(q.shape[:-1] + v.shape[-1:])
    for start, stop in blocks:
        w = _softmax_rows(qd[..., start:stop, :], kt, scale)
        if fa is not None:
            w *= _decay_rows(fa, fb, start, stop)
        data[..., start:stop, :] = w @ vd
    _record_macs(n_batch * length * length * (q.shape[-1] + v.shape[-1]))
    out = _result(data, (q, k, v))
    if out.requires_grad:
        def vjp(g: np.ndarray) -> None:
            dq = np.empty_like(qd) if q.requires_grad else None
            dk = np.zeros_like(kd) if k.requires_grad else None
            dv = np.zeros_like(vd) if v.requires_grad else None
            vt = vd.swapaxes(-1, -2)
            # rowsum(dP * P) = rowsum(dW * W) = g . out per row, as rows are not renormalized
            delta = (g * data).sum(axis=-1, keepdims=True)
            for start, stop in blocks:
                rows = (Ellipsis, slice(start, stop), slice(None))
                p = _softmax_rows(qd[rows], kt, scale)
                decay = _decay_rows(fa, fb, start, stop) if fa is not None else None
                if dv is not None:
                    w = p if decay is None else p * decay
                    dv += w.swapaxes(-1, -2) @ g[rows]
                    del w
                if dq is None and dk is None:
                    continue
                ds = g[rows] @ vt
                if decay is not None:
                    ds *= decay
                ds -= delta[rows]
                ds *= p
                ds *= scale
                if dq is not None:
                    dq[rows] = ds @ kd
                if dk is not None:
                    dk += ds.swapaxes(-1, -2) @ qd[rows]
            for t, grad in ((q, dq), (k, dk), (v, dv)):
                if grad is not None:
                    _accum(t, grad)
        out._backward = vjp
    return out


# ---------------------------------------------------------------------------
# Convolutions


def depthwise_conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-channel 2D cross-correlation with zero padding that preserves H and W.

    ``x`` is [H, W, C], ``kernel`` is [C, k, k] with odd k.
    """
    x, kernel = _ensure(x), _ensure(kernel)
    if x.ndim != 3 or kernel.ndim != 3:
        raise DimensionError(f"depthwise_conv2d needs [H,W,C] and [C,k,k], got {x.shape} and {kernel.shape}")
    h, w, c = x.shape
    ck, kh, kw = kernel.shape
    if kh != kw:
        raise DimensionError(f"depthwise kernel must be square, got {kernel.shape}")
    if kh % 2 == 0:
        raise ConfigurationError(f"depthwise kernel size must be odd, got {kh}")
    if ck != c:
        raise DimensionError(f"channel mismatch: input has {c} channels, kernel has {ck}")
    pad = kh // 2
    xp = np.pad(x.data, ((pad, pad), (pad, pad), (0, 0)))
    data = np.zeros_like(x.data)
    for i in range(kh):
        for j in range(kw):
            data += kernel.data[:, i, j] * xp[i:i + h, j:j + w]
    _record_macs(c * h * w * kh * kw)
    out = _result(data, (x, kernel))
    if out.requires_grad:
        def vjp(g: np.ndarray) -> None:
            if x.requires_grad:
                gp = np.zeros_like(xp)
                for i in range(kh):
                    for j in range(kw):
                        gp[i:i + h, j:j + w] += kernel.data[:, i, j] * g
                _accum(x, gp[pad:pad + h, pad:pad + w])
            if kernel.requires_grad:
                kg = np.empty_like(kernel.data)
                for i in range(kh):
                    for j in range(kw):
                        kg[:, i, j] = (g * xp[i:i + h, j:j + w]).sum(axis=(0, 1))
                _accum(kernel, kg)
        out._backward = vjp
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2D cross-correlation: [H,W,Cin] with [Cout,Cin,k,k] -> [Ho,Wo,Cout]."""
    x, weight = _ensure(x), _ensure(weight)
    if x.ndim != 3 or weight.ndim != 4:
        raise DimensionError(f"conv2d needs [H,W,Cin] and [Cout,Cin,k,k], got {x.shape} and {weight.shape}")
    h, w, cin = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin_w != cin:
        raise DimensionError(f"channel mismatch: input has {cin} channels, weight expects {cin_w}")
    if kh != kw:
        raise DimensionError(f"conv2d kernel must be square, got {weight.shape}")
    s, p, k = int(stride), int(padding), kh
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    if ho < 1 or wo < 1:
        raise DimensionError(f"conv2d output would be empty for input {x.shape}, k={k}, stride={s}, padding={p}")
    xp = np.pad(x.data, ((p, p), (p, p), (0, 0)))
    # windows are [Ho, Wo, Cin, k, k]: one row of cols per output pixel, columns in (cin, i, j) order
    cols = sliding_window_view(xp, (k, k), axis=(0, 1))[::s, ::s].reshape(ho * wo, cin * k * k)
    wmat = weight.data.reshape(cout, cin * k * k)
    data = (cols @ wmat.T).reshape(ho, wo, cout)
    _record_macs(cout * ho * wo * cin * k * k)
    if bias is not None:
        bias = _ensure(bias)
        if bias.shape != (cout,):
            raise DimensionError(f"conv2d bias must have shape ({cout},), got {bias.shape}")
        data = data + bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _result(data, parents)
    if out.requires_grad:
        def vjp(g: np.ndarray) -> None:
            gmat = g.reshape(ho * wo, cout)
            if weight.requires_grad:
                _accum(weight, (gmat.T @ cols).reshape(weight.shape))
            if x.requires_grad:
                dcols = (gmat @ wmat).reshape(ho, wo, cin, k, k)
                gxp = np.zeros_like(xp)
                for i in range(k):
                    for j in range(k):
                        gxp[i:i + s * ho:s, j:j + s * wo:s] += dcols[..., i, j]
                _accum(x, gxp[p:p + h, p:p + w])
            if bias is not None and bias.requires_grad:
                _accum(bias, g.sum(axis=(0, 1)))
        out._backward = vjp
    return out


# ---------------------------------------------------------------------------
# Initialization helpers


def trunc_normal(rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02) -> np.ndarray:
    """Normal(0, std) samples resampled until they land within two deviations."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2.0 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2.0 * std
    return x
