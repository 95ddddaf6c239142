"""Dense float64 tensors with reverse-mode automatic differentiation.

Just large enough for spatial-decay attention experiments: batched matmul,
numerically stable softmax and cross-entropy, fused decayed-softmax attention
and normalization ops, elementwise arithmetic, reductions, shape moves, and 2D
convolutions, each with a hand-written adjoint. Feature maps are channels-last,
[H, W, C], so an image and its [H*W, C] token grid are one reshape apart. Every
operation that returns successfully yields finite values; NaN or Inf raises
``UsageError``.

An op's result is a node holding one edge per tracked parent: the parent and the
vector-Jacobian product (vjp) giving that parent's gradient. ``backward`` alone
sums gradients and frees them; after it, only leaves keep a ``grad``.

A ``Tensor`` is immutable after construction except for gradient population,
and a gradient tape must stay on the thread that built it. Multiply-accumulate
counts for matmul, linear, attention and convolution ops can be captured with
``count_macs``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    """Count MACs executed by matmul/linear/attention/conv ops inside the ``with`` block."""
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

    __slots__ = ("data", "requires_grad", "grad", "_edges", "_done")

    def __init__(self, data, requires_grad: bool = False) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise UsageError("tensor values must be finite (found NaN or Inf)")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._edges: tuple[tuple[Tensor, Callable[[np.ndarray], np.ndarray]], ...] = ()
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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; a scalar operand becomes a constant tensor, and negation is an exact * -1.0.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul_scalar(other, -1.0))

    def __neg__(self):
        return mul_scalar(self, -1.0)


def _ensure(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _result(data: np.ndarray, *edges: tuple[Tensor, Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """A node over ``data`` with each (parent, vjp) edge whose parent is tracked."""
    edges = tuple(e for e in edges if e[0].requires_grad)
    out = Tensor(data, requires_grad=bool(edges))
    out._edges = edges
    return out


def _one_pass(adjoint: Callable[[np.ndarray], dict[int, np.ndarray]]
              ) -> Callable[[int, np.ndarray], np.ndarray]:
    """``take(i, g)``: parent i's gradient from one ``adjoint(g)`` pass shared by an op's edges.

    ``adjoint`` maps the cotangent to {parent index: gradient} for the tracked parents,
    whose gradients share a rebuilt array. The first edge to run makes the pass, and
    each edge takes its own gradient from it.
    """
    pending: dict[int, np.ndarray] = {}

    def take(i: int, g: np.ndarray) -> np.ndarray:
        if not pending:
            pending.update(adjoint(g))
        return pending.pop(i)
    return take


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if squeeze:
        g = g.sum(axis=squeeze, keepdims=True)
    return g


def _broadcasts_to(target: tuple[int, ...], *shapes: tuple[int, ...]) -> bool:
    try:
        return np.broadcast_shapes(target, *shapes) == target
    except ValueError:
        return False


def _axes(a: Tensor, axes: Sequence[int], op: str) -> tuple[int, ...]:
    """``axes`` of ``a`` as non-negative indices; DimensionError if one is out of range or repeated."""
    out = tuple(ax + a.ndim if -a.ndim <= ax < 0 else ax for ax in axes)
    if not all(0 <= ax < a.ndim for ax in out) or len(set(out)) != len(out):
        raise DimensionError(f"{op}: axes {tuple(axes)} are out of range or repeated for shape {a.shape}")
    return out


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
    stack: list[tuple[Tensor, Iterator[tuple[Tensor, Callable]]]] = [(root, iter(root._edges))]
    while stack:
        node, edges = stack[-1]
        pushed = False
        for p, _ in edges:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._edges)))
                pushed = True
                break
        if not pushed:
            order.append(node)
            stack.pop()
    return GradTape(order)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tracked leaf the scalar ``loss`` depends on.

    Each node's edges run once, in reverse tape order, and then its own ``grad`` is
    freed: a node is a set of per-parent edges, and only leaves keep a gradient.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise UsageError("loss is detached: it does not depend on any tracked tensor")
    if loss._done:
        raise UsageError("backward already ran from this tensor; rebuild the graph first")
    tape = tape_for(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        for parent, vjp in node._edges:
            g = vjp(node.grad)
            # no gradient is written in place, so the first is kept as given, even a view
            parent.grad = g if parent.grad is None else parent.grad + g
        if node._edges:
            node.grad = None
    loss._done = True


# ---------------------------------------------------------------------------
# Elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    _broadcast_shape(a, b, "add")
    return _result(a.data + b.data, (a, lambda g: _unbroadcast(g, a.shape)),
                   (b, lambda g: _unbroadcast(g, b.shape)))


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; shapes must be equal or broadcastable."""
    a, b = _ensure(a), _ensure(b)
    _broadcast_shape(a, b, "hadamard")
    return _result(a.data * b.data, (a, lambda g: _unbroadcast(g * b.data, a.shape)),
                   (b, lambda g: _unbroadcast(g * a.data, b.shape)))


def mul_scalar(a: Tensor, c: float) -> Tensor:
    a = _ensure(a)
    c = float(c)
    return _result(a.data * c, (a, lambda g: g * c))


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian error linear unit, 0.5 * x * (1 + erf(x / sqrt(2))).

    ``scipy.special`` is imported on the first call, not with the package, so a
    process that runs no GELU never pays that import, the largest part of
    ``import masa_kit`` otherwise.
    """
    from scipy.special import erf

    a = _ensure(a)
    cdf = 0.5 * (1.0 + erf(a.data / _SQRT2))

    def vjp(g: np.ndarray) -> np.ndarray:
        # g * (cdf + x * pdf), bit for bit, in one fresh buffer
        out = a.data * a.data
        out *= -0.5
        np.exp(out, out=out)
        out *= _INV_SQRT_2PI
        out *= a.data
        out += cdf
        out *= g
        return out
    return _result(a.data * cdf, (a, vjp))


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
    return _result(data, (a, lambda g: _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape)),
                   (b, lambda g: _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape)))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: ``x`` is [N, Cin], ``w`` [Cin, Cout] and ``b`` [Cout].

    The bias is added in place into the matmul output, so the product alone is never
    a node. The MACs counted are those of the matmul, in the forward pass only.
    """
    x, w, b = _ensure(x), _ensure(w), _ensure(b)
    if x.ndim != 2 or w.ndim != 2:
        raise DimensionError(f"linear needs x [N, Cin] and w [Cin, Cout], got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"linear: inner dimensions disagree for {x.shape} and {w.shape}")
    if b.shape != w.shape[1:]:
        raise DimensionError(f"linear bias must have shape ({w.shape[1]},), got {b.shape}")
    data = x.data @ w.data
    data += b.data
    _record_macs(x.shape[0] * x.shape[1] * w.shape[1])
    return _result(data, (x, lambda g: g @ w.data.T), (w, lambda g: x.data.T @ g),
                   (b, lambda g: _unbroadcast(g, b.shape)))


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    a = _ensure(a)
    perm = _axes(a, axes, "transpose") if axes is not None else tuple(reversed(range(a.ndim)))
    if len(perm) != a.ndim:
        raise DimensionError(f"transpose: axes {tuple(axes)} do not permute the axes of shape {a.shape}")
    return _result(a.data.transpose(perm).copy(), (a, lambda g: g.transpose(tuple(np.argsort(perm)))))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """``a`` in ``shape``: a view of its data when numpy can give one, so no array is copied."""
    a = _ensure(a)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise DimensionError(f"cannot reshape {a.shape} into {shape}")
    return _result(a.data.reshape(shape), (a, lambda g: g.reshape(a.shape)))


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [_ensure(p) for p in parts]
    if not parts:
        raise DimensionError("concat needs at least one tensor")
    axis = _axes(parts[0], (axis,), "concat")[0]
    shapes = [p.shape for p in parts]
    if any(len(s) != len(shapes[0]) or s[:axis] + s[axis + 1:] != shapes[0][:axis] + shapes[0][axis + 1:]
           for s in shapes):
        raise DimensionError(f"concat: shapes {shapes} disagree off axis {axis}")
    data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def part(start: int, stop: int) -> Callable[[np.ndarray], np.ndarray]:
        index = [slice(None)] * data.ndim
        index[axis] = slice(start, stop)
        return lambda g: g[tuple(index)]
    return _result(data, *((p, part(start, stop)) for p, start, stop in zip(parts, offsets[:-1], offsets[1:])))


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    a = _ensure(a)
    axis = _axes(a, (axis,), "slice_axis")[0]
    if not (0 <= start < stop <= a.shape[axis]):
        raise DimensionError(f"slice [{start}:{stop}] is out of range for axis {axis} of {a.shape}")
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)

    def vjp(g: np.ndarray) -> np.ndarray:
        full = np.zeros_like(a.data)
        full[tuple(index)] = g
        return full
    return _result(a.data[tuple(index)].copy(), (a, vjp))


# ---------------------------------------------------------------------------
# Reductions and normalizing maps


def sum_all(a: Tensor) -> Tensor:
    a = _ensure(a)
    return _result(a.data.sum(), (a, lambda g: np.broadcast_to(g, a.shape).copy()))


def _reciprocal_count(a: Tensor, axes: tuple[int, ...], op: str) -> float:
    """1 / the number of entries a mean over ``axes`` of ``a`` averages; DimensionError if none."""
    count = int(np.prod([a.shape[ax] for ax in axes], dtype=np.int64))
    if count == 0:
        raise DimensionError(f"{op}: axes {axes} of shape {a.shape} hold no entries to average")
    return 1.0 / count


def mean_axes(a: Tensor, axes: tuple[int, ...], keepdims: bool = False) -> Tensor:
    """Mean over ``axes``, computed as the sum times 1 / count."""
    a = _ensure(a)
    axes = _axes(a, axes, "mean_axes")
    scale = _reciprocal_count(a, axes, "mean_axes")

    def vjp(g: np.ndarray) -> np.ndarray:
        g = g * scale
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, a.shape).copy()
    return _result(a.data.sum(axis=axes, keepdims=keepdims) * scale, (a, vjp))


NORM_EPS = 1e-6


def normalize(x: Tensor, axes: tuple[int, ...], gain: Tensor, bias: Tensor) -> Tensor:
    """x_hat * gain + bias, with x_hat = (x - mean) * inv and inv = (var + NORM_EPS) ** -0.5 over ``axes``.

    ``gain`` and ``bias`` broadcast to the shape of ``x``. The adjoint is the layer-norm
    one (Ba et al., 2016): dx = inv * (gx - mean(gx) - x_hat * mean(gx * x_hat)), gx = g * gain.
    The tape keeps only ``inv``: one adjoint pass serves the ``x`` and ``gain`` edges and
    rebuilds x_hat from ``x`` with the forward's own expressions, so bit for bit.
    """
    x, gain, bias = _ensure(x), _ensure(gain), _ensure(bias)
    if not _broadcasts_to(x.shape, gain.shape, bias.shape):
        raise DimensionError(f"normalize: gain {gain.shape} and bias {bias.shape} "
                             f"do not broadcast to {x.shape}")
    axes = _axes(x, axes, "normalize")
    scale = _reciprocal_count(x, axes, "normalize")

    def mean(t: np.ndarray) -> np.ndarray:
        return t.sum(axis=axes, keepdims=True) * scale

    def centered() -> np.ndarray:
        return x.data - mean(x.data)

    # x_hat * gain + bias, bit for bit, in the one buffer of x_hat, which the tape does not keep
    data = centered()
    inv = (mean(data * data) + NORM_EPS) ** -0.5
    data *= inv
    data *= gain.data
    data += bias.data

    def adjoint(g: np.ndarray) -> dict[int, np.ndarray]:
        x_hat = centered()
        x_hat *= inv
        grads = {}
        if gain.requires_grad:
            grads[1] = _unbroadcast(g * x_hat, gain.shape)
        if x.requires_grad:
            # inv * (gx - mean(gx) - x_hat * mean(gx * x_hat)), bit for bit, in the buffers of gx and x_hat
            gx = g * gain.data
            x_hat *= mean(gx * x_hat)
            gx -= mean(gx)
            gx -= x_hat
            gx *= inv
            grads[0] = gx
        return grads
    take = _one_pass(adjoint)  # dx and dgain share the rebuilt x_hat
    return _result(data, (x, lambda g: take(0, g)), (gain, lambda g: take(1, g)),
                   (bias, lambda g: _unbroadcast(g, bias.shape)))


def softmax_last(a: Tensor) -> Tensor:
    """Softmax over the last axis, computed with unconditional max-subtraction."""
    a = _ensure(a)
    if a.ndim < 1 or a.shape[-1] < 1:
        raise DimensionError(f"softmax_last needs a non-empty last axis, got shape {a.shape}")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    return _result(s, (a, lambda g: s * (g - (g * s).sum(axis=-1, keepdims=True))))


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """-log softmax(logits)[label] for 1D ``logits``; the adjoint is softmax minus one-hot."""
    logits = _ensure(logits)
    if logits.ndim != 1:
        raise UsageError(f"cross_entropy expects a 1D logits vector, got shape {logits.shape}")
    if isinstance(label, bool) or not isinstance(label, (int, np.integer)):
        raise UsageError(f"cross_entropy label must be an integer class index, got {label!r}")
    if not (0 <= label < logits.shape[0]):
        raise UsageError(f"label {label} is out of range for {logits.shape[0]} classes")
    shifted = logits.data - logits.data.max()
    y = shifted - np.log(np.exp(shifted).sum())

    def vjp(g: np.ndarray) -> np.ndarray:
        out = np.exp(y) * g
        out[label] -= g
        return out
    return _result(-y[label], (logits, vjp))


# ---------------------------------------------------------------------------
# Decayed softmax attention


def _row_blocks(batch: int, length: int) -> list[tuple[int, int]]:
    step = max(1, ATTENTION_BLOCK_ELEMENTS // max(1, batch * length))
    return [(start, min(start + step, length)) for start in range(0, length, step)]


def _decay_in_place(w: np.ndarray, a: np.ndarray, b: np.ndarray, start: int, stop: int) -> None:
    """Multiply w [..., rows, Ha*Wb] in place by rows start..stop of the Kronecker product
    of a [..., Ha, Ha] and b [..., Wb, Wb], one factor's rows at a time over a [Ha, Wb] view.
    """
    rows = np.arange(start, stop)
    ha, wb = a.shape[-1], b.shape[-1]
    grid = w.reshape(w.shape[:-1] + (ha, wb))  # a view: w is a fresh contiguous block
    b_rows = np.take(b, rows % wb, axis=-2)
    if ha == 1:  # a is one number per batch entry: fold it into b's rows, not into the block
        b_rows = b_rows * a
    else:
        grid *= np.take(a, rows // wb, axis=-2)[..., :, :, None]
    grid *= b_rows[..., :, None, :]


def decayed_attention(q: Tensor, k: Tensor, v: Tensor, factors: tuple[Tensor, Tensor] | None,
                      scale: float) -> Tensor:
    """softmax(scale * q k^T), times a decay D entrywise without renormalizing, applied to v.

    ``q`` and ``k`` are [..., L, d] and ``v`` is [..., L, dv], with the same
    leading (batch) axes. ``factors`` is None (no decay) or a pair of constant
    tensors a [..., Ha, Ha] and b [..., Wb, Wb] with Ha * Wb = L, whose leading
    axes broadcast to the batch; D is their Kronecker product,
    D[n, m] = a[n // Wb, m // Wb] * b[n % Wb, m % Wb].

    Query rows run in blocks of about ``ATTENTION_BLOCK_ELEMENTS`` logits. A
    row's softmax needs only its own keys, so the blocks are exact. Each block's
    exponentials are multiplied in place by the decay, built from the factor
    rows, and applied to v before the division by their row sum. One
    log-sum-exp per query row is kept, so the backward pass rebuilds each
    block's weights from q and k in three passes (a matmul, a subtraction, an
    exp): no [L, L] array outlives a block. The MACs counted are those of
    q k^T and of the weights times v, in the forward pass only.
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
        if not _broadcasts_to(batch, a.shape[:-2], b.shape[:-2]):
            raise DimensionError(f"decay factors {a.shape} and {b.shape} do not broadcast to batch {batch}")
        fa, fb = a.data, b.data
    qd, kd, vd = q.data, k.data, v.data
    kt = kd.swapaxes(-1, -2)
    n_batch = int(np.prod(batch, dtype=np.int64))
    blocks = _row_blocks(n_batch, length)
    data = np.empty(q.shape[:-1] + v.shape[-1:])
    lse = np.empty(q.shape[:-1] + (1,))
    for start, stop in blocks:
        rows = (Ellipsis, slice(start, stop), slice(None))
        e = (qd[rows] * scale) @ kt
        peak = e.max(axis=-1, keepdims=True)
        e -= peak
        np.exp(e, out=e)
        z = e.sum(axis=-1, keepdims=True)
        if fa is not None:
            _decay_in_place(e, fa, fb, start, stop)
        np.divide(e @ vd, z, out=data[rows])
        lse[rows] = peak + np.log(z)
    _record_macs(n_batch * length * length * (q.shape[-1] + v.shape[-1]))

    def adjoint(g: np.ndarray) -> dict[int, np.ndarray]:
        dq = np.empty_like(qd) if q.requires_grad else None
        dk = np.zeros_like(kd) if k.requires_grad else None
        dv = np.zeros_like(vd) if v.requires_grad else None
        vt = vd.swapaxes(-1, -2)
        # rowsum(dP * P) = rowsum(dW * W) = g . out per row, as rows are not renormalized
        delta = (g * data).sum(axis=-1, keepdims=True)
        for start, stop in blocks:
            rows = (Ellipsis, slice(start, stop), slice(None))
            p = (qd[rows] * scale) @ kt
            p -= lse[rows]
            np.exp(p, out=p)
            if dq is not None or dk is not None:
                ds = g[rows] @ vt
                if fa is not None:
                    _decay_in_place(ds, fa, fb, start, stop)
                ds -= delta[rows]
                ds *= p
                if dq is not None:
                    dq[rows] = ds @ kd
                if dk is not None:
                    dk += ds.swapaxes(-1, -2) @ qd[rows]
                del ds
            if dv is not None:
                if fa is not None:
                    _decay_in_place(p, fa, fb, start, stop)
                dv += p.swapaxes(-1, -2) @ g[rows]
        for grad in (dq, dk):
            if grad is not None:
                grad *= scale
        return {i: grad for i, grad in enumerate((dq, dk, dv)) if grad is not None}

    take = _one_pass(adjoint)  # dq, dk and dv share each block's rebuilt weights
    return _result(data, (q, lambda g: take(0, g)), (k, lambda g: take(1, g)), (v, lambda g: take(2, g)))


# ---------------------------------------------------------------------------
# Convolutions


def _pad_hw(a: np.ndarray, p: int) -> np.ndarray:
    """Zero-pad the two leading (spatial) axes of an [H, W, C] array by ``p`` on each side."""
    return np.pad(a, ((p, p), (p, p), (0, 0)))


def _depthwise_rows(xp: np.ndarray, kt: np.ndarray) -> np.ndarray:
    """Per-channel cross-correlation of a padded [Hp, Wp, C] map with ``kt`` [k, k, C].

    One einsum per kernel row i contracts the k taps of that row over the
    sliding windows of rows i..i+Ho, so the inner loop runs over contiguous
    channels. ``kt`` must be contiguous: a strided kernel view sends einsum
    down a slower path. Returns [Hp - k + 1, Wp - k + 1, C].
    """
    k = kt.shape[0]
    h = xp.shape[0] - k + 1
    win = sliding_window_view(xp, k, axis=1)  # [Hp, Wo, C, k]: the tap j runs last
    out = np.einsum("hwcj,jc->hwc", win[:h], kt[0])
    for i in range(1, k):
        out += np.einsum("hwcj,jc->hwc", win[i:i + h], kt[i])
    return out


def depthwise_conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-channel 2D cross-correlation with zero padding that preserves H and W.

    ``x`` is [H, W, C], ``kernel`` is [k, k, C] with odd k. The forward pass and
    the input adjoint are k row contractions each (``_depthwise_rows``), the
    adjoint over the padded cotangent with the kernel flipped in both axes; the
    kernel adjoint is k einsums of the cotangent against the windows of the input,
    which it pads again rather than keep the padded copy on the tape.
    """
    x, kernel = _ensure(x), _ensure(kernel)
    if x.ndim != 3 or kernel.ndim != 3:
        raise DimensionError(f"depthwise_conv2d needs [H,W,C] and [k,k,C], got {x.shape} and {kernel.shape}")
    h, w, c = x.shape
    kh, kw, ck = kernel.shape
    if kh != kw:
        raise DimensionError(f"depthwise kernel must be square, got {kernel.shape}")
    if kh % 2 == 0:
        raise ConfigurationError(f"depthwise kernel size must be odd, got {kh}")
    if ck != c:
        raise DimensionError(f"channel mismatch: input has {c} channels, kernel has {ck}")
    pad = kh // 2
    data = _depthwise_rows(_pad_hw(x.data, pad), np.ascontiguousarray(kernel.data))
    _record_macs(c * h * w * kh * kw)

    def vjp_x(g: np.ndarray) -> np.ndarray:
        flipped = np.ascontiguousarray(kernel.data[::-1, ::-1])
        return _depthwise_rows(_pad_hw(g, pad), flipped)

    def vjp_kernel(g: np.ndarray) -> np.ndarray:
        win = sliding_window_view(_pad_hw(x.data, pad), kw, axis=1)
        kg = np.empty_like(kernel.data)
        for i in range(kh):
            kg[i] = np.einsum("hwc,hwcj->jc", g, win[i:i + h])
        return kg
    return _result(data, (x, vjp_x), (kernel, vjp_kernel))


def _conv_setting(name: str, value, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ConfigurationError(f"conv2d {name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int, padding: int) -> Tensor:
    """2D cross-correlation plus a per-channel bias: [H,W,Cin] with [k,k,Cin,Cout] -> [Ho,Wo,Cout].

    Lowered to one matmul over an im2col matrix [Ho*Wo, k*k*Cin] whose columns run in
    (i, j, cin) order, so the gather and the input adjoint's scatter move whole
    contiguous channel vectors; the weight, viewed as [k*k*Cin, Cout], is the other operand.
    The tape keeps neither the im2col matrix nor the padded input: the weight adjoint
    rebuilds the matrix from the input.
    """
    x, weight, bias = _ensure(x), _ensure(weight), _ensure(bias)
    if x.ndim != 3 or weight.ndim != 4:
        raise DimensionError(f"conv2d needs [H,W,Cin] and [k,k,Cin,Cout], got {x.shape} and {weight.shape}")
    h, w, cin = x.shape
    kh, kw, cin_w, cout = weight.shape
    if cin_w != cin:
        raise DimensionError(f"channel mismatch: input has {cin} channels, weight expects {cin_w}")
    if kh != kw:
        raise DimensionError(f"conv2d kernel must be square, got {weight.shape}")
    if bias.shape != (cout,):
        raise DimensionError(f"conv2d bias must have shape ({cout},), got {bias.shape}")
    s, p, k = _conv_setting("stride", stride, 1), _conv_setting("padding", padding, 0), kh
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    if ho < 1 or wo < 1:
        raise DimensionError(f"conv2d output would be empty for input {x.shape}, k={k}, stride={s}, padding={p}")

    def im2col() -> np.ndarray:
        windows = sliding_window_view(_pad_hw(x.data, p), (k, k), axis=(0, 1))[::s, ::s]  # [Ho, Wo, Cin, k, k]
        return windows.transpose(0, 1, 3, 4, 2).reshape(ho * wo, k * k * cin)
    data = (im2col() @ weight.data.reshape(-1, cout)).reshape(ho, wo, cout) + bias.data
    _record_macs(cout * ho * wo * cin * k * k)

    def vjp_x(g: np.ndarray) -> np.ndarray:
        dcols = (g.reshape(ho * wo, cout) @ weight.data.reshape(-1, cout).T).reshape(ho, wo, k, k, cin)
        gxp = np.zeros((h + 2 * p, w + 2 * p, cin))
        for i in range(k):
            for j in range(k):
                gxp[i:i + s * ho:s, j:j + s * wo:s] += dcols[:, :, i, j]
        return gxp[p:p + h, p:p + w]

    def vjp_weight(g: np.ndarray) -> np.ndarray:
        # (g^T cols)^T runs faster than cols^T g on the tall im2col matrices of the stem
        return (g.reshape(ho * wo, cout).T @ im2col()).T.reshape(weight.shape)
    return _result(data, (weight, vjp_weight), (x, vjp_x), (bias, lambda g: g.sum(axis=(0, 1))))


# ---------------------------------------------------------------------------
# Initialization helpers


INIT_STD = 0.02


def trunc_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Normal(0, INIT_STD) samples resampled until they land within two deviations.

    The draw order is part of the contract: one draw of the whole array, then
    one draw per round for the entries still out of range, filled in ascending
    flat index order. Changing it changes every seed's weights.
    """
    x = rng.normal(0.0, INIT_STD, size=shape)
    flat = x.reshape(-1)
    idx = np.flatnonzero(np.abs(flat) > 2.0 * INIT_STD)
    while idx.size:
        redraw = rng.normal(0.0, INIT_STD, size=idx.size)
        flat[idx] = redraw
        idx = idx[np.abs(redraw) > 2.0 * INIT_STD]
    return x


def init_weight(rng: np.random.Generator, *shape: int) -> Tensor:
    """A trainable weight of ``shape``, drawn by ``trunc_normal``."""
    return Tensor(trunc_normal(rng, shape), requires_grad=True)


def init_kernel(rng: np.random.Generator, *shape: int) -> Tensor:
    """``init_weight``'s draw of [Cout, Cin, k, k] or [C, k, k], stored as [k, k, Cin, Cout] or [k, k, C]."""
    return Tensor(np.ascontiguousarray(trunc_normal(rng, shape).T.swapaxes(0, 1)), requires_grad=True)
