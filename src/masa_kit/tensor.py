"""Dense float64 tensors with reverse-mode automatic differentiation.

Just large enough for spatial-decay attention experiments: batched matmul,
numerically stable softmax and cross-entropy, fused decayed-softmax attention
and normalization ops, elementwise arithmetic, reductions, shape moves, and 2D
convolutions, each with a hand-written adjoint. Feature maps are channels-last,
[H, W, C], so an image and its [H*W, C] token grid are one reshape apart. Every
operation that returns successfully yields finite values; NaN or Inf raises
``UsageError``.

A tracked tensor owns a gradient record: its ``grad``, the name of the op that
made it, and one edge per tracked parent, the parent's record and the
vector-Jacobian product (vjp) giving that parent's gradient. Each op hands
``_result`` one edge per parent, and ``_result`` alone keeps the tracked ones;
a fused op's edges share one adjoint pass that computes every parent's
gradient (``_shared``). The record refers back to its tensor only weakly, and
each vjp keeps only the arrays it reads, so the tape keeps a value only while
an adjoint or the caller holds it: an output whose consumers need only its
shape (``add``, ``reshape``, ``transpose``, ...) is freed as soon as the caller
drops it, during the forward. ``backward`` alone sums gradients and frees them;
after it, only leaves keep a ``grad``.

The tape is one-shot: once a record's edges have run, ``backward`` drops them,
so each saved array is freed as soon as no later adjoint reads it, and an op
record with no edges is used. A later ``backward`` through a used record raises
``UsageError`` before it writes any gradient; a fresh forward through the same
leaves builds a new tape. Inside ``no_grad()`` ops link no edges, so a forward
that no backward follows builds no tape.

``tape_for(root).records`` lists every record reaching ``root`` in creation
order, which is topological, and ``.nodes`` the tensors among them that are
still alive, so the values the tape really holds.

A ``Tensor``'s data is immutable after construction, and a gradient tape must
stay on the thread that built it. Multiply-accumulate counts for matmul,
linear, attention and convolution ops can be captured with ``count_macs``.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, DimensionError, UsageError, require_integer

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Logits per block of query rows in ``decayed_attention``, summed over the
# batch axes: its working memory is a few float64 arrays of this many entries.
ATTENTION_BLOCK_ELEMENTS = 1 << 20

# How far (in logits) a row's own diagonal logit may lie below its Cauchy-Schwarz
# bound before ``decayed_attention`` shifts that row by its exact maximum instead:
# within it, the largest exponential is at least e^-64 (1.6e-28), far above underflow.
SHIFT_MARGIN = 64.0

# Largest im2col matrix, in bytes, that ``conv2d``'s weight adjoint builds whole for
# one GEMM; above it the adjoint goes tap by tap, so its backward peak stays small.
CONV_IM2COL_BYTES = 4 << 20


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


Vjp = Callable[[np.ndarray], np.ndarray]
_SEQ = itertools.count()  # numbers the gradient records in creation order


class GradRecord:
    """The gradient state of one tracked tensor, apart from its value.

    ``op`` names the op that made the tensor ("leaf" for one built directly),
    ``edges`` holds one (parent record, vjp) pair per tracked parent, and
    ``grad`` is filled by ``backward``, which drops an op record's edges once
    they have run: an op record with no edges is used, and a leaf never is.
    ``tensor()`` is the tensor, or None once nothing else holds it, and ``seq``
    numbers the records in creation order, so parents before their children.
    """

    __slots__ = ("op", "edges", "grad", "tensor", "seq")

    def __init__(self, tensor: Tensor, op: str, edges: tuple[tuple[GradRecord, Vjp], ...]) -> None:
        self.op = op
        self.edges = edges
        self.grad: np.ndarray | None = None
        self.tensor = weakref.ref(tensor)
        self.seq = next(_SEQ)


class Tensor:
    """Row-major float64 array with optional gradient tracking.

    ``data`` must not be mutated after construction; optimizers replace the
    array wholesale between training steps instead of writing in place. A
    tracked tensor's gradient state lives in its ``GradRecord``.
    """

    __slots__ = ("data", "_record", "__weakref__")

    def __init__(self, data, requires_grad: bool = False) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise UsageError("tensor values must be finite (found NaN or Inf)")
        self.data = arr
        self._record = GradRecord(self, "leaf", ()) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._record is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._record is None else self._record.grad

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
        if self._record is not None:
            self._record.grad = None

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


_tracking = True  # False inside ``no_grad``


@contextmanager
def no_grad() -> Iterator[None]:
    """Inside the ``with`` block, ops link no edges, so their outputs are untracked and no tape is built.

    Values are the same bit for bit; ``gelu`` also skips its derivative. Blocks
    nest, and the previous state comes back on exit, by an exception too.
    Tracked leaves can still be made inside. The state is the module's, not
    the thread's, as a tape is confined to one thread anyway.
    """
    global _tracking
    saved, _tracking = _tracking, False
    try:
        yield
    finally:
        _tracking = saved


# Ops whose output is a view or copy of their inputs' values, finite as those are.
_DATA_MOVES = frozenset({"reshape", "transpose", "concat", "slice_axis"})


def _result(op: str, data: np.ndarray, *edges: tuple[Tensor, Vjp]) -> Tensor:
    """The tensor over ``data`` made by ``op``, with each (parent, vjp) edge whose parent is tracked.

    Only the parents' records are kept, so a parent's value stays alive only
    while a vjp or the caller holds it. Inside ``no_grad`` no edge is linked.
    The output of a data move skips ``Tensor``'s finite check.
    """
    if op in _DATA_MOVES:
        out = Tensor.__new__(Tensor)
        out.data, out._record = data, None
    else:
        out = Tensor(data)
    if _tracking:
        edges = tuple((p._record, vjp) for p, vjp in edges if p._record is not None)
        if edges:
            out._record = GradRecord(out, op, edges)
    return out


def _shared(adjoint: Callable[[np.ndarray], tuple[np.ndarray, ...]], *parents: Tensor
            ) -> tuple[tuple[Tensor, Vjp], ...]:
    """One (parent, vjp) edge per parent, all served by one ``adjoint(g)`` pass.

    ``adjoint`` maps the cotangent to every parent's gradient, in order, from arrays
    it rebuilds once for all. The first edge to run makes the pass, and each edge
    takes its own gradient from it; an untracked parent's is dropped with the edges.
    """
    pending: dict[int, np.ndarray] = {}

    def take(i: int, g: np.ndarray) -> np.ndarray:
        if not pending:
            pending.update(enumerate(adjoint(g)))
        return pending.pop(i)
    return tuple((p, functools.partial(take, i)) for i, p in enumerate(parents))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if squeeze:
        g = g.sum(axis=squeeze, keepdims=True)
    return g


def _broadcast(*shapes: tuple[int, ...]) -> tuple[int, ...] | None:
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        return None


def _axes(a: Tensor, axes: Sequence[int], op: str) -> tuple[int, ...]:
    """``axes`` of ``a`` as non-negative indices; DimensionError if one is out of range or repeated."""
    out = tuple(ax + a.ndim if -a.ndim <= ax < 0 else ax for ax in axes)
    if not all(0 <= ax < a.ndim for ax in out) or len(set(out)) != len(out):
        raise DimensionError(f"{op}: axes {tuple(axes)} are out of range or repeated for shape {a.shape}")
    return out


@dataclass
class GradTape:
    """The gradient records reaching a tensor, in creation order.

    A record is made after its parents', so replaying ``records`` in reverse propagates
    adjoints so that every tracked leaf receives its gradient exactly once. Confined to one thread.
    ``backward`` drops each record's edges once they have run, so after it the tape of its
    loss holds only the loss's own record.
    """

    records: list[GradRecord]

    @property
    def nodes(self) -> list[Tensor]:
        """The tensors whose values the tape, or the caller, still holds, in tape order."""
        return [t for t in (r.tensor() for r in self.records) if t is not None]


def tape_for(root: Tensor) -> GradTape:
    """The tape of ``root``: its record and every record it reaches, sorted by ``seq``; empty if untracked.

    A used record has no edges, so after ``backward(root)`` this is ``root``'s record alone.
    """
    if root._record is None:
        return GradTape([])
    seen = {root._record}
    stack = [root._record]
    while stack:
        for p, _ in stack.pop().edges:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return GradTape(sorted(seen, key=lambda r: r.seq))


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tracked leaf the scalar ``loss`` depends on.

    Each node's edges run once, in reverse creation order (``tape_for``), and then its own
    ``grad`` and edges are dropped: a node is a set of per-parent edges, and only leaves keep
    a gradient. So a parent sums the gradients from its consumers latest consumer first, and
    each saved array is freed once no later adjoint reads it. If any op node on the tape has
    no edges, so is used, ``UsageError`` is raised before any vjp runs.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise UsageError("loss is detached: it does not depend on any tracked tensor")
    tape = tape_for(loss)
    for node in tape.records:
        if node.op != "leaf" and not node.edges:
            raise UsageError(f"backward already ran through this {node.op} node; rebuild the graph first")
    loss._record.grad = np.ones_like(loss.data)
    for node in reversed(tape.records):
        if node.edges:
            for parent, vjp in node.edges:
                g = vjp(node.grad)
                # no gradient is written in place, so the first is kept as given, even a view
                parent.grad = g if parent.grad is None else parent.grad + g
            node.edges, node.grad = (), None


# ---------------------------------------------------------------------------
# Elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    if _broadcast(a.shape, b.shape) is None:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    a_shape, b_shape = a.shape, b.shape
    return _result("add", a.data + b.data, (a, lambda g: _unbroadcast(g, a_shape)),
                   (b, lambda g: _unbroadcast(g, b_shape)))


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; shapes must be equal or broadcastable."""
    a, b = _ensure(a), _ensure(b)
    if _broadcast(a.shape, b.shape) is None:
        raise DimensionError(f"hadamard: shapes {a.shape} and {b.shape} do not broadcast")
    a_shape, b_shape = a.shape, b.shape
    return _result("hadamard", a.data * b.data, (a, lambda g: _unbroadcast(g * b.data, a_shape)),
                   (b, lambda g: _unbroadcast(g * a.data, b_shape)))


def mul_scalar(a: Tensor, c: float) -> Tensor:
    a = _ensure(a)
    c = float(c)
    return _result("mul_scalar", a.data * c, (a, lambda g: g * c))


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian error linear unit, x * cdf with cdf = 0.5 * (1 + erf(x / sqrt(2))).

    erf runs on |x| / sqrt(2) and its sign is copied back from x: scipy's erf is
    exactly odd, so this is erf(x / sqrt(2)) bit for bit, and its sign branch
    is never mispredicted. When ``a`` is tracked, outside ``no_grad``, the
    derivative cdf + x * pdf is built in the forward, and the tape keeps only
    that array: the adjoint is g times it, and neither x nor cdf stays alive
    for it.

    ``scipy.special`` is imported on the first call, not with the package, so a
    process that runs no GELU never pays that import, the largest part of
    ``import masa_kit`` otherwise.
    """
    from scipy.special import erf

    a = _ensure(a)
    x = a.data
    cdf = np.abs(x)
    cdf /= _SQRT2
    erf(cdf, out=cdf)
    np.copysign(cdf, x, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    data = x * cdf
    if a._record is None or not _tracking:
        return Tensor(data)
    # cdf + x * pdf with pdf = exp(-x * x / 2) / sqrt(2 pi), in one buffer
    deriv = x * x
    deriv *= -0.5
    np.exp(deriv, out=deriv)
    deriv *= _INV_SQRT_2PI
    deriv *= x
    deriv += cdf
    return _result("gelu", data, (a, lambda g: g * deriv))


# ---------------------------------------------------------------------------
# Matrix products and shape moves


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; leading batch dims agree or broadcast from 1."""
    a, b = _ensure(a), _ensure(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner dimensions disagree for {a.shape} and {b.shape}")
    if _broadcast(a.shape[:-2], b.shape[:-2]) is None:
        raise DimensionError(f"matmul: batch dimensions disagree for {a.shape} and {b.shape}")
    data = a.data @ b.data
    m, k, n = a.shape[-2], a.shape[-1], b.shape[-1]
    _record_macs(int(np.prod(data.shape[:-2], dtype=np.int64)) * m * k * n)
    a_shape, b_shape = a.shape, b.shape
    return _result("matmul", data, (a, lambda g: _unbroadcast(g @ b.data.swapaxes(-1, -2), a_shape)),
                   (b, lambda g: _unbroadcast(a.data.swapaxes(-1, -2) @ g, b_shape)))


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
    b_shape = b.shape
    return _result("linear", data, (x, lambda g: g @ w.data.T), (w, lambda g: x.data.T @ g),
                   (b, lambda g: _unbroadcast(g, b_shape)))


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    a = _ensure(a)
    perm = _axes(a, axes, "transpose") if axes is not None else tuple(reversed(range(a.ndim)))
    if len(perm) != a.ndim:
        raise DimensionError(f"transpose: axes {tuple(axes)} do not permute the axes of shape {a.shape}")
    return _result("transpose", a.data.transpose(perm).copy(),
                   (a, lambda g: g.transpose(tuple(np.argsort(perm)))))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """``a`` in ``shape``: a view of its data when numpy can give one, so no array is copied."""
    a = _ensure(a)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise DimensionError(f"cannot reshape {a.shape} into {shape}")
    a_shape = a.shape
    return _result("reshape", a.data.reshape(shape), (a, lambda g: g.reshape(a_shape)))


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
    return _result("concat", data,
                   *((p, part(start, stop)) for p, start, stop in zip(parts, offsets[:-1], offsets[1:])))


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    a = _ensure(a)
    axis = _axes(a, (axis,), "slice_axis")[0]
    if not (0 <= start < stop <= a.shape[axis]):
        raise DimensionError(f"slice [{start}:{stop}] is out of range for axis {axis} of {a.shape}")
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)
    a_shape = a.shape

    def vjp(g: np.ndarray) -> np.ndarray:
        full = np.zeros(a_shape)
        full[tuple(index)] = g
        return full
    return _result("slice_axis", a.data[tuple(index)].copy(), (a, vjp))


# ---------------------------------------------------------------------------
# Reductions and normalizing maps


def sum_all(a: Tensor) -> Tensor:
    a = _ensure(a)
    a_shape = a.shape
    return _result("sum_all", a.data.sum(), (a, lambda g: np.broadcast_to(g, a_shape).copy()))


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
    a_shape = a.shape

    def vjp(g: np.ndarray) -> np.ndarray:
        g = g * scale
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, a_shape).copy()
    return _result("mean_axes", a.data.sum(axis=axes, keepdims=keepdims) * scale, (a, vjp))


NORM_EPS = 1e-6


def normalize(x: Tensor, axes: tuple[int, ...], gain: Tensor, bias: Tensor) -> Tensor:
    """x_hat * gain + bias, with x_hat = (x - mean) * inv and inv = (var + NORM_EPS) ** -0.5 over ``axes``.

    ``gain`` and ``bias`` broadcast to the shape of ``x``. The adjoint is the layer-norm
    one (Ba et al., 2016): dx = inv * (gx - mean(gx) - x_hat * mean(gx * x_hat)), gx = g * gain.
    The tape keeps only ``inv``: one adjoint pass (``_shared``) computes dx, dgain and dbias,
    rebuilding x_hat from ``x`` with the forward's own expressions, so bit for bit. A constant
    ``gain`` or ``bias`` gets its gradient computed and dropped; no caller in the package has one.
    """
    x, gain, bias = _ensure(x), _ensure(gain), _ensure(bias)
    if _broadcast(x.shape, gain.shape, bias.shape) != x.shape:
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
    bias_shape = bias.shape

    def adjoint(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x_hat = centered()
        x_hat *= inv
        dgain = _unbroadcast(g * x_hat, gain.shape)
        # inv * (gx - mean(gx) - x_hat * mean(gx * x_hat)), bit for bit, in the buffers of gx and x_hat
        gx = g * gain.data
        x_hat *= mean(gx * x_hat)
        gx -= mean(gx)
        gx -= x_hat
        gx *= inv
        return gx, dgain, _unbroadcast(g, bias_shape)
    return _result("normalize", data, *_shared(adjoint, x, gain, bias))


def softmax_last(a: Tensor) -> Tensor:
    """Softmax over the last axis, computed with unconditional max-subtraction."""
    a = _ensure(a)
    if a.ndim < 1 or a.shape[-1] < 1:
        raise DimensionError(f"softmax_last needs a non-empty last axis, got shape {a.shape}")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    return _result("softmax_last", s, (a, lambda g: s * (g - (g * s).sum(axis=-1, keepdims=True))))


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
    return _result("cross_entropy", -y[label], (logits, vjp))


# ---------------------------------------------------------------------------
# Decayed softmax attention


def _row_blocks(batch: int, height: int, width: int) -> list[tuple[int, int]]:
    """Query blocks of a height x width grid: whole grid rows if a row fits the budget, else cuts of one row."""
    length = height * width
    rows = ATTENTION_BLOCK_ELEMENTS // max(1, batch * length * width)
    step = rows * width or max(1, ATTENTION_BLOCK_ELEMENTS // max(1, batch * length))
    span = length if rows else width  # no block crosses the end of a span
    return [(y + x, y + min(x + step, span)) for y in range(0, length, span or 1) for x in range(0, span, step)]


def _decay_in_place(w: np.ndarray, kernel: np.ndarray | None, start: int, stop: int) -> None:
    """Multiply w [..., rows, Ha*Wb] in place by rows start..stop of the decay of a
    kernel [..., 2Ha-1, 2Wb-1]: D[n, m] = kernel[y_m - y_n + Ha - 1, x_m - x_n + Wb - 1]; None is no decay.

    Query n's row of D is the [Ha, Wb] window of the kernel at (Ha-1 - y_n, Wb-1 - x_n),
    so a block of whole grid rows, or part of one row (``_row_blocks``), is one
    strided view [..., ny, nx, Ha, Wb] with strides (-s0, -s1, s0, s1): one
    multiply pass, with no gather and no block-sized temporary.
    """
    if kernel is None:
        return
    ha, wb = (kernel.shape[-2] + 1) // 2, (kernel.shape[-1] + 1) // 2
    s0, s1 = kernel.strides[-2:]
    y, x = divmod(start, wb)
    ny, nx = max(1, (stop - start) // wb), min(stop - start, wb)
    window = np.ndarray(kernel.shape[:-2] + (ny, nx, ha, wb), kernel.dtype, kernel,
                        (ha - 1 - y) * s0 + (wb - 1 - x) * s1, kernel.strides[:-2] + (-s0, -s1, s0, s1))
    block = w.reshape(w.shape[:-2] + (ny, nx, ha, wb))  # a view: it only splits axes
    block *= window


def decayed_attention(q: Tensor, k: Tensor, v: Tensor, decay: tuple[np.ndarray, np.ndarray] | None,
                      axis: int = -2) -> Tensor:
    """softmax(q k^T / sqrt(d)), times a decay D entrywise without renormalizing, applied to v.

    ``q`` and ``k`` are [..., L, ..., d] and ``v`` is [..., L, ..., dv], alike
    but for the last (feature) axis. The tokens run along ``axis`` (by default
    the one before the features), and every other axis but the last is a batch
    axis, in order. The output, like each gradient, is in the input's own
    layout: the work runs on views with the token axis moved next to the
    features, so no copy is made to move it. ``decay`` is None (no decay) or
    a pair of constant ndarrays, the axial kernels a [..., 2Ha-1] and
    b [..., 2Wb-1] with Ha * Wb = L, whose leading axes broadcast to the
    batch, so per-head kernels [heads, 2n-1] broadcast against a batch whose
    last axis is the heads; the backward reads them, so the caller must not
    change them. Key m sits at (x_m, y_m) = (m % Wb, m // Wb) on an Ha x Wb
    grid, and D[n, m] = a[y_m - y_n + Ha - 1] * b[x_m - x_n + Wb - 1].

    Query rows run in blocks of at most ``ATTENTION_BLOCK_ELEMENTS`` logits (or
    of one query row), whole rows of the Ha x Wb grid or part of one row. A row's
    softmax needs only its own keys, so the blocks are exact. Each pass
    builds [q/sqrt(d) | -c] and [k | 1] once, as contiguous copies, so each
    block's score matmul returns the logits already shifted by the column c and
    goes straight to exp. The forward takes c_n as the Cauchy-Schwarz bound
    |q_n/sqrt(d)| * max_m |k_m| of the batch entry, so no exponential
    overflows; a row whose own diagonal logit q_n k_n / sqrt(d) lies more than
    ``SHIFT_MARGIN`` (64) below that bound takes c_n = 0 instead and is shifted
    by its exact maximum, so its largest exponential stays far from underflow.
    The exponentials are multiplied in place by the decay, one pass over each
    block's one window of the [..., 2Ha-1, 2Wb-1] kernel product of a and b (``_decay_in_place``),
    and applied to v before the division by their row sum z. One log-sum-exp,
    c + log z, per query row is kept; the backward pass rebuilds both copies with
    the log-sum-exp as c, so each block's weights take two passes (a matmul, an
    exp), and the kernel product from a and b: no [L, L] array outlives a block,
    and the tape keeps the output, the log-sum-exps and the two axial kernels.
    The one backward pass (``_shared``) computes dq, dk and dv, so a constant q,
    k or v gets its gradient computed and dropped; no caller in the package
    passes one. The MACs counted are those of q k^T and of the weights times v,
    without the shift column, in the forward pass only.
    """
    q, k, v = _ensure(q), _ensure(k), _ensure(v)
    if q.ndim < 2 or k.shape != q.shape or v.ndim != q.ndim or v.shape[:-1] != q.shape[:-1]:
        raise DimensionError(f"decayed_attention needs q, k [..., L, d] and v [..., L, dv], "
                             f"got {q.shape}, {k.shape}, {v.shape}")
    axis = _axes(q, (axis,), "decayed_attention")[0]
    if axis == q.ndim - 1:
        raise DimensionError(f"decayed_attention: axis {axis} of {q.shape} is the feature axis, "
                             f"not a token axis")

    def tokens_last(t: np.ndarray) -> np.ndarray:
        """A view of ``t`` with the token axis next to the last."""
        return np.moveaxis(t, axis, -2)
    qd, kd, vd = (tokens_last(t.data) for t in (q, k, v))
    batch, length = qd.shape[:-2], qd.shape[-2]
    a = b = None
    height, width = 1, length  # no decay: the keys are one grid row
    if decay is not None:
        a, b = decay
        if (not isinstance(a, np.ndarray) or not isinstance(b, np.ndarray) or a.ndim < 1 or b.ndim < 1
                or a.shape[-1] % 2 == 0 or b.shape[-1] % 2 == 0
                or (a.shape[-1] + 1) // 2 * ((b.shape[-1] + 1) // 2) != length
                or _broadcast(batch, a.shape[:-1], b.shape[:-1]) != batch):
            raise DimensionError(f"decay kernels {np.shape(a)} and {np.shape(b)} are not ndarrays of odd lengths "
                                 f"2Ha-1 and 2Wb-1 with Ha * Wb = {length} keys for batch {batch}")
        height, width = (a.shape[-1] + 1) // 2, (b.shape[-1] + 1) // 2

    def kernel() -> np.ndarray | None:
        """The [..., 2Ha-1, 2Wb-1] kernel product of a and b, built once per pass over the blocks."""
        return None if a is None else a[..., :, None] * b[..., None, :]
    scale = 1.0 / math.sqrt(q.shape[-1])

    def shifted(qs: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """[qs | -c] and [k | 1]^T: their matmul is the logits of qs minus c, row by row."""
        return (np.concatenate((qs, -c), axis=-1),
                np.concatenate((kd, np.ones(kd.shape[:-1] + (1,))), axis=-1).swapaxes(-1, -2))
    n_batch = int(np.prod(batch, dtype=np.int64))
    blocks = _row_blocks(n_batch, height, width)
    data = np.empty(q.shape[:-1] + v.shape[-1:])
    out = tokens_last(data)
    qs = qd * scale
    lse = np.sqrt(np.einsum("...i,...i->...", qs, qs))[..., None]  # c, then c + log z
    lse *= np.sqrt(np.einsum("...i,...i->...", kd, kd).max(axis=-1, initial=0.0))[..., None, None]
    exact = lse[..., 0] - np.einsum("...i,...i->...", qs, kd) > SHIFT_MARGIN
    lse[exact] = 0.0
    qc, kc = shifted(qs, lse)
    del qs
    kern = kernel()
    for start, stop in blocks:
        rows = (Ellipsis, slice(start, stop), slice(None))
        e = qc[rows] @ kc
        far = exact[..., start:stop]
        if far.any():
            peak = e[far].max(axis=-1, keepdims=True)
            e[far] -= peak
            lse[rows][far] = peak
        np.exp(e, out=e)
        z = e.sum(axis=-1, keepdims=True)
        _decay_in_place(e, kern, start, stop)
        np.divide(e @ vd, z, out=out[rows])
        del e  # so the next block's logits are not made while these are alive
        lse[rows] += np.log(z)
    _record_macs(n_batch * length * length * (q.shape[-1] + v.shape[-1]))

    def adjoint(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        grads = np.empty(q.shape), np.zeros(k.shape), np.zeros(v.shape)
        dq, dk, dv = (tokens_last(grad) for grad in grads)
        vt = vd.swapaxes(-1, -2)
        qc, kc = shifted(qd * scale, lse)
        kern = kernel()
        # rowsum(dP * P) = rowsum(dW * W) = g . out per row, as rows are not renormalized
        delta = tokens_last((g * data).sum(axis=-1, keepdims=True))
        g = tokens_last(g)
        for start, stop in blocks:
            rows = (Ellipsis, slice(start, stop), slice(None))
            p = qc[rows] @ kc
            np.exp(p, out=p)
            ds = g[rows] @ vt
            _decay_in_place(ds, kern, start, stop)
            ds -= delta[rows]
            ds *= p
            dq[rows] = ds @ kd
            dk += ds.swapaxes(-1, -2) @ qd[rows]
            del ds
            _decay_in_place(p, kern, start, stop)
            dv += p.swapaxes(-1, -2) @ g[rows]
        dq *= scale
        dk *= scale
        return grads
    return _result("decayed_attention", data, *_shared(adjoint, q, k, v))


# ---------------------------------------------------------------------------
# Convolutions


def _windows(a: np.ndarray, k: int, p: int, s: int = 1) -> np.ndarray:
    """The k x k windows, every ``s`` pixels, of an [H, W, C] map zero-padded by ``p`` on each side.

    A [Ho, Wo, k, k, C] strided view over one padded copy, so a window's taps
    run in (i, j, c) order and each tap is a contiguous channel vector.
    """
    h, w, c = a.shape
    xp = np.zeros((h + 2 * p, w + 2 * p, c), a.dtype)
    xp[p:p + h, p:p + w] = a
    sh, sw, sc = xp.strides
    shape = ((h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1, k, k, c)
    return np.ndarray(shape, xp.dtype, xp, 0, (s * sh, s * sw, sh, sw, sc))


def depthwise_conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-channel 2D cross-correlation with zero padding that preserves H and W.

    ``x`` is [H, W, C], ``kernel`` is [k, k, C] with odd k. The forward pass and
    each adjoint are one einsum over one window view (``_windows``): the input
    adjoint contracts the windows of the padded cotangent with the kernel flipped
    in both axes, and the kernel adjoint contracts the cotangent with the windows
    of the input, which it pads again rather than keep the padded copy on the tape.
    """
    x, kernel = _ensure(x), _ensure(kernel)
    if x.ndim != 3 or kernel.ndim != 3:
        raise DimensionError(f"depthwise_conv2d needs [H,W,C] and [k,k,C], got {x.shape} and {kernel.shape}")
    h, w, c = x.shape
    k, kw, ck = kernel.shape
    if k != kw:
        raise DimensionError(f"depthwise kernel must be square, got {kernel.shape}")
    if k % 2 == 0:
        raise ConfigurationError(f"depthwise kernel size must be odd, got {k}")
    if ck != c:
        raise DimensionError(f"channel mismatch: input has {c} channels, kernel has {ck}")
    pad = k // 2
    data = np.einsum("hwijc,ijc->hwc", _windows(x.data, k, pad), kernel.data)
    _record_macs(c * h * w * k * k)

    def vjp_x(g: np.ndarray) -> np.ndarray:
        return np.einsum("hwijc,ijc->hwc", _windows(g, k, pad), kernel.data[::-1, ::-1])

    def vjp_kernel(g: np.ndarray) -> np.ndarray:
        return np.einsum("hwc,hwijc->ijc", g, _windows(x.data, k, pad))
    return _result("depthwise_conv2d", data, (x, vjp_x), (kernel, vjp_kernel))


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int, padding: int) -> Tensor:
    """2D cross-correlation plus a per-channel bias: [H,W,Cin] with [k,k,Cin,Cout] -> [Ho,Wo,Cout].

    Lowered to one matmul over an im2col matrix [Ho*Wo, k*k*Cin], the window view of
    ``_windows`` flattened, whose columns run in (i, j, cin) order, so the gather moves
    whole contiguous channel vectors; the weight, viewed as [k*k*Cin, Cout], is the
    other operand. The tape keeps neither the im2col matrix nor the padded input. The
    input adjoint goes tap by tap, adding g @ weight[i, j]^T into tap (i, j)'s strided
    window of the padded gradient, so it builds no im2col-sized array. The weight
    adjoint rebuilds the im2col matrix from the input for one matmul with g when it
    is at most ``CONV_IM2COL_BYTES``; above that it fills weight[i, j]'s gradient
    from g and the windows of that tap alone. Each entry sums the same Cout or
    Ho*Wo terms as one matmul over the whole matrix; BLAS adds them in the same
    order on the model's large matrices, while its small-matrix kernels may round
    differently.
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
    s, p, k = require_integer("conv2d stride", stride, 1), require_integer("conv2d padding", padding, 0), kh
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    if ho < 1 or wo < 1:
        raise DimensionError(f"conv2d output would be empty for input {x.shape}, k={k}, stride={s}, padding={p}")

    data = (_windows(x.data, k, p, s).reshape(ho * wo, k * k * cin)
            @ weight.data.reshape(-1, cout)).reshape(ho, wo, cout)
    data += bias.data
    _record_macs(cout * ho * wo * cin * k * k)
    taps = [(i, j) for i in range(k) for j in range(k)]

    def vjp_x(g: np.ndarray) -> np.ndarray:
        g2 = g.reshape(ho * wo, cout)
        gxp = np.zeros((h + 2 * p, w + 2 * p, cin))
        for i, j in taps:
            gxp[i:i + s * ho:s, j:j + s * wo:s] += (g2 @ weight.data[i, j].T).reshape(ho, wo, cin)
        return gxp[p:p + h, p:p + w]

    def vjp_weight(g: np.ndarray) -> np.ndarray:
        # (g^T window)^T keeps the operand order of (g^T im2col)^T, so each tap sums the same way
        gt, windows = g.reshape(ho * wo, cout).T, _windows(x.data, k, p, s)
        if windows.size * windows.itemsize <= CONV_IM2COL_BYTES:
            return (gt @ windows.reshape(ho * wo, -1)).T.reshape(weight.shape)
        out = np.empty(weight.shape)
        for i, j in taps:
            out[i, j] = (gt @ windows[:, :, i, j].reshape(ho * wo, cin)).T
        return out
    return _result("conv2d", data, (weight, vjp_weight), (x, vjp_x), (bias, lambda g: g.sum(axis=(0, 1))))


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
