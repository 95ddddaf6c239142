"""Desk-scale training and gradient-verification harness.

Provides a deterministic synthetic dataset whose classes are separable by
construction, cross-entropy loss, a decoupled-weight-decay optimizer with a
cosine learning-rate schedule, a small training loop, and the central
finite-difference gradient checker the test suite relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .blocks import Model, ModelConfig, build_backbone, forward_classify
from .errors import TrainingError, UsageError
from .tensor import Tensor, backward, log_softmax_last, mul_scalar, neg, slice_axis, sum_all


@dataclass(frozen=True)
class SynthSample:
    image: Tensor
    label: int


@dataclass(frozen=True)
class DataConfig:
    seed: int
    n: int
    resolution: int
    num_classes: int
    batch_size: int = 8


NOISE_STD = 0.1
CLASS_OFFSET = 0.5


def synth_dataset(seed: int, n: int, resolution: int, num_classes: int) -> list[SynthSample]:
    """Oriented-gradient images with a per-class brightness offset plus noise.

    Labels are assigned round-robin, so class counts differ by at most one.
    The mean-pixel statistic separates adjacent classes by several noise
    deviations, which keeps small models trainable to high accuracy.
    """
    if n < 1:
        raise UsageError(f"dataset size must be positive, got {n}")
    rng = np.random.default_rng(seed)
    axis = np.linspace(-1.0, 1.0, resolution)
    xx, yy = np.meshgrid(axis, axis)
    samples = []
    for i in range(n):
        label = i % num_classes
        angle = math.pi * label / num_classes
        ramp = math.cos(angle) * xx + math.sin(angle) * yy
        offset = (label - (num_classes - 1) / 2.0) * 2.0 * CLASS_OFFSET
        base = 0.5 * ramp + offset
        image = base[None, :, :] + rng.normal(0.0, NOISE_STD, size=(3, resolution, resolution))
        samples.append(SynthSample(image=Tensor(image), label=label))
    return samples


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Negative log-probability of ``label`` under softmax(logits); differentiable."""
    if logits.ndim != 1:
        raise UsageError(f"cross_entropy expects a 1D logits vector, got shape {logits.shape}")
    if not (0 <= label < logits.shape[0]):
        raise UsageError(f"label {label} is out of range for {logits.shape[0]} classes")
    log_probs = log_softmax_last(logits)
    return neg(sum_all(slice_axis(log_probs, 0, label, label + 1)))


@dataclass
class OptimState:
    """Moment accumulators and hyperparameters for decoupled weight decay."""

    lr: float
    betas: tuple[float, float]
    eps: float
    weight_decay: float
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


def init_optim(params: Sequence[Tensor], lr: float = 1e-3,
               betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
               weight_decay: float = 0.05) -> OptimState:
    return OptimState(lr=lr, betas=betas, eps=eps, weight_decay=weight_decay,
                      m=[np.zeros_like(p.data) for p in params],
                      v=[np.zeros_like(p.data) for p in params])


def adamw_step(params: Sequence[Tensor], grads: Sequence[np.ndarray], state: OptimState) -> None:
    """One bias-corrected moment update with weight decay applied directly to weights."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise UsageError(f"got {len(params)} params, {len(grads)} grads, {len(state.m)} accumulators")
    state.step += 1
    b1, b2 = state.betas
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.data.shape:
            raise UsageError(f"gradient shape {g.shape} does not match parameter shape {p.data.shape}")
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p.data = (p.data * (1.0 - state.lr * state.weight_decay)
                  - state.lr * m_hat / (np.sqrt(v_hat) + state.eps))


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Cosine decay from base_lr to 0 over total_steps, no warmup."""
    if total_steps <= 0:
        return base_lr
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * min(step, total_steps) / total_steps))


@dataclass
class EvalRecord:
    step: int
    loss: float
    accuracy: float


@dataclass
class TrainMetrics:
    initial: EvalRecord
    records: list[EvalRecord]

    @property
    def final(self) -> EvalRecord:
        return self.records[-1] if self.records else self.initial


@dataclass
class TrainState:
    model: Model
    params: list[Tensor]
    optim: OptimState
    data: list[SynthSample]
    batch_rng: np.random.Generator
    base_lr: float
    total_steps: int
    step: int = 0


def init_train_state(model_config: ModelConfig, data_config: DataConfig, steps: int,
                     seed: int = 0, lr: float = 1e-3, weight_decay: float = 0.05) -> TrainState:
    model = build_backbone(model_config, seed)
    params = model.parameters()
    data = synth_dataset(data_config.seed, data_config.n, data_config.resolution,
                         data_config.num_classes)
    return TrainState(model=model, params=params,
                      optim=init_optim(params, lr=lr, weight_decay=weight_decay),
                      data=data, batch_rng=np.random.default_rng(seed + 1),
                      base_lr=lr, total_steps=steps)


def _check_params_finite(state: TrainState) -> None:
    for name, p in state.model.named_parameters():
        if not np.isfinite(p.data).all():
            raise TrainingError(f"non-finite parameter {name} at step {state.step}")


def train_step(state: TrainState, batch_size: int) -> float:
    """One forward/backward/update over a random batch; returns the batch loss."""
    _check_params_finite(state)
    indices = state.batch_rng.integers(0, len(state.data), size=batch_size)
    try:
        losses = [cross_entropy(forward_classify(state.model, state.data[i].image),
                                state.data[i].label)
                  for i in indices]
        total = losses[0]
        for extra in losses[1:]:
            total = total + extra
        loss = mul_scalar(total, 1.0 / batch_size)
        backward(loss)
    except UsageError as exc:
        raise TrainingError(f"training diverged at step {state.step}: {exc}") from exc
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in state.params]
    state.optim.lr = cosine_lr(state.base_lr, state.step, state.total_steps)
    adamw_step(state.params, grads, state.optim)
    for p in state.params:
        p.zero_grad()
    state.step += 1
    return loss.item()


def evaluate(state: TrainState) -> tuple[float, float]:
    """Mean loss and accuracy over the whole dataset; each forward still builds its tape."""
    total_loss, correct = 0.0, 0
    for sample in state.data:
        logits = forward_classify(state.model, sample.image)
        total_loss += cross_entropy(Tensor(logits.data), sample.label).item()
        if int(np.argmax(logits.data)) == sample.label:
            correct += 1
    return total_loss / len(state.data), correct / len(state.data)


def train_loop(model_config: ModelConfig, data_config: DataConfig, steps: int,
               seed: int = 0, lr: float = 1e-3, weight_decay: float = 0.05,
               eval_interval: int = 25) -> TrainMetrics:
    """Train for ``steps`` updates, evaluating on the full set at intervals.

    Deterministic given (seed, data_config.seed). Non-finite state raises
    ``TrainingError`` carrying the step index.
    """
    if eval_interval < 1:
        raise UsageError(f"eval_interval must be positive, got {eval_interval}")
    state = init_train_state(model_config, data_config, steps, seed=seed, lr=lr,
                             weight_decay=weight_decay)
    loss0, acc0 = evaluate(state)
    metrics = TrainMetrics(initial=EvalRecord(step=0, loss=loss0, accuracy=acc0), records=[])
    for step in range(1, steps + 1):
        train_step(state, data_config.batch_size)
        if step % eval_interval == 0 or step == steps:
            loss, acc = evaluate(state)
            metrics.records.append(EvalRecord(step=step, loss=loss, accuracy=acc))
    return metrics


def finite_diff_gradcheck(fn: Callable[[Sequence[Tensor]], Tensor],
                          inputs: Sequence[Tensor], eps: float = 1e-6) -> tuple[float, tuple[int, int]]:
    """Compare tape gradients of a scalar-valued closure against central differences.

    Returns (worst relative error, (input index, flat coordinate)). Each
    coordinate's error is |fd - tape| / max(|fd|, |tape|, floor) with the
    floor at one percent of the largest gradient entry, so near-zero entries
    are compared at a scale double precision can resolve.
    """
    if eps <= 0:
        raise UsageError(f"eps must be positive, got {eps}")
    tracked = [Tensor(t.data.copy(), requires_grad=True) for t in inputs]
    out = fn(tracked)
    if out.size != 1:
        raise UsageError(f"gradcheck needs a scalar-valued closure, got output shape {out.shape}")
    backward(out)
    tape_grads = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tracked]

    def value_at(which: int, flat: int, delta: float) -> float:
        probe = [Tensor(t.data.copy()) for t in inputs]
        bumped = probe[which].data.copy()
        bumped.flat[flat] += delta
        probe[which] = Tensor(bumped)
        return fn(probe).item()

    gmax = max((float(np.max(np.abs(g))) for g in tape_grads), default=0.0)
    floor = max(1e-2 * gmax, 1e-12)
    worst, worst_coord = 0.0, (0, 0)
    for which, grad in enumerate(tape_grads):
        for flat in range(grad.size):
            fd = (value_at(which, flat, eps) - value_at(which, flat, -eps)) / (2.0 * eps)
            an = float(grad.flat[flat])
            rel = abs(fd - an) / max(abs(fd), abs(an), floor)
            if rel > worst:
                worst, worst_coord = rel, (which, flat)
    return worst, worst_coord
