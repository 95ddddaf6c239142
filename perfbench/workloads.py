"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from a seed, then runs one operation at a
time through masa_kit's public modules. Every operation checks its own
output; a wrong output raises ``CheckFailed`` and the loop counts the
operation as failed. Operations come in two kinds: ``fwd`` (no backward pass)
and ``fwd_bwd`` (forward, then backward).
"""

from __future__ import annotations

import json
import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from masa_kit import attention, blocks, decay, tensor, train
from spans import NULL

TOL = 1e-12
ORACLE_ROWS = 128
"""Query rows per block of ``masa_full_oracle``; keeps its peak memory far below masa_full's."""


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(actual: np.ndarray, expected: np.ndarray, tol: float | None = None) -> bool:
    """Max abs difference within ``tol`` (default TOL) of the expected array's scale (at least 1)."""
    tol = TOL if tol is None else tol
    scale = max(1.0, float(np.max(np.abs(expected))))
    return actual.shape == expected.shape and float(np.max(np.abs(actual - expected))) <= tol * scale


class Tally:
    """Counts operations attempted and failed; a failure never stops the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failed operation is counted and reported, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


class Workload:
    """One closed-loop workload; subclasses build their inputs from a seed in ``__init__``."""

    cycle: tuple[str, ...] = ("fwd", "fwd_bwd")
    min_ops = len(cycle)

    def prepare_checks(self) -> None:
        """Compute expected outputs; untimed, after set-up."""

    def warmup(self, tracer=NULL) -> None:
        self.op("fwd", tracer)
        self.op("fwd_bwd", tracer)

    def op(self, kind: str, tracer=NULL) -> float:
        """Run one operation of ``kind``; return the seconds of its library calls."""
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-run checks."""


# ---------------------------------------------------------------------------
# train-tiny: interpreter- and tape-bound training on small arrays


class TrainTiny(Workload):
    """``train_step`` on the tiny preset, with an ``evaluate`` pass every few steps."""

    name = "train-tiny"
    N_IMAGES = 64
    BATCH = 8
    EVAL_INTERVAL = 5
    TOTAL_STEPS = 300  # cosine schedule length, as in the train-demo command
    cycle = ("fwd_bwd",) * EVAL_INTERVAL + ("fwd",)
    min_ops = 2 * len(cycle)  # two evaluations after the warm-up's baseline one

    def __init__(self, seed: int) -> None:
        config = blocks.preset_config("tiny")
        data = train.DataConfig(seed=seed, n=self.N_IMAGES, resolution=config.input_resolution,
                                num_classes=config.num_classes, batch_size=self.BATCH)
        self.state = train.init_train_state(config, data, steps=self.TOTAL_STEPS, seed=seed)
        self.image_macs = blocks.count_flops(config, config.input_resolution)
        self.fwd_macs = self.N_IMAGES * self.image_macs
        self.samples_per_fwd_bwd = self.BATCH
        self.eval_losses: list[float] = []

    def op(self, kind: str, tracer=NULL) -> float:
        with tensor.count_macs() as macs:
            start = time.perf_counter()
            if kind == "fwd_bwd":
                with tracer.span("train.train_step"):
                    loss = train.train_step(self.state, self.BATCH)
            else:
                with tracer.span("train.evaluate"):
                    loss, accuracy = train.evaluate(self.state)
            elapsed = time.perf_counter() - start
        check(math.isfinite(loss), f"{kind}: loss {loss} is not finite")
        if kind == "fwd_bwd":
            check(macs.total == self.BATCH * self.image_macs,
                  f"train_step counted {macs.total} MACs, count_flops gives {self.BATCH * self.image_macs}")
        else:
            check(0.0 <= accuracy <= 1.0, f"accuracy {accuracy} is outside [0, 1]")
            check(macs.total == self.fwd_macs,
                  f"evaluate counted {macs.total} MACs, count_flops gives {self.fwd_macs}")
            self.eval_losses.append(loss)
        return elapsed

    def finish(self) -> None:
        check(len(self.eval_losses) >= 2, "fewer than two evaluations ran")
        first, last = self.eval_losses[0], self.eval_losses[-1]
        check(last < first, f"mean evaluation loss did not fall: {first} -> {last}")


# ---------------------------------------------------------------------------
# rmt-t-224: BLAS- and memory-bound forward and backward of the rmt-t backbone


class RmtT224(Workload):
    """``forward_classify`` alternating with a training pass on one 224 px image."""

    name = "rmt-t-224"
    RESOLUTION = 224
    FIXTURE_SEED = 0
    FIXTURE = Path(__file__).with_name("rmt_t_224_logits.json")
    """Logits for FIXTURE_SEED, written by ``python3 perfbench/child.py rmt-logits 0``."""
    FIXTURE_TOL = 1e-9
    """Loose enough for another BLAS or summation order, tight enough for any wrong kernel."""

    def __init__(self, seed: int) -> None:
        self.config = blocks.preset_config("rmt-t", input_resolution=self.RESOLUTION)
        self.model = blocks.build_backbone(self.config, seed)
        self.params = self.model.parameters()
        rng = np.random.default_rng(seed)
        self.image = tensor.Tensor(rng.normal(size=(3, self.RESOLUTION, self.RESOLUTION)))
        self.label = int(rng.integers(self.config.num_classes))
        self.fwd_macs = blocks.count_flops(self.config, self.RESOLUTION)
        self.samples_per_fwd_bwd = 1
        self.ref_logits: np.ndarray | None = None

    def logits(self) -> np.ndarray:
        return blocks.forward_classify(self.model, self.image).data

    def warmup(self, tracer=NULL) -> None:
        """Check one forward of the FIXTURE_SEED model and image against the stored logits."""
        fixture_run = RmtT224(self.FIXTURE_SEED)
        with tracer.span("blocks.forward_classify"):
            actual = fixture_run.logits()
        del fixture_run
        expected = np.array(json.loads(self.FIXTURE.read_text()))
        check(close(actual, expected, self.FIXTURE_TOL),
              f"seed {self.FIXTURE_SEED} logits differ from {self.FIXTURE.name}")
        super().warmup(tracer)

    def op(self, kind: str, tracer=NULL) -> float:
        with tensor.count_macs() as macs:
            start = time.perf_counter()
            with tracer.span("blocks.forward_classify"):
                logits = blocks.forward_classify(self.model, self.image)
            if kind == "fwd_bwd":
                with tracer.span("train.cross_entropy"):
                    loss = train.cross_entropy(logits, self.label)
                with tracer.span("tensor.backward"):
                    tensor.backward(loss)
                grads = [p.grad for p in self.params]
                for p in self.params:
                    p.zero_grad()
            elapsed = time.perf_counter() - start
        check(macs.total == self.fwd_macs,
              f"forward counted {macs.total} MACs, count_flops gives {self.fwd_macs}")
        if self.ref_logits is None:
            self.ref_logits = logits.data.copy()
        check(close(logits.data, self.ref_logits), "logits differ from the first forward of this run")
        if kind == "fwd_bwd":
            expected = train.cross_entropy(tensor.Tensor(self.ref_logits), self.label).item()
            check(abs(loss.item() - expected) <= TOL * max(1.0, abs(expected)),
                  f"loss {loss.item()} differs from {expected}")
            check(all(g is not None and np.isfinite(g).all() for g in grads),
                  "a parameter gradient is missing or not finite")
        return elapsed


# ---------------------------------------------------------------------------
# masa-full-sweep: full-mode MaSA alone, from cache-resident to far past L2


@dataclass
class MasaCase:
    side: int
    grid: decay.GridShape
    q: tensor.Tensor
    k: tensor.Tensor
    v: tensor.Tensor
    tracked: tuple[tensor.Tensor, tensor.Tensor, tensor.Tensor]
    cotangent: tensor.Tensor
    macs: int
    expected_out: np.ndarray | None = None
    expected_dv: np.ndarray | None = None


def masa_full_oracle(q: np.ndarray, k: np.ndarray, v: np.ndarray, side: int, gamma: float,
                     cotangent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """softmax(QK^T / sqrt(d)) * gamma**Manhattan, times V; and dV for the given cotangent.

    Works on ORACLE_ROWS query rows at a time, so it never holds an N x N array.
    """
    n = side * side
    rows, cols = np.divmod(np.arange(n), side)
    out = np.empty_like(v)
    dv = np.zeros_like(v)
    for lo in range(0, n, ORACLE_ROWS):
        block = slice(lo, min(lo + ORACLE_ROWS, n))
        logits = q[block] @ k.T / math.sqrt(q.shape[1])
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        manhattan = np.abs(rows[block, None] - rows[None, :]) + np.abs(cols[block, None] - cols[None, :])
        weights = e / e.sum(axis=1, keepdims=True) * gamma ** manhattan
        out[block] = weights @ v
        dv += weights.T @ cotangent[block]
    return out, dv


class MasaFullSweep(Workload):
    """``masa_full`` at grid sides 16, 32 and 48; one operation visits each side once."""

    name = "masa-full-sweep"
    SIDES = (16, 32, 48)
    HEAD_DIM = 32
    GAMMA = 0.9

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.cases = []
        for side in self.SIDES:
            q, k, v, cot = (rng.normal(size=(side * side, self.HEAD_DIM)) for _ in range(4))
            self.cases.append(MasaCase(
                side=side, grid=decay.GridShape(side, side),
                q=tensor.Tensor(q), k=tensor.Tensor(k), v=tensor.Tensor(v),
                tracked=tuple(tensor.Tensor(a, requires_grad=True) for a in (q, k, v)),
                cotangent=tensor.Tensor(cot),
                macs=attention.attention_score_apply_macs("full", side, side, self.HEAD_DIM)))
        self.fwd_macs = sum(c.macs for c in self.cases)
        self.samples_per_fwd_bwd = len(self.cases)

    def prepare_checks(self) -> None:
        for c in self.cases:
            c.expected_out, c.expected_dv = masa_full_oracle(
                c.q.data, c.k.data, c.v.data, c.side, self.GAMMA, c.cotangent.data)

    def forward(self, c: MasaCase, tracer=NULL) -> float:
        with tensor.count_macs() as macs:
            start = time.perf_counter()
            with tracer.span(f"attention.masa_full.s{c.side}"):
                out = attention.masa_full(c.q, c.k, c.v, c.grid, self.GAMMA)
            elapsed = time.perf_counter() - start
        check(macs.total == c.macs, f"side {c.side}: counted {macs.total} MACs, "
                                    f"attention_score_apply_macs gives {c.macs}")
        check(close(out.data, c.expected_out), f"side {c.side}: forward differs from the oracle")
        return elapsed

    def forward_backward(self, c: MasaCase, tracer=NULL) -> float:
        q, k, v = c.tracked
        with tensor.count_macs() as macs:
            start = time.perf_counter()
            with tracer.span(f"attention.masa_full.s{c.side}"):
                out = attention.masa_full(q, k, v, c.grid, self.GAMMA)
            loss = tensor.sum_all(tensor.hadamard(out, c.cotangent))
            with tracer.span("tensor.backward"):
                tensor.backward(loss)
            elapsed = time.perf_counter() - start
        dv = v.grad
        for t in c.tracked:
            t.zero_grad()
        check(macs.total == c.macs, f"side {c.side}: counted {macs.total} MACs, "
                                    f"attention_score_apply_macs gives {c.macs}")
        check(close(out.data, c.expected_out), f"side {c.side}: forward differs from the oracle")
        check(dv is not None and close(dv, c.expected_dv), f"side {c.side}: dV differs from the oracle")
        return elapsed

    def op(self, kind: str, tracer=NULL) -> float:
        step = self.forward if kind == "fwd" else self.forward_backward
        return sum(step(c, tracer) for c in self.cases)


WORKLOADS = {w.name: w for w in (TrainTiny, RmtT224, MasaFullSweep)}


def run_loop(workload, seconds: float, tally: Tally, tracers=(NULL,)) -> tuple[dict, float]:
    """Run the workload's operation cycle for ``seconds``, and ``min_ops`` per tracer at least.

    Operations of one kind take the tracers in turn, so with ``(NULL, tracer)``
    every other operation of each kind is traced. Returns the successful
    operations' seconds as ``{(kind, tracer index): [seconds]}`` and the wall
    time of the whole loop.
    """
    samples = {(kind, i): [] for kind in set(workload.cycle) for i in range(len(tracers))}
    counts = dict.fromkeys(workload.cycle, 0)
    start = time.perf_counter()
    n = 0
    while n < workload.min_ops * len(tracers) or time.perf_counter() - start < seconds:
        kind = workload.cycle[n % len(workload.cycle)]
        which = counts[kind] % len(tracers)
        counts[kind] += 1
        n += 1
        tracers[which].new_op()
        elapsed = tally.attempt(workload.op, kind, tracers[which])
        if elapsed is not None:
            samples[(kind, which)].append(elapsed)
    return samples, time.perf_counter() - start
