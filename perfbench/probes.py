"""Per-layer measurements for the traced run.

Each probe calls masa_kit's public functions one layer at a time, with a span
around every call, and returns ``{metric name: (value, unit)}``. Backward for
a section is timed from outside: the section runs alone on a copy of its real
input, and ``tensor.backward`` runs on the sum of its output. Times are
medians over REPEATS passes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from functools import partial
from pathlib import Path

import numpy as np

from masa_kit import attention, blocks, decay, tensor, train
from spans import seconds
from workloads import MasaFullSweep, RmtT224, TrainTiny, check, close

REPEATS = 3
DECAY_REPEATS = 5
ONE_THREAD_TIMEOUT_S = 120


def _ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3


def _tape(loss: tensor.Tensor) -> tuple[int, float]:
    """Nodes on the tape reaching ``loss`` and the bytes of their values, in MB."""
    nodes = tensor.tape_for(loss).nodes
    return len(nodes), sum(n.data.nbytes for n in nodes) / 1e6


# ---------------------------------------------------------------------------
# train-tiny: one train_step split into forward, backward and AdamW


def train_probe(seed: int, tracer) -> dict:
    workload = TrainTiny(seed)
    state, batch = workload.state, workload.BATCH
    reference = TrainTiny(seed).state
    ref_loss = train.train_step(reference, batch)
    times = defaultdict(list)
    for rep in range(REPEATS):
        tracer.new_op()
        with tracer.span("train.forward") as fwd:
            indices = state.batch_rng.integers(0, len(state.data), size=batch)
            losses = [train.cross_entropy(blocks.forward_classify(state.model, state.data[i].image),
                                          state.data[i].label) for i in indices]
            total = losses[0]
            for extra in losses[1:]:
                total = tensor.add(total, extra)
            loss = tensor.mul_scalar(total, 1.0 / batch)
        nodes, mb = _tape(loss)
        with tracer.span("train.backward") as bwd:
            with tracer.span("tensor.backward") as tape_bwd:
                tensor.backward(loss)
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in state.params]
        with tracer.span("train.adamw") as adamw:
            state.optim.lr = train.cosine_lr(state.base_lr, state.step, state.total_steps)
            train.adamw_step(state.params, grads, state.optim)
            for p in state.params:
                p.zero_grad()
            state.step += 1
        if rep == 0:
            check(loss.item() == ref_loss and all(
                np.array_equal(p.data, r.data) for p, r in zip(state.params, reference.params)),
                "the split training step differs from train.train_step")
        for key, record in (("forward", fwd), ("backward", bwd), ("adamw", adamw), ("tape", tape_bwd)):
            times[key].append(seconds(record))
    for _ in range(REPEATS):
        tracer.new_op()
        with tracer.span("train.evaluate") as ev:
            eval_loss, _ = train.evaluate(state)
        check(np.isfinite(eval_loss), "evaluation loss is not finite")
        times["eval"].append(seconds(ev) / len(state.data))
    return {
        "tensor.train_step.tape_nodes": (nodes, "count"),
        "tensor.train_step.tape_mb": (mb, "MB"),
        "tensor.train_step.backward_ms": (_ms(times["tape"]), "ms"),
        "train.forward_ms": (_ms(times["forward"]), "ms"),
        "train.backward_ms": (_ms(times["backward"]), "ms"),
        "train.adamw_ms": (_ms(times["adamw"]), "ms"),
        "train.eval_ms_per_image": (_ms(times["eval"]), "ms"),
    }


# ---------------------------------------------------------------------------
# rmt-t-224: forward_classify one section at a time


def _head(tokens: tensor.Tensor, model: blocks.Model) -> tensor.Tensor:
    pooled = tensor.mean_axes(tokens, (0,))
    logits = tensor.add(tensor.matmul(tensor.reshape(pooled, (1, pooled.shape[0])),
                                      model.head_weight), model.head_bias)
    return tensor.reshape(logits, (model.config.num_classes,))


def _first(fn, *args, **kwargs):
    return fn(*args, **kwargs)[0]


def _sections_forward(model: blocks.Model, image: tensor.Tensor, tracer):
    """The forward of ``forward_classify``, one public call per section.

    Returns the logits, each section's forward seconds summed by name, the
    MACs of each ``flops_by_stage`` row, the seconds of each stage, and the
    section calls ``(name, fn, input)`` for the backward pass.
    """
    fwd = defaultdict(float)
    macs, stage_s, calls = {}, {}, []

    def run(name, fn, x):
        with tracer.span(name + ".fwd") as record:
            out = fn(x)
        fwd[name] += seconds(record)
        calls.append((name, fn, x))
        return out

    with tensor.count_macs() as counter:
        tokens = run("blocks.stem", partial(_first, blocks.conv_stem, stem=model.stem), image)
    macs["stem"] = counter.total
    grids = blocks.stage_grids(model.config, model.config.input_resolution)
    for s, stage in enumerate(model.stages):
        label, cfg, grid = f"stage{s + 1}", model.masa_configs[s], grids[s]
        with tensor.count_macs() as counter, tracer.span(f"blocks.{label}") as stage_span:
            for p in stage:
                x1 = run(f"blocks.{label}.cpe", partial(blocks.cpe, grid=grid, kernel=p.cpe_kernel), tokens)
                h = run(f"blocks.{label}.norm", partial(blocks.layer_norm, norm=p.norm1), x1)
                a = run(f"attention.{label}.masa_layer",
                        partial(attention.masa_layer_forward, params=p.masa, config=cfg, grid=grid), h)
                x2 = tensor.add(x1, a)
                h2 = run(f"blocks.{label}.norm", partial(blocks.layer_norm, norm=p.norm2), x2)
                f = run(f"blocks.{label}.ffn", partial(blocks.ffn, w1=p.ffn_w1, b1=p.ffn_b1,
                                                      w2=p.ffn_w2, b2=p.ffn_b2), h2)
                tokens = tensor.add(x2, f)
            if s < 3:
                tokens = run("blocks.downsample", partial(_first, blocks.downsample, grid=grid,
                                                          conv=model.downsamples[s]), tokens)
        macs[label] = counter.total
        stage_s[label] = seconds(stage_span)
    with tensor.count_macs() as counter:
        logits = run("blocks.head", partial(_head, model=model), tokens)
    macs["head"] = counter.total
    return logits, fwd, macs, stage_s, calls


def rmt_probe(seed: int, tracer) -> dict:
    workload = RmtT224(seed)
    model, image, params = workload.model, workload.image, workload.params
    config, resolution = workload.config, workload.RESOLUTION
    rows = {row["section"]: row["macs"] for row in blocks.flops_by_stage(config, resolution)}
    reference = blocks.forward_classify(model, image).data
    times = defaultdict(list)
    for _ in range(REPEATS):
        tracer.new_op()
        logits, fwd, macs, stage_s, calls = _sections_forward(model, image, tracer)
        check(close(logits.data, reference), "the sectioned forward differs from forward_classify")
        check(macs == rows, f"per-section MACs {macs} differ from flops_by_stage {rows}")
        check(sum(macs.values()) == blocks.count_flops(config, resolution),
              "per-section MACs do not sum to count_flops")
        for name, value in fwd.items():
            times[name + ".fwd_ms"].append(value)
        for label, value in stage_s.items():
            times[f"blocks.{label}.gmac_per_s"].append(macs[label] / value / 1e9)
        bwd = defaultdict(float)
        for name, fn, x in calls:
            if name == "blocks.head":
                continue
            out = fn(tensor.Tensor(x.data, requires_grad=x is not image))
            loss = tensor.sum_all(out)
            with tracer.span(name + ".bwd") as record:
                tensor.backward(loss)
            bwd[name] += seconds(record)
            for p in params:
                p.zero_grad()
        for name, value in bwd.items():
            times[name + ".bwd_ms"].append(value)
    tape_s = []
    for _ in range(2):
        tracer.new_op()
        loss = train.cross_entropy(blocks.forward_classify(model, image), workload.label)
        nodes, mb = _tape(loss)
        with tracer.span("tensor.backward") as record:
            tensor.backward(loss)
        tape_s.append(seconds(record))
        for p in params:
            p.zero_grad()
    metrics = {
        "tensor.rmt_fwd_bwd.tape_nodes": (nodes, "count"),
        "tensor.rmt_fwd_bwd.tape_mb": (mb, "MB"),
        "tensor.rmt_fwd_bwd.backward_ms": (_ms(tape_s), "ms"),
        "blocks.stem.macs": (macs["stem"], "MAC"),
    }
    for s in range(1, 5):
        metrics[f"blocks.stage{s}.macs"] = (macs[f"stage{s}"], "MAC")
        metrics[f"blocks.stage{s}.gmac_per_s"] = (statistics.median(times.pop(f"blocks.stage{s}.gmac_per_s")),
                                                 "GMAC/s")
    for name, values in times.items():
        metrics[name] = (_ms(values), "ms")
    return metrics


# ---------------------------------------------------------------------------
# masa-full-sweep: masa_full and its decay matrix at each grid side


def masa_probe(seed: int, tracer) -> dict:
    workload = MasaFullSweep(seed)
    workload.prepare_checks()
    metrics = {}
    for c in workload.cases:
        base = f"attention.masa_full.s{c.side}"
        decay_s = []
        for _ in range(DECAY_REPEATS):
            with tracer.span(f"decay.manhattan_2d.s{c.side}") as record:
                decay.decay_manhattan_2d(c.grid, workload.GAMMA)
            decay_s.append(seconds(record))
        fwd_s, fwd_bwd_s = [], []
        for _ in range(REPEATS):
            tracer.new_op()
            fwd_s.append(workload.forward(c, tracer))
        for _ in range(REPEATS):
            tracer.new_op()
            fwd_bwd_s.append(workload.forward_backward(c, tracer))
        tracemalloc.start()
        try:
            workload.forward_backward(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        metrics[f"decay.manhattan_2d.s{c.side}.ms"] = (_ms(decay_s), "ms")
        metrics[base + ".fwd_ms"] = (_ms(fwd_s), "ms")
        metrics[base + ".fwd_bwd_ms"] = (_ms(fwd_bwd_s), "ms")
        metrics[base + ".peak_mb"] = (peak / 1e6, "MB")
    c = workload.cases[-1]
    bwd_s = []
    for _ in range(REPEATS):
        tracer.new_op()
        loss = tensor.sum_all(tensor.hadamard(attention.masa_full(*c.tracked, c.grid, workload.GAMMA),
                                              c.cotangent))
        nodes, mb = _tape(loss)
        with tracer.span("tensor.backward") as record:
            tensor.backward(loss)
        bwd_s.append(seconds(record))
        for t in c.tracked:
            t.zero_grad()
    tag = f"tensor.masa_full_s{c.side}"
    metrics[tag + ".tape_nodes"] = (nodes, "count")
    metrics[tag + ".tape_mb"] = (mb, "MB")
    metrics[tag + ".backward_ms"] = (_ms(bwd_s), "ms")
    for side, ms in one_thread_forward_ms(seed).items():
        metrics[f"attention.masa_full.s{side}.fwd_ms_1thread"] = (ms, "ms")
    return metrics


def one_thread_forward_ms(seed: int) -> dict:
    """``masa_full`` forward medians per side, from a child process pinned to one BLAS thread."""
    child = Path(__file__).with_name("child.py")
    done = subprocess.run([sys.executable, str(child), "one-thread", str(seed)],
                          capture_output=True, text=True, timeout=ONE_THREAD_TIMEOUT_S)
    check(done.returncode == 0, f"one-thread baseline failed:\n{done.stderr}")
    return {int(side): ms for side, ms in json.loads(done.stdout.splitlines()[-1]).items()}


PROBES = (train_probe, rmt_probe, masa_probe)
