"""Command-line front end: decay dumps, model statistics, scaling benchmarks,
and the training demo.

Grammar: ``masa-kit <dump-decay|model-stats|scaling|train-demo> [flags]``.
Every subcommand exits 0 on success and 1 with a one-line ``error:`` diagnostic
on failure, usage errors included. Set ``MASA_KIT_THREADS`` to a positive
integer to pin the numeric worker count; the package applies it before numpy
loads, the value lands in the benchmark CSV's ``workers`` column, and any
other value is refused with the same ``error:`` line.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _threads, attention, blocks, decay, train
from .errors import ConfigurationError, MasaKitError
from .tensor import Tensor, count_macs

MAX_BENCH_SIDE = 96


@dataclass(frozen=True)
class BenchRecord:
    """One scaling-benchmark measurement; wall time is a median of repeats."""

    mode: str
    height: int
    width: int
    head_dim: int
    macs: int
    wall_ns: int
    workers: str

    def __post_init__(self) -> None:
        if self.macs <= 0 or self.wall_ns <= 0:
            raise MasaKitError(f"benchmark record needs positive counts, got {self}")

    def row(self) -> list[str]:
        return [self.mode, str(self.height), str(self.width), str(self.head_dim),
                str(self.macs), str(self.wall_ns), self.workers]


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips the float64 exactly."""
    return np.format_float_positional(value, unique=True, trim="-")


def _check_writable(path: Path) -> None:
    """Fail before the work, not after it, if ``path`` cannot be written; leaves no new file."""
    existed = path.exists()
    try:
        open(path, "a").close()
    except OSError as exc:
        raise MasaKitError(f"cannot write {path}: {exc}") from exc
    if not existed:
        path.unlink()


def _write_csv(path: Path, header: list[str] | None, rows: list[list[str]]) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if header is not None:
                writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise MasaKitError(f"cannot write {path}: {exc}") from exc


def _matrix_rows(matrix: np.ndarray) -> list[list[str]]:
    return [[_fmt(v) for v in row] for row in matrix]


def cmd_dump_decay(args: argparse.Namespace) -> int:
    grid = decay.GridShape(args.height, args.width)
    d2d = decay.decay_manhattan_2d(grid, args.gamma)
    out = Path(args.out)
    _write_csv(out, None, _matrix_rows(d2d.data))
    print(f"wrote {grid.size}x{grid.size} decay matrix to {out}")
    if args.decomposed:
        d_h, d_w = decay.decay_axial_pair(grid, args.gamma)
        for suffix, mat in (("_h", d_h), ("_w", d_w)):
            side = out.with_name(out.stem + suffix + out.suffix)
            _write_csv(side, None, _matrix_rows(mat.data))
            print(f"wrote axial factor to {side}")
    if args.kron_check:
        d_h, d_w = decay.decay_axial_pair(grid, args.gamma)
        diff = float(np.max(np.abs(np.kron(d_h.data, d_w.data) - d2d.data)))
        print(f"factorization max abs diff: {_fmt(diff)}")
        if diff >= 1e-12:
            raise MasaKitError(f"axial factorization diverges from the 2D matrix by {diff}")
    return 0


def _resolve_config(args: argparse.Namespace) -> blocks.ModelConfig:
    if not args.config:
        return blocks.preset_config(args.preset)
    path = Path(args.config)
    try:
        return blocks.ModelConfig.from_json(path.read_text())
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not JSON, too deep, or invalid
        raise ConfigurationError(f"model config {path}: {exc}") from exc


def cmd_model_stats(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    resolution = config.input_resolution if args.resolution is None else args.resolution
    params = blocks.count_params_analytic(config)
    macs = blocks.count_flops(config, resolution)
    print(f"resolution: {resolution}x{resolution}")
    print(f"parameters: {params} ({params / 1e6:.2f} M)")
    print(f"flops:      {macs} MACs ({macs / 1e9:.2f} G)")
    print(f"{'section':<8} {'grid':>8} {'params':>12} {'macs':>14}")
    for row in blocks.flops_by_stage(config, resolution):
        print(f"{row['section']:<8} {row['grid']:>8} {row['params']:>12} {row['macs']:>14}")
    return 0


_BENCH_KERNELS = {
    "full": attention.masa_full,
    "decomposed": attention.masa_decomposed,
    "vanilla": lambda q, k, v, grid, gamma: attention.masa_full(q, k, v, grid, None),
}


def cmd_scaling(args: argparse.Namespace) -> int:
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        raise MasaKitError(f"--modes names no mode; choose from {', '.join(sorted(_BENCH_KERNELS))}")
    for mode in modes:
        if mode not in _BENCH_KERNELS:
            raise MasaKitError(f"unknown mode {mode!r}; choose from {', '.join(sorted(_BENCH_KERNELS))}")
    try:
        sides = [int(s) for s in args.sides.split(",") if s.strip()]
    except ValueError:
        raise MasaKitError(f"--sides must be comma-separated integers, got {args.sides!r}") from None
    if not sides:
        raise MasaKitError("--sides names no grid side")
    if any(s < 2 for s in sides):
        raise MasaKitError("benchmark sides must be at least 2")
    if args.head_dim < 1:
        raise MasaKitError(f"--head-dim must be positive, got {args.head_dim}")
    if args.repeats < 3:
        raise MasaKitError(f"need at least 3 repeats for a stable median, got {args.repeats}")
    _check_writable(Path(args.out))
    capped = [min(s, MAX_BENCH_SIDE) for s in sides]
    if capped != sides:
        print(f"note: sides capped at {MAX_BENCH_SIDE} to bound memory", file=sys.stderr)
    rng = np.random.default_rng(args.seed)
    rows = []
    for mode in modes:
        for side in capped:
            grid = decay.GridShape(side, side)
            q = Tensor(rng.standard_normal((grid.size, args.head_dim)))
            k = Tensor(rng.standard_normal((grid.size, args.head_dim)))
            v = Tensor(rng.standard_normal((grid.size, args.head_dim)))
            kernel = _BENCH_KERNELS[mode]
            analytic = attention.attention_score_apply_macs(mode, side, side, args.head_dim)
            kernel(q, k, v, grid, args.gamma)  # warmup
            times = []
            for _ in range(args.repeats):
                with count_macs() as counter:
                    start = time.perf_counter_ns()
                    kernel(q, k, v, grid, args.gamma)
                    times.append(time.perf_counter_ns() - start)
                measured = counter.total
            if measured != analytic:
                raise MasaKitError(
                    f"instrumented MACs {measured} disagree with analytic {analytic} "
                    f"for mode={mode} side={side}")
            record = BenchRecord(mode=mode, height=side, width=side,
                                 head_dim=args.head_dim, macs=analytic,
                                 wall_ns=int(np.median(times)), workers=_threads.workers())
            rows.append(record.row())
            print(f"{mode:<10} side={side:<4} macs={analytic:<14} median={record.wall_ns} ns")
    _write_csv(Path(args.out), ["mode", "height", "width", "head_dim", "macs", "wall_ns", "workers"],
               rows)
    print(f"wrote {len(rows)} benchmark rows to {args.out}")
    return 0


def cmd_train_demo(args: argparse.Namespace) -> int:
    for flag, value in (("--steps", args.steps), ("--samples", args.samples)):
        if value < 1:
            raise MasaKitError(f"{flag} must be positive, got {value}")
    _check_writable(Path(args.out))
    model_config = blocks.preset_config("tiny")
    data_config = train.DataConfig(seed=args.seed, n=args.samples,
                                   resolution=model_config.input_resolution, num_classes=2)
    metrics = train.train_loop(model_config, data_config, args.steps, seed=args.seed,
                               eval_interval=args.eval_interval)
    rows = [[str(r.step), _fmt(r.loss), _fmt(r.accuracy)] for r in metrics.records]
    _write_csv(Path(args.out), ["step", "loss", "train_accuracy"], rows)
    print(f"initial accuracy: {_fmt(metrics.initial.accuracy)} (loss {_fmt(metrics.initial.loss)})")
    print(f"final accuracy:   {_fmt(metrics.final.accuracy)} (loss {_fmt(metrics.final.loss)})")
    print(f"wrote metrics to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error raises ``MasaKitError``, so it too ends in one ``error:`` line and exit 1."""

    def error(self, message: str):
        raise MasaKitError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="masa-kit", description="Manhattan self-attention toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dump-decay", help="write a Manhattan decay matrix as CSV")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--decomposed", action="store_true",
                   help="also write the axial factor matrices")
    p.add_argument("--kron-check", action="store_true",
                   help="verify the axial factorization reproduces the 2D matrix")
    p.set_defaults(func=cmd_dump_decay)

    p = sub.add_parser("model-stats", help="parameter and FLOP accounting for a model")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=blocks.PRESET_NAMES)
    group.add_argument("--config", help="path to a model-config JSON file")
    p.add_argument("--resolution", type=int, default=None,
                   help="input resolution to account at (default: the config's input_resolution)")
    p.set_defaults(func=cmd_model_stats)

    p = sub.add_parser("scaling", help="attention-kernel scaling benchmark")
    p.add_argument("--modes", default="full,decomposed,vanilla")
    p.add_argument("--sides", default="4,8,16", help="comma-separated square grid sides")
    p.add_argument("--head-dim", type=int, default=64)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("train-demo", help="train the tiny preset on synthetic data")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--eval-interval", type=int, default=25)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        _threads.workers()  # a bad MASA_KIT_THREADS is refused before any work
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise MasaKitError(f"--seed must be non-negative, got {args.seed}")
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows up here, not at interpreter exit
        return code
    except MasaKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; reduce the grid size", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the output still buffered goes to the null device, so the final flush fails no more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
