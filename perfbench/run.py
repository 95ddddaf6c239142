"""masa-kit benchmark: one closed-loop workload per process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rmt-t-224 --seed 1 --seconds 45 --trace 0

``--trace 0`` runs the workload's loop with tracing off and reports the
end-to-end metrics. ``--trace 1`` runs the same loop with every other
operation traced, then the per-layer probes of every layer; it writes the
spans to ``.bench_out/`` and reports the per-layer metrics. Host facts are
printed first. The last line of stdout is the result, one JSON object with
the keys correct, attempted, failed and metrics. If an operation failed,
the result leaves out the metrics that have no samples, and the exit code is 1.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import bootstrap

bootstrap.pin_threads(bootstrap.THREADS)
bootstrap.use_checkout_sources()

import numpy as np  # noqa: E402  (after the thread pin)
import scipy  # noqa: E402

import probes  # noqa: E402
from spans import NULL, Tracer  # noqa: E402
from workloads import WORKLOADS, Tally, run_loop  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120
OUT_DIR = bootstrap.ROOT / ".bench_out"

# The issue-level names of end-to-end metrics that a workload reports under a
# shared name: on train-tiny a forward-only operation is an evaluate pass and
# a forward+backward operation is a train_step.
ALIASES = {
    "train-tiny": {"train_step_ms.p50": "fwd_bwd_ms.p50", "train_step_ms.p75": "fwd_bwd_ms.p75",
                   "eval_ms.p50": "fwd_ms.p50", "images_per_s": "samples_per_s"},
}


def _getconf(name: str) -> int | None:
    try:
        done = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(done.stdout.strip())
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache_bytes": {"L1d": _getconf("LEVEL1_DCACHE_SIZE"), "L2": _getconf("LEVEL2_CACHE_SIZE"),
                        "L3": _getconf("LEVEL3_CACHE_SIZE")},
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "MASA_KIT_THREADS": os.environ["MASA_KIT_THREADS"],
    }


def child_setup_seconds(workload: str, seed: int) -> float:
    """Import plus set-up time of ``workload`` in a fresh interpreter."""
    child = bootstrap.ROOT / "perfbench" / "child.py"
    done = subprocess.run([sys.executable, str(child), "setup", workload, str(seed)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"error: set-up of {workload} failed:\n{done.stderr}")
    return float(done.stdout.splitlines()[-1])


def p75(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def end_to_end(args, tally: Tally) -> dict:
    setup_s = statistics.median(child_setup_seconds(args.workload, args.seed)
                                for _ in range(SETUP_REPEATS))
    workload = WORKLOADS[args.workload](args.seed)
    workload.prepare_checks()
    tally.attempt(workload.warmup)
    samples, window = run_loop(workload, args.seconds, tally)
    tally.attempt(workload.finish)
    fwd = [t * 1e3 for t in samples[("fwd", 0)]]
    fwd_bwd = [t * 1e3 for t in samples[("fwd_bwd", 0)]]
    print(f"samples: fwd {len(fwd)}, fwd_bwd {len(fwd_bwd)}; window {window:.3f} s")
    metrics = {"setup_s": (setup_s, "s")}
    if fwd:
        metrics["fwd_ms.p50"] = (statistics.median(fwd), "ms")
        metrics["fwd_ms.p75"] = (p75(fwd), "ms")
        metrics["gmac_per_s"] = (workload.fwd_macs * len(fwd) / sum(fwd) / 1e6, "GMAC/s")
    if fwd_bwd:
        metrics["fwd_bwd_ms.p50"] = (statistics.median(fwd_bwd), "ms")
        metrics["fwd_bwd_ms.p75"] = (p75(fwd_bwd), "ms")
        metrics["samples_per_s"] = (workload.samples_per_fwd_bwd * len(fwd_bwd) / window, "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["ok_ops_ratio"] = ((tally.attempted - tally.failed) / tally.attempted, "ratio")
    return metrics


def overhead_ratio(cycle: tuple[str, ...], samples: dict) -> float | None:
    """Traced over untraced time of one operation cycle, from per-kind medians; None without samples."""
    untraced = traced = 0.0
    for kind in set(cycle):
        if samples[(kind, 0)] and samples[(kind, 1)]:
            untraced += cycle.count(kind) * statistics.median(samples[(kind, 0)])
            traced += cycle.count(kind) * statistics.median(samples[(kind, 1)])
    return traced / untraced if untraced else None


def per_layer(args, tally: Tally, host: dict) -> dict:
    tracer = Tracer()
    workload = WORKLOADS[args.workload](args.seed)
    workload.prepare_checks()
    tracer.new_op()
    with tracer.span("setup.warmup") as warmup:
        tally.attempt(workload.warmup, tracer)
    samples, _ = run_loop(workload, args.seconds, tally, tracers=(NULL, tracer))
    tally.attempt(workload.finish)
    metrics = {"setup.warmup_s": (warmup["end"] - warmup["start"], "s")}
    ratio = overhead_ratio(workload.cycle, samples)
    if ratio is not None:
        metrics["trace.overhead_ratio"] = (ratio, "ratio")
    del workload
    for probe in probes.PROBES:
        metrics.update(tally.attempt(probe, args.seed, tracer) or {})
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed, "host": host})
    return metrics


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    host = host_facts()
    print("host " + json.dumps(host))
    tally = Tally()
    started = time.perf_counter()
    metrics = per_layer(args, tally, host) if args.trace else end_to_end(args, tally)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace} "
          f"({time.perf_counter() - started:.1f} s)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    if not args.trace:
        for alias, name in ALIASES.get(args.workload, {}).items():
            if name in metrics:
                print(f"  {alias:<46} {metrics[name][0]:>14.6g} {metrics[name][1]}  (= {name})")
    print(f"  {'failed_ops_ratio':<46} {tally.failed / tally.attempted:>14.6g} ratio  "
          f"({tally.failed} of {tally.attempted})")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    if tally.failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
