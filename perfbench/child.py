"""Child processes of the benchmark; each prints one JSON line.

    python3 perfbench/child.py setup <workload> <seed>
        Seconds for import plus the workload's set-up, in a fresh interpreter.
    python3 perfbench/child.py one-thread <seed>
        masa-full-sweep forward medians in ms per grid side, with one BLAS thread.
    python3 perfbench/child.py rmt-logits <seed>
        rmt-t-224 forward logits for the model and image made from ``seed``.
"""

import json
import statistics
import sys
import time

START = time.perf_counter()

import bootstrap  # noqa: E402  (after START, so set-up time counts every import)

ONE_THREAD_REPEATS = 5


def main(argv: list[str]) -> None:
    mode = argv[0]
    bootstrap.pin_threads(1 if mode == "one-thread" else bootstrap.THREADS)
    bootstrap.use_checkout_sources()
    from workloads import WORKLOADS, MasaFullSweep, RmtT224

    if mode == "setup":
        WORKLOADS[argv[1]](int(argv[2]))
        print(json.dumps(time.perf_counter() - START))
        return
    if mode == "rmt-logits":
        print(json.dumps(RmtT224(int(argv[1])).logits().tolist()))
        return
    workload = MasaFullSweep(int(argv[1]))
    workload.prepare_checks()
    workload.op("fwd")
    print(json.dumps({c.side: statistics.median([workload.forward(c) for _ in range(ONE_THREAD_REPEATS)]) * 1e3
                      for c in workload.cases}))


if __name__ == "__main__":
    main(sys.argv[1:])
