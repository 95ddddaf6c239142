"""In-memory spans recorded by the benchmark around calls into masa_kit.

A span has a name, start and end (``time.perf_counter`` seconds), the index
of the span that was open when it started, and the id of the operation it
belongs to. Spans stay in memory and are written out once, at the end of a
traced run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._op = 0

    def new_op(self) -> None:
        """Start a new operation id; later spans belong to it."""
        self._op += 1

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {"name": name, "op": self._op,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans}))


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    def new_op(self) -> None:
        pass

    def span(self, name: str):
        return nullcontext({})


NULL = NullTracer()


def seconds(record: dict) -> float:
    return record["end"] - record["start"]
