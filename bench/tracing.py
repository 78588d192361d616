"""Spans recorded around the benchmark's calls into the program's layers.

A span has a name, a start, an end, its parent span and the operation it
belongs to.  Spans stay in memory and are written out when the run ends.
With tracing off the benchmark uses NullTracer, whose spans record nothing.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        record = {"id": sid, "name": name, "parent": self._open[-1] if self._open else None, "op": self.op}
        self.spans.append(record)
        self._open.append(sid)
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


class NullTracer:
    op = None

    def span(self, name: str):
        return nullcontext({})


def duration(record: dict) -> float:
    return record["end"] - record["start"]
