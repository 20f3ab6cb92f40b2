"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call into a darpkit layer, or one benchmark
operation that contains such calls.  Spans stay in a list until the run
ends and are written out in one piece, so recording costs two clock
reads and one list append per call.
"""

from __future__ import annotations

import time
from collections import defaultdict


def untraced(name, fn, *args):
    """Call ``fn`` without recording anything; the untraced twin of
    :meth:`Tracer.call`."""
    return fn(*args)


class Tracer:
    """Records spans: name, start, end, parent span and operation id.

    Call names are ``<layer>.<function>``, where the layer is the darpkit
    module the function lives in.  Operation spans are named
    ``bench.<phase>`` and parent every call made inside them.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._parent: int | None = None
        self._op: list | None = None

    def begin(self, name: str, op: list) -> int:
        """Open an operation span; calls until :meth:`end` nest under it."""
        sid = len(self.spans)
        self.spans.append({"id": sid, "parent": None, "name": name, "op": op,
                           "start": time.perf_counter(), "end": None})
        self._parent, self._op = sid, op
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter()
        self._parent = self._op = None

    def call(self, name: str, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append({"id": len(self.spans), "parent": self._parent,
                               "name": name, "op": self._op, "start": start,
                               "end": time.perf_counter()})


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}
