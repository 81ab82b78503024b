"""In-memory spans around the calls the benchmark makes into braidax.

Spans are recorded only from the benchmark's own code: the tracer wraps
library functions at the call boundary (and the kernel namespace handed to
``SkeinEngine(kernels=...)``), so nothing inside ``src/`` changes.  Each span
keeps its name, its start and end, and the span that was open when it began,
so every kernel span of one evaluation descends from its ``conway.truncated``
span.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

# Kernel primitives the skein engine calls, in the order of its recursion.
ENGINE_KERNELS = (
    "reidemeister_simplify",
    "compact",
    "trace_inports",
    "split_components",
    "chain_scan",
    "smooth_inplace",
    "switch_inplace",
    "linking_counts",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, parent index, start, end]
        self._stack = [-1]
        self.origin = time.perf_counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        nid = self._id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [nid, stack[-1], 0.0, 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def kernels(self, base: SimpleNamespace) -> SimpleNamespace:
        """A copy of a kernel namespace with the engine's primitives traced."""
        ns = SimpleNamespace(**vars(base))
        for k in ENGINE_KERNELS:
            setattr(ns, k, self.wrap(f"kernels.{k}", getattr(base, k)))
        return ns

    def totals(self) -> dict[str, dict]:
        """Per span name: call count, total seconds, and self seconds (total
        minus the time covered by traced child spans)."""
        child = [0.0] * len(self.spans)
        for nid, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i, (nid, parent, t0, t1) in enumerate(self.spans):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
        return out

    def dump(self, path) -> None:
        """Write every span, with times relative to the tracer's creation."""
        o = self.origin
        rows = [[nid, parent, round(t0 - o, 7), round(t1 - o, 7)]
                for nid, parent, t0, t1 in self.spans]
        with open(path, "w") as f:
            json.dump({"names": self.names, "columns": ["name", "parent", "start", "end"],
                       "spans": rows}, f, separators=(",", ":"))
