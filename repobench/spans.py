"""In-memory span tracer for the traced benchmark run.

Spans are recorded around calls into the program's public functions by
wrappers the benchmark installs from outside (:meth:`Tracer.patch`), so
the untraced run executes the program exactly as shipped.  Each span is
``[name, start, end, parent, report_id]`` with ``parent`` the index of
the enclosing span (``-1`` at top level).  Every wrapped function is
synchronous and the benchmark runs on one thread, so a plain stack gives
the parent: a span's children always nest inside it.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

__all__ = ["Tracer", "percentile"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class Tracer:
    """Collects spans and counters; installs and removes wrappers."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller (set-up phases)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, None])

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def wrap(
        self,
        name: str | None,
        fn: Callable[..., Any],
        report_of: Callable[..., object] | None = None,
        after: Callable[[tuple, Any, float], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``.

        ``report_of(*args)`` names the request the call serves;
        ``after(args, result, seconds)`` sees each completed call.  With
        ``name=None`` no span is kept and ``after`` gets 0.0 seconds: a
        cheap tap for calls too frequent to keep a span each.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        if name is None:

            def tap(*args: Any, **kwargs: Any) -> Any:
                result = fn(*args, **kwargs)
                after(args, result, 0.0)
                return result

            return tap

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            rid = report_of(*args) if report_of is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, rid]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result, span[2] - span[1])
            return result

        return wrapper

    def patch(
        self, owner: object, attr: str, name: str | None, **hooks: Any
    ) -> None:
        """Replace ``owner.attr`` by its traced wrapper until :meth:`unpatch`.

        ``owner`` may be a module, a class or an instance; an instance
        attribute that shadows a method is deleted again on unpatch.
        """
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **hooks))
        self._patches.append((owner, attr, had_own, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the time its child spans
        cover; children nest inside their parent, so that is the sum of
        the children's durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _rid in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _parent, _rid) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[index]
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _p, _r in self.spans if n == name]

    def write(self, path: Path) -> None:
        """Write every span, one JSON array per line, then one object
        with the counters and the per-name layer table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            out.write(
                json.dumps({"counters": self.counters, "table": self.table()}) + "\n"
            )
