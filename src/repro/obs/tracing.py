"""Span-based tracing with JSON and Chrome trace-event export.

Usage::

    from repro.obs import get_tracer

    with get_tracer().span("engine.execute", s=s, t=t):
        ...

Spans nest: a span entered while another is open records it as its
parent, so an exported trace reconstructs the full call tree
(``construction.plane`` > ``construction.labels`` > ...).  While the
tracer is disabled, :meth:`Tracer.span` returns a shared no-op context
manager and records nothing — the disabled cost is one attribute check
plus building the (usually empty) ``attrs`` dict at the call site.

Exports:

- :meth:`Tracer.to_json` — schema-versioned flat span table with parent
  ids (``docs/obs_schema.json``);
- :meth:`Tracer.to_chrome` — ``chrome://tracing`` / Perfetto trace-event
  format (complete ``"ph": "X"`` events, microsecond timestamps), so a
  ``repro query --trace out.json`` file loads directly into the browser.

Timestamps come from ``time.perf_counter`` relative to the tracer's
epoch (reset on :meth:`Tracer.reset`), so traces are self-consistent but
not wall-clock anchored.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from time import perf_counter
from typing import Any

__all__ = ["Span", "Tracer", "get_tracer", "TRACE_SCHEMA"]

#: Schema identifier stamped on JSON trace exports (and the Chrome
#: export's ``otherData`` section).
TRACE_SCHEMA = "repro.obs.trace/1"


class _NoopSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class Span:
    """One live (or finished) span; use via ``with tracer.span(...)``."""

    __slots__ = ("tracer", "name", "attrs", "id", "parent", "start", "end")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.id = -1
        self.parent = -1
        self.start = 0.0
        self.end = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes after entry (e.g. results discovered inside)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.tracer._enter(self)
        return self

    def __exit__(self, *exc: object) -> bool:
        self.tracer._exit(self)
        return False


class Tracer:
    """Collects nested spans; disabled (and recording nothing) by default."""

    def __init__(self, max_spans: int = 1_000_000) -> None:
        self.enabled = False
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans: list[Span] = []
        self._next_id = 0
        self._epoch = perf_counter()
        self.dropped = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any):
        """Open a span (context manager); no-op while disabled."""
        if not self.enabled:
            return _NOOP
        return Span(self, name, attrs)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: "Span | None" = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-finished span timed by ``perf_counter``.

        For callers that time a phase themselves and report it afterwards
        (the query engine builds its spans from the per-query record).
        ``parent`` defaults to this thread's innermost open span.  Only
        call while :attr:`enabled`.
        """
        span = Span(self, name, attrs)
        if parent is None:
            stack = self._stack()
            span.parent = stack[-1].id if stack else -1
        else:
            span.parent = parent.id
        span.start = start
        span.end = end
        with self._lock:
            span.id = self._next_id
            self._next_id += 1
            if len(self._spans) < self.max_spans:
                self._spans.append(span)
            else:
                self.dropped += 1
        return span

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, span: Span) -> None:
        stack = self._stack()
        span.parent = stack[-1].id if stack else -1
        with self._lock:
            span.id = self._next_id
            self._next_id += 1
        stack.append(span)
        span.start = perf_counter()

    def _exit(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - unbalanced exit, tolerate
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            if len(self._spans) < self.max_spans:
                self._spans.append(span)
            else:
                self.dropped += 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self._spans = []
            self._next_id = 0
            self.dropped = 0
            self._epoch = perf_counter()
        self._local = threading.local()

    def __len__(self) -> int:
        return len(self._spans)

    @property
    def spans(self) -> list[Span]:
        """Finished spans, in the order they were recorded."""
        return list(self._spans)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Schema-versioned flat export with explicit parent links."""
        epoch = self._epoch
        return {
            "schema": TRACE_SCHEMA,
            "dropped_spans": self.dropped,
            "spans": [
                {
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "start_s": s.start - epoch,
                    "duration_s": s.end - s.start,
                    "attrs": s.attrs,
                }
                for s in self._spans
            ],
        }

    def to_chrome(self) -> dict:
        """``chrome://tracing`` trace-event document (complete events)."""
        epoch = self._epoch
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - epoch) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {str(k): v for k, v in s.attrs.items()},
            }
            for s in self._spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": TRACE_SCHEMA, "dropped_spans": self.dropped},
        }

    def write(self, path: str | Path, format: str = "chrome") -> None:
        """Write the trace to ``path`` as ``chrome`` or ``json``."""
        if format == "chrome":
            document: dict = self.to_chrome()
        elif format == "json":
            document = self.to_json()
        else:
            raise ValueError(f"unknown trace format {format!r} (chrome|json)")
        Path(path).write_text(
            json.dumps(document, separators=(",", ":")) + "\n", encoding="utf-8"
        )


#: The process-wide tracer every instrumented module shares.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide :class:`Tracer` singleton."""
    return _TRACER
