"""Nested timed spans over the mapping hot path.

The :class:`Tracer` produces a tree of :class:`Span` objects — ``search``
at the root, with ``expand`` / ``heuristic`` / ``filter`` / ``prefix``
children — each carrying wall-clock start/end times and free-form
attributes.  Finished spans stream to an optional sink as JSONL records
(so a crashed or budget-killed run keeps its trail) and stay in memory
for the human-readable tree renderer.

Overhead discipline: callers that run with tracing disabled must never
construct span objects.  :data:`NULL_TRACER` exposes the same API with a
shared no-op span, and its :meth:`~Tracer.wrap` hands functions back
unwrapped, so a search loop that wraps its steps once pays nothing per
call when no spans are recorded.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from .sinks import Sink

#: Tracers stop recording past this many spans (the no-op span is handed
#: out instead) so a pathological run cannot exhaust memory or disk.
DEFAULT_MAX_SPANS = 100_000

# Span names used by the search instrumentation.
SPAN_SEARCH = "search"
SPAN_EXPAND = "expand"
SPAN_HEURISTIC = "heuristic"
SPAN_FILTER = "filter"
SPAN_PREFIX = "prefix"


class Span:
    """One timed region; usable as a context manager.

    Attributes:
        name: Span kind (``search``, ``expand``, ...).
        attrs: Free-form attributes recorded at open or via :meth:`set`.
        start: ``perf_counter`` timestamp at open.
        end: Timestamp at close (``None`` while open).
        children: Nested spans, in open order.
    """

    __slots__ = (
        "name", "attrs", "start", "end", "children", "span_id",
        "parent_id", "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        attrs: Dict,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start = 0.0
        self.end: Optional[float] = None
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        """Seconds from open to close (to *now* while still open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def set(self, **attrs) -> "Span":
        """Attach attributes to an open span; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        self.end = time.perf_counter()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._finish(self)

    def to_record(self, depth: int = 0) -> Dict:
        """Flat JSONL record for this span."""
        return {
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": round(self.start, 6),
            "duration_ms": round(self.duration * 1000.0, 4),
            "depth": depth,
            "attrs": dict(self.attrs),
        }


class _NullSpan:
    """Shared do-nothing span handed out by disabled tracers."""

    __slots__ = ()

    def set(self, **_attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Produces nested spans; streams finished ones to an optional sink.

    Args:
        sink: Destination for finished-span records (``None`` keeps spans
            in memory only).
        max_spans: Recording cap; once reached, :meth:`span` returns the
            shared no-op span so long runs degrade gracefully.
    """

    def __init__(
        self, sink: Optional[Sink] = None, max_spans: int = DEFAULT_MAX_SPANS
    ) -> None:
        self.enabled = True
        self.sink = sink
        self.max_spans = max_spans
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._count = 0
        self.dropped = 0

    def span(self, name: str, **attrs):
        """Open a span nested under the currently-open one."""
        if self._count >= self.max_spans:
            self.dropped += 1
            return NULL_SPAN
        self._count += 1
        parent = self._stack[-1] if self._stack else None
        span = Span(
            self,
            name,
            span_id=self._count,
            parent_id=parent.span_id if parent is not None else None,
            attrs=attrs,
        )
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def wrap(self, name: str, fn):
        """``fn`` recorded as one ``name`` span per call.

        Search loops wrap their batch steps once, before the loop, so a
        loop without a recording tracer calls the bare functions.
        """
        span = self.span

        def spanned(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return spanned

    def _finish(self, span: Span) -> None:
        # Spans close LIFO under context-manager discipline; tolerate an
        # exception unwinding several at once by popping to the span.
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        if self.sink is not None:
            self.sink.emit(span.to_record(depth=len(self._stack)))

    @property
    def num_spans(self) -> int:
        """Spans recorded so far (excluding those dropped by the cap)."""
        return self._count

    def render_tree(self, max_children: int = 20) -> str:
        """Human-readable indented tree of all recorded spans.

        Args:
            max_children: Per-parent display cap; siblings beyond it are
                summarized in one ``... (+N more)`` line.
        """
        lines: List[str] = []

        def walk(span: Span, depth: int) -> None:
            attrs = " ".join(
                f"{k}={v}" for k, v in span.attrs.items()
            )
            lines.append(
                f"{'  ' * depth}{span.name:<10} "
                f"{span.duration * 1000.0:9.3f} ms"
                + (f"  {attrs}" if attrs else "")
            )
            shown = span.children[:max_children]
            for child in shown:
                walk(child, depth + 1)
            hidden = len(span.children) - len(shown)
            if hidden > 0:
                rest = sum(c.duration for c in span.children[max_children:])
                lines.append(
                    f"{'  ' * (depth + 1)}... (+{hidden} more spans, "
                    f"{rest * 1000.0:.3f} ms)"
                )

        for root in self.roots:
            walk(root, 0)
        if self.dropped:
            lines.append(f"... ({self.dropped} spans dropped by max_spans cap)")
        return "\n".join(lines)


class _NullTracer:
    """Disabled tracer: same surface, no work, no allocation."""

    __slots__ = ()
    enabled = False
    roots: List[Span] = []
    num_spans = 0
    dropped = 0

    def span(self, _name: str, **_attrs) -> _NullSpan:
        return NULL_SPAN

    def wrap(self, _name: str, fn):
        return fn

    def render_tree(self, max_children: int = 20) -> str:
        return ""


NULL_TRACER = _NullTracer()
