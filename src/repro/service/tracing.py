"""Per-request trace spans: where one optimization spent its time.

The paper argues with *per-call* work counters (the ``i``/``r``/``l``
analysis of Sec. III-F), and the service's aggregate metrics
(:mod:`repro.service.metrics`) cannot answer the per-request question an
operator actually asks under load: did this slow request burn its budget
in canonical labeling, in a cache lookup, in admission control, in the
enumerator itself, or in plan rebinding?  This module adds the missing
layer — dependency-free, stdlib-only:

* :class:`Span` — one named, timed pipeline stage with attributes and
  child spans (``prepare`` → ``canonicalize`` → ``cache_lookup`` →
  ``admission`` → ``enumerate``/``degraded_rung`` → ``rebind`` →
  ``store``).
* :class:`Trace` — one request's span tree plus its trace id; built by
  the thread serving the request, exported as a JSON-ready dict.
* :func:`span_to_dict` / :func:`span_from_dict` — the wire form the
  process executor uses to ship worker-side spans back to the parent
  (worker clocks are not comparable across processes, so the wire form
  carries only relative offsets and durations).
* :class:`TraceStore` — bounded in-memory ring of finished traces with
  JSON export, so a service keeps the recent history without unbounded
  growth.
* :class:`Tracer` — the service-facing facade: starts traces (or the
  zero-overhead :data:`NULL_TRACE` when tracing is off), finishes them
  into the store, and emits the **slow-request log** through stdlib
  ``logging`` (logger ``repro.service.slow``) for requests beyond a
  configurable threshold.

Overhead matters: spans on the warm-cache path cost a few
``perf_counter`` calls and one small object each, and the
``observability`` gate in ``benchmarks/gates.py`` holds the total under
5% on a warm-cache batch.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import sys
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "NULL_TRACE",
    "SLOW_LOGGER_NAME",
    "Span",
    "Trace",
    "TraceStore",
    "Tracer",
    "span_from_dict",
    "span_to_dict",
]

#: Logger the slow-request log writes to (stdlib ``logging``; attach a
#: handler or rely on logging's last-resort stderr output).
SLOW_LOGGER_NAME = "repro.service.slow"

# Bound once: the clock is read ~10x per traced request and a global
# attribute lookup per read is measurable on the warm-cache path.
_perf_counter = time.perf_counter


#: Random per-process prefix + monotonic counter = 16-hex-char trace ids
#: that are unique across processes without a per-trace entropy syscall
#: (``os.urandom`` per trace is measurable on the warm-cache path).
_ID_PREFIX = os.urandom(4).hex()
_ID_COUNTER = itertools.count(1)


def _new_trace_id() -> str:
    """Return a 16-hex-char trace id (collision-safe in practice)."""
    return f"{_ID_PREFIX}{next(_ID_COUNTER):08x}"


class Span:
    """One named, timed stage of a request with attributes and children.

    Times are :func:`time.perf_counter` readings local to the recording
    process — only *differences* are meaningful, which is why the wire
    form (:func:`span_to_dict`) exports offsets and durations instead of
    absolute clocks.  Spans are built by one thread at a time and are
    not locked.

    These objects are the *inspection* form: a recording
    :class:`Trace` stores spans as flat arrays and materializes this
    tree lazily, and the process-executor worker builds one directly for
    the wire.
    """

    __slots__ = ("name", "start_s", "end_s", "_attributes", "_children")

    def __init__(self, name: str, start_s: Optional[float] = None):
        self.name = name
        self.start_s = _perf_counter() if start_s is None else start_s
        self.end_s: Optional[float] = None
        # Attribute dict and child list are created on first use: most
        # spans are leaves with few or no attributes.
        self._attributes: Optional[Dict[str, Any]] = None
        self._children: Optional[List["Span"]] = None

    @property
    def attributes(self) -> Dict[str, Any]:
        attributes = self._attributes
        if attributes is None:
            attributes = self._attributes = {}
        return attributes

    @property
    def children(self) -> List["Span"]:
        children = self._children
        if children is None:
            children = self._children = []
        return children

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute (JSON-safe values only, by convention)."""
        self.attributes[key] = value

    def annotate(self, **attributes: Any) -> None:
        """Attach several attributes at once."""
        if self._attributes is None:
            self._attributes = attributes  # kwargs dict is fresh — keep it
        else:
            self._attributes.update(attributes)

    def finish(self, end_s: Optional[float] = None) -> None:
        """Close the span (idempotent: the first finish wins)."""
        if self.end_s is None:
            self.end_s = _perf_counter() if end_s is None else end_s

    @property
    def duration_seconds(self) -> float:
        """Span duration; an unfinished span reads as "up to now"."""
        end = self.end_s if self.end_s is not None else _perf_counter()
        return max(0.0, end - self.start_s)

    def iter_spans(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self._children or ():
            yield from child.iter_spans()

    def find(self, name: str) -> Optional["Span"]:
        """Return the first span named ``name`` in this subtree, or None."""
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    def to_dict(self, origin_s: Optional[float] = None) -> Dict[str, Any]:
        """Export as a JSON-ready dict with times relative to ``origin_s``.

        ``offset_ms`` is the span start relative to the origin (defaults
        to the span's own start, i.e. 0 for the root of an export) and
        ``duration_ms`` its length; children are nested recursively
        against the same origin.
        """
        origin = self.start_s if origin_s is None else origin_s
        return {
            "name": self.name,
            "offset_ms": round((self.start_s - origin) * 1e3, 3),
            "duration_ms": round(self.duration_seconds * 1e3, 3),
            "attributes": dict(self._attributes) if self._attributes else {},
            "children": [
                child.to_dict(origin) for child in self._children or ()
            ],
        }


def span_to_dict(span: Span, origin_s: Optional[float] = None) -> Dict[str, Any]:
    """Serialize one span subtree for the cross-process wire.

    The top-level document is stamped ``"version": 1`` like every other
    wire dict (children inherit their root's version);
    :func:`span_from_dict` tolerates and ignores unknown keys, so the
    stamp costs nothing on the read side.
    """
    document = span.to_dict(origin_s)
    document["version"] = 1
    return document


def span_from_dict(document: Dict[str, Any], base_s: float = 0.0) -> Span:
    """Rebuild a span subtree from its wire form.

    ``base_s`` anchors the subtree on the *receiving* process's
    ``perf_counter`` timeline (worker clocks are not comparable across
    processes); offsets inside the document are preserved relative to
    that anchor.  Malformed fields fall back to safe defaults rather
    than raising — a trace must never take down the request it observes.
    """

    def build(node: Dict[str, Any]) -> Span:
        try:
            offset_s = float(node.get("offset_ms", 0.0)) / 1e3
            duration_s = max(0.0, float(node.get("duration_ms", 0.0)) / 1e3)
        except (TypeError, ValueError):
            offset_s, duration_s = 0.0, 0.0
        span = Span(str(node.get("name", "span")), start_s=base_s + offset_s)
        span.end_s = span.start_s + duration_s
        attributes = node.get("attributes")
        if isinstance(attributes, dict):
            span.attributes.update(attributes)
        children = node.get("children")
        if isinstance(children, list):
            for child in children:
                if isinstance(child, dict):
                    span.children.append(build(child))
        return span

    return build(document)


class Trace:
    """One request's span tree, built stack-wise by the serving thread.

    ``span(name)`` opens a child of the innermost open span (the root if
    none) as a context manager; ``attach_serialized`` grafts spans that
    arrived from a worker process; ``to_dict`` exports the whole tree
    with times relative to the root.

    Recording is allocation-lean: spans live in one flat list with a
    stride of 4 — ``(name, start, end, parent_offset)`` per span — plus
    a sparse ``offset -> attributes`` dict, and the :class:`Span` tree
    the inspection API exposes is materialized lazily — traces are
    recorded on every request but read only when someone looks.  The
    trace *is* the context-manager handle ``span()`` returns (entering
    and exiting only move indices on the open-span stack), so recording
    a span allocates nothing and the trace holds no reference cycle —
    an evicted trace is freed by refcounting alone, without waiting for
    the cycle collector.  ``set``/``annotate`` route to the innermost
    open span, which is exactly the span the enclosing ``with`` block
    opened; ``set_root``/``annotate_root`` target the root explicitly.
    """

    is_recording = True

    #: Slots per span in ``_data``: name, start_s, end_s, parent offset.
    _STRIDE = 4

    __slots__ = (
        "trace_id",
        "tag",
        "started_at",
        "_data",
        "_attrs",
        "_open",
        "_grafts",
        "_tree",
    )

    def __init__(
        self,
        name: str,
        tag: Optional[str] = None,
        trace_id: Optional[str] = None,
    ):
        # Inline _new_trace_id: one request == one trace, so even a
        # single extra function call here is visible in the gate bench.
        self.trace_id = (
            trace_id
            if trace_id is not None
            else f"{_ID_PREFIX}{next(_ID_COUNTER):08x}"
        )
        self.tag = tag
        self.started_at = time.time()  # wall clock, for export only
        self._attrs: Dict[int, Dict[str, Any]] = {}
        self._open: List[int] = [0]
        self._grafts: Optional[List[Span]] = None
        self._tree: Optional[Span] = None
        self._data: List[Any] = [name, _perf_counter(), None, -1]

    def _reset(self, name: str, tag: Optional[str]) -> None:
        """Re-arm a recycled trace for a fresh request.

        Reuses the containers in place — their allocated capacity
        survives ``clear``, so a recycled trace records a whole request
        without a single list growth — and stamps a fresh trace id.
        Only the store hands out recycled traces, and only when it has
        proven the evicted trace is sole-owned (see
        :meth:`TraceStore.add`), so no external holder can observe the
        mutation.
        """
        self.trace_id = f"{_ID_PREFIX}{next(_ID_COUNTER):08x}"
        self.tag = tag
        self.started_at = time.time()
        if self._attrs:
            self._attrs.clear()
        del self._open[1:]  # the root offset 0 is never popped
        self._grafts = None
        self._tree = None
        data = self._data
        data.clear()
        data += (name, _perf_counter(), None, -1)

    # -- recording -----------------------------------------------------

    def span(self, name: str, **attributes: Any) -> "Trace":
        """Open a child span of the innermost open span (context manager)."""
        data = self._data
        offset = len(data)
        open_stack = self._open
        parent = open_stack[-1]
        open_stack.append(offset)
        if attributes:
            self._attrs[offset] = attributes  # kwargs dict is fresh
        data += (name, _perf_counter(), None, parent)
        return self

    def __enter__(self) -> "Trace":
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        stack = self._open
        if len(stack) > 1:  # never pop the root
            offset = stack.pop()
            if exc is not None:
                attrs = self._attrs.get(offset)
                if attrs is None:
                    self._attrs[offset] = {
                        "error": f"{exc_type.__name__}: {exc}"
                    }
                elif "error" not in attrs:
                    attrs["error"] = f"{exc_type.__name__}: {exc}"
            data = self._data
            if data[offset + 2] is None:
                data[offset + 2] = _perf_counter()
        return None  # never swallow the exception

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute to the innermost open span."""
        offset = self._open[-1]
        attrs = self._attrs.get(offset)
        if attrs is None:
            self._attrs[offset] = {key: value}
        else:
            attrs[key] = value

    def annotate(self, **attributes: Any) -> None:
        """Attach several attributes to the innermost open span."""
        offset = self._open[-1]
        attrs = self._attrs.get(offset)
        if attrs is None:
            self._attrs[offset] = attributes  # kwargs dict is fresh
        else:
            attrs.update(attributes)

    def set_root(self, key: str, value: Any) -> None:
        """Attach one attribute to the root span."""
        attrs = self._attrs.get(0)
        if attrs is None:
            self._attrs[0] = {key: value}
        else:
            attrs[key] = value
        self._tree = None  # invalidate any materialized tree

    def annotate_root(self, **attributes: Any) -> None:
        """Attach several attributes to the root span."""
        attrs = self._attrs.get(0)
        if attrs is None:
            self._attrs[0] = attributes  # kwargs dict is fresh
        else:
            attrs.update(attributes)
        self._tree = None  # invalidate any materialized tree

    def current_name(self) -> str:
        """Name of the innermost open span (the root if nothing else is)."""
        return self._data[self._open[-1]]

    def attach_serialized(
        self,
        documents: Sequence[Dict[str, Any]],
        elapsed_hint: Optional[float] = None,
    ) -> None:
        """Graft worker-side spans (wire dicts) under the root.

        ``elapsed_hint`` — how long ago (seconds) the remote work
        started, as observed by this process — anchors the grafted spans
        on the local timeline; without it they anchor at "now".
        """
        base_s = _perf_counter() - (elapsed_hint or 0.0)
        grafts = self._grafts
        if grafts is None:
            grafts = self._grafts = []
        for document in documents:
            if isinstance(document, dict):
                grafts.append(span_from_dict(document, base_s))
        self._tree = None  # invalidate any materialized tree

    def finish(self) -> None:
        """Close every still-open span, root last (idempotent)."""
        now = _perf_counter()
        data = self._data
        stack = self._open
        while len(stack) > 1:
            offset = stack.pop()
            if data[offset + 2] is None:
                data[offset + 2] = now
        if data[2] is None:
            data[2] = now

    # -- inspection / export -------------------------------------------

    @property
    def root(self) -> Span:
        """The materialized span tree (built lazily, cached once closed)."""
        tree = self._tree
        if tree is not None:
            return tree
        data = self._data
        attrs = self._attrs
        spans: Dict[int, Span] = {}
        for offset in range(0, len(data), self._STRIDE):
            span = Span(data[offset], start_s=data[offset + 1])
            span.end_s = data[offset + 2]
            span_attrs = attrs.get(offset)
            if span_attrs:
                span._attributes = dict(span_attrs)
            parent = data[offset + 3]
            if parent >= 0:
                spans[parent].children.append(span)
            spans[offset] = span
        tree = spans[0]
        if self._grafts:
            # Grafted worker spans are anchored on the local timeline, so
            # a sort by start restores chronological order among the
            # root's children (e.g. enumerate lands before store).
            tree.children.extend(self._grafts)
            tree.children.sort(key=lambda span: span.start_s)
        if tree.end_s is not None:  # finished: safe to cache
            self._tree = tree
        return tree

    @property
    def duration_seconds(self) -> float:
        end = self._data[2]
        if end is None:
            end = _perf_counter()
        return max(0.0, end - self._data[1])

    def find(self, name: str) -> Optional[Span]:
        """Return the first span named ``name`` anywhere in the tree."""
        return self.root.find(name)

    def span_count(self) -> int:
        """Total spans in the tree, root included."""
        return sum(1 for _ in self.root.iter_spans())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready export: id, tag, wall-clock start, and the span tree."""
        root = self.root
        return {
            "trace_id": self.trace_id,
            "tag": self.tag,
            "started_at": self.started_at,
            "duration_ms": round(self.duration_seconds * 1e3, 3),
            "root": root.to_dict(root.start_s),
        }


class _NullSpan:
    """No-op span: accepts attributes, records nothing.

    Doubles as its own (inert) context manager, mirroring :class:`Span`.
    """

    __slots__ = ()
    name = "null"
    attributes: Dict[str, Any] = {}
    children: List[Span] = []

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, key: str, value: Any) -> None:
        pass

    def annotate(self, **attributes: Any) -> None:
        pass

    def finish(self, end_s: Optional[float] = None) -> None:
        pass


class _NullTrace:
    """Zero-overhead stand-in used when tracing is disabled.

    Mirrors the :class:`Trace` surface the service touches so the hot
    path needs no ``if tracing:`` branches; ``trace_id`` is ``None`` so
    results served without tracing are recognizable.
    """

    is_recording = False
    trace_id: Optional[str] = None
    tag: Optional[str] = None

    @property
    def root(self) -> _NullSpan:
        return _NULL_SPAN

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def set_root(self, key: str, value: Any) -> None:
        pass

    def annotate_root(self, **attributes: Any) -> None:
        pass

    def current_name(self) -> str:
        return _NULL_SPAN.name

    def attach_serialized(self, documents, elapsed_hint=None) -> None:
        pass

    def finish(self) -> None:
        pass


_NULL_SPAN = _NullSpan()

#: Shared no-op trace; safe default for every ``trace=`` parameter.
NULL_TRACE = _NullTrace()


#: ``sys.getrefcount`` where the interpreter provides a meaningful one
#: (CPython); the trace-recycling fast path is disabled otherwise.
_getrefcount = (
    sys.getrefcount if sys.implementation.name == "cpython" else None
)


class TraceStore:
    """Bounded, thread-safe ring of finished traces (most recent kept).

    ``capacity`` traces are retained; older ones fall off silently (the
    ``dropped`` counter records how many).  Export is JSON-ready.

    Evicted traces that are provably *sole-owned* — nobody else holds a
    reference — are recycled through a small pool instead of being
    freed, which keeps the steady-state warm path free of trace-object
    allocation and teardown (both show up in the overhead gate).  A
    trace anyone still holds (``last()``, ``get()``, ``traces()``
    snapshots...) is never recycled, so external references stay
    immutable history.
    """

    #: Recycled sole-owned evictees kept for reuse; small on purpose —
    #: under steady load one entry cycles continuously.
    _POOL_LIMIT = 4

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"trace store capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._traces: Deque[Trace] = deque(maxlen=capacity)
        self._added = 0
        self._pool: List[Trace] = []

    def add(self, trace: Trace) -> None:
        """Retain one finished trace (evicting the oldest beyond capacity)."""
        with self._lock:
            traces = self._traces
            evicted = (
                traces.popleft() if len(traces) == self.capacity else None
            )
            traces.append(trace)
            self._added += 1
            if (
                evicted is not None
                and _getrefcount is not None
                and len(self._pool) < self._POOL_LIMIT
                and _getrefcount(evicted) == 2  # this local + the argument
            ):
                self._pool.append(evicted)

    def _take_recycled(self) -> Optional[Trace]:
        """Pop one recyclable trace, or None (used by :class:`Tracer`)."""
        pool = self._pool
        if not pool:
            return None
        with self._lock:
            return pool.pop() if pool else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    @property
    def dropped(self) -> int:
        """Traces evicted by the ring so far."""
        with self._lock:
            return max(0, self._added - len(self._traces))

    def last(self) -> Optional[Trace]:
        """The most recently finished trace, or None."""
        with self._lock:
            return self._traces[-1] if self._traces else None

    def get(self, trace_id: str) -> Optional[Trace]:
        """Look a retained trace up by id (linear scan; the ring is small)."""
        with self._lock:
            for trace in reversed(self._traces):
                if trace.trace_id == trace_id:
                    return trace
        return None

    def traces(self) -> List[Trace]:
        """Snapshot of retained traces, oldest first."""
        with self._lock:
            return list(self._traces)

    def export(self) -> List[Dict[str, Any]]:
        """JSON-ready dicts for every retained trace, oldest first."""
        return [trace.to_dict() for trace in self.traces()]

    def to_json(self, indent: Optional[int] = None) -> str:
        """The full store as one JSON array string."""
        return json.dumps(self.export(), indent=indent, sort_keys=True)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self._pool.clear()


class Tracer:
    """Service-facing facade: start/finish traces, store them, log slow ones.

    ``enabled=False`` makes :meth:`start` hand out :data:`NULL_TRACE`,
    so every downstream ``trace.span(...)`` is a no-op — the knob the
    overhead benchmark flips.  ``slow_log_ms`` (None = off) is the
    slow-request threshold: any finished trace at least that long is
    logged at ``WARNING`` on ``repro.service.slow`` with a per-stage
    breakdown, which is the grep-able breadcrumb an operator follows
    *before* pulling the full trace JSON.
    """

    def __init__(
        self,
        store: Optional[TraceStore] = None,
        enabled: bool = True,
        slow_log_ms: Optional[float] = None,
        logger: Optional[logging.Logger] = None,
    ):
        self.store = store if store is not None else TraceStore()
        self.enabled = enabled
        self.slow_log_ms = slow_log_ms
        self._logger = logger if logger is not None else logging.getLogger(
            SLOW_LOGGER_NAME
        )

    def start(self, name: str, tag: Optional[str] = None):
        """Begin a trace for one request (or :data:`NULL_TRACE` when off).

        Reuses a recycled trace from the store's pool when one is
        available, so the steady-state warm path allocates no trace
        objects at all.
        """
        if not self.enabled:
            return NULL_TRACE
        if self.store._pool:
            trace = self.store._take_recycled()
            if trace is not None:
                trace._reset(name, tag)
                return trace
        return Trace(name, tag=tag)

    def finish(self, trace, **attributes: Any):
        """Close a trace, stamp final attributes, store it, check slow log.

        Accepts :data:`NULL_TRACE` (no-op) so call sites need no
        branches.  Returns the trace for convenience.
        """
        if not trace.is_recording:
            return trace
        # Equivalent of trace.annotate_root(**attributes); trace.finish()
        # inlined: this runs once per request and the saved calls are
        # measurable on the warm-cache path (same module, so reaching
        # into Trace internals is fair game).
        if attributes:
            attrs = trace._attrs.get(0)
            if attrs is None:
                trace._attrs[0] = attributes  # kwargs dict is fresh
            else:
                attrs.update(attributes)
            trace._tree = None
        data = trace._data
        stack = trace._open
        if data[2] is None or len(stack) > 1:
            now = _perf_counter()
            while len(stack) > 1:
                offset = stack.pop()
                if data[offset + 2] is None:
                    data[offset + 2] = now
            if data[2] is None:
                data[2] = now
        self.store.add(trace)
        if self.slow_log_ms is not None:
            duration_ms = trace.duration_seconds * 1e3
            if duration_ms >= self.slow_log_ms:
                breakdown = " ".join(
                    f"{child.name}={child.duration_seconds * 1e3:.1f}ms"
                    for child in trace.root.children
                )
                self._logger.warning(
                    "slow request trace=%s tag=%s took %.1fms "
                    "(threshold %.1fms)%s",
                    trace.trace_id,
                    trace.tag,
                    duration_ms,
                    self.slow_log_ms,
                    f": {breakdown}" if breakdown else "",
                )
        return trace
