"""Span-based tracing of the run pipeline with a JSONL event sink.

A *span* is a named operation with a start time and a duration; an *event*
is an instant.  The runner emits spans for the pipeline phases (trace
generation, install, the write loop) and — when tracing is on — for each
chunk of writes' sub-steps (``scheme.write``, ``wear.rotation``,
``pcm.apply``, with ``pad.fetch`` spans from inside them).

Every record is one JSON object per line (JSONL), so traces stream to disk
as they happen and load with one ``json.loads`` per line:

``{"type": "span", "name": "scheme.write", "ts": 1.23, "dur": 0.0041,
"write": 512, "n": 512}``

``type`` is ``"span"``, ``"event"`` or ``"meta"``; ``ts`` is a
``time.perf_counter`` timestamp (monotonic within one process); ``dur``
(spans only) is seconds.  All remaining keys are free-form attributes.
Every :class:`JsonlSink` file opens with a ``{"type": "meta"}`` record
carrying the pid, a wall-clock epoch (``epoch_unix``) and the
``perf_counter`` reading taken at the same instant (``perf_origin``), so
offline tools can align lanes from different processes on one wall-clock
axis: ``wall = epoch_unix + (ts - perf_origin)``.  See
:mod:`repro.obs.context` for the propagation side.

:data:`NULL_TRACER` is the disabled backend: ``span()`` returns a shared
no-op context manager and ``event()`` does nothing.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Protocol


class EventSink(Protocol):
    """Anything that can receive trace records (dicts)."""

    def emit(self, record: dict[str, object]) -> None:
        ...


class ListSink:
    """In-memory sink for tests and programmatic inspection."""

    def __init__(self) -> None:
        self.records: list[dict[str, object]] = []

    def emit(self, record: dict[str, object]) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class JsonlSink:
    """Append trace records to a JSONL file, one object per line.

    Writes are buffered: records are encoded immediately but hit the file
    in batches — every ``flush_every`` records, whenever
    ``flush_interval_s`` seconds have passed since the last flush (checked
    on emit), and always on :meth:`flush`/:meth:`close`.  A hot loop
    emitting one span per write therefore pays one syscall per batch, not
    per record.

    ``rotate_bytes`` bounds on-disk growth for long soaks: when a flush
    would push the current file past the limit, generations shift down
    (``<name>.1`` → ``<name>.2`` … up to ``rotate_keep``, oldest dropped),
    the file is renamed to ``<name>.1``, and a fresh file begins.
    ``rotate_keep`` controls how many rotated generations survive
    (default 1: at most two files ever exist).  ``rotate_bytes=0``
    disables rotation.

    Every file — the initial one and each post-rotation successor —
    begins with a ``{"type": "meta"}`` record anchoring this process's
    ``perf_counter`` timeline to wall clock, so each generation is
    self-describing.  Extra lane identity (e.g. a
    :class:`repro.obs.context.TraceContext`) rides in via ``meta``.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        flush_every: int = 256,
        flush_interval_s: float | None = 1.0,
        rotate_bytes: int = 0,
        rotate_keep: int = 1,
        meta: dict[str, object] | None = None,
    ) -> None:
        if rotate_bytes < 0:
            raise ValueError(f"rotate_bytes must be >= 0, got {rotate_bytes}")
        if rotate_keep < 1:
            raise ValueError(f"rotate_keep must be >= 1, got {rotate_keep}")
        self.path = Path(path)
        self.flush_every = max(1, int(flush_every))
        self.flush_interval_s = flush_interval_s
        self.rotate_bytes = int(rotate_bytes)
        self.rotate_keep = int(rotate_keep)
        self._fh = open(self.path, "w")
        self._buffer: list[str] = []
        self._written = 0  # chars in the current file (ASCII JSON: == bytes)
        self._last_flush = time.monotonic()
        record: dict[str, object] = {
            "type": "meta",
            "pid": os.getpid(),
            "epoch_unix": time.time(),
            "perf_origin": time.perf_counter(),
        }
        if meta:
            record.update(meta)
        # Serialized once; re-emitted verbatim into each rotated-in file.
        self._meta_line = json.dumps(record, separators=(",", ":")) + "\n"
        self._write_meta()

    def _write_meta(self) -> None:
        self._fh.write(self._meta_line)
        self._written += len(self._meta_line)

    @property
    def rotated_path(self) -> Path:
        """Where the newest rotated generation lands."""
        return self.path.with_name(self.path.name + ".1")

    def generation_path(self, n: int) -> Path:
        """Path of rotated generation ``n`` (1 = newest)."""
        return self.path.with_name(f"{self.path.name}.{n}")

    def emit(self, record: dict[str, object]) -> None:
        self._buffer.append(json.dumps(record, separators=(",", ":")) + "\n")
        if len(self._buffer) >= self.flush_every or (
            self.flush_interval_s is not None
            and time.monotonic() - self._last_flush >= self.flush_interval_s
        ):
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            data = "".join(self._buffer)
            self._buffer.clear()
            # Never rotate a file holding only its meta record (a single
            # oversized batch would otherwise rotate forever without
            # retaining anything).
            if (
                self.rotate_bytes
                and self._written > len(self._meta_line)
                and self._written + len(data) > self.rotate_bytes
            ):
                self._rotate()
            self._fh.write(data)
            self._written += len(data)
        self._fh.flush()
        self._last_flush = time.monotonic()

    def _rotate(self) -> None:
        self._fh.close()
        # Shift surviving generations down: .N-1 -> .N, ..., .1 -> .2.
        for n in range(self.rotate_keep, 1, -1):
            older = self.generation_path(n - 1)
            if older.exists():
                os.replace(older, self.generation_path(n))
        os.replace(self.path, self.rotated_path)
        self._fh = open(self.path, "w")
        self._written = 0
        self._write_meta()

    def close(self) -> None:
        if not self._fh.closed:
            self.flush()
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class _Span:
    """Context manager recording one span into its tracer on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        self._t0 = self._tracer.clock()
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer.span_event(
            self._name,
            self._t0,
            self._tracer.clock() - self._t0,
            **self._attrs,
        )


class Tracer:
    """Emits spans and events into a sink.

    Parameters
    ----------
    sink:
        Where records go (:class:`JsonlSink`, :class:`ListSink`, ...).
    clock:
        Timestamp source; defaults to ``time.perf_counter``.
    """

    enabled = True

    def __init__(self, sink: EventSink, clock=time.perf_counter) -> None:
        self.sink = sink
        self.clock = clock

    def span(self, name: str, **attrs: object) -> _Span:
        """``with tracer.span("install", lines=n): ...``"""
        return _Span(self, name, attrs)

    def span_event(
        self, name: str, start: float, duration: float, **attrs: object
    ) -> None:
        """Record an already-measured span (hot paths avoid ``with``)."""
        record: dict[str, object] = {
            "type": "span",
            "name": name,
            "ts": start,
            "dur": duration,
        }
        if attrs:
            record.update(attrs)
        self.sink.emit(record)

    def event(self, name: str, **attrs: object) -> None:
        """Record an instant event."""
        record: dict[str, object] = {
            "type": "event",
            "name": name,
            "ts": self.clock(),
        }
        if attrs:
            record.update(attrs)
        self.sink.emit(record)

    def close(self) -> None:
        close = getattr(self.sink, "close", None)
        if close is not None:
            close()


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracing backend: every operation is a no-op."""

    enabled = False

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return _NULL_SPAN

    def span_event(
        self, name: str, start: float, duration: float, **attrs: object
    ) -> None:
        pass

    def event(self, name: str, **attrs: object) -> None:
        pass

    def close(self) -> None:
        pass


#: Process-wide null tracer; safe to share (it holds no state).
NULL_TRACER = NullTracer()
