"""Structured event trace: bus subscriber streaming typed records.

:class:`TraceRecorder` subscribes to the well-known topics of a
:class:`~repro.sim.trace.TraceBus`, normalises every event through
:func:`~repro.telemetry.records.normalize`, and hands the records to a
sink (usually a :class:`~repro.telemetry.sinks.JsonlSink`).  Per-topic
filters and an optional simulated-time window keep trace files small on
long runs.

Typical use::

    trace = TraceBus()
    with TraceRecorder(trace, JsonlSink("run.jsonl")) as recorder:
        net = build_star(..., trace=trace)
        ...
        net.sim.run(until=...)
    print(recorder.records_written)
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterable, List, Optional, Tuple

from ..sim.trace import ALL_TOPICS, TOPIC_SNAPSHOT_LIFECYCLE, TraceBus
from .records import PACKET_TOPICS, encode_packet_event, normalize
from .sinks import JsonlSink

#: What a recorder subscribes to when no topics are named.  Everything
#: except ``snapshot.lifecycle``: save events carry the snapshot path
#: and a restored invocation performs no saves of its own, so recording
#: them by default would break the byte-identity of killed+restored
#: traces against uninterrupted runs (the snapshot-smoke guarantee).
#: Name the topic in ``--trace-topics`` to opt in.
DEFAULT_TOPICS = tuple(topic for topic in ALL_TOPICS
                       if topic != TOPIC_SNAPSHOT_LIFECYCLE)


class TraceRecorder:
    """Subscribes to trace topics and streams typed records to a sink.

    Parameters
    ----------
    topics:
        Topics to record; defaults to :data:`DEFAULT_TOPICS` (every
        well-known topic except ``snapshot.lifecycle``).  Unknown names
        raise ``ValueError`` so a typo'd ``--trace-topics`` fails
        loudly instead of silently recording nothing.
    start_ns / end_ns:
        Optional inclusive simulated-time window; events outside it are
        counted in :attr:`records_skipped` but not written.
    """

    def __init__(self, trace: TraceBus, sink, *,
                 topics: Optional[Iterable[str]] = None,
                 start_ns: Optional[int] = None,
                 end_ns: Optional[int] = None) -> None:
        selected = tuple(topics) if topics is not None else DEFAULT_TOPICS
        unknown = [name for name in selected if name not in ALL_TOPICS]
        if unknown:
            raise ValueError(
                f"unknown trace topics {unknown}; known: {list(ALL_TOPICS)}")
        self._trace = trace
        self._sink = sink
        self.topics = selected
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.records_written = 0
        self.records_skipped = 0
        self._line_topics = (PACKET_TOPICS if isinstance(sink, JsonlSink)
                             else frozenset())
        self._handlers: List[Tuple[str, Any]] = []
        for topic in selected:
            handler = partial(self._on_event, topic)
            trace.subscribe(topic, handler)
            self._handlers.append((topic, handler))
        self._closed = False

    # -- event path -----------------------------------------------------------

    def _on_event(self, topic: str, **payload: Any) -> None:
        time_ns = payload.get("time", 0)
        if ((self.start_ns is not None and time_ns < self.start_ns)
                or (self.end_ns is not None and time_ns > self.end_ns)):
            self.records_skipped += 1
            return
        if topic in self._line_topics:
            self._sink.write_line(encode_packet_event(topic, payload))
        else:
            self._sink.write(normalize(topic, payload))
        self.records_written += 1

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Unsubscribe from the bus and close the sink (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for topic, handler in self._handlers:
            self._trace.unsubscribe(topic, handler)
        self._handlers.clear()
        self._sink.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
