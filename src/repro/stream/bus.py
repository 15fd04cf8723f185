"""The streaming event bus: chunked publish, bounded buffering, explicit
backpressure and drop accounting.

Producers publish :class:`StreamChunk` objects — zero-copy columnar
slices with the same column schema :class:`~repro.io.table.EventTable`
chunks use — and consumers receive them in publish order.  Two ingest
adapters cover the repository's producers:

* :meth:`StreamBus.table_tap` — a hook for the sim engine's columnar
  emission path (``run_simulation(..., tap=bus.table_tap())``): every
  batch chunk a capture table appends is republished on the bus without
  copying the columns.
* :meth:`StreamBus.event_tap` — a hook for the live asyncio honeypots
  (``LiveHoneypot(on_event=bus.event_tap())``): each captured session
  becomes a single-row chunk.

Stored tables (a finished simulation, an orchestrated run's shards) have
one replay, :func:`canonical_chunks`: hour-major, vantage-minor, the
order every post-hoc consumer — incident detection, ``watch --run-dir``
— sees, so their audit logs are byte-identical.

The buffer is bounded in *events*, not chunks.  Two overflow policies:

* ``"backpressure"`` (default) — a publish that would overflow first
  flushes the queue to the subscribers synchronously; the producer pays
  the processing cost and **nothing is ever lost** (the acceptance
  criterion for default queue sizes).  Forced flushes are counted.
* ``"drop"`` — the chunk is discarded and counted, the shape a
  saturated remote collector degrades in.

:func:`build_stream` wires every bus-fed pipeline — bus → analyzer →
incident pipeline → extras — and :meth:`StreamBus.close` is end of
stream for all of them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Protocol

import numpy as np

from repro.sim.events import CapturedEvent, NetworkKind
from repro.io.table import CHUNK_COLUMNS, TRANSPORT_CODES

__all__ = ["StreamChunk", "BusStats", "StreamBus", "CHUNK_COLUMNS", "canonical_chunks",
           "build_stream"]


class StreamChunk:
    """A columnar slice of captured events from one vantage point.

    ``columns`` maps column names to arrays *or* scalars (scalars
    broadcast over the chunk, exactly as in EventTable chunks), and
    ``[start, stop)`` is the row range of those columns this chunk
    covers — so republishing an engine batch is zero-copy.
    """

    __slots__ = ("vantage_id", "network", "network_kind", "region",
                 "columns", "start", "stop")

    def __init__(
        self,
        vantage_id: str,
        network: str,
        network_kind: NetworkKind,
        region: str,
        columns: dict,
        start: int,
        stop: int,
    ) -> None:
        self.vantage_id = vantage_id
        self.network = network
        self.network_kind = network_kind
        self.region = region
        self.columns = columns
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    @classmethod
    def from_table_chunk(cls, table, columns: dict, start: int, stop: int) -> "StreamChunk":
        """Wrap one EventTable chunk append (the sim-engine tap)."""
        return cls(table.vantage_id, table.network, table.network_kind,
                   table.region, columns, start, stop)

    @classmethod
    def from_event(cls, event: CapturedEvent) -> "StreamChunk":
        """Wrap one captured session (the live-honeypot tap)."""
        columns = {
            "timestamps": float(event.timestamp),
            "src_ip": int(event.src_ip),
            "src_asn": int(event.src_asn),
            "dst_ip": int(event.dst_ip),
            "dst_port": int(event.dst_port),
            "transport_code": TRANSPORT_CODES[event.transport],
            "handshake": bool(event.handshake),
            "payload": event.payload,
            "credentials": event.credentials,
            "commands": event.commands,
        }
        return cls(event.vantage_id, event.network, event.network_kind,
                   event.region, columns, 0, 1)

    def raw(self, name: str):
        """The column as stored: a scalar, or an *unsliced* array."""
        return self.columns[name]

    def resolved(self, name: str) -> np.ndarray:
        """The column as a length-``len(self)`` array (scalars broadcast)."""
        value = self.columns[name]
        if isinstance(value, np.ndarray):
            return value[self.start:self.stop]
        length = len(self)
        if isinstance(value, (bytes, tuple)):
            out = np.empty(length, dtype=object)
            out[:] = [value] * length
            return out
        return np.full(length, value)


def canonical_chunks(tables: dict, hours: int) -> Iterator[StreamChunk]:
    """Replay per-vantage tables in the canonical stream order.

    Hour-major, then vantage id (sorted), then original table row order:
    the stable argsort by hour bin preserves intra-hour row order, so the
    yielded row sequence is a pure function of the tables — and merged
    tables are bit-identical across shard counts, so the replay is too.
    Per vantage this costs one argsort and one fancy-index per column;
    every (vantage, hour) cell then publishes as a zero-copy ``[lo, hi)``
    slice.  Every column resolves before the first chunk is yielded.
    """
    hours = int(hours)
    prepared = []
    for vantage_id in sorted(tables):
        table = tables[vantage_id]
        if len(table) == 0:
            continue
        stamps = np.asarray(table.timestamps, dtype=np.float64)
        # hourly_volumes binning: final bin right-closed, so ts == hours
        # lands in the last hour.
        bins = np.minimum(stamps.astype(np.int64), hours - 1)
        order = np.argsort(bins, kind="stable")
        columns = {name: np.asarray(table.column(name))[order] for name in CHUNK_COLUMNS}
        bounds = np.searchsorted(bins[order], np.arange(hours + 1))
        prepared.append((table, columns, bounds))
    for hour in range(hours):
        for table, columns, bounds in prepared:
            lo, hi = int(bounds[hour]), int(bounds[hour + 1])
            if hi > lo:
                yield StreamChunk.from_table_chunk(table, columns, lo, hi)


class Consumer(Protocol):  # pragma: no cover - typing aid
    def consume(self, chunk: StreamChunk) -> None: ...


def close_consumers(consumers) -> None:
    """End of stream for each consumer in order; those with no ``close`` skip it."""
    for consumer in consumers:
        close = getattr(consumer, "close", None)
        if close is not None:
            close()


@dataclass
class BusStats:
    """Explicit accounting of everything the bus did."""

    published_chunks: int = 0
    published_events: int = 0
    delivered_chunks: int = 0
    delivered_events: int = 0
    dropped_chunks: int = 0
    dropped_events: int = 0
    #: Times a publish hit the buffer bound and forced a synchronous
    #: flush (the backpressure policy's producer-pays signal).
    backpressure_flushes: int = 0
    #: Most events ever buffered at once.
    queue_high_water: int = 0

    def as_dict(self) -> dict:
        return {
            "published_chunks": self.published_chunks,
            "published_events": self.published_events,
            "delivered_chunks": self.delivered_chunks,
            "delivered_events": self.delivered_events,
            "dropped_chunks": self.dropped_chunks,
            "dropped_events": self.dropped_events,
            "backpressure_flushes": self.backpressure_flushes,
            "queue_high_water": self.queue_high_water,
        }


class StreamBus:
    """Bounded in-order pub/sub bus for captured-event chunks."""

    POLICIES = ("backpressure", "drop")

    def __init__(
        self,
        max_buffered_events: int = 65536,
        policy: str = "backpressure",
    ) -> None:
        if max_buffered_events < 1:
            raise ValueError("max_buffered_events must be >= 1")
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r} (choose from {self.POLICIES})")
        self.max_buffered_events = max_buffered_events
        self.policy = policy
        self.stats = BusStats()
        self._queue: deque[StreamChunk] = deque()
        self._buffered_events = 0
        self._subscribers: list[Consumer] = []
        self._closed = False
        #: Called after every flush that delivered at least one chunk
        #: (the watch service hangs snapshot cadence off this).
        self.on_flush: Optional[Callable[[int], None]] = None

    # -- wiring --------------------------------------------------------

    def subscribe(self, consumer: Consumer) -> None:
        self._subscribers.append(consumer)

    def table_tap(self) -> Callable:
        """An :meth:`EventTable.set_append_hook` callback publishing here."""
        def _tap(table, columns: dict, start: int, stop: int) -> None:
            self.publish(StreamChunk.from_table_chunk(table, columns, start, stop))
        return _tap

    def event_tap(self) -> Callable[[CapturedEvent], None]:
        """A ``LiveHoneypot.on_event`` callback publishing here."""
        def _tap(event: CapturedEvent) -> None:
            self.publish(StreamChunk.from_event(event))
        return _tap

    # -- publish / deliver ---------------------------------------------

    @property
    def buffered_events(self) -> int:
        return self._buffered_events

    def publish(self, chunk: StreamChunk) -> bool:
        """Enqueue one chunk; returns False iff the chunk was dropped."""
        length = len(chunk)
        if length == 0:
            return True
        self.stats.published_chunks += 1
        self.stats.published_events += length
        if self._buffered_events + length > self.max_buffered_events:
            if self.policy == "drop":
                self.stats.dropped_chunks += 1
                self.stats.dropped_events += length
                return False
            self.stats.backpressure_flushes += 1
            self.flush()
        self._queue.append(chunk)
        self._buffered_events += length
        self.stats.queue_high_water = max(
            self.stats.queue_high_water, self._buffered_events
        )
        return True

    def flush(self) -> int:
        """Deliver every buffered chunk to every subscriber, in order."""
        delivered = 0
        while self._queue:
            chunk = self._queue.popleft()
            self._buffered_events -= len(chunk)
            for subscriber in self._subscribers:
                subscriber.consume(chunk)
            self.stats.delivered_chunks += 1
            self.stats.delivered_events += len(chunk)
            delivered += len(chunk)
        if delivered and self.on_flush is not None:
            self.on_flush(delivered)
        return delivered

    def close(self) -> int:
        """End of stream: flush, then close each subscriber in subscription
        order, skipping those without ``close``.  A second call does nothing."""
        if self._closed:
            return 0
        self._closed = True
        delivered = self.flush()
        close_consumers(self._subscribers)
        return delivered


def build_stream(
    hours: int,
    leak_experiment=None,
    *,
    incidents: bool = True,
    quiet_hours: int = 12,
    sketch_k: int = 64,
    max_buffered_events: int = 65536,
    policy: str = "backpressure",
    consumers: Iterable = (),
    fan_out: Optional[Callable] = None,
):
    """Subscribe analyzer, incident pipeline (unless ``incidents`` is
    false) and ``consumers`` to a fresh bus, in that order: the rules
    read the hour the analyzer has just sketched.

    With ``fan_out`` the chain subscribes as the one consumer
    ``fan_out(*chain)`` (the live server's locked fan-out).  Returns
    ``(bus, analyzer, incidents)``; a subscriber added afterwards sees
    each chunk last.
    """
    from repro.stream.analyzer import StreamAnalyzer

    bus = StreamBus(max_buffered_events=max_buffered_events, policy=policy)
    analyzer = StreamAnalyzer(hours=hours, sketch_k=sketch_k,
                              leak_experiment=leak_experiment)
    chain = [analyzer]
    pipeline = None
    if incidents:
        from repro.incident.pipeline import IncidentPipeline

        pipeline = IncidentPipeline(analyzer, quiet_hours=quiet_hours)
        chain.append(pipeline)
    chain.extend(consumers)
    if fan_out is None:
        for consumer in chain:
            bus.subscribe(consumer)
    else:
        bus.subscribe(fan_out(*chain))
    return bus, analyzer, pipeline
