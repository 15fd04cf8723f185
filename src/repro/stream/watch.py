"""The `cloudwatching watch` service: attach, stream, snapshot.

Three attachment modes, all feeding the
:func:`~repro.stream.bus.build_stream` pipeline with a
:class:`SnapshotPrinter` subscribed last:

* :func:`watch_simulation` — tap a simulation's columnar emission path
  while it runs (the CI smoke mode: one process, no sockets, real
  streaming cadence);
* :func:`watch_run_dir` — attach to an ``orchestrate`` spill directory
  and replay its completed shards in the canonical hour-major order
  (:func:`~repro.stream.bus.canonical_chunks`), optionally *following*
  the directory while workers are still writing new shards;
* :func:`watch_live` — attach to a live asyncio honeypot fleet on
  loopback and snapshot on a wall-clock cadence.

Snapshots render top-k characteristic tables, per-vantage rates and
distinct-source estimates, spike counts, leak alarms, and the bus's
drop/backpressure accounting.  ``bus.close()`` ends each mode: the
incident pipeline finalizes, then the printer renders the final snapshot.
"""

from __future__ import annotations

import json
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from repro.stream.analyzer import StreamAnalyzer
from repro.stream.bus import (CHUNK_COLUMNS, StreamBus, StreamChunk, build_stream,
                              canonical_chunks)

__all__ = ["WatchOptions", "SnapshotPrinter", "watch_simulation",
           "watch_run_dir", "watch_live"]

#: Times a manifest-bearing but unreadable shard is retried before the
#: follow loop abandons it (each retry backs off exponentially).
_MAX_SHARD_ATTEMPTS = 6
#: Ceiling on the per-shard retry backoff (seconds).
_MAX_SHARD_BACKOFF = 5.0


@dataclass
class WatchOptions:
    """Knobs shared by every attachment mode."""

    #: Space-Saving sketch capacity per (vantage, characteristic).
    sketch_k: int = 64
    #: Categories shown per table (and the §3.3 union k).
    top_k: int = 3
    #: Emit a snapshot every N consumed events (0 = only the final one).
    snapshot_events: int = 25000
    #: Stop after this many periodic snapshots (0 = unlimited).
    max_snapshots: int = 0
    #: Bus buffer bound (events) and overflow policy.
    max_buffered_events: int = 65536
    policy: str = "backpressure"
    #: Trailing window (hours) for leak alarms (None = full window).
    trailing_hours: Optional[int] = None
    #: Run incident detection alongside the sketches (the default; the
    #: rules piggyback on state the analyzer maintains anyway).
    incidents: bool = True
    #: Write the incident audit log here at the end of the watch.
    audit_log: Optional[str] = None
    #: Snapshot rendering: "text" tables or one JSON object per snapshot.
    format: str = "text"


class SnapshotPrinter:
    """Bus subscriber that renders snapshots on an event cadence, and
    the final snapshot when the bus closes."""

    def __init__(
        self,
        analyzer: StreamAnalyzer,
        bus: StreamBus,
        options: WatchOptions,
        say: Callable[[str], None],
        incidents=None,
    ) -> None:
        self.analyzer = analyzer
        self.bus = bus
        self.options = options
        self.say = say
        #: The attached IncidentPipeline, when detection is on.
        self.incidents = incidents
        self.snapshots_rendered = 0
        self._next_at = options.snapshot_events or 0

    def consume(self, chunk: StreamChunk) -> None:
        options = self.options
        if not options.snapshot_events:
            return
        if options.max_snapshots and self.snapshots_rendered >= options.max_snapshots:
            return
        if self.analyzer.events_consumed >= self._next_at:
            self.emit()
            while self._next_at <= self.analyzer.events_consumed:
                self._next_at += options.snapshot_events

    def close(self) -> None:
        """End of stream: the final snapshot always renders."""
        self.emit()

    def emit(self) -> None:
        snapshot = self.analyzer.snapshot(
            top_k=self.options.top_k,
            bus_stats=self.bus.stats,
            trailing_hours=self.options.trailing_hours,
        )
        if self.incidents is not None:
            snapshot.incidents = self.incidents.summary()
        if self.options.format == "json":
            self.say(json.dumps(snapshot.as_dict(), sort_keys=True))
        else:
            self.say(snapshot.render())
        self.snapshots_rendered += 1


def _printed_stream(
    hours: int,
    options: WatchOptions,
    say: Callable[[str], None],
    leak_experiment=None,
) -> tuple[StreamBus, StreamAnalyzer, SnapshotPrinter]:
    """The stream pipeline for ``options``, with a printer subscribed last."""
    bus, analyzer, incidents = build_stream(
        hours, leak_experiment,
        incidents=options.incidents,
        sketch_k=options.sketch_k,
        max_buffered_events=options.max_buffered_events,
        policy=options.policy,
    )
    printer = SnapshotPrinter(analyzer, bus, options, say, incidents=incidents)
    bus.subscribe(printer)
    return bus, analyzer, printer


def _summary(bus: StreamBus, analyzer: StreamAnalyzer, printer: SnapshotPrinter,
             seconds: float) -> dict:
    summary = {
        "events": analyzer.events_consumed,
        "chunks": analyzer.chunks_consumed,
        "vantages": len(analyzer.events_per_vantage),
        "snapshots": printer.snapshots_rendered,
        "state_bytes": analyzer.state_bytes(),
        "seconds": round(seconds, 4),
        "bus": bus.stats.as_dict(),
        "incidents": None,
    }
    pipeline = printer.incidents
    if pipeline is not None:
        summary["incidents"] = pipeline.summary()
        if printer.options.audit_log:
            records = pipeline.audit.write(printer.options.audit_log)
            summary["audit_log"] = {
                "path": printer.options.audit_log,
                "records": records,
                "digest": pipeline.audit.digest(),
            }
    return summary


# -- mode 1: tap a running simulation ---------------------------------------


def watch_simulation(
    config=None,
    options: Optional[WatchOptions] = None,
    say: Callable[[str], None] = print,
) -> dict:
    """Simulate one window with the stream tap attached, snapshotting live."""
    from repro.experiments.context import ExperimentConfig, build_inputs
    from repro.sim.engine import SimulationConfig, run_simulation

    config = config or ExperimentConfig()
    options = options or WatchOptions()
    window = config.window()
    deployment, population = build_inputs(config)
    bus, analyzer, printer = _printed_stream(
        window.hours, options, say, leak_experiment=deployment.leak_experiment
    )
    say(f"watching a live simulation: {len(population)} campaigns, "
        f"{len(deployment.honeypots)} vantage points, seed {config.seed}")
    started = time.perf_counter()
    run_simulation(
        deployment,
        population,
        SimulationConfig(seed=config.seed, window=window),
        tap=bus.table_tap(),
    )
    bus.close()
    return _summary(bus, analyzer, printer, time.perf_counter() - started)


# -- mode 2: attach to an orchestrate spill directory -----------------------


def watch_run_dir(
    run_dir: Union[str, Path],
    options: Optional[WatchOptions] = None,
    say: Callable[[str], None] = print,
    follow_seconds: float = 0.0,
    poll_seconds: float = 0.5,
) -> dict:
    """Replay an orchestrated run's spilled shards through the pipeline.

    Each sweep merges the newly completed shards (manifest present) in
    shard order and publishes them in the canonical hour-major replay,
    so a watch over a finished run streams exactly what ``respond``
    replays and writes the same audit log.  With ``follow_seconds > 0``
    the directory is re-polled for newly completed shards until the
    deadline passes, so the watcher can run alongside a live
    ``orchestrate``; a shard completing after the first sweep arrives
    after its hours have sealed.
    """
    from repro.io.lazy import merge_shards
    from repro.io.shards import completed_shards, load_shard_tables
    from repro.runner.orchestrator import open_run_dir

    run_dir = Path(run_dir)
    options = options or WatchOptions()
    started = time.perf_counter()
    deadline = started + max(0.0, follow_seconds)
    while True:
        # Follow mode may attach before the first shard has completed.
        try:
            config, deployment, _digest = open_run_dir(run_dir)
            break
        except FileNotFoundError:
            if time.perf_counter() >= deadline:
                raise
            time.sleep(poll_seconds)
    hours = config.window().hours
    bus, analyzer, printer = _printed_stream(
        hours, options, say, leak_experiment=deployment.leak_experiment
    )

    processed: set[str] = set()
    abandoned: set[str] = set()
    attempts: dict[str, int] = {}
    retry_at: dict[str, float] = {}

    def _load(shard_path: Path) -> dict:
        """Load a shard and force every streamed column to resolve.

        A shard copied or crashed mid-write can carry a manifest while
        its column banks are truncated; resolving everything up front
        makes such a shard fail *here*, before a single chunk has been
        published, so a retry never double-streams rows.
        """
        tables = load_shard_tables(shard_path)
        for table in tables.values():
            for name in CHUNK_COLUMNS:
                table.column(name)
        return tables

    def _sweep() -> None:
        fresh = []
        for shard_path, _manifest in completed_shards(run_dir):
            name = shard_path.name
            if name in processed or name in abandoned:
                continue
            if time.perf_counter() < retry_at.get(name, 0.0):
                continue  # backing off a previously unreadable shard
            try:
                tables = _load(shard_path)
            except (OSError, ValueError, KeyError, EOFError,
                    zipfile.BadZipFile) as error:
                # Manifest present but banks unreadable: the shard is
                # in flight (or damaged).  Retry with bounded backoff;
                # give up on it — without raising — after enough tries.
                count = attempts.get(name, 0) + 1
                attempts[name] = count
                if count >= _MAX_SHARD_ATTEMPTS:
                    abandoned.add(name)
                    say(f"abandoning {name}: unreadable after "
                        f"{count} attempt(s) ({error})")
                else:
                    backoff = min(
                        max(poll_seconds, 0.05) * (2 ** (count - 1)),
                        _MAX_SHARD_BACKOFF,
                    )
                    retry_at[name] = time.perf_counter() + backoff
                    say(f"{name} not readable yet ({error}); "
                        f"retrying in {backoff:.2f}s")
                continue
            processed.add(name)
            say(f"streaming {name} "
                f"({sum(len(t) for t in tables.values()):,} events)")
            fresh.append(tables)
        if fresh:
            for chunk in canonical_chunks(merge_shards(fresh, deployment.honeypots), hours):
                bus.publish(chunk)

    _sweep()
    while time.perf_counter() < deadline:
        time.sleep(poll_seconds)
        _sweep()
    if not processed:
        raise FileNotFoundError(f"no completed shards under {run_dir}")
    bus.close()
    summary = _summary(bus, analyzer, printer, time.perf_counter() - started)
    summary["shards"] = len(processed)
    return summary


# -- mode 3: attach to a live honeypot fleet --------------------------------


def watch_live(
    services: dict,
    duration: float = 30.0,
    interval: float = 5.0,
    host: str = "127.0.0.1",
    options: Optional[WatchOptions] = None,
    say: Callable[[str], None] = print,
    honeypot_kwargs: Optional[dict] = None,
) -> dict:
    """Serve live honeypots with the stream attached; snapshot on a
    wall-clock cadence.  Returns the summary dict (plus bound ports)."""
    import asyncio

    from repro.honeypots.live.server import LiveHoneypot

    options = options or WatchOptions()
    # Live timestamps are hours since start; one window hour per wall
    # hour of serving, minimum one.
    hours = max(1, int(np.ceil(duration / 3600.0)))
    bus, analyzer, printer = _printed_stream(hours, options, say)

    async def _serve() -> dict:
        honeypot = LiveHoneypot(
            host=host, services=services, on_event=bus.event_tap(),
            **(honeypot_kwargs or {}),
        )
        async with honeypot:
            bound = ", ".join(
                f"{host}:{actual} ({type(services[requested]).__name__})"
                for requested, actual in honeypot.bound_ports.items()
            )
            say(f"watching live fleet on {bound} for {duration:.0f}s "
                f"(snapshot every {interval:.0f}s)")
            deadline = asyncio.get_running_loop().time() + duration
            while True:
                remaining = deadline - asyncio.get_running_loop().time()
                if remaining <= 0:
                    break
                await asyncio.sleep(min(interval, max(remaining, 0.0)))
                bus.flush()
                if options.max_snapshots and (
                    printer.snapshots_rendered >= options.max_snapshots
                ):
                    continue
                printer.emit()
            await honeypot.stop()
        bus.close()
        return {"bound_ports": dict(honeypot.bound_ports),
                "rejected_connections": honeypot.rejected_connections}

    started = time.perf_counter()
    extra = asyncio.run(_serve())
    summary = _summary(bus, analyzer, printer, time.perf_counter() - started)
    summary.update(extra)
    return summary
