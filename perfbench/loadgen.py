"""The benchmark's own closed-loop HTTP load generator and query mixes.

Closed loop: each client keeps one keep-alive connection and sends its
next request only after the previous response has been read in full, so a
slower server receives less load.  Every request is timed from write to
last body byte; a non-200 status or a connection error counts as failed.
The server receives only the generated paths; the mix is a pure function
of the workload seed and the run's own vantages and sources.  It does not
reuse ``repro.serve.loadgen``, so a change to the program cannot change how
the program is measured.
"""

from __future__ import annotations

import asyncio
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

CHARACTERISTICS = ("as", "username", "password", "payload")


@dataclass
class LoadResult:
    latencies: array = field(default_factory=lambda: array("d"))
    ok: int = 0
    failed: int = 0
    seconds: float = 0.0

    @property
    def attempted(self) -> int:
        return self.ok + self.failed


def percentiles(samples: Sequence[float]) -> dict:
    """Median and tail (nearest rank) of latencies in seconds, as ms.

    The tail is the 99th percentile when at least ten samples lie beyond
    it (1,000 samples or more); with fewer samples it is the highest
    percentile that still has ten beyond it, and never below the median.
    ``tail_pct`` names the percentile reported.
    """
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    count = len(ordered)
    if count == 0:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": 0.0, "samples": 0}

    def rank(fraction: float) -> float:
        return float(ordered[min(count - 1, int(np.ceil(fraction * count)) - 1)]) * 1e3

    tail = max(0.5, min(0.99, (count - 10) / count))
    return {"p50_ms": rank(0.50), "tail_ms": rank(tail), "tail_pct": 100.0 * tail,
            "samples": count}


async def _read_status(reader: asyncio.StreamReader) -> int:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("server closed the connection")
    parts = status_line.split()
    status = int(parts[1]) if len(parts) >= 2 and parts[1].isdigit() else 0
    length = 0
    while True:
        line = await reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        if line in (b"\r\n", b"\n"):
            break
        name, _sep, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip() or 0)
    if length:
        await reader.readexactly(length)
    return status


async def closed_loop(
    host: str,
    port: int,
    client_paths: Sequence[Sequence[str]],
    keep_going: Callable[[], bool],
) -> LoadResult:
    """Run one closed-loop client per path list until ``keep_going()`` is false."""
    result = LoadResult()
    clock = time.perf_counter

    async def client(paths: Sequence[str]) -> None:
        requests = [f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")
                    for path in paths]
        reader = writer = None
        step = 0
        try:
            while keep_going():
                request = requests[step % len(requests)]
                step += 1
                try:
                    if writer is None:
                        reader, writer = await asyncio.open_connection(host, port)
                    began = clock()
                    writer.write(request)
                    await writer.drain()
                    status = await _read_status(reader)
                except (OSError, asyncio.IncompleteReadError):
                    result.failed += 1
                    if writer is not None:
                        writer.close()
                    writer = None
                    continue
                result.latencies.append(clock() - began)
                if status == 200:
                    result.ok += 1
                else:
                    result.failed += 1
        finally:
            if writer is not None:
                writer.close()
                await writer.wait_closed()

    started = clock()
    await asyncio.gather(*(client(paths) for paths in client_paths))
    result.seconds = clock() - started
    return result


#: The run-dir hot set: the eight paths ``cloudwatching bench --serve``
#: cycles on its run-dir phase (``repro.bench``), ``{busiest}`` being the
#: vantage with the most events.
RUNDIR_HOT = (
    "/healthz", "/vantages", "/cardinality",
    "/top?vantage={busiest}&characteristic=as&k=3", "/volumes?vantage={busiest}",
    "/compare?characteristic=username&k=3", "/alarms", "/stats",
)
#: Share of run-dir requests drawn from the hot set (the rest from the tail).
HOT_SHARE = 0.5
#: Sources sampled for the ``/ip`` part of the run-dir tail.
TAIL_SOURCES = 1024
#: The live pool: the five paths ``cloudwatching bench --serve`` cycles
#: during ingest, plus the endpoints the incident-enabled live backend adds.
LIVE_POOL = ("/healthz", "/vantages", "/stats", "/compare?characteristic=as",
             "/cardinality", "/alarms", "/incidents", "/actions")


def _route_uniform(rng: np.random.Generator, routes: Sequence[Sequence[str]],
                   count: int) -> list[str]:
    """``count`` paths: a route uniformly, then one of its paths uniformly."""
    which = rng.integers(0, len(routes), size=count)
    return [routes[r][rng.integers(0, len(routes[r]))] for r in which]


def rundir_mix(seed: int, vantages: Sequence[str], sources: np.ndarray,
               clients: int, length: int = 8192) -> tuple[list[list[str]], int]:
    """Per-client paths: ``HOT_SHARE`` hot set, the rest a seeded tail.

    The tail is route-uniform over ``/top``, ``/volumes``, ``/compare`` and
    ``/ip`` with every parameter value equally likely, over the run's own
    vantages and sources.  It has more distinct paths than the server's
    response cache holds, so the cache both hits and misses.  Returns the
    paths and the number of distinct tail paths.
    """
    from repro.net.addresses import int_to_ip

    rng = np.random.default_rng([seed, 1])
    hot = [path.format(busiest=vantages[0]) for path in RUNDIR_HOT]
    picked = rng.choice(sources, size=min(len(sources), TAIL_SOURCES), replace=False)
    routes = [
        [f"/top?vantage={v}&characteristic={c}&k={k}"
         for v in vantages for c in CHARACTERISTICS for k in range(1, 11)],
        [f"/volumes?vantage={v}" for v in vantages],
        [f"/compare?characteristic={c}&k={k}" for c in CHARACTERISTICS for k in range(1, 11)],
        [f"/ip?ip={int_to_ip(int(ip))}" for ip in np.sort(picked)],
    ]
    paths = []
    for _ in range(clients):
        is_hot = rng.random(length) < HOT_SHARE
        hot_pick = [hot[i] for i in rng.integers(0, len(hot), size=length)]
        tail_pick = _route_uniform(rng, routes, length)
        paths.append([h if flag else t for flag, h, t in zip(is_hot, hot_pick, tail_pick)])
    return paths, sum(len(route) for route in routes)


def live_mix(seed: int, clients: int, length: int = 4096) -> list[list[str]]:
    """Per-client paths valid at any point of ingest.

    Route-uniform over ``LIVE_POOL`` and ``/ip`` lookups of seeded
    addresses.  Vantage-scoped endpoints (``/top``, ``/volumes``) answer 400
    until that vantage's first chunk is delivered, which the load generator
    would count as failed, so the live mix leaves them out.
    """
    from repro.net.addresses import int_to_ip

    rng = np.random.default_rng([seed, 2])
    lookups = [f"/ip?ip={int_to_ip(int(ip))}"
               for ip in rng.integers(0x01000000, 0xDF000000, size=64)]
    routes = [[path] for path in LIVE_POOL] + [lookups]
    return [_route_uniform(rng, routes, length) for _ in range(clients)]
