"""One session of each workload, driven through the program's public entry points.

A session runs the workload's whole path once: collect the event dataset,
run every year-2021 experiment driver except X3 (``analyze``), run the X5
closed loop (``respond``), and for the serving workloads answer queries.
It returns its stage times, what the correctness gates compare, and the
counters each layer exposes.  The run loop in ``run.py`` repeats sessions
and reports medians.

Every timed collect, analyze and respond sample starts after a full
garbage collection with the previous sample's objects released; otherwise a
sample's time depends on the garbage whatever ran before it left behind.

X3 is excluded everywhere: its time depends on an on-disk run cache that
lives outside the session (cold and warm differ by a factor of 60).
"""

from __future__ import annotations

import asyncio
import gc
import os
import shutil
import threading
import time
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import loadgen
from checks import CheckFailed, fingerprint

YEAR = 2021
TELESCOPE_SLASH24S = 16
#: Closed-loop query clients: 2 on the run-dir server, 1 on the live one.
RUNDIR_CLIENTS = 2
LIVE_CLIENTS = 1
#: Orchestrator worker processes (the box has two cores).
WORKERS = 2
#: Seconds of closed-loop load on the run-dir server per session.
RUNDIR_QUERY_SECONDS = 1.0
#: Collections per untraced session where collecting is cheap next to the
#: rest of the session (reproduce, rundir): more samples of a short stage.
COLLECT_REPEATS = 3


def driver_ids() -> list[str]:
    """Every year-2021 driver except X3, X5 last (it is the respond stage)."""
    from repro.cli import EXPERIMENT_YEARS
    from repro.experiments import ALL_EXPERIMENTS

    ids = [name for name in ALL_EXPERIMENTS
           if EXPERIMENT_YEARS.get(name, YEAR) == YEAR and name not in ("X3", "X5")]
    return ids + ["X5"]


@dataclass
class Session:
    """What one session measured and produced."""

    #: Stage name -> its timed samples (seconds).
    stages: dict = field(default_factory=dict)
    fingerprint: dict = field(default_factory=dict)
    #: Untraced measurements beyond the stage times (latencies, ratios).
    measures: dict = field(default_factory=dict)
    #: Counters the program's objects expose (chunks, bytes, retries ...).
    counters: dict = field(default_factory=dict)
    #: Stage name -> perf_counter at the stage's end (traced sessions only).
    trace_marks: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


class Context:
    """Per-run settings shared by every session of the run."""

    def __init__(self, seed: int, scale: float, work_dir: Path, setup_probe) -> None:
        from repro.experiments import ExperimentConfig

        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        self.config = ExperimentConfig(year=YEAR, scale=scale,
                                       telescope_slash24s=TELESCOPE_SLASH24S, seed=seed)
        #: Called once per run with the run dir (rundir) or None; times
        #: fresh-process set-ups.
        self.setup_probe = setup_probe
        self.sessions_started = 0


@contextmanager
def _stage(tracer, session: Session, name: str):
    """In a traced session: a ``bench.<name>`` span, and the stage-end mark."""
    if tracer is None:
        yield
        return
    with tracer.span(f"bench.{name}"):
        yield
    session.trace_marks[name] = time.perf_counter()


def build_inputs(config):
    """The simulation inputs: the vantage fleet and the scanner population."""
    from repro.deployment.fleet import build_full_deployment
    from repro.scanners.population import PopulationConfig, build_population
    from repro.sim.rng import RngHub

    deployment = build_full_deployment(
        RngHub(config.seed), num_telescope_slash24s=config.telescope_slash24s)
    population = build_population(PopulationConfig(year=config.year, scale=config.scale))
    return deployment, population


def _run_drivers(context, session: Session, tracer) -> dict:
    """analyze (every driver but X5) then respond (X5); returns outputs."""
    from repro.experiments import ALL_EXPERIMENTS

    outputs = {}
    ids = driver_ids()
    per_driver = {}
    clock = time.perf_counter
    for stage, names in (("analyze", ids[:-1]), ("respond", ids[-1:])):
        gc.collect()
        began = clock()
        with _stage(tracer, session, stage):
            for name in names:
                session.attempted += 1
                driver_began = clock()
                span = tracer.span(f"experiments.driver.{name}") if tracer else nullcontext()
                with span:
                    outputs[name] = ALL_EXPERIMENTS[name](context)
                per_driver[name] = clock() - driver_began
        session.stages[f"{stage}_s"] = [clock() - began]
    session.measures["drivers_s"] = per_driver
    return outputs


# ---------------------------------------------------------------------------
# reproduce: the in-process `cloudwatching run` path
# ---------------------------------------------------------------------------

def collect_in_process(ctx: Context, samples: list, tracer=None, session=None):
    """One timed in-process collection: config → simulation → dataset."""
    from repro.analysis.dataset import AnalysisDataset
    from repro.sim.engine import SimulationConfig, run_simulation

    gc.collect()
    began = time.perf_counter()
    with _stage(tracer, session, "collect"):
        deployment, population = build_inputs(ctx.config)
        result = run_simulation(deployment, population,
                                SimulationConfig(seed=ctx.seed, window=ctx.config.window()))
        dataset = AnalysisDataset.from_simulation(result)
    samples.append(time.perf_counter() - began)
    return deployment, result, dataset


def reproduce(ctx: Context, tracer=None) -> Session:
    from repro.experiments import ExperimentContext

    if ctx.sessions_started == 0:
        ctx.setup_probe(None)
    ctx.sessions_started += 1
    session = Session(stages={"collect_s": []})
    for _ in range(1 if tracer else COLLECT_REPEATS):
        collected = None  # the previous collection is garbage before the next starts
        collected = collect_in_process(ctx, session.stages["collect_s"], tracer, session)
    deployment, result, dataset = collected
    context = ExperimentContext(config=ctx.config, deployment=deployment,
                                result=result, dataset=dataset)
    outputs = _run_drivers(context, session, tracer)
    session.fingerprint = fingerprint(result.total_events(), outputs)
    return session


# ---------------------------------------------------------------------------
# rundir: orchestrate, shard-wise drivers, then the run-dir query server
# ---------------------------------------------------------------------------

def _dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def orchestrate_once(ctx: Context, run_dir: Path, samples: list, tracer=None, session=None):
    """One timed run-dir collection: orchestrate into an empty ``run_dir``."""
    from repro.runner import orchestrate

    shutil.rmtree(run_dir, ignore_errors=True)
    gc.collect()
    began = time.perf_counter()
    with _stage(tracer, session, "collect"):
        run = orchestrate(ctx.config, workers=WORKERS, out_dir=run_dir, quiet=True)
    samples.append(time.perf_counter() - began)
    return run


def rundir(ctx: Context, tracer=None) -> Session:
    from repro.serve import QueryServer, RunDirBackend, ServeOptions

    ctx.sessions_started += 1
    session = Session(stages={"collect_s": []})
    run_dir = ctx.work_dir / f"rundir-{os.getpid()}-{ctx.sessions_started}"
    try:
        for _ in range(1 if tracer else COLLECT_REPEATS):
            run = None  # the previous collection is garbage before the next starts
            run = orchestrate_once(ctx, run_dir, session.stages["collect_s"], tracer, session)
        stats = run.stats
        if run.partial:
            raise CheckFailed(f"orchestrate lost shards: {sorted(run.failures)}")
        session.counters.update({
            "runner.plan_s": stats.plan_seconds,
            "runner.simulate_s": stats.simulate_seconds,
            "runner.merge_s": stats.merge_seconds,
            "runner.retries": stats.retries,
            "io.spill_bytes": _dir_bytes(run_dir),
        })
        outputs = _run_drivers(run.context, session, tracer)
        session.fingerprint = fingerprint(stats.events_total, outputs)

        if ctx.sessions_started == 1:
            ctx.setup_probe(run_dir)
        began = time.perf_counter()
        backend = RunDirBackend(run_dir)
        session.counters["io.open_s"] = time.perf_counter() - began
        tables = backend.dataset.tables
        vantages = sorted(tables, key=lambda v: (-len(tables[v]), v))
        sources = np.unique(np.concatenate([np.asarray(tables[v].src_ip) for v in vantages]))
        paths, tail_paths = loadgen.rundir_mix(ctx.seed, vantages, sources, RUNDIR_CLIENTS)
        options = ServeOptions()
        if tail_paths <= options.cache_entries:
            raise CheckFailed("query tail does not exceed the response cache")

        async def serve_and_load():
            async with QueryServer(backend, options) as server:
                deadline = time.perf_counter() + RUNDIR_QUERY_SECONDS
                load = await loadgen.closed_loop(
                    options.host, server.port, paths,
                    keep_going=lambda: time.perf_counter() < deadline)
                return load, server.stats

        with _stage(tracer, session, "query"):
            load, server_stats = asyncio.run(serve_and_load())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    latency = loadgen.percentiles(load.latencies)
    session.attempted += load.attempted
    session.failed += load.failed
    hits, misses = server_stats.cache_hits, server_stats.cache_misses
    non200 = server_stats.requests_served - server_stats.responses_by_status.get("200", 0)
    session.measures.update({
        "query_p50_ms": latency["p50_ms"],
        "query_tail_ms": latency["tail_ms"],
        "query_tail_pct": latency["tail_pct"],
        "query_samples": latency["samples"],
        "query_rps": load.attempted / load.seconds,
    })
    session.counters.update({
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.requests": server_stats.requests_served,
        "serve.non200": non200,
        "serve.query_tail_paths": tail_paths,
    })
    return session


# ---------------------------------------------------------------------------
# live: tapped simulation into the live pipeline while a client queries
# ---------------------------------------------------------------------------

class Tail:
    """Last bus subscriber: stamps delivery, optionally counts late rows.

    Subscribed after the pipeline's LockedConsumer, so a chunk reaches it
    once every pipeline consumer has processed that chunk.  A row is late
    when its hour is older than the newest hour already delivered.
    """

    def __init__(self, hours: int, count_late: bool) -> None:
        self.hours = hours
        self.count_late = count_late
        self.delivered = array("d")
        self.newest_hour = -1
        self.rows = 0
        self.late_rows = 0

    def consume(self, chunk) -> None:
        self.delivered.append(time.perf_counter())
        if not self.count_late:
            return
        hours = np.minimum(chunk.resolved("timestamps").astype(np.int64), self.hours - 1)
        running = np.maximum.accumulate(hours)
        before = np.empty_like(running)
        before[0] = self.newest_hour
        np.maximum(running[:-1], self.newest_hour, out=before[1:])
        self.late_rows += int(np.count_nonzero(hours < before))
        self.rows += len(hours)
        self.newest_hour = max(self.newest_hour, int(running[-1]))


def stamped_tap(tap, published: array):
    """Wrap a table tap to stamp each non-empty chunk's publish time."""
    clock = time.perf_counter

    def stamped(table, columns, start, stop):
        if stop > start:
            published.append(clock())
        tap(table, columns, start, stop)

    return stamped


def live(ctx: Context, tracer=None) -> Session:
    from repro.analysis.dataset import AnalysisDataset
    from repro.experiments import ExperimentContext
    from repro.serve import QueryServer, ServeOptions
    from repro.serve.backends import build_live_pipeline
    from repro.sim.engine import SimulationConfig, run_simulation

    if ctx.sessions_started == 0:
        ctx.setup_probe(None)
    ctx.sessions_started += 1
    session = Session()
    hours = ctx.config.window().hours
    paths = loadgen.live_mix(ctx.seed, LIVE_CLIENTS)
    ingest: dict = {}

    async def ingest_and_query():
        deployment, population = build_inputs(ctx.config)
        bus, analyzer, _tracker, backend = build_live_pipeline(
            hours, leak_experiment=deployment.leak_experiment, incidents=True)
        tail = Tail(hours, count_late=tracer is not None)
        bus.subscribe(tail)
        published = array("d")
        tap = stamped_tap(bus.table_tap(), published)
        options = ServeOptions()

        def run_ingest():
            try:
                began = time.perf_counter()
                result = run_simulation(deployment, population,
                                        SimulationConfig(seed=ctx.seed, window=ctx.config.window()),
                                        tap=tap)
                bus.close()
                backend.pipeline.finalize()
                ingest["seconds"] = time.perf_counter() - began
                ingest["result"] = result
            except Exception as error:  # re-raised on the main thread
                ingest["error"] = error

        async with QueryServer(backend, options) as server:
            thread = threading.Thread(target=run_ingest, name="ingest")
            thread.start()
            try:
                load = await loadgen.closed_loop(options.host, server.port, paths,
                                                 keep_going=thread.is_alive)
            finally:
                thread.join()
        if "error" in ingest:
            raise ingest["error"]
        return deployment, bus, analyzer, backend, tail, published, load

    with _stage(tracer, session, "collect"):
        deployment, bus, analyzer, backend, tail, published, load = asyncio.run(
            ingest_and_query())
    result = ingest["result"]
    session.stages["collect_s"] = [ingest["seconds"]]

    events = result.total_events()
    stats = bus.stats
    if stats.dropped_events or stats.published_events != events \
            or stats.delivered_events != events or analyzer.events_consumed != events:
        raise CheckFailed(
            f"live ingest lost events: {events} simulated, {stats.published_events} "
            f"published, {stats.delivered_events} delivered, "
            f"{stats.dropped_events} dropped, {analyzer.events_consumed} analyzed")
    if len(published) != len(tail.delivered):
        raise CheckFailed("tail subscriber saw a different chunk count than the tap")
    lags = np.frombuffer(tail.delivered) - np.frombuffer(published)
    lag = loadgen.percentiles(lags)
    latency = loadgen.percentiles(load.latencies)
    session.attempted += load.attempted
    session.failed += load.failed
    session.measures.update({
        "ingest_events_per_s": events / ingest["seconds"],
        "event_lag_p50_ms": lag["p50_ms"],
        "event_lag_tail_ms": lag["tail_ms"],
        "event_lag_tail_pct": lag["tail_pct"],
        "live_query_p50_ms": latency["p50_ms"],
        "live_query_tail_ms": latency["tail_ms"],
        "live_query_tail_pct": latency["tail_pct"],
        "live_query_samples": latency["samples"],
        "drop_ratio": stats.dropped_events / stats.published_events,
    })
    session.counters.update({
        "stream.chunks": stats.published_chunks,
        "stream.events_per_chunk": stats.published_events / stats.published_chunks,
        "stream.backpressure_flushes": stats.backpressure_flushes,
        "stream.queue_high_water": stats.queue_high_water,
        "stream.state_bytes": analyzer.state_bytes(),
        "incident.live_incidents": len(backend.pipeline.store.history),
    })
    if tracer is not None:
        session.counters["stream.late_event_ratio"] = tail.late_rows / tail.rows

    context = ExperimentContext(config=ctx.config, deployment=deployment, result=result,
                                dataset=AnalysisDataset.from_simulation(result))
    outputs = _run_drivers(context, session, tracer)
    session.fingerprint = fingerprint(events, outputs)
    return session


SESSIONS = {"reproduce": reproduce, "rundir": rundir, "live": live}


def _collect_reproduce_only(ctx: Context, samples: list) -> int:
    return collect_in_process(ctx, samples)[1].total_events()


def _collect_rundir_only(ctx: Context, samples: list) -> int:
    run_dir = ctx.work_dir / f"rundir-{os.getpid()}-collect"
    try:
        run = orchestrate_once(ctx, run_dir, samples)
        if run.partial:
            raise CheckFailed(f"orchestrate lost shards: {sorted(run.failures)}")
        return run.stats.events_total
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


#: One more collection, timed into a list, returning its event count, for
#: the workloads whose collect stage runs alone (live's needs its query
#: load).  The run loop spends the time left after its last whole session
#: on these: collecting is the shortest stage, so one run holds the most
#: samples of it.
COLLECT_ONLY = {"reproduce": _collect_reproduce_only, "rundir": _collect_rundir_only}


def setup_once(workload: str, config, run_dir: Optional[str]) -> None:
    """The set-up a fresh process pays before the workload's session starts.

    Run in a child interpreter (``run.py --setup-probe``), timed by the parent
    from spawn to exit, so imports count.
    """
    if workload == "reproduce":
        from repro.experiments import ALL_EXPERIMENTS  # noqa: F401 - the import is the set-up
        from repro.sim.engine import run_simulation  # noqa: F401

        build_inputs(config)
        return
    from repro.serve import QueryServer, ServeOptions

    if workload == "rundir":
        from repro.serve import RunDirBackend

        backend = RunDirBackend(run_dir)
    else:
        from repro.serve.backends import build_live_pipeline

        deployment, _population = build_inputs(config)
        backend = build_live_pipeline(config.window().hours,
                                      leak_experiment=deployment.leak_experiment,
                                      incidents=True)[3]

    async def start_stop():
        async with QueryServer(backend, ServeOptions()):
            pass

    asyncio.run(start_stop())
