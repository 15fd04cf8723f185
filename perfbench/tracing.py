"""Run-time span recording around the program's public callables.

Nothing in ``src/`` is edited: :class:`Tracer` replaces functions and
methods by timing wrappers while a traced session runs and restores the
originals afterwards.  A module-level function is replaced wherever a
loaded module holds a reference to it (``from x import f`` copies the
reference), a method on its class.

Spans live in memory — per thread, in typed arrays — and are written out
once, when the run ends.  Each span has an id, its parent span (the span
open on the same thread when it started), a name, start and end.  A
layer's self time is the duration of its spans minus the part covered by
their child spans; the layer is the first dotted part of the span name.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

#: The program's layers, named by module; spans of the benchmark's own
#: stages use ``bench`` and are not a program layer.
LAYERS = ("sim", "io", "runner", "stream", "incident", "analysis", "stats",
          "experiments", "serve")


def _targets():
    """(owner, attribute, span name) for every callable a traced run times."""
    from repro.analysis import contingency_engine
    from repro.analysis.dataset import AnalysisDataset
    from repro.experiments import base as experiments_base
    from repro.incident import pipeline as incident_pipeline
    from repro.io import shards
    from repro.io.table import EventTable
    from repro.runner import orchestrator
    from repro.serve import backends
    from repro.sim import engine
    from repro.stats import contingency
    from repro.stream.analyzer import StreamAnalyzer
    from repro.stream.bus import StreamBus

    targets = [
        (engine, "run_simulation", "sim.run_simulation"),
        (EventTable, "append_view", "io.append_view"),
        (shards, "load_shard_tables", "io.load_shard_tables"),
        (orchestrator, "orchestrate", "runner.orchestrate"),
        (StreamBus, "publish", "stream.publish"),
        (StreamBus, "flush", "stream.flush"),
        (StreamAnalyzer, "consume", "stream.analyzer.consume"),
        (incident_pipeline.IncidentPipeline, "consume", "incident.pipeline.consume"),
        (incident_pipeline.IncidentPipeline, "finalize", "incident.pipeline.finalize"),
        (incident_pipeline, "detect_incidents", "incident.detect_incidents"),
        (AnalysisDataset, "from_simulation", "analysis.dataset_build"),
        (contingency_engine, "build_engine", "analysis.engine_build"),
        (contingency_engine, "build_source_aggregates", "analysis.source_aggregates"),
        (contingency, "chi_square_test", "stats.chi_square"),
        (experiments_base, "run_shard_wise", "experiments.shard_wise"),
        (backends.ReputationTracker, "consume", "serve.tracker.consume"),
        (backends.LockedConsumer, "consume", "serve.locked_consume"),
        (backends, "load_run_dir", "serve.load_run_dir"),
    ]
    for route, (_contract, method) in backends.ROUTES.items():
        for cls in (backends.RunDirBackend, backends.LiveBackend):
            targets.append((cls, method, f"serve.endpoint.{route}"))
    return targets


class _Buffer:
    __slots__ = ("sid", "parent", "name", "start", "end", "stack")

    def __init__(self) -> None:
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []

    def record(self, sid: int, parent: int, name_id: int, started: float, ended: float) -> None:
        self.sid.append(sid)
        self.parent.append(parent)
        self.name.append(name_id)
        self.start.append(started)
        self.end.append(ended)


class Tracer:
    """In-memory span recorder with install/uninstall of timing wrappers."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._buffers_lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _buffer(self) -> _Buffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = self._local.buffer = _Buffer()
            with self._buffers_lock:
                self._buffers.append(buffer)
        return buffer

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def wrap(self, function: Callable, name: str) -> Callable:
        name_id = self._name_id(name)
        ids = self._ids
        buffer_of = self._buffer
        clock = time.perf_counter

        def traced(*args, **kwargs):
            buffer = buffer_of()
            sid = next(ids)
            stack = buffer.stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                buffer.record(sid, parent, name_id, started, ended)

        return functools.wraps(function)(traced)

    @contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own stages."""
        name_id = self._name_id(name)
        buffer = self._buffer()
        sid = next(self._ids)
        parent = buffer.stack[-1] if buffer.stack else -1
        buffer.stack.append(sid)
        started = time.perf_counter()
        try:
            yield
        finally:
            buffer.stack.pop()
            buffer.record(sid, parent, name_id, started, time.perf_counter())

    def _shard_wise(self, run_shard_wise: Callable) -> Callable:
        """Time the map and reduce callbacks under their own module's layer.

        ``run_shard_wise`` belongs to the experiments layer, but the map and
        reduce functions handed to it hold the analysis work; without this
        their time would count as experiments self time.  Maps that run in
        forked pool workers are not recorded.
        """
        def layer_of(function: Callable) -> str:
            parts = getattr(function, "__module__", "").split(".")
            return parts[1] if len(parts) > 1 and parts[0] == "repro" else "experiments"

        def with_callbacks(map_shard, reduce, dataset):
            return run_shard_wise(
                self.wrap(map_shard, f"{layer_of(map_shard)}.map_shard"),
                self.wrap(reduce, f"{layer_of(reduce)}.reduce"),
                dataset,
            )

        return with_callbacks

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        """Replace every target by its timing wrapper."""
        for owner, attribute, name in _targets():
            if isinstance(owner, type):
                raw = owner.__dict__[attribute]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self.wrap(raw.__func__, name))
                else:
                    replacement = self.wrap(raw, name)
                self._restore.append((owner, attribute, raw))
                setattr(owner, attribute, replacement)
                continue
            original = getattr(owner, attribute)
            if name == "experiments.shard_wise":
                replacement = self.wrap(self._shard_wise(original), name)
            else:
                replacement = self.wrap(original, name)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not namespace or not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reduction -----------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        with self._buffers_lock:
            buffers = list(self._buffers)
        return {
            key: np.concatenate([np.frombuffer(getattr(b, key), dtype=dtype)
                                 for b in buffers]) if buffers else np.empty(0, dtype)
            for key, dtype in (("sid", np.int64), ("parent", np.int64),
                               ("name", np.int32), ("start", np.float64),
                               ("end", np.float64))
        }

    def summary(self) -> dict:
        """Per-name total seconds and calls, per-layer self seconds."""
        spans = self.spans()
        count = len(spans["sid"])
        names = np.array(self.names + ["?"], dtype=object)
        if count == 0:
            return {"spans": 0, "totals": {}, "self_by_name": {}, "calls": {},
                    "self": {layer: 0.0 for layer in LAYERS}}
        duration = spans["end"] - spans["start"]
        position = np.full(int(spans["sid"].max()) + 1, -1, dtype=np.int64)
        position[spans["sid"]] = np.arange(count)
        children = np.zeros(count)
        has_parent = spans["parent"] >= 0
        parent_position = position[spans["parent"][has_parent]]
        recorded = parent_position >= 0
        np.add.at(children, parent_position[recorded], duration[has_parent][recorded])
        self_time = duration - children
        totals = np.bincount(spans["name"], weights=duration, minlength=len(self.names))
        calls = np.bincount(spans["name"], minlength=len(self.names))
        self_by_name = np.bincount(spans["name"], weights=self_time, minlength=len(self.names))
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name_id, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += float(self_by_name[name_id])
        return {
            "spans": count,
            "totals": {str(names[i]): float(totals[i]) for i in range(len(self.names))},
            "self_by_name": {str(names[i]): float(self_by_name[i])
                             for i in range(len(self.names))},
            "calls": {str(names[i]): int(calls[i]) for i in range(len(self.names))},
            "self": layer_self,
        }

    def totals_by_stage(self, name: str, marks: dict) -> dict:
        """Seconds in spans called ``name``, by the stage each span ended in.

        ``marks`` maps stage names, in stage order, to the perf_counter
        reading at each stage's end.
        """
        spans = self.spans()
        chosen = spans["name"] == self._name_ids.get(name, -1)
        ends = spans["end"][chosen]
        durations = ends - spans["start"][chosen]
        stages, bounds = list(marks), np.array(list(marks.values()))
        which = np.searchsorted(bounds, ends)
        return {stages[i]: float(durations[which == i].sum()) for i in range(len(stages))}

    def write(self, path: Path) -> Path:
        """Write every span (and the name table) as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.spans()
        np.savez_compressed(path, run_id=np.array(self.run_id),
                            names=np.array(self.names, dtype=str), **spans)
        return path
