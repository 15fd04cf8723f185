"""The bus-attached incident pipeline and post-hoc detection.

:class:`IncidentPipeline` subscribes right after the analyzer
(:func:`repro.stream.bus.build_stream`), evaluates rules as tumbling
hours seal, and finalizes when the bus closes.  :func:`detect_incidents`
publishes a merged :class:`~repro.analysis.dataset.AnalysisDataset`
through the same pipeline in **canonical order**
(:func:`repro.stream.bus.canonical_chunks`: hour-major, vantage-minor,
original row order within each (vantage, hour) cell).

The canonical order is the determinism keystone: the orchestrator's
merged datasets are bit-identical across shard counts, and the replay
order is a pure function of the merged tables — so the audit log of a
1-shard, 2-shard and 4-shard run of the same seed is byte-identical, and
``watch --run-dir`` (the same replay through the bus) writes it too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.incident.incidents import AuditLog, IncidentStore
from repro.incident.rules import IncidentRule, default_rules
from repro.incident.runbooks import RunbookExecutor
from repro.stream.bus import StreamChunk, build_stream, canonical_chunks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.dataset import AnalysisDataset
    from repro.stream.analyzer import StreamAnalyzer

__all__ = ["IncidentPipeline", "detect_incidents"]


class IncidentPipeline:
    """Rules + store + executor behind one ``consume(chunk)`` face."""

    def __init__(self, analyzer: "StreamAnalyzer", quiet_hours: int = 12) -> None:
        self.analyzer = analyzer
        self.rules = default_rules()
        self.audit = AuditLog()
        self.store = IncidentStore(self.audit, quiet_hours=quiet_hours)
        #: vantage id -> region, learned from chunks (reweight targets).
        self.regions: dict[str, str] = {}
        self.executor = RunbookExecutor(self.audit, self.store, region_of=self.regions.get)
        self._evaluated_hours = 0
        self._finalized = False

    # -- ingest ---------------------------------------------------------

    def consume(self, chunk: StreamChunk) -> None:
        """Bus-subscriber hook; must run after the analyzer's consume."""
        self.regions.setdefault(chunk.vantage_id, chunk.region)
        for rule in self.rules:
            rule.observe(chunk)
        self._advance(self.analyzer.windows.sealed_hours())

    def finalize(self) -> None:
        """End of stream: evaluate through the final (never-sealing) hour.

        The tumbling windows' last hour is right-closed, so the
        watermark alone can never seal it — the pipeline needs an
        explicit end-of-stream to evaluate the tail and resolve leftover
        incidents.  Idempotent.
        """
        if self._finalized:
            return
        self._finalized = True
        self._advance(self.analyzer.hours, final=True)
        self.store.resolve_all(max(self.analyzer.hours - 1, 0))

    def close(self) -> None:
        """Bus end-of-stream hook: :meth:`finalize`."""
        self.finalize()

    # -- evaluation -----------------------------------------------------

    def _advance(self, through_hour: int, final: bool = False) -> None:
        while self._evaluated_hours < through_hour:
            hour = self._evaluated_hours
            last = final and hour == through_hour - 1
            self._evaluate(hour, last)
            self._evaluated_hours += 1

    def _evaluate(self, hour: int, last: bool) -> None:
        signals = []
        for rule in self.rules:
            if last or (hour + 1) % rule.cadence == 0:
                signals.extend(rule.evaluate(self.analyzer, hour))
        opened = self.store.ingest(signals, hour)
        for incident in opened:
            rule = self._rule_named(incident.rule)
            if rule is not None:
                self.executor.execute(incident, rule.runbook, hour)
        self.store.resolve_quiet(hour)

    def _rule_named(self, name: str) -> Optional[IncidentRule]:
        for rule in self.rules:
            if rule.name == name:
                return rule
        return None

    # -- views ----------------------------------------------------------

    def summary(self) -> dict:
        """Counts + last action, the shape snapshots and CLIs print."""
        counts = self.store.counts()
        last = self.executor.last_action()
        last_text = None
        if last is not None:
            parts = [f"{last['action']}"]
            for key in ("asn", "service", "region"):
                if key in last:
                    prefix = "AS" if key == "asn" else ""
                    parts.append(f"{prefix}{last[key]}")
            last_text = " ".join(parts) + f" (hour {last['hour']}, {last['incident']})"
        return {
            "open": counts["open"],
            "acknowledged": counts["acknowledged"],
            "resolved": counts["resolved"],
            "incidents": len(self.store.history),
            "actions": self.executor.action_count(),
            "blocklist_entries": len(self.executor.blocklist),
            "audit_records": len(self.audit),
            "last_action": last_text,
        }


def detect_incidents(dataset: "AnalysisDataset", quiet_hours: int = 12) -> IncidentPipeline:
    """Post-hoc detection over a merged dataset, canonically ordered.

    Returns the finalized pipeline; ``pipeline.audit`` is the complete
    (byte-stable) audit log and ``pipeline.executor.blocklist`` the
    auto-emitted entries the closed-loop experiment feeds back.
    """
    hours = int(dataset.window.hours)
    bus, _analyzer, pipeline = build_stream(
        hours, dataset.leak_experiment, quiet_hours=quiet_hours
    )
    for chunk in canonical_chunks(dataset.tables, hours):
        bus.publish(chunk)
    bus.close()
    return pipeline
