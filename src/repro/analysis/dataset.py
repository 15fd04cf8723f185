"""Analysis-side view of a captured dataset.

:class:`AnalysisDataset` is the boundary between measurement and
analysis: it holds only what the apparatus recorded (honeypot events, the
aggregated telescope dataset, the deployment geometry) and derives the
quantities the paper's tables are built from — the contingency engine's
per-vantage characteristic counts, source-IP sets, and reputation.

It deliberately has no access to the simulator's ground truth.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.deployment.fleet import LeakExperiment
from repro.detection.classify import MaliciousnessClassifier, ReputationOracle
from repro.detection.engine import RuleEngine
from repro.honeypots.base import VantagePoint
from repro.honeypots.telescope import TelescopeCapture
from repro.io.table import EventTable
from repro.sim.clock import ObservationWindow
from repro.sim.engine import SimulationResult
from repro.sim.events import CapturedEvent, NetworkKind

__all__ = ["TrafficSlice", "AnalysisDataset", "SLICES"]


@dataclass(frozen=True)
class TrafficSlice:
    """A protocol/port slice of traffic (the paper's comparison axes).

    ``port`` restricts to one destination port (None = all ports);
    ``protocol`` restricts by fingerprinted payload protocol (None = no
    protocol filter).  SSH/Telnet slices are port-based, matching how
    Cowrie collects them; HTTP slices are fingerprint-based, matching the
    Section 6 methodology.
    """

    name: str
    port: Optional[int] = None
    protocol: Optional[str] = None
    #: Interactive slices read credentials; they only exist where the
    #: capture framework emulates logins.
    interactive: bool = False

    def label(self) -> str:
        return self.name


#: The paper's standard slices (Section 3.3).
SLICES: dict[str, TrafficSlice] = {
    "ssh22": TrafficSlice("SSH/22", port=22, interactive=True),
    "telnet23": TrafficSlice("Telnet/23", port=23, interactive=True),
    "http80": TrafficSlice("HTTP/80", port=80, protocol="http"),
    "http_all": TrafficSlice("HTTP/All Ports", protocol="http"),
    "any_all": TrafficSlice("Any/All", None, None),
}


class AnalysisDataset:
    """Queryable captured dataset (honeypots + telescope).

    Backed by per-vantage columnar :class:`~repro.io.table.EventTable`
    objects (``tables``, in vantage order): the zero-copy path out of the
    simulator, or :meth:`from_events` for row records such as a reloaded
    NDJSON release.  Every query runs on numpy columns; per-event
    fingerprint and maliciousness verdicts come from the dataset's one
    shared coder (:func:`~repro.analysis.contingency_engine.dataset_coder`),
    which decides each once per distinct payload (maliciousness: per
    distinct payload, port and login flag).
    """

    def __init__(
        self,
        tables: Mapping[str, EventTable],
        vantages: Sequence[VantagePoint] = (),
        window: Optional[ObservationWindow] = None,
        telescope: Optional[TelescopeCapture] = None,
        leak_experiment: Optional[LeakExperiment] = None,
        rule_engine: Optional[RuleEngine] = None,
        shard_tables: Optional[Sequence[Mapping[str, EventTable]]] = None,
        map_workers: int = 1,
    ) -> None:
        self.tables: dict[str, EventTable] = dict(tables)
        # Per-shard table views of the same rows (merge order), set by the
        # orchestrator so map-reduce drivers can regroup work shard-wise;
        # ``map_workers`` is their fan-out budget.
        self.shard_tables: Optional[list[dict[str, EventTable]]] = (
            [dict(shard) for shard in shard_tables]
            if shard_tables is not None else None
        )
        self.map_workers = int(map_workers)
        self.vantages: list[VantagePoint] = list(vantages)
        self.window = window
        self.telescope = telescope
        self.leak_experiment = leak_experiment
        self.classifier = MaliciousnessClassifier(rule_engine)

        self._vantage_by_id = {vantage.vantage_id: vantage for vantage in self.vantages}
        self._oracle: Optional[ReputationOracle] = None
        self._contingency = None
        self._source_aggregates = None
        self._shard_coder = None
        self._shard_coder_digest = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_simulation(
        cls,
        result: SimulationResult,
        shard_tables: Optional[Sequence[Mapping[str, EventTable]]] = None,
        map_workers: int = 1,
    ) -> "AnalysisDataset":
        return cls(
            tables=result.tables(),
            vantages=result.deployment.honeypots,
            window=result.window,
            telescope=result.telescope,
            leak_experiment=result.deployment.leak_experiment,
            shard_tables=shard_tables,
            map_workers=map_workers,
        )

    @classmethod
    def from_events(
        cls,
        events: Iterable[CapturedEvent],
        vantages: Sequence[VantagePoint],
        window: Optional[ObservationWindow] = None,
        **kwargs,
    ) -> "AnalysisDataset":
        """Build a dataset from row records.

        Each listed vantage gets one table, in ``vantages`` order (the
        layout :meth:`SimulationResult.tables` has); rows keep their
        relative order within a vantage.  A row from a vantage that is
        not listed raises ``ValueError``.
        """
        tables = {vantage.vantage_id: EventTable.for_vantage(vantage) for vantage in vantages}
        for event in events:
            table = tables.get(event.vantage_id)
            if table is None:
                raise ValueError(f"event from unlisted vantage {event.vantage_id!r}")
            table.append_event(event)
        return cls(tables=tables, vantages=vantages, window=window, **kwargs)

    # ------------------------------------------------------------------
    # columnar contingency engine
    # ------------------------------------------------------------------

    def contingency(self):
        """The shared columnar contingency engine.

        Built shard-wise on first use and cached keyed by a cheap table
        digest, so every §3.3 comparison experiment draws from the same
        precomputed count matrices.
        """
        from repro.analysis.contingency_engine import build_engine, dataset_digest

        digest = dataset_digest(self.tables)
        if self._contingency is None or self._contingency.digest != digest:
            self._contingency = build_engine(self)
        return self._contingency

    def source_aggregates(self):
        """Per-source behavioral aggregates, built shard-wise and cached
        like :meth:`contingency`."""
        from repro.analysis.contingency_engine import (
            build_source_aggregates,
            dataset_digest,
        )

        digest = dataset_digest(self.tables)
        if self._source_aggregates is None or self._source_aggregates.digest != digest:
            self._source_aggregates = build_source_aggregates(self)
        return self._source_aggregates

    # ------------------------------------------------------------------
    # reputation
    # ------------------------------------------------------------------

    def reputation_oracle(self) -> ReputationOracle:
        """GreyNoise-style actor reputation over the whole dataset.

        Fed straight from columns: the same state as ``observe_all``
        over every event, vantage-major in row order."""
        if self._oracle is None:
            from repro.analysis.contingency_engine import dataset_coder

            coder = dataset_coder(self)
            oracle = ReputationOracle(classifier=self.classifier)
            for table in self.tables.values():
                if len(table) == 0:
                    continue
                src_ips = table.src_ip
                oracle._seen_ips.update(zip(src_ips.tolist(), table.src_asn.tolist()))
                oracle._malicious_ips.update(
                    np.unique(src_ips[coder.malicious_rows(table)]).tolist()
                )
            self._oracle = oracle
        return self._oracle

    # ------------------------------------------------------------------
    # grouping
    # ------------------------------------------------------------------

    def vantage(self, vantage_id: str) -> VantagePoint:
        return self._vantage_by_id[vantage_id]

    def vantages_in(
        self,
        network: Optional[str] = None,
        region: Optional[str] = None,
        kind: Optional[NetworkKind] = None,
    ) -> list[VantagePoint]:
        found = self.vantages
        if network is not None:
            found = [vantage for vantage in found if vantage.network == network]
        if region is not None:
            found = [vantage for vantage in found if vantage.region_code == region]
        if kind is not None:
            found = [vantage for vantage in found if vantage.kind == kind]
        return found

    def neighborhoods(
        self,
        networks: Optional[Sequence[str]] = None,
        vantage_prefix: Optional[str] = None,
    ) -> dict[tuple[str, str], list[VantagePoint]]:
        """Group vantage points into (network, region) neighborhoods.

        ``vantage_prefix`` restricts by vantage-id prefix — e.g. ``"gn-"``
        limits to the GreyNoise fleet, matching the paper's Section 4/5
        analyses, which never mix collection frameworks.
        """
        groups: dict[tuple[str, str], list[VantagePoint]] = defaultdict(list)
        for vantage in self.vantages:
            if networks is not None and vantage.network not in networks:
                continue
            if vantage_prefix is not None and not vantage.vantage_id.startswith(vantage_prefix):
                continue
            groups[(vantage.network, vantage.region_code)].append(vantage)
        return dict(groups)

    # ------------------------------------------------------------------
    # source-IP sets (Tables 8/9)
    # ------------------------------------------------------------------

    def sources_on_port(self, port: int, kind: NetworkKind) -> set[int]:
        """Source IPs observed on ``port`` at honeypots of one network kind."""
        sources: set[int] = set()
        for table in self.tables.values():
            if table.network_kind != kind or len(table) == 0:
                continue
            mask = table.dst_port == port
            if mask.any():
                sources.update(np.unique(table.src_ip[mask]).tolist())
        return sources

    def malicious_sources_on_port(self, port: int, kind: NetworkKind) -> set[int]:
        """Source IPs that sent *malicious* traffic on ``port``/``kind``."""
        from repro.analysis.contingency_engine import dataset_coder

        coder = dataset_coder(self)
        sources: set[int] = set()
        for table in self.tables.values():
            if table.network_kind != kind or len(table) == 0:
                continue
            mask = table.dst_port == port
            if mask.any():
                mask &= coder.malicious_rows(table)
                sources.update(np.unique(table.src_ip[mask]).tolist())
        return sources
