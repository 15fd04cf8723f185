"""Simulator calibration diagnostics.

These checks compare a finished simulation's *captured* data against its
own *configured* population — the one place in the repository allowed to
look at ground truth.  They exist for maintainers editing
:mod:`repro.scanners.population`: a failed check means a calibration knob
drifted, not that an analysis is wrong.

Usage::

    report = validate_calibration(result)
    for finding in report.findings:
        print(finding)
    assert report.ok
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from repro.sim.engine import SimulationResult
from repro.sim.events import NetworkKind

__all__ = ["CalibrationFinding", "CalibrationReport", "validate_calibration"]


@dataclass(frozen=True)
class CalibrationFinding:
    """One diagnostic result."""

    check: str
    ok: bool
    detail: str

    def __str__(self) -> str:
        status = "ok " if self.ok else "FAIL"
        return f"[{status}] {self.check}: {self.detail}"


@dataclass
class CalibrationReport:
    findings: list[CalibrationFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(finding.ok for finding in self.findings)

    def add(self, check: str, ok: bool, detail: str) -> None:
        self.findings.append(CalibrationFinding(check, ok, detail))

    def failures(self) -> list[CalibrationFinding]:
        return [finding for finding in self.findings if not finding.ok]


def _ground_truth_sources(result: SimulationResult) -> tuple[set[int], set[int]]:
    """(malicious source IPs, telescope-avoiding source IPs) per config."""
    malicious: set[int] = set()
    avoiders: set[int] = set()
    for spec in result.population:
        sources = {int(ip) for ip in result.source_ips[spec.scanner_id]}
        if spec.malicious:
            malicious |= sources
        if spec.strategy.kind_weights.get(NetworkKind.TELESCOPE, 1.0) == 0.0:
            avoiders |= sources
    return malicious, avoiders


def validate_calibration(
    result: SimulationResult,
    min_events: int = 1000,
) -> CalibrationReport:
    """Run the calibration checks on one simulation."""
    report = CalibrationReport()
    total = result.total_events()
    report.add("volume", total >= min_events,
               f"{total} honeypot events (expected >= {min_events})")
    if total == 0:
        return report

    malicious_truth, avoider_truth = _ground_truth_sources(result)

    # --- telescope avoidance holds exactly ---
    telescope_sources: set[int] = set()
    if result.telescope is not None:
        for port in result.telescope.ports():
            telescope_sources |= result.telescope.sources_on_port(port)
        leaked_avoiders = telescope_sources & avoider_truth
        report.add(
            "telescope-avoidance",
            not leaked_avoiders,
            f"{len(leaked_avoiders)} configured avoiders leaked into the telescope",
        )

    tables = [table for table in result.tables().values() if len(table)]

    # --- every network kind saw traffic ---
    kind_counts: Counter = Counter()
    for table in tables:
        kind_counts[table.network_kind] += len(table)
    for kind in (NetworkKind.CLOUD, NetworkKind.EDU):
        report.add(f"coverage-{kind.value}", kind_counts[kind] > 0,
                   f"{kind_counts[kind]} events")

    # --- timestamps inside the window ---
    hours = result.window.hours
    out_of_window = sum(
        int((~((table.timestamps >= 0.0) & (table.timestamps < hours))).sum())
        for table in tables
    )
    report.add("timestamps", out_of_window == 0,
               f"{out_of_window} events outside [0, {hours})")

    # --- source attribution consistent with the registry ---
    sample = list(islice(
        (pair for table in tables
         for pair in zip(table.src_ip.tolist(), table.src_asn.tolist())),
        2000,
    ))
    bad_asn = 0
    for src_ip, src_asn in sample:
        system = result.registry.lookup(src_ip)
        if system is None or system.asn != src_asn:
            bad_asn += 1
    report.add("as-attribution", bad_asn == 0,
               f"{bad_asn}/{len(sample)} sampled events with inconsistent AS attribution")

    # --- detectability: one verdict per distinct (payload, port, login) ---
    from repro.detection.classify import MaliciousnessClassifier

    classify = MaliciousnessClassifier().is_malicious_parts
    verdicts: dict[tuple, bool] = {}

    def verdict(key: tuple) -> bool:
        found = verdicts.get(key)
        if found is None:
            found = verdicts[key] = classify(*key)
        return found

    truth_array = np.fromiter(malicious_truth, dtype=np.int64, count=len(malicious_truth))
    truth_hits = truth_total = benign_hits = benign_total = 0
    for table in tables:
        keys = zip(table.payloads.tolist(), table.dst_port.tolist(),
                   (bool(credentials) for credentials in table.credentials.tolist()))
        flagged = np.fromiter(map(verdict, keys), dtype=bool, count=len(table))
        truth = np.isin(table.src_ip, truth_array)
        truth_total += int(truth.sum())
        truth_hits += int((flagged & truth).sum())
        benign_total += int((~truth).sum())
        benign_hits += int((flagged & ~truth).sum())

    # --- malicious ground truth has malicious-looking traffic ---
    detection_rate = truth_hits / truth_total if truth_total else 0.0
    report.add(
        "malicious-detectability",
        detection_rate > 0.25,
        f"{detection_rate:.0%} of configured-malicious traffic is detectably "
        "malicious (logins or rule hits)",
    )

    # --- benign ground truth rarely triggers detection (false positives) ---
    false_rate = benign_hits / benign_total if benign_total else 0.0
    report.add(
        "benign-false-positives",
        false_rate < 0.15,
        f"{false_rate:.1%} of configured-benign traffic flagged malicious",
    )
    return report
