"""Targeted-protocol analyses (paper Section 6, Tables 11 and 17) and the
Section 3.2 methodology numbers.

Table 11 asks: of the scanners that contact an HTTP-assigned port at the
/26 Honeytrap networks, what fraction actually speaks HTTP — and what is
the reputation split on each side?  Scanners are counted by source IP
(the paper's "15% of scanners"), protocols are identified by LZR-style
fingerprinting of the first payload.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.dataset import AnalysisDataset
from repro.detection.classify import Reputation

__all__ = [
    "ProtocolBreakdownRow",
    "protocol_breakdown",
    "MethodologyNumbers",
    "methodology_numbers",
]

#: Honeytrap site prefixes whose traffic feeds the Section 6 analysis
#: (all ports observed, payloads captured; GreyNoise sensors are omitted
#: exactly as the paper omits them).
_HONEYTRAP_PREFIX = "ht-"


@dataclass(frozen=True)
class ProtocolBreakdownRow:
    """One Table 11 row pair: HTTP vs ~HTTP on one port."""

    port: int
    expected: str  # the IANA-assigned protocol ("http")
    matching_pct: float  # % of scanner IPs speaking the assigned protocol
    unexpected_pct: float
    matching_benign_pct: float
    matching_malicious_pct: float
    unexpected_benign_pct: float
    unexpected_malicious_pct: float
    unexpected_protocols: dict[str, float]  # protocol -> % of all scanners


def _first_protocol_by_source(
    dataset: AnalysisDataset, ports: Sequence[int]
) -> dict[int, dict[int, str]]:
    """Per port: each Honeytrap source's *first* fingerprinted protocol.

    Shard-wise map-reduce with first-occurrence semantics: every
    candidate carries its global sort key ``(vantage position, shard
    position, row)`` and the reduce keeps the minimum — exactly the
    first matching event in merged row order.
    """
    from repro.analysis.contingency_engine import dataset_coder
    from repro.experiments.base import run_shard_wise

    coder = dataset_coder(dataset)

    def map_shard(view):
        partial: dict[int, dict[int, tuple[tuple[int, int, int], str]]] = {
            port: {} for port in ports
        }
        for vantage_id, table in view.tables.items():
            if not vantage_id.startswith(_HONEYTRAP_PREFIX) or len(table) == 0:
                continue
            vantage_pos = view.order[vantage_id]
            payload_codes, _creds = coder.coded(table)
            event_fp = coder.fp_lookup()[payload_codes]
            identified = event_fp != coder.fp_codes.get(None, -1)
            dst_port = table.dst_port
            src_ips = table.src_ip
            for port in ports:
                matching = np.flatnonzero((dst_port == port) & identified)
                if len(matching) == 0:
                    continue
                # A source's first identified row in this shard; the
                # cross-shard order is settled in the reduce.
                sources, first = np.unique(src_ips[matching], return_index=True)
                order = np.argsort(first, kind="stable")
                rows = matching[first[order]]
                first_seen = partial[port]
                for src_ip, row, code in zip(
                    sources[order].tolist(), rows.tolist(), event_fp[rows].tolist()
                ):
                    first_seen.setdefault(
                        src_ip, ((vantage_pos, view.index, row), coder.fp_values[code])
                    )
        return partial

    def reduce(partials):
        merged: dict[int, dict[int, tuple[tuple[int, int, int], str]]] = {
            port: {} for port in ports
        }
        for partial in partials:
            for port, candidates in partial.items():
                first = merged[port]
                for src_ip, candidate in candidates.items():
                    held = first.get(src_ip)
                    if held is None or candidate[0] < held[0]:
                        first[src_ip] = candidate
        return {
            port: {src_ip: proto for src_ip, (_key, proto) in candidates.items()}
            for port, candidates in merged.items()
        }

    return run_shard_wise(map_shard, reduce, dataset)


def protocol_breakdown(
    dataset: AnalysisDataset, ports: Sequence[int] = (80, 8080)
) -> list[ProtocolBreakdownRow]:
    """Compute Table 11 over the Honeytrap networks."""
    oracle = dataset.reputation_oracle()
    first_protocols = _first_protocol_by_source(dataset, ports)
    rows: list[ProtocolBreakdownRow] = []
    for port in ports:
        # A source's protocol is whatever it spoke first at this port.
        protocol_of_source = first_protocols[port]
        total = len(protocol_of_source)
        if total == 0:
            continue
        matching = {src for src, proto in protocol_of_source.items() if proto == "http"}
        unexpected = set(protocol_of_source) - matching

        def _reputation_pct(sources: set[int], label: Reputation) -> float:
            if not sources:
                return 0.0
            hits = sum(1 for src in sources if oracle.reputation(src) is label)
            return 100.0 * hits / len(sources)

        unexpected_mix: Counter = Counter(
            protocol_of_source[src] for src in unexpected
        )
        rows.append(
            ProtocolBreakdownRow(
                port=port,
                expected="http",
                matching_pct=100.0 * len(matching) / total,
                unexpected_pct=100.0 * len(unexpected) / total,
                matching_benign_pct=_reputation_pct(matching, Reputation.BENIGN),
                matching_malicious_pct=_reputation_pct(matching, Reputation.MALICIOUS),
                unexpected_benign_pct=_reputation_pct(unexpected, Reputation.BENIGN),
                unexpected_malicious_pct=_reputation_pct(unexpected, Reputation.MALICIOUS),
                unexpected_protocols={
                    protocol: 100.0 * count / total
                    for protocol, count in sorted(unexpected_mix.items())
                },
            )
        )
    return rows


@dataclass(frozen=True)
class MethodologyNumbers:
    """The Section 3.2 headline fractions."""

    telnet_non_auth_pct: float  # 34% in the paper
    ssh_non_auth_pct: float  # 24%
    http80_non_exploit_pct: float  # 75%
    distinct_http_payloads_malicious_pct: float  # ~6%


def methodology_numbers(dataset: AnalysisDataset) -> MethodologyNumbers:
    """Recompute the paper's Section 3.2 traffic-intent fractions.

    Authentication-attempt fractions are only measurable at vantage
    points that emulate logins (Cowrie — the GreyNoise honeypots), so
    SSH/Telnet events from first-payload-only frameworks are excluded.
    Distinct payloads are deduplicated after ephemeral-header stripping,
    as everywhere else in the methodology.
    """
    (telnet_total, telnet_auth, ssh_total, ssh_auth,
     http_total, http_exploit, distinct_http) = _methodology_counts(dataset)

    def _pct(part: int, whole: int) -> float:
        return 100.0 * part / whole if whole else 0.0

    distinct_malicious = sum(1 for malicious in distinct_http.values() if malicious)
    return MethodologyNumbers(
        telnet_non_auth_pct=_pct(telnet_total - telnet_auth, telnet_total),
        ssh_non_auth_pct=_pct(ssh_total - ssh_auth, ssh_total),
        http80_non_exploit_pct=_pct(http_total - http_exploit, http_total),
        distinct_http_payloads_malicious_pct=_pct(distinct_malicious, len(distinct_http)),
    )


def _methodology_counts(dataset: AnalysisDataset):
    """Shard-wise columnar computation of the Section 3.2 counters.

    The scalar counters (auth fractions, HTTP totals) are plain sums —
    trivially mergeable.  ``distinct_http`` has first-occurrence
    semantics (the flag recorded is the *first* matching event's
    maliciousness), so partials carry ``(vantage position, shard
    position, row)`` sort keys and the reduce keeps the minimum, which
    is the first occurrence in merged row order.
    """
    from repro.analysis.contingency_engine import dataset_coder
    from repro.experiments.base import run_shard_wise

    coder = dataset_coder(dataset)

    def map_shard(view):
        counts = [0, 0, 0, 0, 0, 0]
        distinct: dict[bytes, tuple[tuple[int, int, int], bool]] = {}
        for vantage_id, table in view.tables.items():
            if len(table) == 0:
                continue
            vantage_pos = view.order[vantage_id]
            dst_port = table.dst_port
            payload_codes, (has_cred, *_pairs) = coder.coded(table)
            if vantage_id.startswith("gn-"):
                handshake = table.handshake
                for port, slot in ((23, 0), (22, 2)):
                    sessions = (dst_port == port) & handshake
                    counts[slot] += int(sessions.sum())
                    counts[slot + 1] += int((sessions & has_cred).sum())
            stripped = coder.stripped_lookup()[payload_codes]
            http = coder.fp_lookup()[payload_codes] == coder.fp_codes.get("http", -1)
            matching = np.flatnonzero((dst_port == 80) & http & (stripped >= 0))
            if len(matching) == 0:
                continue
            malicious = coder.malicious_rows(table)[matching]
            counts[4] += len(matching)
            counts[5] += int(malicious.sum())
            # Each distinct stripped payload's first row in this shard;
            # cross-shard order is settled in the reduce.
            _codes, first = np.unique(stripped[matching], return_index=True)
            for index in np.sort(first).tolist():
                row = int(matching[index])
                distinct.setdefault(
                    coder.stripped_values[stripped[row]],
                    ((vantage_pos, view.index, row), bool(malicious[index])),
                )
        return counts, distinct

    def reduce(partials):
        totals = [0, 0, 0, 0, 0, 0]
        merged: dict[bytes, tuple[tuple[int, int, int], bool]] = {}
        for counts, distinct in partials:
            for slot, value in enumerate(counts):
                totals[slot] += value
            for stripped, candidate in distinct.items():
                held = merged.get(stripped)
                if held is None or candidate[0] < held[0]:
                    merged[stripped] = candidate
        distinct_http = {
            stripped: malicious for stripped, (_key, malicious) in merged.items()
        }
        return (*totals, distinct_http)

    return run_shard_wise(map_shard, reduce, dataset)
