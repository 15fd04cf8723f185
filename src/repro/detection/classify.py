"""Maliciousness classification and actor reputation.

Implements the paper's Section 3.2 definitions:

* an **event** is malicious when it "(1) attempts to login or bypass
  authentication, or (2) alters the state of the service" — i.e. it
  carries credentials, or the vetted ruleset alerts on its payload;
* a **scanner** (source IP) is *malicious* when it "was seen actively
  exploiting services" anywhere in the dataset, *benign* when its
  operator is on the vetted-organization registry (GreyNoise's
  vetting process), and *unknown* otherwise;
* an *attacker* is a scanner whose malicious intent has been verified —
  the paper reserves the word for exactly this.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.detection.engine import RuleEngine
from repro.sim.events import CapturedEvent

__all__ = [
    "Reputation",
    "VETTED_BENIGN_ASES",
    "is_malicious_event",
    "MaliciousnessClassifier",
    "ReputationOracle",
]


class Reputation(str, enum.Enum):
    """GreyNoise-style actor label."""

    BENIGN = "benign"
    MALICIOUS = "malicious"
    UNKNOWN = "unknown"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @classmethod
    def label(cls, malicious: bool, asn: Optional[int]) -> "Reputation":
        """Malicious once any of the IP's events was; else benign when
        its AS is vetted; else unknown."""
        if malicious:
            return cls.MALICIOUS
        if asn in VETTED_BENIGN_ASES:
            return cls.BENIGN
        return cls.UNKNOWN


#: Organizations that have "undergone a rigorous vetting process":
#: Censys, Shodan, and known research/measurement scanning outfits.
VETTED_BENIGN_ASES: frozenset[int] = frozenset(
    {398324, 10439, 198605, 9009, 60068, 208843, 202425, 204428, 211252, 47890, 57523, 49870, 135377}
)


class MaliciousnessClassifier:
    """Per-event malicious/benign decisions (paper Section 3.2)."""

    def __init__(self, rule_engine: Optional[RuleEngine] = None) -> None:
        self.rule_engine = rule_engine or RuleEngine()

    def is_malicious(self, event: CapturedEvent) -> bool:
        """True when the event tries to log in or alter service state.

        Telescope events can never be classified malicious: they carry no
        payload — which is exactly the blindness Section 8 warns about.
        """
        return self.is_malicious_parts(
            event.payload, event.dst_port, event.attempted_login
        )

    def is_malicious_parts(
        self, payload: bytes, dst_port: int, attempted_login: bool
    ) -> bool:
        """Column-friendly form of :meth:`is_malicious`: the decision
        depends only on these three fields, so columnar pipelines can
        classify without materializing event objects."""
        if attempted_login:
            return True
        if payload and self.rule_engine.is_malicious(payload, dst_port):
            return True
        return False


def is_malicious_event(event: CapturedEvent, rule_engine: Optional[RuleEngine] = None) -> bool:
    """One-shot convenience wrapper over :class:`MaliciousnessClassifier`."""
    return MaliciousnessClassifier(rule_engine).is_malicious(event)


@dataclass
class ReputationOracle:
    """IP-level reputation built from observed behavior, GreyNoise-style.

    Build one by feeding every captured event (:meth:`observe`); query
    with :meth:`reputation`.  An IP seen sending even one malicious
    payload anywhere is labeled malicious; vetted organizations are
    benign; everything else is unknown — matching the 78%-unknown reality
    the paper quotes.
    """

    classifier: MaliciousnessClassifier = field(default_factory=MaliciousnessClassifier)
    _malicious_ips: set[int] = field(default_factory=set)
    _seen_ips: dict[int, int] = field(default_factory=dict)

    def observe(self, event: CapturedEvent) -> None:
        self._seen_ips[event.src_ip] = event.src_asn
        if event.src_ip not in self._malicious_ips and self.classifier.is_malicious(event):
            self._malicious_ips.add(event.src_ip)

    def observe_all(self, events: Iterable[CapturedEvent]) -> "ReputationOracle":
        for event in events:
            self.observe(event)
        return self

    def reputation(self, src_ip: int, src_asn: Optional[int] = None) -> Reputation:
        asn = src_asn if src_asn is not None else self._seen_ips.get(src_ip)
        return Reputation.label(src_ip in self._malicious_ips, asn)

    def malicious_ips(self) -> set[int]:
        return set(self._malicious_ips)

    def counts(self) -> dict[Reputation, int]:
        """Label distribution over all observed source IPs."""
        totals: dict[Reputation, int] = defaultdict(int)
        for src_ip, asn in self._seen_ips.items():
            totals[self.reputation(src_ip, asn)] += 1
        return dict(totals)
