"""Transparent upstream firewalls (paper Section 7, "Firewalls").

The paper notes that "it is possible that a network could transparently
drop malicious traffic before [it] reach[es] our honeypots" and leaves
measuring that effect to future work.  :class:`FirewalledStack` models
exactly that confound: a network-edge middlebox that silently drops a
fraction of recognizably-malicious sessions *before* the capture stack
sees them.

Because the firewall sits upstream of the epistemic boundary, analyses on
a firewalled vantage underestimate malicious traffic — the ablation
benchmark (``benchmarks/test_bench_ablations.py``) quantifies by how
much, which is the measurement the paper calls for.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.detection.engine import RuleEngine
from repro.honeypots.base import CaptureStack
from repro.io.table import EventTable
from repro.sim.events import IntentBatch
from repro.sim.rng import stable_hash64

__all__ = ["FirewalledStack"]


class FirewalledStack(CaptureStack):
    """Wrap a capture stack behind a transparent malicious-traffic filter.

    ``drop_probability`` is the chance the middlebox recognizes and drops
    one malicious session (login attempts and rule-matching payloads).
    Drops are deterministic per (src, dst, timestamp) so simulations stay
    reproducible.  Benign traffic always passes — real transparent
    filters are tuned for low false positives.
    """

    name = "Firewalled"

    def __init__(
        self,
        inner: CaptureStack,
        drop_probability: float,
        rule_engine: Optional[RuleEngine] = None,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        self._inner = inner
        self._drop_probability = drop_probability
        self._rules = rule_engine or RuleEngine()
        self._seed = seed
        self.name = f"Firewalled({inner.name})"
        self.completes_handshake = inner.completes_handshake
        self.dropped = 0

    @property
    def inner(self) -> CaptureStack:
        return self._inner

    def observes(self, port: int) -> bool:
        return self._inner.observes(port)

    def _keep_mask(self, batch: IntentBatch) -> np.ndarray:
        """Per-row pass verdict: False where the middlebox drops the session.

        A session is malicious when it tries credentials or its payload
        trips the rule engine (asked once per distinct payload); each
        malicious session is dropped on a deterministic per-(src, dst,
        timestamp) draw.
        """
        keep = np.ones(len(batch), dtype=bool)
        if self._drop_probability == 0.0:
            return keep
        verdicts: dict[bytes, bool] = {b"": False}
        timestamps = batch.timestamps.tolist()
        src_ips = batch.src_ips.tolist()
        dst_ips = batch.dst_ips.tolist()
        for index, (payload, credentials) in enumerate(zip(batch.payloads, batch.credentials)):
            if not credentials:
                verdict = verdicts.get(payload)
                if verdict is None:
                    verdict = self._rules.is_malicious(payload, batch.dst_port)
                    verdicts[payload] = verdict
                if not verdict:
                    continue
            if self._drop_probability < 1.0:
                draw = stable_hash64(
                    self._seed, src_ips[index], dst_ips[index], round(timestamps[index], 6)
                ) / float(1 << 64)
                if draw >= self._drop_probability:
                    continue
            keep[index] = False
        return keep

    def capture_batch(
        self, batch: IntentBatch, src_asns: np.ndarray, table: EventTable
    ) -> int:
        """Drop the filtered sessions, then capture the rest with the inner stack."""
        kept = np.flatnonzero(self._keep_mask(batch))
        self.dropped += len(batch) - len(kept)
        if len(kept) < len(batch):
            batch, src_asns = batch.take(kept), src_asns[kept]
        return self._inner.capture_batch(batch, src_asns, table)

    def capture_batch_columns(self, batch: IntentBatch, src_asns: np.ndarray) -> dict:
        """The inner stack's columns for sessions that got past the firewall
        (the drops themselves happen in :meth:`capture_batch`)."""
        return self._inner.capture_batch_columns(batch, src_asns)
