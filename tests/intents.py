"""Test helpers: run hand-built scan intents through the batch capture path."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.io.table import EventTable
from repro.sim.events import CapturedEvent, IntentBatch, ScanIntent


def batch_of(intent: ScanIntent) -> IntentBatch:
    """A one-row intent batch holding ``intent``."""
    def column(value) -> np.ndarray:
        array = np.empty(1, dtype=object)
        array[0] = value
        return array

    return IntentBatch(
        dst_port=intent.dst_port,
        transport=intent.transport,
        protocol=intent.protocol,
        timestamps=np.asarray([intent.timestamp], dtype=np.float64),
        src_ips=np.asarray([intent.src_ip], dtype=np.int64),
        dst_ips=np.asarray([intent.dst_ip], dtype=np.int64),
        payloads=column(intent.payload),
        credentials=column(tuple(credential.as_tuple() for credential in intent.credentials)),
        commands=column(intent.commands),
    )


def capture_one(stack, intent: ScanIntent, vantage, src_asn: int) -> Optional[CapturedEvent]:
    """What ``stack`` records for one intent (None when it drops it)."""
    table = EventTable.for_vantage(vantage)
    kept = stack.capture_batch(batch_of(intent), np.asarray([src_asn], dtype=np.int64), table)
    return next(table.iter_events()) if kept else None
