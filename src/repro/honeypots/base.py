"""Vantage points and the capture-stack interface.

A *vantage point* is a set of IP addresses in one network+region observed
through one capture framework.  The framework defines what the paper calls
the "collection method" (Table 1): which ports are observed, whether the
L4 handshake completes, whether payloads are recorded, and whether
interactive logins are emulated.

The analysis pipeline only ever sees the event-table rows a stack
chooses to record — the stack is the epistemic boundary between what
attackers *did* and what researchers *know*.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.io.table import EventTable
from repro.sim.events import IntentBatch, NetworkKind

__all__ = ["CaptureStack", "VantagePoint", "VantageCapture"]


class CaptureStack(abc.ABC):
    """Abstract capture framework.

    Subclasses set :attr:`completes_handshake` and implement
    :meth:`observes` (port filtering) and :meth:`capture_batch_columns`
    (what survives into the dataset).
    """

    #: Human-readable framework name as it appears in Table 1.
    name: str = "abstract"
    #: Whether the stack completes TCP handshakes (telescopes do not).
    completes_handshake: bool = True

    @abc.abstractmethod
    def observes(self, port: int) -> bool:
        """Whether traffic to ``port`` is recorded at all."""

    @abc.abstractmethod
    def capture_batch_columns(self, batch: IntentBatch, src_asns: np.ndarray) -> dict:
        """The captured-column dict for a whole intent batch.

        The capture transformation is a per-row column mapping: the
        result holds the :class:`~repro.io.table.EventTable` chunk
        columns for *every* row of ``batch`` (scalars broadcast), and
        callers append per-vantage ``[start, stop)`` views of it.  UDP
        never completes a handshake — the honeypots never *respond* to
        UDP — but the first datagram's payload is still recorded
        (Honeytrap semantics).
        """

    def capture_batch(
        self, batch: IntentBatch, src_asns: np.ndarray, table: EventTable
    ) -> int:
        """Capture a whole intent batch into ``table``; returns rows kept."""
        return table.append_view(self.capture_batch_columns(batch, src_asns), 0, len(batch))

    def batch_policy_key(self, port: int) -> Optional[tuple]:
        """Hash key identifying this stack's capture transformation.

        Two stack instances with equal keys produce identical
        :meth:`capture_batch_columns` for the same batch, letting the
        engine compute the columns once and share them across every
        vantage in a run (stack instances are per-vantage).  None means
        the transformation is not shareable: the engine then calls
        :meth:`capture_batch` per vantage run.
        """
        return None


@dataclass(frozen=True)
class VantagePoint:
    """A deployed observation point: IPs + framework + location."""

    vantage_id: str
    network: str
    kind: NetworkKind
    region_code: str
    continent: str
    ips: np.ndarray
    stack: CaptureStack

    def __post_init__(self) -> None:
        if len(self.ips) == 0:
            raise ValueError("a vantage point needs at least one IP")

    @property
    def num_ips(self) -> int:
        return len(self.ips)

    def __str__(self) -> str:
        return (
            f"{self.vantage_id} [{self.network}/{self.region_code}, "
            f"{self.num_ips} IPs, {self.stack.name}]"
        )


class VantageCapture:
    """The event dataset recorded at one vantage point.

    Events live in a columnar :class:`~repro.io.table.EventTable`
    (``capture.table``); analyses read its columns, and only export
    turns them into row records (``table.iter_events()``).
    """

    def __init__(self, vantage: VantagePoint) -> None:
        self.vantage = vantage
        self.table = EventTable.for_vantage(vantage)

    def record_batch(self, batch: IntentBatch, src_asns: np.ndarray) -> int:
        """Run a whole intent batch through the stack; returns rows kept."""
        if len(batch) == 0 or not self.vantage.stack.observes(batch.dst_port):
            return 0
        return self.vantage.stack.capture_batch(batch, src_asns, self.table)

    def __len__(self) -> int:
        return len(self.table)
