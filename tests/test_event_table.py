"""Property tests for the columnar EventTable.

Two invariants the capture pipeline leans on:

* the table is a lossless view — materializing rows, writing them
  through the NDJSON release format, reading them back, and re-building
  a table reproduces every column exactly;
* the three append paths (scalar rows, column batches, shared-column
  views) consolidate into identical storage.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.records import read_events, write_events
from repro.io.table import TRANSPORT_CODES, EventTable
from repro.net.packets import Transport
from repro.sim.events import CapturedEvent, NetworkKind

#: Timestamps restricted to microsecond precision: the NDJSON writer
#: rounds to six decimals, so finer-grained floats cannot round-trip.
_timestamps = st.integers(min_value=0, max_value=168 * 10**6).map(lambda t: t / 10**6)
_text = st.text(max_size=12)
_credentials = st.tuples(_text, _text)


_events = st.builds(
    CapturedEvent,
    vantage_id=st.just("hp-1"),
    network=st.just("aws"),
    network_kind=st.just(NetworkKind.CLOUD),
    region=st.just("US-East"),
    timestamp=_timestamps,
    src_ip=st.integers(min_value=0, max_value=2**32 - 1),
    src_asn=st.integers(min_value=0, max_value=2**31 - 1),
    dst_ip=st.integers(min_value=0, max_value=2**32 - 1),
    dst_port=st.integers(min_value=0, max_value=65535),
    transport=st.sampled_from((Transport.TCP, Transport.UDP)),
    handshake=st.booleans(),
    payload=st.binary(max_size=40),
    credentials=st.tuples(_credentials).map(tuple) | st.just(()),
    commands=st.lists(_text, max_size=3).map(tuple),
)


def _object_array(values) -> np.ndarray:
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


def _columns_equal(first: EventTable, second: EventTable) -> None:
    np.testing.assert_array_equal(first.timestamps, second.timestamps)
    np.testing.assert_array_equal(first.src_ip, second.src_ip)
    np.testing.assert_array_equal(first.src_asn, second.src_asn)
    np.testing.assert_array_equal(first.dst_ip, second.dst_ip)
    np.testing.assert_array_equal(first.dst_port, second.dst_port)
    np.testing.assert_array_equal(first.transport_code, second.transport_code)
    np.testing.assert_array_equal(first.handshake, second.handshake)
    assert list(first.payloads) == list(second.payloads)
    assert list(first.credentials) == list(second.credentials)
    assert list(first.commands) == list(second.commands)


@settings(max_examples=25, deadline=None)
@given(events=st.lists(_events, min_size=1, max_size=20))
def test_table_roundtrips_through_ndjson(events):
    table = EventTable.from_events(events)
    assert list(table.iter_events()) == events

    handle, path = tempfile.mkstemp(suffix=".ndjson")
    os.close(handle)
    try:
        write_events(path, table.iter_events())
        recovered = EventTable.from_events(read_events(path))
    finally:
        os.unlink(path)

    _columns_equal(table, recovered)
    assert list(recovered.iter_events()) == events


#: Events batchable in one append_batch call: uniform port and transport.
_batch_events = st.builds(
    CapturedEvent,
    vantage_id=st.just("hp-1"),
    network=st.just("aws"),
    network_kind=st.just(NetworkKind.CLOUD),
    region=st.just("US-East"),
    timestamp=_timestamps,
    src_ip=st.integers(min_value=0, max_value=2**32 - 1),
    src_asn=st.integers(min_value=0, max_value=2**31 - 1),
    dst_ip=st.integers(min_value=0, max_value=2**32 - 1),
    dst_port=st.just(22),
    transport=st.just(Transport.TCP),
    handshake=st.booleans(),
    payload=st.binary(max_size=40),
    credentials=st.tuples(_credentials).map(tuple) | st.just(()),
    commands=st.lists(_text, max_size=3).map(tuple),
)


@settings(max_examples=25, deadline=None)
@given(
    head=st.lists(_batch_events, min_size=1, max_size=10),
    tail=st.lists(_events, min_size=0, max_size=10),
)
def test_append_paths_consolidate_identically(head, tail):
    events = head + tail
    row_table = EventTable.from_events(events)

    # Mixed table: the head appended as one column batch, the tail as rows.
    mixed = EventTable("hp-1", "aws", NetworkKind.CLOUD, "US-East")
    mixed.append_batch(
        timestamps=np.array([event.timestamp for event in head]),
        src_ips=np.array([event.src_ip for event in head], dtype=np.int64),
        src_asns=np.array([event.src_asn for event in head], dtype=np.int64),
        dst_ips=np.array([event.dst_ip for event in head], dtype=np.int64),
        dst_port=22,
        transport=Transport.TCP,
        handshake=np.array([event.handshake for event in head]),
        payloads=_object_array([event.payload for event in head]),
        credentials=_object_array([event.credentials for event in head]),
        commands=_object_array([event.commands for event in head]),
    )
    for event in tail:
        mixed.append_event(event)

    _columns_equal(row_table, mixed)
    assert list(mixed.iter_events()) == events
    assert len(mixed) == len(events)
    assert mixed.timestamps.dtype == np.float64
    assert mixed.transport_code.dtype == np.int8
    assert mixed.handshake.dtype == np.bool_


def test_append_view_shares_columns_zero_copy():
    shared = {
        "timestamps": np.array([1.0, 2.0, 3.0, 4.0]),
        "src_ip": np.array([10, 11, 12, 13], dtype=np.int64),
        "src_asn": np.array([1, 1, 2, 2], dtype=np.int64),
        "dst_ip": 99,
        "dst_port": 22,
        "transport_code": TRANSPORT_CODES[Transport.TCP],
        "handshake": True,
        "payload": b"SSH-2.0-x",
        "credentials": (("root", "admin"),),
        "commands": (),
    }
    first = EventTable("hp-1", "aws", NetworkKind.CLOUD, "US-East")
    second = EventTable("hp-2", "aws", NetworkKind.CLOUD, "EU-West")
    assert first.append_view(shared, 0, 2) == 2
    assert second.append_view(shared, 2, 4) == 2
    assert second.append_view(shared, 3, 3) == 0  # empty range is a no-op

    np.testing.assert_array_equal(first.timestamps, [1.0, 2.0])
    np.testing.assert_array_equal(second.timestamps, [3.0, 4.0])
    np.testing.assert_array_equal(second.src_ip, [12, 13])
    # Scalars broadcast over each view's row range.
    np.testing.assert_array_equal(first.dst_ip, [99, 99])
    assert list(second.payloads) == [b"SSH-2.0-x", b"SSH-2.0-x"]
    rows = list(second.iter_events())
    assert [event.vantage_id for event in rows] == ["hp-2", "hp-2"]
    assert rows[0].credentials == (("root", "admin"),)
    assert rows[0].transport is Transport.TCP
