"""Property tests for ``EventTable.concat`` (the orchestrator's merge).

The merge layer's contract: concatenating per-shard tables in shard
order is indistinguishable from having appended every row into one table
in that order — across empty shards, object-column payloads, and the
lazy consolidation machinery.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.table import EventTable
from repro.net.packets import Transport
from repro.sim.events import CapturedEvent, NetworkKind

_text = st.text(max_size=8)

_events = st.builds(
    CapturedEvent,
    vantage_id=st.just("hp-1"),
    network=st.just("aws"),
    network_kind=st.just(NetworkKind.CLOUD),
    region=st.just("US-East"),
    timestamp=st.floats(min_value=0.0, max_value=168.0, allow_nan=False),
    src_ip=st.integers(min_value=0, max_value=2**32 - 1),
    src_asn=st.integers(min_value=1, max_value=2**31 - 1),
    dst_ip=st.integers(min_value=0, max_value=2**32 - 1),
    dst_port=st.integers(min_value=0, max_value=65535),
    transport=st.sampled_from((Transport.TCP, Transport.UDP)),
    handshake=st.booleans(),
    payload=st.binary(max_size=24),
    credentials=st.lists(st.tuples(_text, _text), max_size=2).map(tuple),
    commands=st.lists(_text, max_size=2).map(tuple),
)

#: Shard layouts: lists of per-shard event lists, empties included.
_shards = st.lists(st.lists(_events, max_size=8), min_size=1, max_size=5)


def _table_of(events) -> EventTable:
    table = EventTable("hp-1", "aws", NetworkKind.CLOUD, "US-East")
    for event in events:
        table.append_event(event)
    return table


def _assert_tables_equal(first: EventTable, second: EventTable) -> None:
    assert len(first) == len(second)
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


@settings(max_examples=30, deadline=None)
@given(shards=_shards)
def test_concat_equals_sequential_append(shards):
    """Concat of shard tables == one table with every row in shard order."""
    merged = EventTable.concat([_table_of(events) for events in shards])
    flat = _table_of([event for events in shards for event in events])
    _assert_tables_equal(merged, flat)
    assert list(merged.iter_events()) == list(flat.iter_events())


@settings(max_examples=15, deadline=None)
@given(shards=_shards)
def test_concat_preserves_order_across_empty_shards(shards):
    """Empty shards contribute nothing and do not perturb ordering."""
    empty = EventTable("hp-1", "aws", NetworkKind.CLOUD, "US-East")
    interleaved = []
    for events in shards:
        interleaved.append(empty)
        interleaved.append(_table_of(events))
    interleaved.append(empty)
    merged = EventTable.concat(interleaved)
    flat = _table_of([event for events in shards for event in events])
    _assert_tables_equal(merged, flat)


def test_concat_of_all_empty_tables_is_empty():
    tables = [EventTable("hp-1", "aws", NetworkKind.CLOUD, "US-East")
              for _ in range(3)]
    merged = EventTable.concat(tables)
    assert len(merged) == 0
    assert list(merged.iter_events()) == []
    assert merged.timestamps.shape == (0,)
    assert merged.payloads.shape == (0,)


def test_concat_mixes_append_paths():
    """Row appends and batch views concatenate into one coherent table."""
    scalar = _table_of([
        CapturedEvent("hp-1", "aws", NetworkKind.CLOUD, "US-East",
                      1.0, 10, 100, 20, 22, Transport.TCP, True,
                      b"SSH-2.0", (("root", "root"),), ("uname -a",)),
    ])
    batched = EventTable("hp-1", "aws", NetworkKind.CLOUD, "US-East")
    batched.append_batch(
        timestamps=np.asarray([2.0, 3.0]),
        src_ips=np.asarray([11, 12], dtype=np.int64),
        src_asns=np.asarray([100, 100], dtype=np.int64),
        dst_ips=np.asarray([20, 21], dtype=np.int64),
        dst_port=23,
        transport=Transport.TCP,
        handshake=True,
        payloads=b"\xff\xfb",
    )
    merged = EventTable.concat([scalar, batched])
    assert len(merged) == 3
    np.testing.assert_array_equal(merged.dst_port, [22, 23, 23])
    assert merged.payloads[0] == b"SSH-2.0"
    assert merged.payloads[1] == merged.payloads[2] == b"\xff\xfb"
    assert merged.credentials[0] == (("root", "root"),)
    assert merged.credentials[1] == ()
    assert merged.commands[0] == ("uname -a",)


def test_concat_rejects_identity_mismatch():
    ours = _table_of([
        CapturedEvent("hp-1", "aws", NetworkKind.CLOUD, "US-East",
                      1.0, 10, 100, 20, 22, Transport.TCP, True, b"", (), ()),
    ])
    theirs = EventTable("hp-2", "aws", NetworkKind.CLOUD, "US-East")
    theirs.append_event(
        CapturedEvent("hp-2", "aws", NetworkKind.CLOUD, "US-East",
                      2.0, 11, 100, 21, 22, Transport.TCP, True, b"", (), ()),
    )
    with pytest.raises(ValueError, match="identity mismatch"):
        EventTable.concat([ours, theirs])


def test_concat_of_no_tables_is_a_valid_empty_table():
    """Regression: an empty parts list is legal (a vantage may be absent
    from every completed shard of a partial run)."""
    merged = EventTable.concat([])
    assert len(merged) == 0
    assert list(merged.iter_events()) == []
    assert merged.timestamps.shape == (0,)
    assert merged.payloads.shape == (0,)


def test_concat_skips_zero_row_parts_without_identity_checks():
    """Regression: zero-row parts (identity-less placeholders spilled by
    shards that never saw the vantage) are skipped, not rejected."""
    placeholder = EventTable("", "", NetworkKind.CLOUD, "")
    other_empty = EventTable("hp-2", "aws", NetworkKind.CLOUD, "US-East")
    real = _table_of([
        CapturedEvent("hp-1", "aws", NetworkKind.CLOUD, "US-East",
                      1.0, 10, 100, 20, 22, Transport.TCP, True,
                      b"SSH-2.0", (), ()),
    ])
    merged = EventTable.concat([placeholder, other_empty, real, placeholder])
    assert len(merged) == 1
    assert merged.vantage_id == "hp-1"
    np.testing.assert_array_equal(merged.dst_port, [22])
