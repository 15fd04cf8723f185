"""Canonical form and digests for golden-output tests.

:func:`canonical` turns an analysis result into plain JSON data that pins
everything an equality check would, and more: dict insertion order is
kept (as ``[key, value]`` pairs), sets are sorted, floats are written
bit-exactly with :meth:`float.hex`, dataclasses expand field by field,
and numpy arrays collapse to their dtype, shape and a sha256 of their
bytes (object arrays, whose bytes are pointers, go element by element).  :func:`digest` hashes that form; ``tests/golden_outputs.json``
holds the pinned digests.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).with_name("golden_outputs.json")


def _sort_key(value) -> str:
    return json.dumps(value, sort_keys=True)


def canonical(value):
    """Plain, deterministic JSON data describing ``value`` exactly."""
    if isinstance(value, enum.Enum):
        return {"enum": [type(value).__name__, canonical(value.value)]}
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return {"float": float(value).hex()}
    if isinstance(value, bytes):
        return {"bytes": value.hex()}
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            return {"objects": [list(value.shape), canonical(value.ravel().tolist())]}
        data = np.ascontiguousarray(value)
        return {"ndarray": [data.dtype.str, list(data.shape),
                            hashlib.sha256(data.tobytes()).hexdigest()]}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"dataclass": [type(value).__name__, [
            [field.name, canonical(getattr(value, field.name))]
            for field in dataclasses.fields(value)
        ]]}
    if isinstance(value, dict):
        return {"dict": [[canonical(key), canonical(item)] for key, item in value.items()]}
    if isinstance(value, (set, frozenset)):
        return {"set": sorted((canonical(item) for item in value), key=_sort_key)}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    """sha256 of the compact JSON encoding of ``canonical(value)``."""
    encoded = json.dumps(canonical(value), separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def table_digests(tables) -> dict[str, str]:
    """Per-vantage digest over every column of each event table."""
    return {
        vantage_id: digest([
            table.vantage_id, table.network, table.network_kind, table.region,
            table.timestamps, table.src_ip, table.src_asn, table.dst_ip,
            table.dst_port, table.transport_code, table.handshake,
            table.payloads, table.credentials, table.commands,
        ])
        for vantage_id, table in tables.items()
    }


def telescope_digest(telescope) -> str:
    """Digest of the aggregated telescope capture."""
    return digest([
        telescope.port_src_hits,
        telescope.asn_of_src,
        {port: telescope.unique_sources_per_destination(port)
         for port in telescope.ports()},
    ])


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())
