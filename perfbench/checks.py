"""Correctness gates: canonical output digests, golden digests, cross-run ledger.

Every workload reduces what it produced to a small *fingerprint*: the event
count, one sha256 per experiment driver's structured output, and the X5
audit-log digest.  A run fails when

* two sessions of the same run disagree (the program is not deterministic),
* the fingerprint differs from the golden one kept in ``golden.json`` (only
  at the golden seed and scale), or
* it differs from the fingerprint another workload recorded for the same
  seed, scale and program sources in the ledger under ``.perfbench/ledger``
  — that is how ``reproduce``, ``rundir`` and ``live`` are held to the same
  outputs for any seed: whichever runs a seed first records it, the others
  compare.  Entries are keyed by a digest of ``src/``, so a change to the
  program starts a fresh set of entries instead of failing against outputs
  an earlier version recorded.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Optional

import numpy as np

GOLDEN_FILE = Path(__file__).resolve().parent / "golden.json"


class CheckFailed(Exception):
    """A correctness gate failed; the benchmark prints no result."""


def canonical(value: Any) -> Any:
    """A JSON-safe, order-independent rendering of a driver output.

    Floats keep every digit (``repr``), sets and dict items are sorted by
    their own canonical text, dataclasses carry their type name.  Unknown
    types raise, so a new output type cannot slip past the digest.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return {"f": repr(float(value))}
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, (bytes, bytearray)):
        return {"b": bytes(value).hex()}
    if isinstance(value, np.ndarray):
        return {"a": str(value.dtype), "v": canonical(value.tolist())}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "t": type(value).__qualname__,
            "v": {field.name: canonical(getattr(value, field.name))
                  for field in dataclasses.fields(value)},
        }
    if isinstance(value, dict):
        items = [(_text(canonical(k)), canonical(v)) for k, v in value.items()]
        return {"d": sorted(items, key=lambda item: item[0])}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return {"s": sorted(_text(canonical(item)) for item in value)}
    raise TypeError(f"no canonical form for {type(value).__qualname__}")


def _text(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def output_digest(output) -> str:
    """sha256 of one ExperimentOutput's rendered text and structured data."""
    body = _text({"text": output.text, "data": canonical(output.data)})
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def fingerprint(events: int, outputs: dict) -> dict:
    """The comparable summary of one session's results."""
    x5 = outputs["X5"].data
    resim = x5.get("resim")
    if resim is None or not resim.get("exact"):
        raise CheckFailed("X5 enforced re-simulation does not match its prediction")
    return {
        "events": int(events),
        "drivers": {name: output_digest(out) for name, out in sorted(outputs.items())},
        "audit_digest": x5["audit_digest"],
        "canonical_incidents": int(x5["incidents"]),
    }


def _diff(expected: dict, actual: dict) -> list[str]:
    problems = []
    for key in ("events", "audit_digest"):
        if expected.get(key) != actual.get(key):
            problems.append(f"{key}: expected {expected.get(key)!r}, got {actual.get(key)!r}")
    wanted, got = expected.get("drivers", {}), actual.get("drivers", {})
    for name in sorted(set(wanted) | set(got)):
        if wanted.get(name) != got.get(name):
            problems.append(f"driver {name} output digest differs")
    return problems


def require_same(expected: dict, actual: dict, what: str) -> None:
    problems = _diff(expected, actual)
    if problems:
        raise CheckFailed(f"{what}: " + "; ".join(problems))


def load_golden() -> dict:
    with open(GOLDEN_FILE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_golden(fp: dict, seed: int, scale: float) -> bool:
    """Compare with golden.json when it covers (seed, scale); True if it did."""
    golden = load_golden()
    if golden["seed"] != seed or golden["scale"] != scale:
        return False
    require_same(golden["fingerprint"], fp, f"golden digests (seed {seed})")
    return True


def source_digest(source_dir: Path) -> str:
    """sha256 over the relative path and bytes of every file under ``src/``.

    Bytecode caches are skipped; they are not part of the program.
    """
    digest = hashlib.sha256()
    for path in sorted(source_dir.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts or path.suffix == ".pyc":
            continue
        relative = path.relative_to(source_dir).as_posix().encode("utf-8")
        digest.update(len(relative).to_bytes(4, "big") + relative)
        data = path.read_bytes()
        digest.update(len(data).to_bytes(8, "big") + data)
    return digest.hexdigest()


def check_ledger(ledger_dir: Path, fp: dict, seed: int, scale: float, workload: str,
                 source: str) -> Optional[str]:
    """Compare with, or record, the fingerprint for (seed, scale, source).

    ``source`` is the ``source_digest`` of the program that produced ``fp``.
    Returns the workload that recorded the entry compared against, or None
    when this run recorded it.
    """
    ledger_dir.mkdir(parents=True, exist_ok=True)
    path = ledger_dir / f"scale{scale}-seed{seed}-src{source[:16]}.json"
    if path.exists():
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        require_same(entry["fingerprint"], fp,
                     f"{workload} vs {entry['workload']} (seed {seed})")
        return entry["workload"]
    temp = path.with_suffix(f".{os.getpid()}.tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "source": source, "fingerprint": fp}, handle,
                  indent=1, sort_keys=True)
    os.replace(temp, path)
    return None
