"""Smoke tests for the benchmark harness (repro.bench)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.bench import append_record, artifact_path, run_bench


def test_append_record_creates_and_appends(tmp_path):
    path = tmp_path / "bench.json"
    append_record({"kind": "first"}, str(path))
    append_record({"kind": "second"}, str(path))
    records = json.loads(path.read_text())
    assert [record["kind"] for record in records] == ["first", "second"]


def test_append_record_recovers_from_corrupt_artifact(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text("{not json")
    append_record({"kind": "fresh"}, str(path))
    records = json.loads(path.read_text())
    assert [record["kind"] for record in records] == ["fresh"]
    # The unparsable history is moved aside, byte for byte, not erased.
    assert (tmp_path / "bench.json.corrupt").read_text() == "{not json"


def test_append_record_never_overwrites_an_earlier_aside(tmp_path):
    path = tmp_path / "bench.json"
    for generation in range(3):
        path.write_text(f"[truncated {generation}")
        append_record({"kind": f"fresh-{generation}"}, str(path))
    assert (tmp_path / "bench.json.corrupt").read_text() == "[truncated 0"
    assert (tmp_path / "bench.json.corrupt.1").read_text() == "[truncated 1"
    assert (tmp_path / "bench.json.corrupt.2").read_text() == "[truncated 2"
    assert [record["kind"] for record in json.loads(path.read_text())] == ["fresh-2"]


def test_run_bench_wrapper_uses_the_cli_parser(tmp_path):
    """benchmarks/run_bench.py is `cloudwatching bench`: same options."""
    script = Path(__file__).resolve().parent.parent / "benchmarks" / "run_bench.py"
    result = subprocess.run(
        [sys.executable, str(script), "--help"],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.startswith("usage: cloudwatching bench")
    assert "--incident" in result.stdout  # a CLI-only bench mode
    assert "--emission" not in result.stdout


def test_artifact_path_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv("CLOUDWATCHING_BENCH_JSON", raising=False)
    assert artifact_path() == "BENCH_simulation.json"
    monkeypatch.setenv("CLOUDWATCHING_BENCH_JSON", "/tmp/other.json")
    assert artifact_path() == "/tmp/other.json"
    assert artifact_path("explicit.json") == "explicit.json"


def test_run_bench_smoke(tmp_path):
    path = tmp_path / "bench.json"
    record = run_bench(
        scale=0.02,
        telescope_slash24s=2,
        seed=11,
        experiments=["T1"],
        artifact=str(path),
        quiet=True,
    )
    assert record["events"] > 0
    assert set(record["stages"]) == {"deployment", "population", "simulation", "dataset"}
    assert all(value >= 0 for value in record["stages"].values())
    assert "T1" in record["experiments"]
    records = json.loads(path.read_text())
    assert records[-1] == record
