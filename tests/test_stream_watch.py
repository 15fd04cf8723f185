"""The `cloudwatching watch` service end to end: the simulation tap,
the orchestrate-spill attachment (including ``--workers auto``), the
tap-driven stream bench, and the CLI surface.
"""

from __future__ import annotations

import json
import shutil
import threading
import time

import pytest

from repro.bench import run_stream_bench
from repro.cli import main
from repro.experiments.context import ExperimentConfig
from repro.incident.pipeline import detect_incidents
from repro.runner import orchestrate, resolve_workers
from repro.serve.backends import load_run_dir
from repro.stream import StreamBus, WatchOptions, watch_run_dir, watch_simulation

#: Tiny but non-degenerate: every attachment mode sees real traffic.
TINY = ExperimentConfig(year=2021, scale=0.05, telescope_slash24s=4, seed=5)


@pytest.fixture(scope="module")
def pristine_run(tmp_path_factory):
    """A completed 2-shard TINY run dir and its event total."""
    out = tmp_path_factory.mktemp("follow") / "run"
    run = orchestrate(TINY, workers=1, out_dir=out, num_shards=2, quiet=True)
    assert not run.partial
    return out, run.context.result.total_events()


def _final_snapshot(run_dir) -> str:
    """The JSON final snapshot a plain (no-follow) watch renders."""
    said: list[str] = []
    watch_run_dir(run_dir, options=WatchOptions(snapshot_events=0, format="json"),
                  say=said.append)
    return [line for line in said if line.startswith("{")][-1]


class TestWatchSimulation:
    def test_taps_simulation_and_snapshots(self):
        said: list[str] = []
        summary = watch_simulation(
            TINY,
            options=WatchOptions(snapshot_events=10000, max_snapshots=2),
            say=said.append,
        )
        assert summary["events"] > 1000
        assert summary["vantages"] > 5
        assert summary["bus"]["dropped_events"] == 0
        assert summary["bus"]["delivered_events"] == summary["events"]
        # Two periodic snapshots plus the final one.
        assert summary["snapshots"] == 3
        snapshots = [text for text in said if "stream snapshot" in text]
        assert len(snapshots) == 3
        assert "§3.3 cross-vantage comparisons" in snapshots[-1]
        assert "leak alarms" in snapshots[-1]

    def test_final_snapshot_only_by_default_cadence_zero(self):
        said: list[str] = []
        summary = watch_simulation(
            TINY, options=WatchOptions(snapshot_events=0), say=said.append
        )
        assert summary["snapshots"] == 1


class TestWatchRunDir:
    def test_streams_spilled_shards(self, tmp_path):
        out_dir = tmp_path / "run"
        run = orchestrate(TINY, workers="auto", out_dir=out_dir,
                          num_shards=2, quiet=True)
        assert not run.partial

        record = json.loads((out_dir / "run.json").read_text())
        assert record["workers_requested"] == "auto"
        assert isinstance(record["workers"], int) and record["workers"] >= 1
        assert record["workers"] == resolve_workers("auto")

        said: list[str] = []
        summary = watch_run_dir(out_dir, options=WatchOptions(), say=said.append)
        assert summary["shards"] == 2
        assert summary["events"] == run.context.result.total_events()
        assert summary["bus"]["dropped_events"] == 0
        assert any("streaming shard-" in line for line in said)
        assert any("stream snapshot" in line for line in said)

    def test_audit_log_is_respond_replay(self, pristine_run, tmp_path):
        """A completed run streams in the canonical replay: same audit log."""
        run_dir, total = pristine_run
        log = tmp_path / "watch-audit.ndjson"
        summary = watch_run_dir(
            run_dir, options=WatchOptions(snapshot_events=0, audit_log=str(log)),
            say=lambda _line: None,
        )
        expected = detect_incidents(load_run_dir(run_dir)[1]).audit
        assert summary["events"] == total
        assert summary["audit_log"]["digest"] == expected.digest()
        assert log.read_text(encoding="utf-8") == expected.to_ndjson()
        assert summary["incidents"]["incidents"] > 0

    def test_config_comes_from_shard_manifest_without_run_json(
        self, pristine_run, tmp_path
    ):
        """``run.json`` is written last; the shard manifests carry the config."""
        run_dir, _total = pristine_run
        dest = tmp_path / "run"
        shutil.copytree(run_dir, dest)
        (dest / "run.json").rename(tmp_path / "run.json.aside")
        assert _final_snapshot(dest) == _final_snapshot(run_dir)
        config, _dataset, digest = load_run_dir(dest)
        assert config == TINY
        # A complete run's shards address the same dataset run.json names.
        assert digest == load_run_dir(run_dir)[2]

    def test_missing_run_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            watch_run_dir(tmp_path / "nope")

    def test_directory_without_completed_shards_raises(self, tmp_path):
        (tmp_path / "shard-0000").mkdir()  # no manifest: still in flight
        with pytest.raises(FileNotFoundError):
            watch_run_dir(tmp_path)


class TestWatchFollowTolerance:
    """Follow mode against shards that are not (yet) fully written."""

    @staticmethod
    def _copy_with_truncated_shard(pristine, dest):
        """A run dir whose second shard has a manifest but torn banks."""
        shutil.copytree(pristine, dest)
        bank = dest / "shard-0001" / "columns.npz"
        bank.write_bytes(bank.read_bytes()[:200])
        return bank

    def test_in_flight_shard_is_retried_until_readable(self, pristine_run, tmp_path):
        pristine, total = pristine_run
        dest = tmp_path / "run"
        bank = self._copy_with_truncated_shard(pristine, dest)
        whole = (pristine / "shard-0001" / "columns.npz").read_bytes()

        def _repair():
            time.sleep(0.6)
            bank.write_bytes(whole)

        repair = threading.Thread(target=_repair)
        repair.start()
        said: list[str] = []
        try:
            summary = watch_run_dir(
                dest, options=WatchOptions(snapshot_events=0), say=said.append,
                follow_seconds=5.0, poll_seconds=0.1,
            )
        finally:
            repair.join()
        assert summary["shards"] == 2
        assert summary["events"] == total
        assert summary["bus"]["dropped_events"] == 0
        assert any("not readable yet" in line for line in said)
        assert not any("abandoning" in line for line in said)

    def test_attaches_before_the_first_shard_completes(self, pristine_run, tmp_path):
        """With nothing to read the config from yet, follow mode waits."""
        pristine, total = pristine_run
        dest = tmp_path / "run"
        dest.mkdir()

        def _complete_shards():
            time.sleep(0.4)
            for shard in ("shard-0000", "shard-0001"):
                # Copy aside, then rename: a shard appears complete at once.
                shutil.copytree(pristine / shard, tmp_path / shard)
                (tmp_path / shard).rename(dest / shard)

        writer = threading.Thread(target=_complete_shards)
        writer.start()
        said: list[str] = []
        try:
            summary = watch_run_dir(
                dest, options=WatchOptions(snapshot_events=0, format="json"),
                say=said.append, follow_seconds=3.0, poll_seconds=0.1,
            )
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert summary["shards"] == 2
        assert summary["events"] == total
        # Full-window leak alarms do not depend on arrival order, only on
        # the config the fleet was rebuilt from.
        final = json.loads([line for line in said if line.startswith("{")][-1])
        assert final["leak_alarms"] == json.loads(_final_snapshot(pristine))["leak_alarms"]

    def test_permanently_damaged_shard_is_abandoned_not_fatal(
        self, pristine_run, tmp_path
    ):
        pristine, total = pristine_run
        dest = tmp_path / "run"
        self._copy_with_truncated_shard(pristine, dest)
        said: list[str] = []
        summary = watch_run_dir(
            dest, options=WatchOptions(snapshot_events=0), say=said.append,
            follow_seconds=4.0, poll_seconds=0.05,
        )
        assert summary["shards"] == 1
        assert 0 < summary["events"] < total
        assert any("abandoning shard-0001" in line for line in said)
        assert any("not readable yet" in line for line in said)


class TestStreamBench:
    def test_records_the_tap_path(self, tmp_path, monkeypatch):
        """Every engine append is one published chunk; nothing is dropped."""
        appends: list[int] = []
        table_tap = StreamBus.table_tap

        def counting_tap(bus):
            tap = table_tap(bus)

            def _tap(table, columns, start, stop):
                if stop > start:
                    appends.append(stop - start)
                tap(table, columns, start, stop)
            return _tap

        monkeypatch.setattr(StreamBus, "table_tap", counting_tap)
        record = run_stream_bench(
            scale=TINY.scale, telescope_slash24s=TINY.telescope_slash24s,
            seed=TINY.seed, artifact=str(tmp_path / "bench.json"), quiet=True,
        )
        assert record["events"] == record["simulated_events"] == sum(appends)
        assert record["bus"]["published_chunks"] == len(appends)
        assert record["chunks"] == len(appends)
        assert record["bus"]["dropped_events"] == 0
        assert json.loads((tmp_path / "bench.json").read_text())[-1]["kind"] == "stream-bench"


class TestResolveWorkers:
    def test_auto_derives_from_cpu_count(self):
        assert resolve_workers("auto") >= 1

    def test_explicit_counts_pass_through(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(1) == 1

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            resolve_workers("three")


class TestWatchCli:
    def test_simulate_mode_smoke(self, capsys):
        code = main([
            "watch", "--simulate", "--scale", "0.05", "--telescope", "4",
            "--seed", "5", "--snapshot-events", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "stream snapshot" in out
        assert "watch done:" in out
        assert "0 dropped" in out

    def test_run_dir_mode(self, tmp_path, capsys):
        out_dir = tmp_path / "cli-run"
        assert main([
            "orchestrate", "--out", str(out_dir), "--scale", "0.05",
            "--telescope", "4", "--seed", "5", "--shards", "2",
            "--workers", "auto", "--experiments",
        ]) == 0
        capsys.readouterr()
        assert main([
            "watch", "--run-dir", str(out_dir), "--snapshot-events", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "watch done:" in out

    def test_run_dir_without_config_is_an_error(self, tmp_path, capsys):
        assert main(["watch", "--run-dir", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_workers_flag_rejects_junk(self, capsys):
        with pytest.raises(SystemExit):
            main(["orchestrate", "--workers", "zero"])
        assert "auto" in capsys.readouterr().err
