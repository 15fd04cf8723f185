"""Tests for the AnalysisDataset query layer (on the shared small sim)."""

import numpy as np
import pytest

from repro.analysis.dataset import SLICES, AnalysisDataset
from repro.detection.fingerprint import fingerprint
from repro.sim.events import NetworkKind
from tests.golden import table_digests


def first_rows(dataset, count):
    """The first row record of the first ``count`` non-empty vantages."""
    tables = [table for table in dataset.tables.values() if len(table)][:count]
    return [next(table.iter_events()) for table in tables]


class TestConstruction:
    def test_from_simulation(self, small_context):
        dataset = AnalysisDataset.from_simulation(small_context.result)
        total = sum(len(table) for table in dataset.tables.values())
        assert total == small_context.result.total_events()
        assert dataset.telescope is not None
        assert dataset.leak_experiment is not None

    def test_events_split_per_vantage(self, dataset):
        assert list(dataset.tables) == [v.vantage_id for v in dataset.vantages]
        assert all(table.vantage_id == vantage_id
                   for vantage_id, table in dataset.tables.items())

    def test_from_events_matches_simulation_tables(self, small_context):
        """Row records rebuild the simulator's tables: same vantages in
        the same order, same columns."""
        result = small_context.result
        rebuilt = AnalysisDataset.from_events(
            result.events(), result.deployment.honeypots, result.window
        )
        assert list(rebuilt.tables) == list(result.tables())
        assert table_digests(rebuilt.tables) == table_digests(result.tables())

    def test_from_events_groups_interleaved_rows_vantage_major(self, dataset):
        first, second = first_rows(dataset, 2)
        vantages = [dataset.vantage(row.vantage_id) for row in (first, second)]
        rebuilt = AnalysisDataset.from_events([second, first, second], vantages)
        rows = [row for table in rebuilt.tables.values() for row in table.iter_events()]
        assert rows == [first, second, second]

    def test_from_events_rejects_unlisted_vantage(self, dataset):
        row, = first_rows(dataset, 1)
        others = [v for v in dataset.vantages if v.vantage_id != row.vantage_id]
        with pytest.raises(ValueError, match="unlisted vantage"):
            AnalysisDataset.from_events([row], others)


def port_counts(dataset, port):
    """Per-vantage event counts on one destination port, from columns."""
    return np.array([int((table.dst_port == port).sum())
                     for table in dataset.tables.values()])


def fingerprint_counts(dataset, port, protocol):
    """Per-vantage counts of ``port`` events whose payload fingerprints
    as ``protocol`` — an oracle independent of the engine's coder."""
    return np.array([
        sum(1 for payload in table.payloads[table.dst_port == port].tolist()
            if fingerprint(payload) == protocol)
        for table in dataset.tables.values()
    ])


class TestSlices:
    """The engine's slices: SSH/Telnet by port, HTTP by fingerprint."""

    def test_slice_definitions(self):
        assert SLICES["ssh22"].port == 22
        assert SLICES["http_all"].port is None
        assert SLICES["http_all"].protocol == "http"

    def test_ssh22_slice_is_port_based(self, dataset):
        engine = dataset.contingency()
        ssh = port_counts(dataset, 22)
        assert ssh.sum() > 0
        np.testing.assert_array_equal(engine.events["ssh22"], ssh)
        np.testing.assert_array_equal(engine.events["telnet23"], port_counts(dataset, 23))

    def test_http80_slice_fingerprint_filtered(self, dataset):
        engine = dataset.contingency()
        http80 = fingerprint_counts(dataset, 80, "http")
        assert http80.sum() > 0
        np.testing.assert_array_equal(engine.events["http80"], http80)

    def test_http_all_spans_ports(self, dataset):
        engine = dataset.contingency()
        assert engine.events["http_all"].sum() > engine.events["http80"].sum()

    def test_unexpected_protocols_excluded_from_http_slice(self, dataset):
        engine = dataset.contingency()
        # the ~15% non-HTTP traffic on port 80
        assert engine.events["http80"].sum() < engine.events["port80"].sum()

    def test_tls_on_port80_excluded(self, dataset):
        engine = dataset.contingency()
        tls80 = fingerprint_counts(dataset, 80, "tls")
        assert tls80.sum() > 0
        assert np.all(engine.events["http80"] + tls80 <= engine.events["port80"])


class TestCounters:
    """Engine counters over the rows of the first non-empty vantages."""

    @pytest.fixture()
    def rows(self, dataset):
        engine = dataset.contingency()
        return engine.active_rows("any_all", dataset.tables)[:20]

    def test_as_counter(self, dataset, rows):
        engine = dataset.contingency()
        counts = engine.counter("any_all", "as", rows)
        assert sum(counts.values()) == engine.fraction("any_all", rows)[1]
        assert all(isinstance(asn, int) for asn in counts)

    def test_username_password_counters(self, dataset):
        engine = dataset.contingency()
        ssh = engine.active_rows("ssh22", dataset.tables)
        usernames = engine.counter("ssh22", "username", ssh)
        passwords = engine.counter("ssh22", "password", ssh)
        assert usernames and passwords
        assert "root" in usernames
        assert sum(usernames.values()) == sum(passwords.values())

    def test_payload_counter_strips_host(self, dataset):
        engine = dataset.contingency()
        http = engine.active_rows("http80", dataset.tables)
        counts = engine.counter("http80", "payload", http)
        assert counts
        assert all(b"Host:" not in payload for payload in counts)

    def test_malicious_fraction_bounds(self, dataset, rows):
        engine = dataset.contingency()
        malicious, total = engine.fraction("any_all", rows)
        assert 0 < malicious <= total
        assert total == sum(len(dataset.tables[engine.vantage_ids[row]]) for row in rows)


class TestGrouping:
    def test_neighborhoods(self, dataset):
        neighborhoods = dataset.neighborhoods(networks=["aws"])
        assert ("aws", "AP-SG") in neighborhoods
        assert all(len(group) >= 1 for group in neighborhoods.values())

    def test_vantages_in_filters(self, dataset):
        aws_sg = dataset.vantages_in(network="aws", region="AP-SG")
        assert len(aws_sg) == 4
        edu = dataset.vantages_in(kind=NetworkKind.EDU)
        assert all(v.kind is NetworkKind.EDU for v in edu)


class TestSourceSets:
    def test_sources_on_port(self, dataset):
        cloud = dataset.sources_on_port(22, NetworkKind.CLOUD)
        edu = dataset.sources_on_port(22, NetworkKind.EDU)
        assert cloud and edu

    def test_malicious_subset(self, dataset):
        all_sources = dataset.sources_on_port(22, NetworkKind.CLOUD)
        malicious = dataset.malicious_sources_on_port(22, NetworkKind.CLOUD)
        assert malicious <= all_sources
        assert malicious  # SSH brute-forcers exist

    def test_reputation_oracle_cached(self, dataset):
        assert dataset.reputation_oracle() is dataset.reputation_oracle()
