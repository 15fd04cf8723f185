"""Tests for the AnalysisDataset query layer (on the shared small sim)."""

from collections import Counter

import pytest

from repro.analysis.dataset import SLICES, AnalysisDataset, TrafficSlice
from repro.sim.events import NetworkKind
from tests.golden import table_digests


class TestConstruction:
    def test_from_simulation(self, small_context):
        dataset = AnalysisDataset.from_simulation(small_context.result)
        assert len(dataset.events) == small_context.result.total_events()
        assert dataset.telescope is not None
        assert dataset.leak_experiment is not None

    def test_events_split_per_vantage(self, dataset):
        total = sum(len(dataset.events_for(v.vantage_id)) for v in dataset.vantages)
        assert total == len(dataset.events)

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
        first, second = [v for v in dataset.vantages if dataset.events_for(v.vantage_id)][:2]
        rows = [dataset.events_for(v.vantage_id)[0] for v in (second, first, second)]
        rebuilt = AnalysisDataset.from_events(rows, [first, second])
        assert rebuilt.events == [rows[1], rows[0], rows[2]]

    def test_from_events_rejects_unlisted_vantage(self, dataset):
        row = dataset.events[0]
        others = [v for v in dataset.vantages if v.vantage_id != row.vantage_id]
        with pytest.raises(ValueError, match="unlisted vantage"):
            AnalysisDataset.from_events([row], others)


class TestSlices:
    def test_slice_definitions(self):
        assert SLICES["ssh22"].port == 22
        assert SLICES["http_all"].port is None
        assert SLICES["http_all"].protocol == "http"

    def test_ssh22_slice_is_port_based(self, dataset):
        events = dataset.slice_events(dataset.events, SLICES["ssh22"])
        assert events
        assert all(event.dst_port == 22 for event in events)

    def test_http80_slice_fingerprint_filtered(self, dataset):
        events = dataset.slice_events(dataset.events, SLICES["http80"])
        assert events
        assert all(event.dst_port == 80 for event in events)
        assert all(dataset.fingerprint_of(event) == "http" for event in events)

    def test_http_all_spans_ports(self, dataset):
        events = dataset.slice_events(dataset.events, SLICES["http_all"])
        ports = {event.dst_port for event in events}
        assert len(ports) > 1

    def test_unexpected_protocols_excluded_from_http_slice(self, dataset):
        port80 = [event for event in dataset.events if event.dst_port == 80]
        http80 = dataset.slice_events(port80, SLICES["http80"])
        assert len(http80) < len(port80)  # the ~15% non-HTTP traffic

    def test_custom_slice(self, dataset):
        tls80 = dataset.slice_events(
            dataset.events, TrafficSlice("TLS/80", port=80, protocol="tls")
        )
        assert tls80
        assert all(dataset.fingerprint_of(event) == "tls" for event in tls80)


class TestCounters:
    def test_as_counter(self, dataset):
        counts = dataset.as_counter(dataset.events[:500])
        assert sum(counts.values()) == 500
        assert all(isinstance(asn, int) for asn in counts)

    def test_username_password_counters(self, dataset):
        ssh = dataset.slice_events(dataset.events, SLICES["ssh22"])
        usernames = dataset.username_counter(ssh)
        passwords = dataset.password_counter(ssh)
        assert usernames and passwords
        assert "root" in usernames
        assert sum(usernames.values()) == sum(passwords.values())

    def test_payload_counter_strips_host(self, dataset):
        http = dataset.slice_events(dataset.events, SLICES["http80"])[:2000]
        counts = dataset.payload_counter(http)
        assert all(b"Host:" not in payload for payload in counts)

    def test_characteristic_dispatch(self, dataset):
        events = dataset.events[:100]
        assert dataset.characteristic_counter(events, "as") == dataset.as_counter(events)
        with pytest.raises(ValueError):
            dataset.characteristic_counter(events, "zodiac")

    def test_malicious_fraction_bounds(self, dataset):
        malicious, total = dataset.malicious_fraction(dataset.events[:2000])
        assert 0 <= malicious <= total == 2000


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

    def test_events_for_group(self, dataset):
        group = dataset.vantages_in(network="aws", region="AP-SG")
        events = dataset.events_for_group(group)
        assert len(events) == sum(len(dataset.events_for(v.vantage_id)) for v in group)


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
