"""Columnar contingency engine outputs, pinned as golden digests.

The engine pre-aggregates per-(vantage × characteristic) count matrices
and per-source behavior tables in one pass over the event tables; every
pairwise-comparison analysis then slices those matrices instead of
re-scanning events.  Each output below is compared, through
:func:`tests.golden.digest`, with the digest in
``tests/golden_outputs.json`` — values, float bits and dict ordering
included.  The digests were pinned while the row-wise implementations
still existed and only after the engine output equalled theirs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.blocklists import (
    CONTINENT_GROUPS,
    _continent_vantages,
    build_blocklist,
    write_blocklist_file,
)
from repro.analysis.campaigns import infer_campaigns
from repro.analysis.commands import command_summary
from repro.analysis.coverage import greedy_deployment, group_coverage
from repro.analysis.geography import (
    build_region_profiles,
    geo_similarity,
    most_different_regions,
)
from repro.analysis.leak import leak_report, unique_credentials_per_group
from repro.analysis.neighborhoods import neighborhood_report
from repro.analysis.networks import network_type_report, telescope_as_report
from repro.analysis.tags import tag_distribution, tag_sources
from repro.analysis.temporal import year_over_year_shift
from repro.experiments import ALL_EXPERIMENTS
from repro.sim.events import NetworkKind
from repro.sim.validation import validate_calibration
from tests.golden import digest, load_golden

GOLDEN = load_golden()["contingency"]


def assert_golden(name: str, value) -> None:
    assert digest(value) == GOLDEN[name], name


@pytest.fixture(scope="module")
def dataset_2020(small_context_2020):
    return small_context_2020.dataset


class TestEngineAvailability:
    def test_table_backed_dataset_builds_and_caches_engine(self, dataset):
        engine = dataset.contingency()
        assert engine is not None
        assert dataset.contingency() is engine  # cached, not rebuilt
        aggregates = dataset.source_aggregates()
        assert aggregates is not None
        assert dataset.source_aggregates() is aggregates


class TestNeighborhoodParity:
    def test_default_report(self, dataset):
        assert_golden("neighborhood_report/2021", neighborhood_report(dataset))

    @pytest.mark.parametrize("kwargs", [
        {"k": 1},
        {"k": 5},
        {"alpha": 0.01},
        {"bonferroni": False},
        {"max_honeypots_per_neighborhood": 2},
    ])
    def test_parameter_variants(self, dataset, kwargs):
        (key, value), = kwargs.items()
        assert_golden(f"neighborhood_report/2021/{key}={value}",
                      neighborhood_report(dataset, **kwargs))

    def test_2020(self, dataset_2020):
        assert_golden("neighborhood_report/2020", neighborhood_report(dataset_2020))


class TestGeographyParity:
    @pytest.mark.parametrize("aggregate", ["median", "sum"])
    def test_region_profiles(self, dataset, aggregate):
        assert_golden(f"build_region_profiles/2021/{aggregate}",
                      build_region_profiles(dataset, aggregate=aggregate))

    def test_geo_similarity(self, dataset):
        assert_golden("geo_similarity/2021", geo_similarity(dataset))

    def test_most_different_regions(self, dataset):
        assert_golden("most_different_regions/2021", most_different_regions(dataset))

    def test_explicit_profiles_use_legacy_path(self, dataset):
        """Pre-built profiles (the ablation entry point) compare Counters
        and give the same cells as the engine path."""
        profiles = build_region_profiles(dataset)
        result = most_different_regions(dataset, profiles=profiles)
        assert_golden("most_different_regions/2021/explicit_profiles", result)
        assert result == most_different_regions(dataset)

    def test_2020(self, dataset_2020):
        assert_golden("geo_similarity/2020", geo_similarity(dataset_2020))
        assert_golden("most_different_regions/2020", most_different_regions(dataset_2020))


class TestNetworkParity:
    def test_network_type_report(self, dataset):
        assert_golden("network_type_report/2021", network_type_report(dataset))

    def test_telescope_as_report(self, dataset):
        assert_golden("telescope_as_report/2021", telescope_as_report(dataset))

    def test_2020(self, dataset_2020):
        assert_golden("network_type_report/2020", network_type_report(dataset_2020))
        assert_golden("telescope_as_report/2020", telescope_as_report(dataset_2020))


class TestTagParity:
    def test_tag_sources_values_and_order(self, dataset):
        # The digest pins dict ordering too: downstream reports iterate
        # sources in first-observation order.
        assert_golden("tag_sources/2021", tag_sources(dataset))

    def test_tag_distribution(self, dataset):
        assert_golden("tag_distribution/2021", tag_distribution(tag_sources(dataset)))

    def test_2020(self, dataset_2020):
        assert_golden("tag_sources/2020", tag_sources(dataset_2020))


class TestCampaignParity:
    @pytest.mark.parametrize("min_size", [1, 2, 5])
    def test_min_size_variants(self, dataset, min_size):
        assert_golden(f"infer_campaigns/2021/min_size={min_size}",
                      infer_campaigns(dataset, min_size=min_size))

    def test_2020(self, dataset_2020):
        assert_golden("infer_campaigns/2020/min_size=2",
                      infer_campaigns(dataset_2020, min_size=2))


class TestCommandParity:
    @pytest.mark.parametrize("top", [1, 3, 10, 25])
    def test_summary(self, dataset, top):
        # top_commands order is part of the digest.
        assert_golden(f"command_summary/2021/top={top}", command_summary(dataset, top=top))

    def test_2020(self, dataset_2020):
        assert_golden("command_summary/2020", command_summary(dataset_2020))


class TestLeakParity:
    def test_leak_report(self, dataset):
        assert_golden("leak_report/2021", leak_report(dataset))

    def test_leak_report_alpha(self, dataset):
        assert_golden("leak_report/2021/alpha=0.01", leak_report(dataset, alpha=0.01))

    @pytest.mark.parametrize("port", [22, 23, 80])
    def test_unique_credentials(self, dataset, port):
        assert_golden(f"unique_credentials_per_group/2021/port={port}",
                      unique_credentials_per_group(dataset, port=port))


class TestMaliciousnessParity:
    """Outputs built on per-event maliciousness and fingerprint verdicts:
    blocklists, deployment coverage, reputation, year-over-year drift and
    the simulator's calibration report."""

    def test_group_coverage(self, dataset):
        assert_golden("group_coverage/2021", group_coverage(dataset))

    def test_greedy_deployment(self, dataset):
        assert_golden("greedy_deployment/2021/target_fraction=0.95",
                      greedy_deployment(dataset, target_fraction=0.95))
        # 0.95 is reached in one step on this fixture; the full walk
        # and its two-step cut pin the greedy order past the head.
        assert_golden("greedy_deployment/2021/target_fraction=1.0",
                      greedy_deployment(dataset, target_fraction=1.0))
        assert_golden("greedy_deployment/2021/target_fraction=1.0/max_steps=2",
                      greedy_deployment(dataset, target_fraction=1.0, max_steps=2))

    def test_year_over_year_shift(self, dataset, dataset_2020):
        assert_golden("year_over_year_shift/2020-2021",
                      year_over_year_shift(dataset_2020, dataset))

    def test_validate_calibration(self, small_context):
        assert_golden("validate_calibration/2021",
                      validate_calibration(small_context.result).findings)

    def test_build_blocklist_until_hour(self, dataset):
        half = dataset.window.hours / 2.0
        assert_golden("build_blocklist/2021/until_hour=half", {
            group: build_blocklist(dataset, _continent_vantages(dataset, group), half)
            for group in CONTINENT_GROUPS
        })

    def test_x1_external_blocklist_file(self, small_context, tmp_path):
        """X1 scored against a file of IP and ``AS<n>`` lines.  The data
        is pinned; the rendered text names the temporary path."""
        dataset = small_context.dataset
        ips = sorted(dataset.sources_on_port(22, NetworkKind.CLOUD))[::5]
        path = tmp_path / "blocklist.txt"
        write_blocklist_file(path, ips=ips, asns=(4134, 4837, 14061))
        output = ALL_EXPERIMENTS["X1"](small_context, blocklist_path=str(path))
        assert_golden("X1/2021/blocklist_file", output.data)

    def test_reputation_counts(self, dataset):
        oracle = dataset.reputation_oracle()
        assert_golden("reputation_oracle_counts/2021", oracle.counts())
        assert_golden("reputation_oracle_malicious_ips/2021", oracle.malicious_ips())


class TestMatrixInternals:
    """Cheap invariants on the engine itself (not just its callers)."""

    def test_counts_match_counters(self, dataset):
        """Matrix rows reproduce exact per-vantage category counts."""
        from collections import Counter

        engine = dataset.contingency()
        vantage_id = next(
            vid for vid, table in dataset.tables.items()
            if len(table) and engine.row(vid) is not None
        )
        expected = Counter(dataset.tables[vantage_id].src_asn.tolist())
        row = engine.row(vantage_id)
        got = engine.counter("any_all", "as", [row])
        assert got == expected

    def test_events_row_sums(self, dataset):
        """Each event carries exactly one AS, so AS-matrix row sums are
        the per-vantage event counts of the slice."""
        engine = dataset.contingency()
        for slice_key in ("ssh22", "telnet23", "http80", "any_all"):
            counts = engine.counts[(slice_key, "as")]
            np.testing.assert_array_equal(
                counts.sum(axis=1), engine.events[slice_key]
            )
