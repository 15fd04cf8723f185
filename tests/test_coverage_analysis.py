"""Tests for the deployment-coverage (set-cover) analysis."""

import numpy as np
import pytest

from repro.analysis.coverage import greedy_deployment, group_coverage
from repro.analysis.dataset import AnalysisDataset
from repro.honeypots.base import VantagePoint
from repro.honeypots.greynoise import GreyNoiseStack
from repro.net.geo import region
from repro.sim.clock import WEEK_2021
from repro.sim.events import CapturedEvent, NetworkKind


def vantage(vid, net, region_code, ip):
    return VantagePoint(
        vantage_id=vid, network=net, kind=NetworkKind.CLOUD,
        region_code=region_code, continent=region(region_code).continent.value,
        ips=np.asarray([ip], dtype=np.uint32), stack=GreyNoiseStack(),
    )


def attack(v, src_ip):
    return CapturedEvent(
        vantage_id=v.vantage_id, network=v.network, network_kind=v.kind,
        region=v.region_code, timestamp=1.0, src_ip=src_ip, src_asn=1,
        dst_ip=int(v.ips[0]), dst_port=22, handshake=True,
        payload=b"SSH-2.0-x\r\n", credentials=(("root", "root"),),
    )


@pytest.fixture()
def synthetic():
    """Three groups: A sees {1..10}, B sees {5..14}, C sees {100}."""
    a = vantage("gn-aws-US-CA-0", "aws", "US-CA", 1)
    b = vantage("gn-google-EU-DE-0", "google", "EU-DE", 2)
    c = vantage("gn-linode-AP-SG-0", "linode", "AP-SG", 3)
    events = [attack(a, i) for i in range(1, 11)]
    events += [attack(b, i) for i in range(5, 15)]
    events += [attack(c, 100)]
    return AnalysisDataset.from_events(events, [a, b, c], WEEK_2021)


class TestGroupCoverage:
    def test_marginal_math(self, synthetic):
        rows = {(r.network, r.region): r for r in group_coverage(synthetic)}
        assert rows[("aws", "US-CA")].attackers_seen == 10
        assert rows[("aws", "US-CA")].marginal_attackers == 4  # {1,2,3,4}
        assert rows[("linode", "AP-SG")].marginal_attackers == 1
        assert rows[("linode", "AP-SG")].redundancy == 0.0

    def test_sorted_by_marginal(self, synthetic):
        rows = group_coverage(synthetic)
        marginals = [r.marginal_attackers for r in rows]
        assert marginals == sorted(marginals, reverse=True)


class TestGreedyDeployment:
    def test_covers_universe(self, synthetic):
        steps = greedy_deployment(synthetic, target_fraction=1.0)
        assert steps[-1].cumulative_fraction == 1.0
        assert steps[-1].cumulative_attackers == 15  # |{1..14} ∪ {100}|

    def test_greedy_order_maximizes_gain(self, synthetic):
        steps = greedy_deployment(synthetic, target_fraction=1.0)
        assert steps[0].new_attackers == 10  # A or B first (both have 10)
        gains = [step.new_attackers for step in steps]
        assert gains == sorted(gains, reverse=True)

    def test_target_fraction_stops_early(self, synthetic):
        steps = greedy_deployment(synthetic, target_fraction=0.6)
        assert len(steps) == 1

    def test_max_steps(self, synthetic):
        steps = greedy_deployment(synthetic, target_fraction=1.0, max_steps=2)
        assert len(steps) == 2

    def test_empty_dataset(self):
        v = vantage("gn-aws-US-CA-0", "aws", "US-CA", 1)
        dataset = AnalysisDataset.from_events([], [v], WEEK_2021)
        assert greedy_deployment(dataset) == []

    def test_invalid_target(self, synthetic):
        with pytest.raises(ValueError):
            greedy_deployment(synthetic, target_fraction=0.0)


class TestOnSimulation:
    def test_fleet_is_redundant_but_not_fully(self, dataset):
        steps = greedy_deployment(dataset, target_fraction=0.95)
        groups = dataset.neighborhoods(vantage_prefix="gn-")
        # 95% of attackers are reachable with far fewer groups than deployed —
        # most campaigns subsample broadly, so coverage saturates quickly.
        assert 0 < len(steps) < len(groups) / 2

    def test_marginals_bounded_by_seen(self, dataset):
        for row in group_coverage(dataset):
            assert 0 <= row.marginal_attackers <= row.attackers_seen
            assert 0.0 <= row.redundancy <= 1.0
