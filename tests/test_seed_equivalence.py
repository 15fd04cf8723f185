"""A seed pins the simulated dataset, column for column.

The simulator draws all randomness while *building* intent batches, in a
documented order, so a fixed seed yields a fixed dataset across every
capture-stack policy (GreyNoise with and without Cowrie ports,
Honeytrap, the leak experiment's interactive honeypots, the telescope
aggregate, and a transparent upstream firewall) and through the
downstream analyses.  The expected values are digests in
``tests/golden_outputs.json``, pinned while a scalar one-event capture
path still existed and only after it agreed with the batch path (and,
for the firewall, taken from that per-row path).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.dataset import AnalysisDataset
from repro.analysis.timeseries import hourly_matrix
from repro.deployment.fleet import build_full_deployment
from repro.honeypots.firewall import FirewalledStack
from repro.scanners.population import PopulationConfig, build_population
from repro.sim.engine import SimulationConfig, run_simulation
from repro.sim.events import NetworkKind
from repro.sim.rng import RngHub
from tests.golden import digest, load_golden, table_digests, telescope_digest

SCALE = 0.05
TELESCOPE_SLASH24S = 4
SEED = 5
FIREWALL_DROP = 0.5
FIREWALL_SEED = 17

GOLDEN = load_golden()


def _simulate(firewall: bool = False):
    deployment = build_full_deployment(RngHub(1), num_telescope_slash24s=TELESCOPE_SLASH24S)
    if firewall:
        for index, vantage in enumerate(deployment.honeypots):
            deployment.honeypots[index] = replace(
                vantage,
                stack=FirewalledStack(vantage.stack, FIREWALL_DROP, seed=FIREWALL_SEED),
            )
    population = build_population(PopulationConfig(year=2021, scale=SCALE))
    return run_simulation(deployment, population, SimulationConfig(seed=SEED))


@pytest.fixture(scope="module")
def batch_result():
    return _simulate()


@pytest.fixture(scope="module")
def firewalled_result():
    return _simulate(firewall=True)


def test_total_events_match(batch_result):
    assert batch_result.total_events() > 0
    assert batch_result.total_events() == GOLDEN["seed_equivalence"]["total_events"]


def test_events_identical_per_vantage(batch_result):
    expected = GOLDEN["seed_equivalence"]["tables"]
    assert list(batch_result.captures) == list(expected)
    got = table_digests(batch_result.tables())
    mismatched = [vantage_id for vantage_id in expected if got[vantage_id] != expected[vantage_id]]
    assert mismatched == []


def test_all_stack_policies_exercised(batch_result):
    """The fixture deployment must cover every batch capture policy."""
    stacks = {
        type(capture.vantage.stack).__name__
        for capture in batch_result.captures.values()
        if len(capture)
    }
    assert {"GreyNoiseStack", "HoneytrapStack"} <= stacks
    # Cowrie and non-Cowrie GreyNoise ports both saw traffic.
    ports = set()
    for capture in batch_result.captures.values():
        if type(capture.vantage.stack).__name__ == "GreyNoiseStack":
            ports.update(np.unique(capture.table.dst_port).tolist())
    assert ports & {22, 23, 2222, 2323}
    assert ports - {22, 23, 2222, 2323}


def test_telescope_aggregate_matches(batch_result):
    assert batch_result.telescope is not None
    assert telescope_digest(batch_result.telescope) == GOLDEN["seed_equivalence"]["telescope"]


def test_analysis_outputs_match(batch_result):
    expected = GOLDEN["seed_equivalence"]["analysis"]
    dataset = AnalysisDataset.from_simulation(batch_result)
    for port in (22, 23, 80, 443):
        for kind in (NetworkKind.CLOUD, NetworkKind.EDU):
            name = f"sources_on_port/{port}/{kind.value}"
            assert digest(dataset.sources_on_port(port, kind)) == expected[name], name
    for port in (22, 80):
        name = f"malicious_sources_on_port/{port}/cloud"
        assert digest(dataset.malicious_sources_on_port(port, NetworkKind.CLOUD)) == (
            expected[name]
        ), name
    vantage_ids = sorted(batch_result.captures)[:8]
    assert digest(hourly_matrix(dataset, vantage_ids)) == expected["hourly_matrix/first8"]


def test_firewalled_capture_matches_per_row_drops(firewalled_result):
    """The batch keep mask drops exactly the sessions the per-row
    firewall did, and the inner stacks record the rest unchanged."""
    expected = GOLDEN["firewall"]
    honeypots = firewalled_result.deployment.honeypots
    assert sum(vantage.stack.dropped for vantage in honeypots) == expected["dropped"]
    assert firewalled_result.total_events() == expected["total_events"]
    got = table_digests(firewalled_result.tables())
    mismatched = [vantage_id for vantage_id in expected["tables"]
                  if got[vantage_id] != expected["tables"][vantage_id]]
    assert mismatched == []
