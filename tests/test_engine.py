"""Tests for the traffic-simulation engine."""

import numpy as np
import pytest

from repro.deployment.fleet import build_full_deployment
from repro.net.packets import Transport
from repro.scanners.base import PortPlan, ScannerSpec, SearchEngineUse
from repro.scanners.strategies import CoverageModel, TargetStrategy
from repro.sim.engine import SimulationConfig, Simulator, run_simulation
from repro.sim.events import NetworkKind
from repro.sim.rng import RngHub


@pytest.fixture(scope="module")
def tiny_deployment():
    return build_full_deployment(RngHub(3), num_telescope_slash24s=4)


def spec(scanner_id="s-0", asn=4134, port=80, protocol="http", rate=2.0,
         strategy=None, **kwargs):
    plan_kwargs = {}
    if protocol == "http":
        plan_kwargs = {"http_payloads": ("root-get",), "http_weights": (1.0,)}
    return ScannerSpec(
        scanner_id=scanner_id,
        family="test",
        asn=asn,
        strategy=strategy or TargetStrategy(),
        plans=(PortPlan(port, protocol, rate, **plan_kwargs),),
        **kwargs,
    )


class TestDeterminism:
    def test_same_seed_same_events(self, tiny_deployment):
        population = [spec()]
        first = run_simulation(tiny_deployment, population, SimulationConfig(seed=5))
        second = run_simulation(tiny_deployment, population, SimulationConfig(seed=5))
        assert first.total_events() == second.total_events()
        for vantage_id in first.captures:
            a = list(first.captures[vantage_id].table.iter_events())
            b = list(second.captures[vantage_id].table.iter_events())
            assert a == b

    def test_different_seed_different_traffic(self, tiny_deployment):
        population = [spec(rate=3.0)]
        first = run_simulation(tiny_deployment, population, SimulationConfig(seed=5))
        second = run_simulation(tiny_deployment, population, SimulationConfig(seed=6))
        first_ts = [e.timestamp for e in first.events()]
        second_ts = [e.timestamp for e in second.events()]
        assert first_ts != second_ts


class TestCaptureSemantics:
    def test_telescope_receives_no_payloads(self, tiny_deployment):
        result = run_simulation(tiny_deployment, [spec(rate=3.0)], SimulationConfig(seed=5))
        telescope = result.telescope
        assert telescope.total_unique_sources() >= 1
        # the aggregated capture stores counts, never payload bytes
        assert not hasattr(telescope, "payloads")

    def test_events_inside_window(self, tiny_deployment):
        result = run_simulation(tiny_deployment, [spec(rate=3.0)], SimulationConfig(seed=5))
        hours = result.window.hours
        assert all(0 <= event.timestamp < hours for event in result.events())

    def test_source_asn_attribution(self, tiny_deployment):
        result = run_simulation(tiny_deployment, [spec(asn=4134)], SimulationConfig(seed=5))
        assert all(event.src_asn == 4134 for event in result.events())

    def test_sources_come_from_origin_as(self, tiny_deployment):
        result = run_simulation(
            tiny_deployment, [spec(asn=4134, num_sources=5)], SimulationConfig(seed=5)
        )
        for source in result.source_ips["s-0"]:
            assert result.registry.asn_of(int(source)) == 4134

    def test_credentials_only_on_interactive_stacks(self, tiny_deployment):
        population = [
            ScannerSpec(
                scanner_id="ssh-0", family="test", asn=4134,
                strategy=TargetStrategy(),
                plans=(PortPlan(22, "ssh", 3.0, credential_dialect="global-ssh",
                                credential_attempts=(2, 4)),),
            )
        ]
        result = run_simulation(tiny_deployment, population, SimulationConfig(seed=5))
        greynoise = [e for e in result.events() if e.vantage_id.startswith("gn-")]
        honeytrap = [e for e in result.events()
                     if e.vantage_id.startswith("ht-") and e.dst_port == 22]
        assert any(e.credentials for e in greynoise)
        assert all(not e.credentials for e in honeytrap)


class TestStrategyEffects:
    def test_telescope_avoider_never_seen_there(self, tiny_deployment):
        avoider = spec(
            scanner_id="avoid-0",
            strategy=TargetStrategy(kind_weights={NetworkKind.TELESCOPE: 0.0}),
            rate=4.0,
        )
        result = run_simulation(tiny_deployment, [avoider], SimulationConfig(seed=5))
        assert result.telescope.total_unique_sources() == 0
        assert result.total_events() > 0

    def test_exclusive_network(self, tiny_deployment):
        hurricane_only = spec(
            scanner_id="he-0", port=22, protocol="ssh",
            strategy=TargetStrategy(exclusive_networks=("hurricane",)),
            rate=4.0,
        )
        result = run_simulation(tiny_deployment, [hurricane_only], SimulationConfig(seed=5))
        networks = {event.network for event in result.events()}
        assert networks == {"hurricane"}

    def test_max_sessions_safety_valve(self, tiny_deployment):
        runaway = spec(rate=1e9)
        config = SimulationConfig(seed=5, max_sessions_per_pair=4)
        result = run_simulation(tiny_deployment, [runaway], config)
        from collections import Counter

        per_pair = Counter((event.src_ip, event.dst_ip) for event in result.events())
        assert max(per_pair.values()) < 30  # Poisson(4) tail, not 1e9


class TestSearchEngineBehavior:
    def test_leaked_services_attract_spikes(self, tiny_deployment):
        miner = ScannerSpec(
            scanner_id="miner-0", family="test", asn=4134,
            strategy=TargetStrategy(coverage=CoverageModel(0.05),
                                    kind_weights={NetworkKind.TELESCOPE: 0.0}),
            plans=(PortPlan(80, "http", 0.1,
                            http_payloads=("log4shell",), http_weights=(1.0,)),),
            search_engine=SearchEngineUse("censys", spike_sessions=30),
        )
        result = run_simulation(tiny_deployment, [miner], SimulationConfig(seed=5))
        experiment = tiny_deployment.leak_experiment
        censys_http = next(
            g for g in experiment.leak_groups if g.engine == "censys" and g.port == 80
        )
        shodan_http = next(
            g for g in experiment.leak_groups if g.engine == "shodan" and g.port == 80
        )
        hits = {"censys": 0, "shodan": 0, "control": 0}
        for event in result.events():
            if event.dst_ip in censys_http.ips:
                hits["censys"] += 1
            elif event.dst_ip in shodan_http.ips:
                hits["shodan"] += 1
            elif event.dst_ip in experiment.control_ips:
                hits["control"] += 1
        assert hits["censys"] > 10 * max(hits["shodan"], 1)
        assert hits["censys"] > 10 * max(hits["control"], 1)

    def test_avoid_mode_skips_indexed_services(self, tiny_deployment):
        avoider = ScannerSpec(
            scanner_id="nmap-0", family="test", asn=198605,
            strategy=TargetStrategy(kind_weights={NetworkKind.TELESCOPE: 0.0}),
            plans=(PortPlan(80, "http", 3.0,
                            http_payloads=("nmap-options",), http_weights=(1.0,)),),
            search_engine=SearchEngineUse("censys", mode="avoid"),
        )
        result = run_simulation(tiny_deployment, [avoider], SimulationConfig(seed=5))
        censys_index = result.engines["censys"].index
        listed = {entry.ip for entry in censys_index.services_on_port(80)}
        hit = {event.dst_ip for event in result.events() if event.dst_port == 80}
        assert hit, "avoider must still scan unlisted destinations"
        assert not (hit & listed)

    def test_boosted_credentials_are_distinct(self):
        plan = PortPlan(22, "ssh", 1.0, credential_dialect="global-ssh",
                        credential_attempts=(2, 4))
        boosted = Simulator._boost_credentials(plan, 3.0)
        assert boosted.distinct_credentials
        assert boosted.credential_attempts == (6, 12)
        untouched = Simulator._boost_credentials(plan, 1.0)
        assert untouched is plan


class TestResultAccessors:
    def test_total_events_matches_iteration(self, tiny_deployment):
        result = run_simulation(tiny_deployment, [spec(rate=2.0)], SimulationConfig(seed=5))
        assert result.total_events() == sum(1 for _ in result.events())

    def test_honeypot_vantages(self, tiny_deployment):
        result = run_simulation(tiny_deployment, [spec()], SimulationConfig(seed=5))
        assert len(result.honeypot_vantages()) == len(tiny_deployment.honeypots)


class TestCalibrationValidation:
    def test_calibration_report_passes(self, small_context):
        from repro.sim.validation import validate_calibration

        report = validate_calibration(small_context.result)
        assert report.ok, "\n".join(str(f) for f in report.failures())
        checks = {finding.check for finding in report.findings}
        assert {"telescope-avoidance", "as-attribution",
                "malicious-detectability"} <= checks

    def test_findings_render(self, small_context):
        from repro.sim.validation import validate_calibration

        report = validate_calibration(small_context.result)
        for finding in report.findings:
            assert finding.check in str(finding)

    def test_volume_check_fails_on_empty(self, tiny_deployment):
        from repro.sim.validation import validate_calibration

        result = run_simulation(tiny_deployment, [spec(rate=0.0)], SimulationConfig(seed=5))
        report = validate_calibration(result)
        assert not report.ok
        assert any(f.check == "volume" for f in report.failures())
