"""Unit tests for Figure 1 structure profiles on synthetic telescopes."""

import numpy as np
import pytest

from repro.analysis.structure import figure1_series, structure_profile
from repro.honeypots.base import VantagePoint
from repro.honeypots.telescope import TelescopeCapture, TelescopeStack
from repro.net.addresses import ip_to_int, vector_has_255_octet, vector_is_first_of_slash16
from repro.sim.events import NetworkKind


def synthetic_telescope(num_slash24s=8):
    """/24s spanning a /16 including its .0 and .255 third octets."""
    blocks = [0, 1, 2, 64, 128, 200, 254, 255][:num_slash24s]
    ips = np.concatenate(
        [np.arange(ip_to_int(f"198.200.{b}.0"), ip_to_int(f"198.200.{b}.0") + 256,
                   dtype=np.uint32) for b in blocks]
    )
    vantage = VantagePoint(
        vantage_id="orion", network="orion", kind=NetworkKind.TELESCOPE,
        region_code="US-EAST", continent="NA", ips=ips, stack=TelescopeStack(),
    )
    return TelescopeCapture(vantage)


class TestStructureProfile:
    def test_uniform_traffic_ratio_one(self):
        capture = synthetic_telescope()
        capture.record_destination_sources(80, np.full(capture.vantage.num_ips, 10))
        profile = structure_profile(capture, 80)
        assert profile.any_255_ratio == pytest.approx(1.0)
        assert profile.trailing_255_ratio == pytest.approx(1.0)
        assert profile.top_target_concentration == pytest.approx(1.0)

    def test_255_avoidance_measured_correctly(self):
        capture = synthetic_telescope()
        ips = capture.vantage.ips
        counts = np.full(len(ips), 90.0)
        counts[vector_has_255_octet(ips)] = 10.0  # exactly 9x avoidance
        capture.record_destination_sources(445, counts.astype(np.int64))
        profile = structure_profile(capture, 445)
        assert profile.avoidance_factor_any_255() == pytest.approx(9.0)

    def test_slash16_first_preference(self):
        capture = synthetic_telescope()
        ips = capture.vantage.ips
        counts = np.full(len(ips), 5.0)
        counts[vector_is_first_of_slash16(ips)] = 50.0
        capture.record_destination_sources(22, counts.astype(np.int64))
        profile = structure_profile(capture, 22)
        assert profile.slash16_first_ratio == pytest.approx(10.0, rel=0.01)

    def test_latching_concentration(self):
        capture = synthetic_telescope()
        counts = np.ones(capture.vantage.num_ips, dtype=np.int64)
        counts[100] = 500
        capture.record_destination_sources(17128, counts)
        profile = structure_profile(capture, 17128)
        assert profile.top_target_concentration > 100.0

    def test_empty_port(self):
        capture = synthetic_telescope()
        profile = structure_profile(capture, 9999)
        assert profile.mean_scanners == 0.0
        assert profile.top_target_concentration == 0.0

    def test_missing_class_yields_none(self):
        """A telescope with no 255-octet addresses cannot measure that class."""
        vantage = VantagePoint(
            vantage_id="tiny", network="orion", kind=NetworkKind.TELESCOPE,
            region_code="US-EAST", continent="NA",
            ips=np.arange(ip_to_int("10.0.0.1"), ip_to_int("10.0.0.9"), dtype=np.uint32),
            stack=TelescopeStack(),
        )
        capture = TelescopeCapture(vantage)
        capture.record_destination_sources(80, np.ones(8, dtype=np.int64))
        assert structure_profile(capture, 80).any_255_ratio is None


class TestFigure1Series:
    def test_window_clamped(self):
        capture = synthetic_telescope(2)
        capture.record_destination_sources(80, np.ones(capture.vantage.num_ips, dtype=np.int64))
        series = figure1_series(capture, 80, window=512)
        assert series.shape == (capture.vantage.num_ips,)
        assert np.allclose(series, 1.0)

    def test_smoothing_reduces_variance(self):
        capture = synthetic_telescope()
        rng = np.random.default_rng(0)
        raw = rng.poisson(20, capture.vantage.num_ips)
        capture.record_destination_sources(80, raw)
        smoothed = figure1_series(capture, 80, window=256)
        assert smoothed.std() < raw.std()

    def test_requires_telescope(self):
        from repro.analysis.dataset import AnalysisDataset
        from repro.sim.clock import WEEK_2021

        vantage = synthetic_telescope().vantage
        dataset = AnalysisDataset.from_events([], [vantage], WEEK_2021, telescope=None)
        with pytest.raises(ValueError):
            figure1_series(dataset, 80)
