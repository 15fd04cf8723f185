"""Shared experiment context: one simulated dataset per configuration.

Every experiment driver needs a simulated week of traffic; building one
is the expensive step, so contexts are memoized per configuration and
shared across drivers, tests, and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.dataset import AnalysisDataset
from repro.deployment.fleet import Deployment, build_full_deployment
from repro.scanners.base import ScannerSpec
from repro.scanners.population import PopulationConfig, build_population
from repro.sim.clock import WEEK_2020, WEEK_2021, WEEK_2022, ObservationWindow
from repro.sim.engine import SimulationConfig, SimulationResult, run_simulation
from repro.sim.rng import RngHub

__all__ = [
    "ExperimentConfig",
    "ExperimentContext",
    "build_inputs",
    "get_context",
    "remember_context",
    "clear_context_cache",
]

_WINDOWS: dict[int, ObservationWindow] = {2020: WEEK_2020, 2021: WEEK_2021, 2022: WEEK_2022}


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration key for one simulated dataset."""

    year: int = 2021
    scale: float = 0.5
    telescope_slash24s: int = 16
    seed: int = 20230701

    def window(self) -> ObservationWindow:
        return _WINDOWS[self.year]


@dataclass
class ExperimentContext:
    """A built simulation plus its analysis dataset."""

    config: ExperimentConfig
    deployment: Deployment
    result: SimulationResult
    dataset: AnalysisDataset


_CACHE: dict[ExperimentConfig, ExperimentContext] = {}


def build_inputs(config: ExperimentConfig) -> tuple[Deployment, list[ScannerSpec]]:
    """The simulation inputs for one configuration: fleet and population.

    Both builds are deterministic per configuration, so every process
    that rebuilds them (a shard worker, a run-dir reader, a re-simulation)
    sees exactly the fleet and population the original run used.
    """
    deployment = build_full_deployment(
        RngHub(config.seed), num_telescope_slash24s=config.telescope_slash24s
    )
    population = build_population(PopulationConfig(year=config.year, scale=config.scale))
    return deployment, population


def get_context(config: Optional[ExperimentConfig] = None) -> ExperimentContext:
    """Build (or fetch) the simulated dataset for a configuration."""
    config = config or ExperimentConfig()
    cached = _CACHE.get(config)
    if cached is not None:
        return cached

    deployment, population = build_inputs(config)
    result = run_simulation(
        deployment,
        population,
        SimulationConfig(seed=config.seed, window=config.window()),
    )
    context = ExperimentContext(
        config=config,
        deployment=deployment,
        result=result,
        dataset=AnalysisDataset.from_simulation(result),
    )
    _CACHE[config] = context
    return context


def remember_context(context: ExperimentContext) -> None:
    """Adopt an externally built context into the memo cache.

    The orchestrator (and drivers that invoke it, like X3) build
    contexts without going through :func:`get_context`; registering them
    here lets every later ``get_context(config)`` reuse the sharded,
    memory-mapped build instead of re-simulating in-process.  A context
    already memoized for the same configuration wins.
    """
    _CACHE.setdefault(context.config, context)


def clear_context_cache() -> None:
    """Drop memoized contexts (tests use this to control memory)."""
    _CACHE.clear()
