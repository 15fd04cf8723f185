"""Sharded run orchestration: parallel workers, spill, resume, scheduling.

The paper's apparatus is inherently parallel — 48 GreyNoise vantages,
4 Honeytrap /26s, and a 475K-IP telescope captured concurrently, then 19
table/figure analyses ran over the one shared dataset.  This package is
the reproduction's equivalent of that operations layer:

* :mod:`repro.runner.plan` — deterministic contiguous partitioning of the
  scanner population into shards (same seed + same shard count → same
  plan everywhere, including inside workers).
* :mod:`repro.runner.worker` — the per-shard worker entry point: rebuild
  the deployment/population from the run configuration, simulate only the
  shard's campaigns, and spill the capture via :mod:`repro.io.shards`.
* :mod:`repro.runner.orchestrator` — drives N worker processes, skips
  shards whose manifests prove completion (``--resume``), retries
  failures a bounded number of times, degrades to partial coverage, and
  merges the shards back into one :class:`~repro.sim.engine.SimulationResult`
  that is bit-identical to a single-process run at the same seed;
  :func:`~repro.runner.orchestrator.open_run_dir` is the one reader of
  an output directory's configuration (``run.json``, else a shard
  manifest) for every later consumer.
* :mod:`repro.runner.scheduler` — runs experiment drivers over the merged
  dataset on a process pool with a content-addressed result cache keyed
  on (dataset digest, driver id, params).
"""

from repro.runner.orchestrator import (
    OrchestratedRun,
    OrchestratorStats,
    open_run_dir,
    orchestrate,
    resolve_workers,
)
from repro.runner.plan import ShardPlan, config_digest, plan_shards
from repro.runner.scheduler import ScheduledExperiment, run_experiments

__all__ = [
    "OrchestratedRun",
    "OrchestratorStats",
    "open_run_dir",
    "orchestrate",
    "resolve_workers",
    "ShardPlan",
    "config_digest",
    "plan_shards",
    "ScheduledExperiment",
    "run_experiments",
]
