"""The per-shard simulation worker.

Workers are deliberately stateless: a task is a plain dict (so it
pickles under any multiprocessing start method), and the worker rebuilds
the deployment and population from the run configuration instead of
receiving them over IPC.  Both builds are deterministic per seed, so
every worker sees the exact fleet and population the parent planned
against — and the spilled shard is exactly the slice a single-process
run would have produced.

As an optimization, fork-started workers inherit the parent's already
built deployment/population/sources/engines through copy-on-write
memory (:func:`set_fork_state`) instead of rebuilding them; the rebuild
path remains the correctness baseline and the fallback for spawn start
methods.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.experiments.context import ExperimentConfig, build_inputs
from repro.io.shards import shard_dir_name, write_shard
from repro.runner.plan import config_digest, plan_shards

__all__ = ["build_task", "run_shard", "FAILPOINTS_FILE"]

#: Fault-injection hook for the retry/degradation tests: a JSON file in
#: the run directory mapping shard index (as a string) to the number of
#: times that shard should fail before succeeding.  Production runs
#: simply never create the file.
FAILPOINTS_FILE = "FAILPOINTS.json"

#: Parent-prepared run state inherited by fork-started workers (a dict
#: with ``digest``/``deployment``/``population``/``source_ips``/
#: ``engines``).  Every piece is deterministic per config, so reusing the
#: parent's copy-on-write pages instead of rebuilding per worker changes
#: nothing about the output — only the per-shard fixed cost.  Under a
#: spawn start method the global is ``None`` in the child and the worker
#: rebuilds everything from the task dict.
_FORK_STATE: dict | None = None


def set_fork_state(state: dict | None) -> None:
    """Install (or clear) the pre-fork state ``run_shard`` may inherit."""
    global _FORK_STATE
    _FORK_STATE = state


def build_task(
    config: ExperimentConfig,
    shard_index: int,
    num_shards: int,
    spec_range: tuple[int, int],
    out_dir: str,
    digest: str,
) -> dict:
    """Assemble the picklable task dict for one shard."""
    return {
        "config": {
            "year": config.year,
            "scale": config.scale,
            "telescope_slash24s": config.telescope_slash24s,
            "seed": config.seed,
        },
        "shard_index": shard_index,
        "num_shards": num_shards,
        "spec_range": [spec_range[0], spec_range[1]],
        "out_dir": out_dir,
        "config_digest": digest,
    }


def _check_failpoint(out_dir: Path, shard_index: int) -> None:
    """Raise if a test armed a failpoint for this shard (and disarm it)."""
    path = out_dir / FAILPOINTS_FILE
    if not path.exists():
        return
    try:
        failures = json.loads(path.read_text())
    except ValueError:
        return
    remaining = int(failures.get(str(shard_index), 0))
    if remaining <= 0:
        return
    failures[str(shard_index)] = remaining - 1
    path.write_text(json.dumps(failures))
    raise RuntimeError(f"injected failure for shard {shard_index} "
                       f"({remaining - 1} more armed)")


def run_shard(task: dict) -> dict:
    """Simulate one shard and spill it to disk; returns the manifest.

    Runs in a worker process (but is plain-function-callable for tests
    and the inline fallback).  The shard plan is re-derived from the
    rebuilt population and cross-checked against the task, so a planner
    drift between parent and worker fails loudly instead of silently
    producing a mis-sliced dataset.
    """
    from repro.sim.engine import SimulationConfig, run_simulation

    out_dir = Path(task["out_dir"])
    shard_index = int(task["shard_index"])
    _check_failpoint(out_dir, shard_index)

    config = ExperimentConfig(**task["config"])
    inherited = _FORK_STATE if (
        _FORK_STATE is not None
        and _FORK_STATE.get("digest") == task["config_digest"]
    ) else None
    source_ips = engines = None
    if inherited is not None:
        deployment = inherited["deployment"]
        population = inherited["population"]
        source_ips = inherited["source_ips"]
        engines = inherited["engines"]
    else:
        deployment, population = build_inputs(config)

    digest = config_digest(config, len(population))
    if digest != task["config_digest"]:
        raise RuntimeError(
            f"worker rebuilt a different population: digest {digest} != "
            f"{task['config_digest']} (shard {shard_index})"
        )
    num_shards = int(task["num_shards"])
    lo, hi = task["spec_range"]
    planned = plan_shards(population, num_shards)[shard_index]
    if planned.spec_range != (lo, hi):
        raise RuntimeError(
            f"shard plan drift: worker derived {planned.spec_range}, "
            f"parent sent {(lo, hi)} (shard {shard_index})"
        )

    result = run_simulation(
        deployment,
        population,
        SimulationConfig(seed=config.seed, window=config.window()),
        spec_slice=(lo, hi),
        source_ips=source_ips,
        engines=engines,
    )

    streams = [
        f"scan/{spec.scanner_id}/{plan.port}"
        for spec in population[lo:hi]
        for plan in spec.plans
    ]
    manifest = write_shard(
        out_dir / shard_dir_name(shard_index),
        result.tables(),
        result.telescope,
        {
            "config": task["config"],
            "config_digest": digest,
            "shard_index": shard_index,
            "num_shards": num_shards,
            "spec_range": [lo, hi],
            "rng_streams": streams,
            "worker_pid": os.getpid(),
        },
    )
    return manifest
