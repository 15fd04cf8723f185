#!/usr/bin/env python3
"""Produce (and re-consume) a dataset release, like the paper's.

The paper publicly releases its scanning dataset; this example simulates
a week, writes the captured events in the NDJSON release format, reloads
them into a fresh AnalysisDataset, and verifies an analysis computed from
the released file matches the in-memory one.

Run:  python examples/release_dataset.py [output.ndjson.gz]
"""

import sys
import tempfile
from pathlib import Path

from repro.analysis.dataset import AnalysisDataset
from repro.analysis.summary import vantage_summary
from repro.deployment.fleet import build_full_deployment
from repro.io.records import read_events, write_events
from repro.reporting.tables import render_table
from repro.scanners.population import PopulationConfig, build_population
from repro.sim.engine import SimulationConfig, run_simulation
from repro.sim.rng import RngHub


def main() -> None:
    if len(sys.argv) > 1:
        output = Path(sys.argv[1])
    else:
        output = Path(tempfile.gettempdir()) / "cloudwatching_release.ndjson.gz"

    deployment = build_full_deployment(RngHub(42), num_telescope_slash24s=4)
    population = build_population(PopulationConfig(year=2021, scale=0.2))
    result = run_simulation(deployment, population, SimulationConfig(seed=21))

    count = write_events(output, result.events())
    size_kib = output.stat().st_size / 1024
    print(f"wrote {count:,} events to {output} ({size_kib:,.0f} KiB)")

    reloaded = AnalysisDataset.from_events(
        read_events(output),
        deployment.honeypots,
        result.window,
        telescope=result.telescope,
        leak_experiment=deployment.leak_experiment,
    )
    original = AnalysisDataset.from_simulation(result)

    reloaded_rows = vantage_summary(reloaded)
    original_rows = vantage_summary(original)
    assert reloaded_rows == original_rows, "release must reproduce analyses exactly"

    print("\nTable 1 recomputed from the released file:")
    print(render_table(
        ["Network", "Collection", "#Scan IPs", "#Scan ASes"],
        [(r.network, r.collection, r.unique_scan_ips, r.unique_scan_ases)
         for r in reloaded_rows],
    ))
    print("\nrelease round-trips: analyses on the file match the in-memory capture")


if __name__ == "__main__":
    main()
