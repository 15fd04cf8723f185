#!/usr/bin/env python
"""Run the simulation benchmark and append the timing record to
BENCH_simulation.json: ``cloudwatching bench`` with the same options and
defaults (see ``repro.bench``).

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--scale 1.0] [--orchestrate-workers]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main(["bench", *sys.argv[1:]]))
