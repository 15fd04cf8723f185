"""Every registered experiment driver's output, pinned as a golden digest.

Each driver (X3 excepted: it orchestrates its own multi-year runs) runs
on the shared small 2021 and 2020 fixtures, and the canonical digest of
its whole :class:`~repro.experiments.base.ExperimentOutput` — id, title,
rendered text and structured data — must equal the one in
``tests/golden_outputs.json``.  The digests were pinned while row-backed
datasets and scalar emission still existed, after the driver output on
the columnar dataset had matched both twins.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import ALL_EXPERIMENTS
from tests.golden import canonical, digest, load_golden

GOLDEN = load_golden()["drivers"]

DRIVER_IDS = [experiment_id for experiment_id in ALL_EXPERIMENTS if experiment_id != "X3"]


def test_canonical_form_is_stricter_than_equality():
    """Digests see what ``==`` ignores: dict order and the last float bit."""
    assert {"a": 1, "b": 2} == {"b": 2, "a": 1}
    assert digest({"a": 1, "b": 2}) != digest({"b": 2, "a": 1})
    assert digest(0.1 + 0.2) != digest(0.3)
    assert digest({3, 1, 2}) == digest({2, 3, 1})
    assert digest(np.arange(3)) != digest(np.arange(3, dtype=np.int32))
    objects = np.empty(2, dtype=object)
    objects[:] = [b"x", ("u", "p")]
    assert canonical(objects) == {"objects": [[2], [{"bytes": "78"}, ["u", "p"]]]}


def test_every_driver_but_x3_is_pinned():
    for year in (2021, 2020):
        assert sorted(key for key in GOLDEN if key.startswith(f"{year}/")) == sorted(
            f"{year}/{experiment_id}" for experiment_id in DRIVER_IDS
        )


@pytest.mark.parametrize("experiment_id", DRIVER_IDS)
def test_driver_2021(small_context, experiment_id):
    output = ALL_EXPERIMENTS[experiment_id](small_context)
    assert digest(output) == GOLDEN[f"2021/{experiment_id}"]


@pytest.mark.parametrize("experiment_id", DRIVER_IDS)
def test_driver_2020(small_context_2020, experiment_id):
    output = ALL_EXPERIMENTS[experiment_id](small_context_2020)
    assert digest(output) == GOLDEN[f"2020/{experiment_id}"]
