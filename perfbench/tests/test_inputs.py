"""The seeded input generators: the same seed gives the same bytes.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402
import workloads  # noqa: E402


def _generated(seed: int, directory: Path) -> dict[str, bytes]:
    """Every generated input file of every workload, by relative path."""
    files = {}
    for workload in workloads.WORKLOADS:
        target = directory / workload
        workloads.prepare(workload, seed, target)
        for path in sorted(target.iterdir()):
            files[f"{workload}/{path.name}"] = path.read_bytes()
    return files


def test_same_seed_same_bytes(tmp_path):
    first = _generated(7, tmp_path / "a")
    second = _generated(7, tmp_path / "b")
    assert first and first == second


def test_other_seed_other_bytes(tmp_path):
    first = _generated(7, tmp_path / "a")
    other = _generated(8, tmp_path / "b")
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first)


def test_records_match_the_written_inputs(tmp_path):
    _, records = workloads.prepare("bulk-arrays", 3, tmp_path)
    x = np.load(tmp_path / "x.npy")
    assert records["x"] == inputs.describe(x)
    assert records["x"]["shape"] == [workloads.LONG_LENGTH]


@pytest.mark.parametrize("seed", [0, 1, 2**40 + 5])
def test_flood_matrix_properties(seed):
    classes = inputs.flood_classes(seed, workloads.SPATIAL_EVENTS, workloads.SPATIAL_GAUGES)
    assert classes.min() == -1 and classes.max() == 4
    assert np.all((classes >= 0).any(axis=1)), "every event floods somewhere"
    # every gauge shows all six classes, so the 8-gauge subset takes the
    # exact baseline branch (6**8 cells)
    assert all(np.unique(col).shape[0] == 6 for col in classes.T)


def test_alert_levels():
    counts = np.array([0, 2, 3, 5, 6, 40])
    assert inputs.alert_levels(counts).tolist() == [0, 0, 1, 1, 2, 2]
