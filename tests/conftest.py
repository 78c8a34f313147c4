"""Shared test fixtures and helpers."""

import tracemalloc

import pytest

from ordpat.io import write_csv


def save_class_matrix(matrix, path) -> None:
    """Write a class matrix in the loader's format (round-trip exact): an ``event`` id column 1..K, then the gauges."""
    rows = ([k, *row] for k, row in enumerate(matrix.classes.tolist(), start=1))
    write_csv(path, ["event", *matrix.gauges], rows)


@pytest.fixture
def traced_peak():
    """``traced_peak(call)`` runs ``call()`` under tracemalloc: its result and the peak bytes traced."""
    def run(call):
        tracemalloc.start()
        try:
            result = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak
    return run
