"""Shared test fixtures and helpers."""

import tracemalloc

import pytest

from ordpat.io import write_csv


def save_class_matrix(matrix, path) -> None:
    """Write a class matrix in the loader's format (round-trip exact): an ``event`` id column, then the gauges."""
    ids = matrix.event_ids or tuple(str(i + 1) for i in range(matrix.num_events))
    rows = ([event_id, *row.tolist()] for event_id, row in zip(ids, matrix.classes))
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
