"""Class-matrix ingestion, flood classification, and report emission.

The input format is delimited text (comma), UTF-8, LF or CRLF: a header
row with the event-id column label followed by gauge labels, then one row
per event with integer class cells; -1 marks "no flood at this gauge".
Parse failures name the offending row and column.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .exceptions import DataFormatError
from .spatial import ClassMatrix, SpatialReport

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# flood classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FloodClassBoundaries:
    """Ordered (class id, lower non-exceedance probability bound) pairs.

    Intervals are half-open [lower, next lower), the last class extending
    to 1.0 inclusive; at a printed boundary the higher class wins.
    """

    bounds: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.bounds:
            raise ValueError("no class boundaries")
        ids = [c for c, _ in self.bounds]
        lows = [b for _, b in self.bounds]
        if ids != list(range(len(ids))):
            raise ValueError("class ids must be contiguous from 0")
        if any(b2 <= b1 for b1, b2 in zip(lows, lows[1:])):
            raise ValueError("class bounds must be strictly increasing")
        if lows[0] >= 0.5:
            raise ValueError("the lowest class must start below 0.5")

    def lower_bounds(self) -> np.ndarray:
        return np.array([b for _, b in self.bounds])


FLOOD_CLASSES = FloodClassBoundaries(
    bounds=((0, 0.0), (1, 0.5), (2, 0.8), (3, 0.933), (4, 0.966)),
)


def classify_peak(
    non_exceedance: float, boundaries: FloodClassBoundaries = FLOOD_CLASSES
) -> int:
    """Flood class of a peak from its non-exceedance probability."""
    if not 0.0 <= non_exceedance <= 1.0:
        raise ValueError(f"non-exceedance probability {non_exceedance} outside [0, 1]")
    lows = boundaries.lower_bounds()
    return int(np.searchsorted(lows, non_exceedance, side="right") - 1)


# ---------------------------------------------------------------------------
# class-matrix loading / saving
# ---------------------------------------------------------------------------

def load_class_matrix(path: PathLike, delimiter: str = ",") -> ClassMatrix:
    """Load and validate an event x gauge class matrix.

    Raises DataFormatError with row/column context on the first offending
    cell (non-integer, empty) or a malformed header (duplicate gauge
    labels, no gauge columns).
    """
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if len(header) < 2:
            raise DataFormatError(f"{path}: header must name an id column and at least one gauge")
        gauges = [h.strip() for h in header[1:]]
        if any(not g for g in gauges):
            raise DataFormatError(f"{path}: blank gauge label in header")
        if len(set(gauges)) != len(gauges):
            dupe = next(g for g in gauges if gauges.count(g) > 1)
            raise DataFormatError(f"{path}: duplicate gauge label {dupe!r}")

        event_ids: list[str] = []
        rows: list[list[int]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}, line {line_no}: expected {len(header)} cells, found {len(row)}"
                )
            event_ids.append(row[0].strip())
            parsed = []
            for col, cell in zip(gauges, row[1:]):
                text = cell.strip()
                if not text:
                    raise DataFormatError(f"{path}, line {line_no}, gauge {col!r}: empty cell")
                try:
                    parsed.append(int(text))
                except ValueError:
                    raise DataFormatError(
                        f"{path}, line {line_no}, gauge {col!r}: {text!r} is not an integer"
                    ) from None
            rows.append(parsed)

    if not rows:
        raise DataFormatError(f"{path}: no event rows")
    return ClassMatrix(
        classes=np.array(rows, dtype=np.int64),
        gauges=tuple(gauges),
        event_ids=tuple(event_ids),
    )


def save_class_matrix(matrix: ClassMatrix, path: PathLike, id_label: str = "event") -> None:
    """Write a class matrix in the loader's format (round-trip exact)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([id_label, *matrix.gauges])
        ids = matrix.event_ids or tuple(str(i + 1) for i in range(matrix.num_events))
        for event_id, row in zip(ids, matrix.classes):
            writer.writerow([event_id, *(int(v) for v in row)])


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(x, ".10g")


def write_symmetric_matrix(
    labels: Sequence[str],
    values: np.ndarray,
    path: PathLike,
    corner: str = "gauge",
) -> None:
    """Emit a labeled symmetric matrix as CSV."""
    values = np.asarray(values)
    if values.shape != (len(labels), len(labels)):
        raise ValueError("matrix shape does not match the label count")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([corner, *labels])
        for label, row in zip(labels, values):
            writer.writerow([label, *(_fmt(v) for v in row)])


def read_symmetric_matrix(path: PathLike) -> tuple[list[str], np.ndarray]:
    """Read back a matrix written by :func:`write_symmetric_matrix`."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        labels = header[1:]
        rows = [[float(c) for c in row[1:]] for row in reader]
    return labels, np.array(rows)


PAIR_COLUMNS = (
    "gauge_a", "gauge_b", "n", "stride", "scheme", "num_windows",
    "coincidence", "comparison", "anti_coincidence", "anti_comparison",
    "coefficient", "total_score", "score_comparison",
    "coincidence_sigma2", "coincidence_ci_low", "coincidence_ci_high",
    "score_sigma2", "score_ci_low", "score_ci_high",
    "comparison_ci_low", "comparison_ci_high",
    "coefficient_ci_low", "coefficient_ci_high", "level",
)


def pair_record(report) -> list:
    """Flatten a DependenceReport into a long-form row."""
    est = report.estimates
    var_p = report.coincidence_variance
    var_s = report.score_variance
    return [
        report.label_x, report.label_y, est.n, est.stride, report.scheme, est.num_windows,
        _fmt(est.coincidence), _fmt(est.comparison),
        _fmt(est.anti_coincidence), _fmt(est.anti_comparison),
        _fmt(est.coefficient), _fmt(est.total_score), _fmt(est.score_comparison),
        _fmt(var_p.sigma2), _fmt(var_p.ci_low), _fmt(var_p.ci_high),
        _fmt(var_s.sigma2), _fmt(var_s.ci_low), _fmt(var_s.ci_high),
        _fmt(report.comparison_ci[0]), _fmt(report.comparison_ci[1]),
        _fmt(report.coefficient_ci[0]), _fmt(report.coefficient_ci[1]),
        _fmt(report.level),
    ]


def write_pairs_long(reports: Sequence, path: PathLike) -> None:
    """Emit one row per gauge pair with every estimate and interval."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(PAIR_COLUMNS)
        for report in reports:
            writer.writerow(pair_record(report))


def pattern_label(pattern: Sequence[int]) -> str:
    return "(" + ",".join(str(c) for c in pattern) + ")"


def pattern_labels(codes: np.ndarray) -> list[str]:
    """``pattern_label`` of every row of a (rows, n) array of codes 1..9, built as bytes."""
    if codes.max(initial=1) > 9:
        raise ValueError("pattern_labels writes each code as one digit")
    rows, n = codes.shape
    chars = np.full((rows, 2 * n + 1), ord(","), dtype=np.uint8)
    chars[:, 0], chars[:, -1] = ord("("), ord(")")
    chars[:, 1:-1:2] = codes + ord("0")
    return chars.view(f"S{2 * n + 1}").ravel().astype(str).tolist()


def spatial_rows(report: SpatialReport):
    """Per report row: label, count, observed, baseline, z, significant, impossible."""
    columns = (report.counts, report.observed, report.baseline, report.z,
               report.significant, report.impossible_under_baseline)
    return zip(pattern_labels(report.patterns), *(column.tolist() for column in columns))


def write_spatial_report(report: SpatialReport, path: PathLike) -> None:
    """Emit the per-pattern observed/baseline/significance table as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["pattern", "count", "observed_pct", "baseline_pct", "z", "significant", "note"]
        )
        for label, count, observed, baseline, z, significant, impossible in spatial_rows(report):
            writer.writerow([
                label,
                count,
                _fmt(observed * 100.0),
                _fmt(baseline * 100.0),
                "" if math.isnan(z) else _fmt(z),  # NaN: not z-tested
                "yes" if significant else "no",
                "impossible-under-baseline" if impossible else "",
            ])


def write_plot_data(
    matrix: ClassMatrix, gauge_subset: Sequence[str], path: PathLike
) -> None:
    """Emit per-gauge class values over the event index for plotting."""
    gauges = list(gauge_subset) or list(matrix.gauges)
    cols = matrix.subset_columns(gauges)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["index", *gauges])
        ids = matrix.event_ids or tuple(str(i + 1) for i in range(matrix.num_events))
        for event_id, row in zip(ids, cols):
            writer.writerow([event_id, *(int(v) for v in row)])


# ---------------------------------------------------------------------------
# analysis configuration
# ---------------------------------------------------------------------------

@dataclass
class AnalysisConfig:
    """Knobs shared by the CLI drivers."""

    n: int = 4
    stride: int = 1
    scheme: str = "auto"
    level: float = 0.95
    kernel: str = "bartlett"
    bandwidth: Optional[float] = None
    block: Optional[int] = None
    replicates: int = 1000
    seed: int = 0
    gauges: tuple[str, ...] = field(default_factory=tuple)
