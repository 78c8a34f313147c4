"""Class-matrix ingestion, flood classification, and report emission.

The input format is comma-separated text, UTF-8, LF or CRLF: a header
row with the event-id column label followed by gauge labels, then one row
per event with integer class cells; -1 marks "no flood at this gauge".
Parse failures name the offending row and column.

Flood classes 0..4 follow from a peak's non-exceedance probability
through the fixed lower bounds ``FLOOD_CLASSES``.

Every CSV the package writes, files and ``--format long`` stdout alike,
goes through ``write_csv``: comma-separated, minimal quoting, LF line ends.
A symmetric matrix has the gauge labels as its header and first column,
under the corner label ``gauge``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Sequence, TextIO, Union

import numpy as np

from .exceptions import DataFormatError
from .spatial import ClassMatrix, SpatialReport

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# flood classification
# ---------------------------------------------------------------------------

# lower non-exceedance probability bound of flood classes 0..4; a class
# holds [its bound, the next bound), the last one up to 1.0 inclusive, so
# at a printed boundary the higher class wins
FLOOD_CLASSES = (0.0, 0.5, 0.8, 0.933, 0.966)


def classify_peak(non_exceedance: float) -> int:
    """Flood class of a peak from its non-exceedance probability."""
    if not 0.0 <= non_exceedance <= 1.0:
        raise ValueError(f"non-exceedance probability {non_exceedance} outside [0, 1]")
    return int(np.searchsorted(FLOOD_CLASSES, non_exceedance, side="right") - 1)


# ---------------------------------------------------------------------------
# class-matrix loading / saving
# ---------------------------------------------------------------------------

def load_class_matrix(path: PathLike) -> ClassMatrix:
    """Load and validate an event x gauge class matrix.

    A class cell is an ASCII optional sign and digits, with surrounding
    ASCII whitespace allowed. Raises DataFormatError with row/column
    context on the first offending cell (not such an integer, empty, past
    the int64 range), on text that is not UTF-8, or on a malformed header
    (duplicate gauge labels, no gauge columns).
    """
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            line, byte = exc.object.count(b"\n", 0, exc.start) + 1, exc.object[exc.start]
            raise DataFormatError(f"{path}, line {line}: not UTF-8 text (byte 0x{byte:02x}: {exc.reason})") from None
        # without non-ASCII text, underscores and \x1c-\x1f, int() reads rule-abiding cells only
        strict = not text.isascii() or any(c in text for c in "_\x1c\x1d\x1e\x1f")
        del text
        handle.seek(0)
        reader = csv.reader(handle)
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
        line_nos: list[int] = []
        rows: list[list[int]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}, line {line_no}: expected {len(header)} cells, found {len(row)}"
                )
            event_ids.append(row[0].strip())
            line_nos.append(line_no)
            if strict:
                parsed = _parse_cells(path, line_no, gauges, row[1:])
            else:
                try:
                    parsed = list(map(int, row[1:]))
                except ValueError:  # rescan cell by cell to name the offending cell
                    parsed = _parse_cells(path, line_no, gauges, row[1:])
            rows.append(parsed)

    if not rows:
        raise DataFormatError(f"{path}: no event rows")
    try:
        classes = np.array(rows, dtype=np.int64)
    except OverflowError:  # name the first cell past the int64 range
        k, j = next((k, j) for k, row in enumerate(rows) for j, v in enumerate(row) if not -2**63 <= v < 2**63)
        raise DataFormatError(
            f"{path}, line {line_nos[k]}, gauge {gauges[j]!r}: {rows[k][j]} is not an integer in the int64 range"
        ) from None
    return ClassMatrix(classes=classes, gauges=tuple(gauges), event_ids=tuple(event_ids))


def _parse_cells(path: Path, line_no: int, gauges: Sequence[str], cells: Sequence[str]) -> list[int]:
    """The integers of a row's gauge cells; DataFormatError names the first empty or bad cell."""
    parsed = []
    for col, cell in zip(gauges, cells):
        text = cell.strip(" \t\n\r\v\f")
        if not text:
            raise DataFormatError(f"{path}, line {line_no}, gauge {col!r}: empty cell")
        digits = text[1:] if text[0] in "+-" else text
        if not (digits.isascii() and digits.isdigit()):
            raise DataFormatError(f"{path}, line {line_no}, gauge {col!r}: {text!r} is not an integer")
        parsed.append(int(text))
    return parsed


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def write_csv(target: Union[PathLike, TextIO], header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a header, then each row as ``rows`` yields it, to a path or an open text stream."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            write_csv(handle, header, rows)
        return
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _fmt(x: float) -> str:
    return format(x, ".10g")


def write_symmetric_matrix(labels: Sequence[str], values: np.ndarray, path: PathLike) -> None:
    """Emit a labeled symmetric matrix as CSV, its corner cell reading ``gauge``."""
    values = np.asarray(values)
    if values.shape != (len(labels), len(labels)):
        raise ValueError("matrix shape does not match the label count")
    rows = ([label, *(_fmt(v) for v in row)] for label, row in zip(labels, values))
    write_csv(path, ["gauge", *labels], rows)


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
    write_csv(path, PAIR_COLUMNS, map(pair_record, reports))


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
    header = ["pattern", "count", "observed_pct", "baseline_pct", "z", "significant", "note"]
    write_csv(path, header, (
        [
            label,
            count,
            _fmt(observed * 100.0),
            _fmt(baseline * 100.0),
            "" if math.isnan(z) else _fmt(z),  # NaN: not z-tested
            "yes" if significant else "no",
            "impossible-under-baseline" if impossible else "",
        ]
        for label, count, observed, baseline, z, significant, impossible in spatial_rows(report)
    ))

