"""Cross-sectional pattern analysis of event-by-gauge class matrices.

Each event row (the classes of one flood event across a set of gauges)
is encoded as a single tie-aware pattern; -1 marks "no flood at this
gauge" and participates as the smallest class. Observed pattern
frequencies are compared against the law the patterns would follow if
gauges were independent (the product of the per-gauge marginal class
distributions), with z-statistics from the Bernoulli CLT and a
Bonferroni-corrected significance flag.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterable, Optional, Sequence

import numpy as np

from . import _kernels
from .exceptions import NumericalWarning
from .patterns import (
    MAX_ENUM_LENGTH,
    Pattern,
    enumerate_patterns,
    is_valid_pattern,
    pattern_keys,
)

# float64 cells of each (pattern rows, class values) temporary that
# ``baseline_frequencies`` builds for one slice of pattern rows
_BASELINE_CELLS = 1 << 20


@dataclass(frozen=True)
class ClassMatrix:
    """Event x gauge integer class matrix with -1 as the absence mark."""

    classes: np.ndarray
    gauges: tuple[str, ...]
    event_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        arr = np.asarray(self.classes, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("class matrix must be two-dimensional (events x gauges)")
        if arr.shape[1] != len(self.gauges):
            raise ValueError(f"{arr.shape[1]} columns but {len(self.gauges)} gauge labels")
        if len(set(self.gauges)) != len(self.gauges):
            raise ValueError("duplicate gauge labels")
        if self.event_ids and len(self.event_ids) != arr.shape[0]:
            raise ValueError(f"{arr.shape[0]} rows but {len(self.event_ids)} event ids")
        object.__setattr__(self, "classes", arr)

    @property
    def num_events(self) -> int:
        return self.classes.shape[0]

    def column(self, gauge: str) -> np.ndarray:
        """Class series of one gauge across events."""
        return self.classes[:, self._gauge_index(gauge)]

    def _gauge_index(self, gauge: str) -> int:
        try:
            return self.gauges.index(gauge)
        except ValueError:
            raise KeyError(f"unknown gauge label {gauge!r}") from None

    def subset_columns(self, gauge_subset: Sequence[str]) -> np.ndarray:
        if len(gauge_subset) == 0:
            raise ValueError("gauge subset must be non-empty")
        idx = [self._gauge_index(g) for g in gauge_subset]
        return self.classes[:, idx]


def flood_validate(matrix: ClassMatrix) -> None:
    """Flood-data invariants: classes in {-1..4}, each event seen somewhere."""
    arr = matrix.classes
    bad = (arr < -1) | (arr > 4)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"class {arr[i, j]} at event {i + 1}, gauge {matrix.gauges[j]!r} "
            "outside the flood range -1..4"
        )
    empty = np.all(arr < 0, axis=1)
    if empty.any():
        raise ValueError(f"event {int(np.argwhere(empty)[0][0]) + 1} has no flood at any gauge")


def spatial_encode(matrix: ClassMatrix, gauge_subset: Sequence[str]) -> list[Pattern]:
    """One pattern per event over the selected gauges, in subset order."""
    if len(gauge_subset) > MAX_ENUM_LENGTH:
        raise ValueError(f"gauge subset of size {len(gauge_subset)} exceeds the cap of {MAX_ENUM_LENGTH}")
    cols = matrix.subset_columns(gauge_subset)
    codes = _encode_rows(cols)
    return [tuple(int(c) for c in row) for row in codes]


def _encode_rows(rows: np.ndarray) -> np.ndarray:
    # every row is its own window: encode the flattened series with stride n
    num, n = rows.shape
    return _kernels.encode_windows(rows.reshape(-1), n, n)[:num]


def pattern_counts(patterns: Sequence[Pattern]) -> dict[Pattern, int]:
    """Occurrences of each pattern, insertion-ordered by first appearance."""
    counts: dict[Pattern, int] = {}
    for p in patterns:
        counts[p] = counts.get(p, 0) + 1
    return counts


def pattern_frequencies(
    patterns: Sequence[Pattern], include_zero: bool = False
) -> dict[Pattern, float]:
    """Empirical pattern frequencies; optionally list non-observed patterns.

    With ``include_zero`` the full pattern space of the common length is
    reported (zero-frequency entries included), which is how "patterns
    that never occur" are surfaced.
    """
    if len(patterns) == 0:
        raise ValueError("no patterns to tabulate")
    total = len(patterns)
    counts = pattern_counts(patterns)
    if include_zero:
        table = enumerate_patterns(len(patterns[0]))
        return {p: counts.get(p, 0) / total for p in table.entries}
    return {p: c / total for p, c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))}


def baseline_frequencies(
    matrix: ClassMatrix,
    gauge_subset: Sequence[str],
    patterns: Optional[Iterable[Sequence[int]]] = None,
) -> dict[Pattern, float]:
    """Pattern law under independence of the gauges, exact for any support.

    Let p_j be the marginal class distribution of gauge j, estimated from
    the matrix, and V the sorted union of the class values. A pattern with
    k levels occurs when the gauges at level l share one value v_l and
    v_1 < ... < v_k. With f_l(v) the product of p_j(v) over the gauges at
    level l, its probability is the sum of f_1(v_1)...f_k(v_k) over those
    value chains, computed level by level: g_1 = f_1,
    g_l(v) = f_l(v) * sum_{u<v} g_{l-1}(u), and P = sum_v g_k(v).

    ``patterns`` lists the patterns to evaluate; the default is the whole
    pattern space of the subset size. Returns {pattern: probability} sorted
    by decreasing probability, then pattern, without zero entries.
    """
    if len(gauge_subset) > MAX_ENUM_LENGTH:
        raise ValueError(f"gauge subset of size {len(gauge_subset)} exceeds the cap of {MAX_ENUM_LENGTH}")
    cols = matrix.subset_columns(gauge_subset)
    num_events, d = cols.shape
    if num_events == 0:
        raise ValueError("no events to estimate the gauge marginals from")
    if patterns is None:
        table = enumerate_patterns(d)
        entries, codes = table.entries, table.codes
    else:
        entries = [tuple(int(c) for c in p) for p in patterns]
        for p in entries:
            if len(p) != d or not is_valid_pattern(p):
                raise ValueError(f"not a valid pattern of length {d}: {p}")
        codes = np.array(entries, dtype=np.int64).reshape(-1, d)

    values, index = np.unique(cols, return_inverse=True)
    index = index.reshape(cols.shape)
    # products[mask] is the product of p_j(v) over the gauges j in the bit
    # mask, so f_l is the row of the mask of the gauges at level l
    products = np.ones((1, values.shape[0]))
    for j in range(d):
        marginal = np.bincount(index[:, j], minlength=values.shape[0]) / num_events
        products = np.concatenate([products, products * marginal])
    probs = np.empty(codes.shape[0])
    step = max(1, _BASELINE_CELLS // values.shape[0])
    for lo in range(0, codes.shape[0], step):
        probs[lo : lo + step] = _level_chain_law(codes[lo : lo + step], products)

    order = np.lexsort((pattern_keys(codes), -probs))
    order = order[probs[order] > 0.0]
    return dict(zip([entries[i] for i in order.tolist()], probs[order].tolist()))


def _level_chain_law(codes: np.ndarray, products: np.ndarray) -> np.ndarray:
    # codes: (rows, d) patterns; products: (2^d, |V|) subset products
    bits = 1 << np.arange(codes.shape[1])
    levels = codes.max(axis=1)
    out = np.empty(codes.shape[0])
    below = np.zeros((codes.shape[0], products.shape[1]))
    for level in range(1, int(levels.max()) + 1):
        factor = products[np.where(codes == level, bits, 0).sum(axis=1)]
        if level == 1:
            chain = factor
        else:
            np.cumsum(chain[:, :-1], axis=1, out=below[:, 1:])
            chain = factor * below
        done = levels == level
        out[done] = chain[done].sum(axis=1)
    return out


@dataclass(frozen=True)
class SpatialRecord:
    """One pattern row of the spatial significance report."""

    pattern: Pattern
    count: int
    observed: float
    baseline: float
    z: Optional[float]
    significant: bool
    impossible_under_baseline: bool


@dataclass(frozen=True)
class SpatialReport:
    """Per-pattern spatial significance against the independence baseline."""

    records: tuple[SpatialRecord, ...]
    num_events: int
    gauges: tuple[str, ...]
    alpha: float
    tests: int  # Bonferroni divisor: number of z-testable rows


def spatial_significance(
    observed: dict[Pattern, float],
    baseline: dict[Pattern, float],
    num_events: int,
    alpha: float = 0.05,
    gauges: Sequence[str] = (),
    include_zero_observed: bool = False,
) -> SpatialReport:
    """z-statistics and Bonferroni-corrected significance per pattern.

    z = sqrt(K) (observed - baseline) / sqrt(baseline (1 - baseline)).
    Patterns with baseline probability 0 but positive observed frequency
    cannot be z-tested and are flagged impossible-under-baseline instead.
    Warns below K = 30 where the normal approximation is shaky.
    """
    if num_events < 30:
        warnings.warn(
            f"only {num_events} events; spatial z-statistics are asymptotic",
            NumericalWarning,
            stacklevel=2,
        )
    pats = set(observed) | set(baseline)
    lengths = {len(p) for p in pats}
    if len(lengths) > 1:
        raise ValueError(
            f"observed and baseline tables index patterns of different lengths: {sorted(lengths)}"
        )
    if not include_zero_observed:
        pats = {p for p in pats if observed.get(p, 0.0) > 0.0}
    rows = sorted(pats, key=lambda p: (-observed.get(p, 0.0), p))
    testable = [p for p in rows if baseline.get(p, 0.0) > 0.0]
    threshold = alpha / max(len(testable), 1)
    crit = NormalDist().inv_cdf(1.0 - threshold / 2.0)
    records = []
    for p in rows:
        obs = observed.get(p, 0.0)
        base = baseline.get(p, 0.0)
        count = int(round(obs * num_events))
        if base > 0.0:
            variance = base * (1.0 - base)
            if variance == 0.0:  # baseline 1: the pattern is sure
                z = 0.0 if obs == base else -np.inf
            else:
                z = float(np.sqrt(num_events) * (obs - base) / np.sqrt(variance))
            records.append(
                SpatialRecord(p, count, obs, base, z, abs(z) > crit, False)
            )
        else:
            records.append(SpatialRecord(p, count, obs, base, None, False, obs > 0.0))
    return SpatialReport(
        records=tuple(records),
        num_events=num_events,
        gauges=tuple(gauges),
        alpha=alpha,
        tests=len(testable),
    )


def analyze_spatial(
    matrix: ClassMatrix,
    gauge_subset: Sequence[str],
    alpha: float = 0.05,
    include_zero_observed: bool = False,
) -> SpatialReport:
    """Encode, tabulate, baseline and test one gauge subset."""
    patterns = spatial_encode(matrix, gauge_subset)
    observed = pattern_frequencies(patterns)
    # the report lists only observed rows unless zero rows are asked for
    baseline = baseline_frequencies(
        matrix, gauge_subset, None if include_zero_observed else observed
    )
    return spatial_significance(
        observed,
        baseline,
        matrix.num_events,
        alpha=alpha,
        gauges=gauge_subset,
        include_zero_observed=include_zero_observed,
    )


def cramers_v(a: np.ndarray, b: np.ndarray) -> float:
    """Cramér's V of the contingency table of two categorical vectors.

    Degenerate tables: 1x1 (both vectors constant) is taken as perfect
    association (1.0); a single constant margin admits no association (0.0).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1 or a.shape[0] == 0:
        raise ValueError("need two equal-length 1-d vectors")
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    rows = ia.max() + 1
    cols = ib.max() + 1
    if rows == 1 and cols == 1:
        return 1.0
    if min(rows, cols) == 1:
        return 0.0
    table = np.zeros((rows, cols), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)
    total = table.sum()
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True) / total
    with np.errstate(invalid="ignore", divide="ignore"):
        chi2 = float(np.where(expected > 0, (table - expected) ** 2 / expected, 0.0).sum())
    return float(np.sqrt(chi2 / (total * (min(rows, cols) - 1))))


def cramers_v_autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Per-lag Cramér's V of (value_t, value_{t+k}) for k = 1..max_lag."""
    values = np.asarray(series)
    if values.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if max_lag < 1 or max_lag >= values.shape[0] / 2:
        raise ValueError("max_lag must satisfy 1 <= max_lag < len(series)/2")
    return np.array([cramers_v(values[:-k], values[k:]) for k in range(1, max_lag + 1)])
