"""Cross-sectional pattern analysis of event-by-gauge class matrices.

Each event row (the classes of one flood event across a set of gauges)
is encoded as a single tie-aware pattern; -1 marks "no flood at this
gauge" and participates as the smallest class. Observed pattern
frequencies are compared against the law the patterns would follow if
gauges were independent (the product of the per-gauge marginal class
distributions), with z-statistics from the Bernoulli CLT and a
Bonferroni-corrected significance flag. ``analyze_spatial`` alone decides
which pattern rows a report lists.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .exceptions import NumericalWarning
from .patterns import (
    MAX_ENUM_LENGTH, check_integer, check_number, check_patterns, enumerate_patterns, pattern_index, pattern_keys,
    whole_numbers,
)


def _is_int64(value) -> bool:
    """Whether an object-array cell is an integer in the int64 range."""
    try:
        return int(value) == value and -2**63 <= int(value) < 2**63
    except (TypeError, ValueError, OverflowError):
        return False


@dataclass(frozen=True)
class ClassMatrix:
    """Event x gauge integer class matrix with -1 as the absence mark."""

    classes: np.ndarray
    gauges: tuple[str, ...]

    def __post_init__(self) -> None:
        arr = np.asarray(self.classes)
        if arr.ndim != 2:
            raise ValueError("class matrix must be two-dimensional (events x gauges)")
        if arr.shape[1] != len(self.gauges):
            raise ValueError(f"{arr.shape[1]} columns but {len(self.gauges)} gauge labels")
        if len(set(self.gauges)) != len(self.gauges):
            raise ValueError("duplicate gauge labels")
        if arr.dtype.kind in "fuO":  # the dtypes whose values int64 may not hold; the loader gives int64
            if arr.dtype.kind == "f":
                bad = ~(np.abs(arr) < 2.0**63) | (arr != np.round(arr))  # NaN and inf included
            elif arr.dtype.kind == "u":
                bad = arr > np.iinfo(np.int64).max
            else:  # Python integers past int64, or cells that are no integers at all
                bad = ~np.frompyfunc(_is_int64, 1, 1)(arr).astype(bool)
            if bad.any():
                i, j = np.argwhere(bad)[0]
                cell = f"class {arr[i, j]} at event {i + 1}, gauge {self.gauges[j]!r}"
                raise ValueError(f"{cell} is not an integer in the int64 range")
        object.__setattr__(self, "classes", arr.astype(np.int64, copy=False))

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
        if repeated := [g for i, g in enumerate(gauge_subset) if g in gauge_subset[:i]]:
            raise ValueError(f"gauge list repeats the label {repeated[0]!r}")
        idx = [self._gauge_index(g) for g in gauge_subset]
        return self.classes[:, idx]


def spatial_encode(matrix: ClassMatrix, gauge_subset: Sequence[str]) -> np.ndarray:
    """(events, d) int64 pattern codes, one row per event over the gauges in subset order.

    Each event row is encoded as one window, in slices of rows under the
    cell budget, so the temporaries stay small beside the subset copy.
    """
    if len(gauge_subset) > MAX_ENUM_LENGTH:
        raise ValueError(f"gauge subset of size {len(gauge_subset)} exceeds the cap of {MAX_ENUM_LENGTH}")
    return _kernels.rank_codes(matrix.subset_columns(gauge_subset)).astype(np.int64)


def pattern_frequencies(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct pattern rows of a (rows, d) code array and their frequencies.

    Rows come in key (lexicographic) order, observed rows only. Raises
    ValueError on a row that is not a pattern.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[0] == 0:
        raise ValueError("no patterns to tabulate")
    _, (counts,), patterns = pattern_index(check_patterns(codes, codes.shape[1]))
    return patterns, counts / codes.shape[0]


def baseline_frequencies(
    matrix: ClassMatrix,
    gauge_subset: Sequence[str],
    patterns: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Pattern law under independence of the gauges, exact for any support.

    Let p_j be the marginal class distribution of gauge j, estimated from
    the matrix, and V the sorted union of the class values. A pattern with
    k levels occurs when the gauges at level l share one value v_l and
    v_1 < ... < v_k. With f_l(v) the product of p_j(v) over the gauges at
    level l, its probability is the sum of f_1(v_1)...f_k(v_k) over those
    value chains, computed level by level: g_1 = f_1,
    g_l(v) = f_l(v) * sum_{u<v} g_{l-1}(u), and P = sum_v g_k(v).

    ``patterns`` is a (rows, d) array of the patterns to evaluate; the
    default is the whole pattern space of the subset size, in the order of
    ``enumerate_patterns(d).codes``. Returns one probability per row.
    """
    if len(gauge_subset) > MAX_ENUM_LENGTH:
        raise ValueError(f"gauge subset of size {len(gauge_subset)} exceeds the cap of {MAX_ENUM_LENGTH}")
    cols = matrix.subset_columns(gauge_subset)
    num_events, d = cols.shape
    if num_events == 0:
        raise ValueError("no events to estimate the gauge marginals from")
    codes = enumerate_patterns(d).codes if patterns is None else check_patterns(patterns, d)

    # one column's values and counts at a time: V and the marginals never
    # take a temporary the size of ``cols``; return_counts also keeps
    # np.unique off the path that imports numpy.ma
    columns = [np.unique(cols[:, j], return_counts=True) for j in range(d)]
    values, _ = np.unique(np.concatenate([v for v, _ in columns]), return_counts=True)
    # products[mask] is the product of p_j(v) over the gauges j in the bit
    # mask, so f_l is the row of the mask of the gauges at level l
    products = np.ones((1, values.shape[0]))
    for column_values, counts in columns:
        marginal = np.zeros(values.shape[0])
        marginal[np.searchsorted(values, column_values)] = counts / num_events
        products = np.concatenate([products, products * marginal])
    probs = np.empty(codes.shape[0])
    # each pattern row's chain temporaries hold one float64 per class value
    for part in _kernels.chunks(codes.shape[0], values.shape[0]):
        probs[part] = _level_chain_law(codes[part], products)
    return probs


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
class SpatialReport:
    """Per-pattern spatial significance against the independence baseline.

    Column i of the arrays describes pattern row ``patterns[i]``; rows are
    sorted by decreasing observed frequency, then pattern.
    """

    patterns: np.ndarray  # (rows, d) int64 codes
    counts: np.ndarray  # events showing the pattern
    observed: np.ndarray
    baseline: np.ndarray
    z: np.ndarray  # NaN where the baseline is 0 and no z-test applies
    significant: np.ndarray  # bool, Bonferroni-corrected
    impossible_under_baseline: np.ndarray  # bool: observed but baseline 0
    num_events: int
    gauges: tuple[str, ...]
    alpha: float
    tests: int  # Bonferroni divisor: number of z-testable rows


def spatial_significance(
    patterns: np.ndarray,
    observed: np.ndarray,
    baseline: np.ndarray,
    num_events: int,
    alpha: float = 0.05,
    gauges: Sequence[str] = (),
) -> SpatialReport:
    """z-statistics and Bonferroni-corrected significance per pattern.

    ``patterns`` is a (rows, d) code array; ``observed`` and ``baseline``
    hold one frequency per row. A row is reported when it was observed or
    its baseline is positive; ``analyze_spatial`` decides which rows to give.
    z = sqrt(K) (observed - baseline) / sqrt(baseline (1 - baseline)).
    Patterns with baseline probability 0 but positive observed frequency
    cannot be z-tested and are flagged impossible-under-baseline instead.
    Warns below K = 30 where the normal approximation is shaky. A
    frequency outside [0, 1], NaN included, or K below 1 is a ValueError.
    """
    check_number("alpha", alpha)
    check_integer("num_events", num_events)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"significance level alpha must lie strictly between 0 and 1, got {alpha}")
    patterns = whole_numbers(patterns, "pattern code")  # the dtype rule only: no per-row sort
    observed = np.asarray(observed, dtype=np.float64)
    baseline = np.asarray(baseline, dtype=np.float64)
    if patterns.ndim != 2 or not observed.shape == baseline.shape == patterns.shape[:1]:
        shapes = f"patterns {patterns.shape}, observed {observed.shape}, baseline {baseline.shape}"
        raise ValueError(f"misaligned inputs: {shapes}")
    if num_events < 1:
        raise ValueError(f"num_events must be at least 1, got {num_events}")
    # a baseline sums products of marginals, which may round past 1 by a few ulps
    for name, column, top in (("observed", observed, 1.0), ("baseline", baseline, 1.0 + 1e-9)):
        bad = ~((column >= 0.0) & (column <= top))  # NaN included
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(f"{name} frequency {column[row]} at row {row} is not a probability in [0, 1]")
    if num_events < 30:
        warnings.warn(
            f"{','.join(gauges) + ': ' if gauges else ''}only {num_events} events; "
            "spatial z-statistics are asymptotic",
            NumericalWarning,
            stacklevel=2,
        )
    keep = (observed > 0.0) | (baseline > 0.0)
    order = np.lexsort((pattern_keys(patterns), -observed))
    order = order[keep[order]]
    obs, base = observed[order], baseline[order]
    testable = base > 0.0
    tests = int(testable.sum())
    crit = NormalDist().inv_cdf(1.0 - alpha / max(tests, 1) / 2.0)
    capped = np.minimum(base, 1.0)  # tested as 1 where it rounds past 1; reported as it is
    variance = capped * (1.0 - capped)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.sqrt(num_events) * (obs - capped) / np.sqrt(variance)
    sure = variance == 0.0  # baseline 1, or 0 and not testable
    z[sure] = np.where(obs[sure] == capped[sure], 0.0, -np.inf)
    z[~testable] = np.nan
    return SpatialReport(
        patterns=patterns[order],
        counts=np.rint(obs * num_events).astype(np.int64),
        observed=obs,
        baseline=base,
        z=z,
        significant=np.abs(z) > crit,
        impossible_under_baseline=~testable & (obs > 0.0),
        num_events=num_events,
        gauges=tuple(gauges),
        alpha=alpha,
        tests=tests,
    )


def analyze_spatial(
    matrix: ClassMatrix,
    gauge_subset: Sequence[str],
    alpha: float = 0.05,
    include_zero_observed: bool = False,
) -> SpatialReport:
    """Encode, tabulate, baseline and test one gauge subset.

    The one owner of the reported rows: the observed patterns, or with
    ``include_zero_observed`` also every other pattern of positive baseline.
    """
    patterns, observed = pattern_frequencies(spatial_encode(matrix, gauge_subset))
    if not include_zero_observed:
        baseline = baseline_frequencies(matrix, gauge_subset, patterns)
    else:  # every pattern, in the row order of the whole-table baseline
        table = enumerate_patterns(patterns.shape[1])
        full = np.zeros(len(table))
        full[table.index_of(patterns)] = observed
        patterns, observed = table.codes, full
        baseline = baseline_frequencies(matrix, gauge_subset)
    return spatial_significance(
        patterns,
        observed,
        baseline,
        matrix.num_events,
        alpha=alpha,
        gauges=gauge_subset,
    )

