"""Pairwise ordinal pattern dependence between two series.

Both series are cut into simultaneous sliding windows, each window is
encoded as a tie-aware pattern, and co-movement is measured by

* the probability of coincident patterns, benchmarked against the
  comparison value it would have under independence, and
* the total score: the mean metric-weighted similarity of the two
  patterns, which also credits near-misses.

Kernel-weighted long-run variances give asymptotic confidence intervals
for the probability-type estimators; one moving-block bootstrap of the
window pattern sequence covers the comparison value and the
standardized coefficient. The classical tie-handling baselines (skip /
randomize / first-appearance) run the same pipeline through permutation
patterns and the plain L1 metric. Past encoding all of it runs on dense
pattern ids, with bootstrap replicates as window multiplicities.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import _kernels
from .exceptions import NumericalWarning
from .metric import WeightScheme, scheme_for_length
from .patterns import TiePolicy, check_finite, descending_permutations, pattern_keys, randomize_values


@dataclass(frozen=True)
class ClassSeries:
    """An integer-valued series (e.g. flood classes of one gauge)."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values))
        if self.values.ndim != 1:
            raise ValueError("series values must be one-dimensional")
        check_finite(self.values)

    def __len__(self) -> int:
        return self.values.shape[0]


SeriesLike = Union[ClassSeries, Sequence[float], np.ndarray]


def series_values(x: SeriesLike) -> np.ndarray:
    """Unwrap a ClassSeries or array-like into a finite 1-d array."""
    if isinstance(x, ClassSeries):
        return x.values
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError("series must be one-dimensional")
    check_finite(arr)
    return arr


def series_label(x: SeriesLike, default: str) -> str:
    return x.label if isinstance(x, ClassSeries) and x.label else default


def _window_codes(values: np.ndarray, n: int, stride: int) -> np.ndarray:
    if n < 1:
        raise ValueError("pattern length must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if values.shape[0] < n:
        raise ValueError(f"series of length {values.shape[0]} is shorter than pattern length {n}")
    return _kernels.encode_windows(values, n, stride)


def _paired_codes(x: SeriesLike, y: SeriesLike, n: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    xv = series_values(x)
    yv = series_values(y)
    if xv.shape[0] != yv.shape[0]:
        raise ValueError(f"series length mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    return _window_codes(xv, n, stride), _window_codes(yv, n, stride)


# ---------------------------------------------------------------------------
# estimator core: dense pattern ids, shared by the tie-aware and classical
# pipelines and the batched bootstrap
# ---------------------------------------------------------------------------

# Pattern keys below this bound are relabelled through a lookup table,
# larger ones through a sort.
_KEY_TABLE_SIZE = 1 << 21
# Cells of one (pattern x pattern x n) distance table; larger tables are
# built a slice of x patterns at a time.
_TABLE_CELLS = 1 << 20


def _negated_codes(codes: np.ndarray) -> np.ndarray:
    """Codes of the negated windows: m + 1 - c, m the window's largest code."""
    top = codes[..., 0]
    for j in range(1, codes.shape[-1]):  # column by column: n is small
        top = np.maximum(top, codes[..., j])
    return top[..., None] + 1 - codes


def _dense_ids(*codes: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Pattern ids 0..m-1 of (W, n) code arrays, shared by all, and their histograms."""
    keys = [pattern_keys(c) for c in codes]
    size = max(int(k.max()) for k in keys) + 1
    if size <= _KEY_TABLE_SIZE:
        seen = np.zeros(size, dtype=bool)
        for k in keys:
            seen[k] = True
        relabel = np.cumsum(seen) - 1
        ids, size = [relabel[k] for k in keys], int(relabel[-1]) + 1
    else:
        distinct, inverse = np.unique(np.concatenate(keys), return_inverse=True)
        ids, size = np.split(inverse, np.cumsum([k.size for k in keys])[:-1]), distinct.shape[0]
    return ids, [np.bincount(i, minlength=size) for i in ids]


def _total_score_from_codes(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: WeightScheme,
    distance: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[float, np.ndarray]:
    scores = scheme.weights_for(distance(a_codes, b_codes))
    return float(scores.sum() / scores.shape[0]), scores


def _score_estimates(
    x_codes: np.ndarray,
    y_codes: np.ndarray,
    ids: Sequence[np.ndarray],
    hists: Sequence[np.ndarray],
    scheme: WeightScheme,
    cross_distance: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[float, np.ndarray]:
    """Score comparison and per-window scores from one sliced score table.

    ``ids`` and ``hists`` start with those of x and y. The table S scores
    the distinct x patterns (rows) against the distinct y patterns
    (columns), a slice of rows under ``_TABLE_CELLS`` at a time; each slice
    adds its part of h_x^T S h_y and fills the scores of its windows.
    """
    (x_ids, y_ids, *_), (x_hist, y_hist, *_) = ids, hists
    num_windows, n = x_codes.shape
    rows, cols = np.flatnonzero(x_hist), np.flatnonzero(y_hist)
    # the codes of one window showing each row and each column pattern
    windows = np.arange(num_windows)
    pick = np.empty(x_hist.shape[0], dtype=np.intp)
    pick[x_ids] = windows
    row_codes = x_codes[pick[rows]]
    pick[y_ids] = windows
    col_codes = y_codes[pick[cols]]
    row_counts, col_counts = x_hist[rows].astype(np.float64), y_hist[cols].astype(np.float64)
    # each window's cell in the row-major table
    win_cell = (np.cumsum(x_hist > 0) - 1)[x_ids] * cols.shape[0]
    win_cell += (np.cumsum(y_hist > 0) - 1)[y_ids]
    step = max(1, _TABLE_CELLS // (cols.shape[0] * n))
    if step < rows.shape[0]:
        # windows grouped by row (small unsigned keys take a radix sort)
        win_row = (win_cell // cols.shape[0]).astype(np.min_scalar_type(rows.shape[0]))
        windows = np.argsort(win_row, kind="stable")
        win_cell = win_cell[windows]
    ends = np.cumsum(x_hist[rows])
    scores = np.empty(num_windows, dtype=np.float64)
    total = 0.0
    for lo in range(0, rows.shape[0], step):
        hi = min(lo + step, rows.shape[0])
        table = scheme.weights_for(cross_distance(row_codes[lo:hi], col_codes))
        # the built-in weights are dyadic and the counts integers, so every
        # partial sum is exact and the slicing does not change the result
        total += float(row_counts[lo:hi] @ table @ col_counts)
        run = slice(ends[lo - 1] if lo else 0, ends[hi - 1])
        scores[windows[run]] = table.ravel()[win_cell[run] - lo * cols.shape[0]]
    return total / (num_windows * num_windows), scores


def _estimates_from_codes(
    x_codes: np.ndarray,
    y_codes: np.ndarray,
    neg_y_codes: np.ndarray,
    scheme: WeightScheme,
    stride: int,
    cross_distance: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple["DependenceEstimates", np.ndarray, np.ndarray, list[np.ndarray]]:
    """All point estimates of one pair from its (num_windows, n) codes.

    Serves the tie-aware pipeline (rank codes, shift-minimized distance)
    and the classical one (permutations, plain L1). Coincidences come from
    id equality, comparison values from histogram products and both
    scores from one sliced score table. Also returns the per-window
    coincidence indicators and scores, the inputs of the long-run variance
    estimator, and the ids of x, y and -y, the input of the block bootstrap.
    """
    num_windows, n = x_codes.shape
    ids, hists = _dense_ids(x_codes, y_codes, neg_y_codes)
    x_hist, y_hist, neg_y_hist = hists
    indicators = ids[0] == ids[1]
    pairs = num_windows * num_windows
    p_hat = int(indicators.sum()) / num_windows
    q_hat = int(x_hist @ y_hist) / pairs
    r_hat = int(np.count_nonzero(ids[0] == ids[2])) / num_windows
    s_hat = int(x_hist @ neg_y_hist) / pairs
    s_comp, scores = _score_estimates(x_codes, y_codes, ids, hists, scheme, cross_distance)
    estimates = DependenceEstimates(
        coincidence=p_hat,
        comparison=q_hat,
        anti_coincidence=r_hat,
        anti_comparison=s_hat,
        coefficient=standardized_coefficient(p_hat, q_hat, r_hat, s_hat),
        total_score=float(scores.sum() / num_windows),
        score_comparison=s_comp,
        n=n,
        stride=stride,
        num_windows=num_windows,
    )
    return estimates, indicators, scores, ids


# ---------------------------------------------------------------------------
# single estimators
# ---------------------------------------------------------------------------

def coincidence_probability(
    x: SeriesLike, y: SeriesLike, n: int, stride: int = 1
) -> tuple[float, np.ndarray]:
    """Fraction of simultaneous windows with identical patterns.

    Returns the estimate together with the per-window 0/1 indicator
    sequence, which feeds the long-run variance estimator.
    """
    cx, cy = _paired_codes(x, y, n, stride)
    indicators = (pattern_keys(cx) == pattern_keys(cy)).astype(np.float64)
    return float(indicators.sum() / indicators.shape[0]), indicators


def comparison_value(x: SeriesLike, y: SeriesLike, n: int, stride: int = 1) -> float:
    """Coincidence probability the pair would have under independence.

    Sum over patterns of the product of the two empirical pattern
    frequencies, computed on the same window grid.
    """
    cx, cy = _paired_codes(x, y, n, stride)
    _, (x_hist, y_hist) = _dense_ids(cx, cy)
    return int(x_hist @ y_hist) / (cx.shape[0] * cx.shape[0])


def anti_estimates(x: SeriesLike, y: SeriesLike, n: int, stride: int = 1) -> tuple[float, float]:
    """Coincidence probability and comparison value of x against -y.

    These carry the anti-monotone side of the standardized coefficient.
    The codes of -y follow from those of y: a window's ranks reverse.
    """
    cx, cy = _paired_codes(x, y, n, stride)
    (x_ids, neg_ids), (x_hist, neg_hist) = _dense_ids(cx, _negated_codes(cy))
    count = cx.shape[0]
    return int(np.count_nonzero(x_ids == neg_ids)) / count, int(x_hist @ neg_hist) / (count * count)


def _excess(prob: np.ndarray, comp: np.ndarray) -> np.ndarray:
    # ((prob - comp) / (1 - comp))^+, defined as 0 where comp is 1
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = np.maximum((prob - comp) / (1.0 - comp), 0.0)
    return np.where(comp >= 1.0, 0.0, excess)


def _coefficients(p_hat, q_hat, r_hat, s_hat) -> np.ndarray:
    """Standardized coefficient, elementwise; degenerate terms are 0."""
    p_hat, q_hat, r_hat, s_hat = (
        np.asarray(v, dtype=np.float64) for v in (p_hat, q_hat, r_hat, s_hat)
    )
    return _excess(p_hat, q_hat) - _excess(r_hat, s_hat)


def standardized_coefficient(
    p_hat: float, q_hat: float, r_hat: float, s_hat: float
) -> float:
    """Positive-part contrast of the monotone and anti-monotone sides.

    ((p - q)/(1 - q))^+ - ((r - s)/(1 - s))^+ in [-1, 1]. A degenerate
    marginal (comparison value 1, so every window shows one single
    pattern) makes a term 0/0; that term is defined as 0 with a warning
    since excess dependence is indistinguishable there.
    """
    for comp, side in ((q_hat, "monotone"), (s_hat, "anti-monotone")):
        if comp >= 1.0:
            warnings.warn(
                f"degenerate marginal: {side} comparison value is 1, term set to 0",
                NumericalWarning,
                stacklevel=2,
            )
    return float(_coefficients(p_hat, q_hat, r_hat, s_hat))


def total_score(
    x: SeriesLike,
    y: SeriesLike,
    n: int,
    stride: int = 1,
    scheme: Optional[WeightScheme] = None,
) -> tuple[float, np.ndarray]:
    """Mean metric-weighted pattern similarity over simultaneous windows.

    Returns the mean score and the per-window score sequence (input to
    the long-run variance estimator). Defaults to the step scheme for
    the given length.
    """
    scheme = scheme or scheme_for_length(n)
    cx, cy = _paired_codes(x, y, n, stride)
    return _total_score_from_codes(cx, cy, scheme, _kernels.df_rows)


def score_comparison_value(
    x: SeriesLike,
    y: SeriesLike,
    n: int,
    stride: int = 1,
    scheme: Optional[WeightScheme] = None,
) -> float:
    """Expected total score under independence of the two series.

    Sum over pattern pairs (t, u) of score(t, u) weighted by the product
    of the empirical frequencies of t in x and u in y. With the exact
    scheme this collapses to the comparison value.
    """
    scheme = scheme or scheme_for_length(n)
    cx, cy = _paired_codes(x, y, n, stride)
    return _score_estimates(cx, cy, *_dense_ids(cx, cy), scheme, _kernels.df_cross)[0]


# ---------------------------------------------------------------------------
# estimator bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DependenceEstimates:
    """Point estimates of the dependence measures for one series pair."""

    coincidence: float        # P(same pattern at same time)
    comparison: float         # same under the independence hypothesis
    anti_coincidence: float   # coincidence of x with -y
    anti_comparison: float    # comparison of x with -y
    coefficient: float        # standardized coefficient in [-1, 1]
    total_score: float        # mean weighted pattern similarity
    score_comparison: float   # total score under independence
    n: int
    stride: int
    num_windows: int


def dependence_estimates(
    x: SeriesLike,
    y: SeriesLike,
    n: int,
    stride: int = 1,
    scheme: Optional[WeightScheme] = None,
) -> DependenceEstimates:
    """All point estimates for one pair through the tie-aware pipeline."""
    scheme = scheme or scheme_for_length(n)
    cx, cy = _paired_codes(x, y, n, stride)
    estimates, _, _, _ = _estimates_from_codes(
        cx, cy, _negated_codes(cy), scheme, stride, _kernels.df_cross
    )
    return estimates


# ---------------------------------------------------------------------------
# classical tie-policy baselines
# ---------------------------------------------------------------------------

def _classical_scheme(n: int, scheme: Optional[WeightScheme]) -> WeightScheme:
    scheme = scheme or scheme_for_length(n, classical=True)
    required = {"classical-short": 4, "classical-long": 6}.get(scheme.name)
    if required is None:
        raise ValueError(f"classical pipeline needs a classical weight scheme, got {scheme.name!r}")
    if n != required:
        raise ValueError(f"scheme {scheme.name!r} requires pattern length n={required}, got n={n}")
    return scheme


def _classical_windows(
    x: SeriesLike, y: SeriesLike, n: int, stride: int, policy: TiePolicy
) -> tuple[np.ndarray, np.ndarray]:
    # window matrices of both series after the tie policy
    xv = series_values(x).astype(np.float64)
    yv = series_values(y).astype(np.float64)
    if xv.shape[0] != yv.shape[0]:
        raise ValueError(f"series length mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    if xv.shape[0] < n:
        raise ValueError(f"series of length {xv.shape[0]} is shorter than pattern length {n}")

    if policy.kind == "randomize":
        seed_x, seed_y = np.random.SeedSequence(policy.seed).spawn(2)
        xv = randomize_values(xv, seed_x)
        yv = randomize_values(yv, seed_y)

    win_x = _kernels.sliding_windows(xv, n, stride)
    win_y = _kernels.sliding_windows(yv, n, stride)

    if policy.kind == "skip":
        def tie_free(win: np.ndarray) -> np.ndarray:
            srt = np.sort(win, axis=1)
            return np.all(srt[:, 1:] != srt[:, :-1], axis=1)

        keep = tie_free(win_x) & tie_free(win_y)
        if not keep.any():
            raise ValueError("skip policy removed every window (ties everywhere)")
        win_x = win_x[keep]
        win_y = win_y[keep]
    return win_x, win_y


def classical_dependence(
    x: SeriesLike,
    y: SeriesLike,
    n: int,
    stride: int = 1,
    policy: TiePolicy = TiePolicy.first_appearance(),
    scheme: Optional[WeightScheme] = None,
) -> DependenceEstimates:
    """The dependence pipeline through classical permutation patterns.

    Windows are encoded as descending-order permutations under the given
    tie policy and compared with the plain L1 metric, whose values on
    permutations are always even; the weight scheme must be one of the
    even-distance classical schemes (n = 4 or n = 6). Under "skip",
    windows containing a tie in either series are dropped from both.
    """
    scheme = _classical_scheme(n, scheme)
    win_x, win_y = _classical_windows(x, y, n, stride, policy)
    estimates, _, _, _ = _estimates_from_codes(
        descending_permutations(win_x),
        descending_permutations(win_y),
        descending_permutations(-win_y),
        scheme,
        stride,
        _kernels.l1_cross,
    )
    return estimates


def classical_total_score(
    x: SeriesLike,
    y: SeriesLike,
    n: int,
    stride: int = 1,
    policy: TiePolicy = TiePolicy.first_appearance(),
    scheme: Optional[WeightScheme] = None,
) -> tuple[float, np.ndarray]:
    """Total score alone through the classical pipeline.

    Equal to ``classical_dependence(...).total_score``, without the other
    estimates; returns the mean and the per-window score sequence.
    """
    scheme = _classical_scheme(n, scheme)
    win_x, win_y = _classical_windows(x, y, n, stride, policy)
    return _total_score_from_codes(
        descending_permutations(win_x), descending_permutations(win_y), scheme, _kernels.l1_rows
    )


# ---------------------------------------------------------------------------
# long-run variance and confidence intervals
# ---------------------------------------------------------------------------

KERNELS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "bartlett": lambda u: np.maximum(0.0, 1.0 - np.abs(u)),
    "parzen": lambda u: np.where(
        np.abs(u) <= 0.5,
        1.0 - 6.0 * u**2 + 6.0 * np.abs(u) ** 3,
        np.where(np.abs(u) <= 1.0, 2.0 * (1.0 - np.abs(u)) ** 3, 0.0),
    ),
    "truncated": lambda u: (np.abs(u) <= 1.0).astype(np.float64),
}


@dataclass(frozen=True)
class VarianceEstimate:
    """Long-run variance estimate, optionally with a confidence interval."""

    sigma2: float
    kernel: str
    bandwidth: float
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    level: Optional[float] = None


def default_bandwidth(count: int) -> int:
    """Default kernel bandwidth: ceil(count ** (1/3))."""
    return int(math.ceil(count ** (1.0 / 3.0)))


def long_run_variance(
    sequence: np.ndarray,
    kernel: str = "bartlett",
    bandwidth: Optional[float] = None,
) -> VarianceEstimate:
    """Kernel-weighted autocovariance sum of a stationary sequence.

    Estimates the variance of the normalized partial sums, i.e. the
    centered double sum (1/N) sum_ij k((i-j)/b) d_i d_j computed via
    autocovariances. Finite-sample kernel sums can dip below zero; those
    are truncated to 0 with a warning.
    """
    seq = np.asarray(sequence, dtype=np.float64)
    if seq.ndim != 1 or seq.shape[0] < 2:
        raise ValueError("need a 1-d sequence of length >= 2")
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; known: {sorted(KERNELS)}")
    count = seq.shape[0]
    if bandwidth is None:
        bandwidth = default_bandwidth(count)
    if bandwidth < 1:
        raise ValueError("bandwidth must be >= 1")

    if np.all(seq == seq[0]):
        return VarianceEstimate(sigma2=0.0, kernel=kernel, bandwidth=float(bandwidth))
    centered = seq - seq.mean()
    max_lag = min(count - 1, int(math.floor(bandwidth)))
    lags = np.arange(max_lag + 1)
    kernel_weights = KERNELS[kernel](lags / bandwidth)
    acov = np.array(
        [centered[: count - lag] @ centered[lag:] / count for lag in lags]
    )
    sigma2 = float(acov[0] * kernel_weights[0] + 2.0 * (kernel_weights[1:] * acov[1:]).sum())
    if sigma2 < 0.0:
        warnings.warn(
            f"long-run variance estimate {sigma2:.3e} is negative; truncated to 0",
            NumericalWarning,
            stacklevel=2,
        )
        sigma2 = 0.0
    return VarianceEstimate(sigma2=sigma2, kernel=kernel, bandwidth=float(bandwidth))


def confidence_interval(
    point: float,
    sigma2: float,
    count: int,
    level: float = 0.95,
    clip_unit: bool = True,
) -> tuple[float, float]:
    """Normal-approximation interval point +- z * sigma / sqrt(count).

    clip_unit restricts the interval to [0, 1] for probability-valued
    points.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie strictly between 0 and 1")
    if sigma2 < 0.0:
        raise ValueError("variance must be non-negative")
    if count < 1:
        raise ValueError("count must be >= 1")
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    half = z * math.sqrt(sigma2 / count)
    low, high = point - half, point + half
    if clip_unit:
        low, high = max(low, 0.0), min(high, 1.0)
    return low, high


# ---------------------------------------------------------------------------
# moving-block bootstrap
# ---------------------------------------------------------------------------

# Window multiplicities are built in chunks of at most this many windows
# per series (at least one replicate per chunk).
BOOTSTRAP_CHUNK_VALUES = 1 << 18


def block_bootstrap_ci(
    x_ids: np.ndarray,
    y_ids: np.ndarray,
    neg_y_ids: np.ndarray,
    block: Optional[int] = None,
    replicates: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Moving-block bootstrap intervals of the comparison value and coefficient.

    Takes the dense pattern ids of the W simultaneous windows of x, y and
    -y and resamples blocks of ``block`` consecutive windows (default
    ``default_bandwidth(W)``) jointly from all three, which keeps the
    cross-dependence and the serial dependence within blocks (Kuensch's
    moving-block bootstrap of the pattern sequence). One generator
    draws the block starts of every replicate; both statistics come from
    the same replicates. A replicate is a vector of window multiplicities
    (+1 at each block start, -1 past each block end, accumulated; the last
    block is cut to fill W windows), which weights the id histograms and
    id equalities. Returns (comparison_ci, coefficient_ci).
    """
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie strictly between 0 and 1")
    if replicates < 2:
        raise ValueError("need at least 2 bootstrap replicates")
    num_windows = x_ids.shape[0]
    if block is None:
        block = default_bandwidth(num_windows)
    if not 1 <= block <= num_windows:
        raise ValueError(
            f"bootstrap block must lie in 1..{num_windows} (the number of windows), got {block}"
        )
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, num_windows - block + 1, size=(replicates, -(-num_windows // block)))
    lengths = np.full(starts.shape[1], block)
    lengths[-1] = num_windows - block * (starts.shape[1] - 1)
    size = 1 + max(int(i.max()) for i in (x_ids, y_ids, neg_y_ids))
    same = (x_ids == y_ids).astype(np.float64)
    opposite = (x_ids == neg_y_ids).astype(np.float64)
    chunk = max(1, BOOTSTRAP_CHUNK_VALUES // num_windows)
    pairs = num_windows * num_windows
    comparison = np.empty(replicates, dtype=np.float64)
    coefficient = np.empty(replicates, dtype=np.float64)
    for lo in range(0, replicates, chunk):
        rows = starts[lo : lo + chunk]
        count = rows.shape[0]
        cells = count * num_windows
        offsets = (np.arange(count) * num_windows)[:, None]
        ends = rows + lengths
        steps = np.bincount((rows + offsets).ravel(), minlength=cells)
        steps -= np.bincount((ends + offsets)[ends < num_windows], minlength=cells)
        weights = np.cumsum(steps.reshape(count, num_windows), axis=1, dtype=np.float64)
        # every count is an integer below 2^53, so the float sums are exact; with
        # m <= 3 W ids the histograms hold at most 3 BOOTSTRAP_CHUNK_VALUES cells
        id_offsets = (np.arange(count) * size)[:, None]
        x_hist, y_hist, neg_y_hist = (
            np.bincount((i + id_offsets).ravel(), weights.ravel(), count * size).reshape(count, -1)
            for i in (x_ids, y_ids, neg_y_ids)
        )
        hi = lo + count
        comparison[lo:hi] = (x_hist * y_hist).sum(axis=1) / pairs
        coefficient[lo:hi] = _coefficients(
            weights @ same / num_windows,
            comparison[lo:hi],
            weights @ opposite / num_windows,
            (x_hist * neg_y_hist).sum(axis=1) / pairs,
        )
    alpha = 1.0 - level
    quantiles = [alpha / 2.0, 1.0 - alpha / 2.0]
    q_low, q_high = np.quantile(comparison, quantiles)
    c_low, c_high = np.quantile(coefficient, quantiles)
    return (float(q_low), float(q_high)), (float(c_low), float(c_high))


# ---------------------------------------------------------------------------
# full report for one pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DependenceReport:
    """Point estimates plus variance and interval information for a pair."""

    label_x: str
    label_y: str
    scheme: str
    estimates: DependenceEstimates
    coincidence_variance: VarianceEstimate
    score_variance: VarianceEstimate
    comparison_ci: tuple[float, float]
    coefficient_ci: tuple[float, float]
    level: float


def analyze_pair(
    x: SeriesLike,
    y: SeriesLike,
    n: int,
    stride: int = 1,
    scheme: Optional[WeightScheme] = None,
    level: float = 0.95,
    kernel: str = "bartlett",
    bandwidth: Optional[float] = None,
    block: Optional[int] = None,
    replicates: int = 1000,
    seed: int = 0,
) -> DependenceReport:
    """Estimates, long-run variances, and confidence intervals for a pair.

    Coincidence probability and total score get kernel-based intervals
    from their per-window sequences; the comparison value and the
    standardized coefficient get percentile intervals from one
    moving-block bootstrap of the window sequence, whose blocks count
    ``block`` windows.
    """
    scheme = scheme or scheme_for_length(n)
    cx, cy = _paired_codes(x, y, n, stride)
    est, indicators, scores, ids = _estimates_from_codes(
        cx, cy, _negated_codes(cy), scheme, stride, _kernels.df_cross
    )

    def with_ci(var: VarianceEstimate, point: float) -> VarianceEstimate:
        low, high = confidence_interval(point, var.sigma2, est.num_windows, level)
        return replace(var, ci_low=low, ci_high=high, level=level)

    var_p = with_ci(long_run_variance(indicators, kernel, bandwidth), est.coincidence)
    var_s = with_ci(long_run_variance(scores, kernel, bandwidth), est.total_score)
    q_ci, c_ci = block_bootstrap_ci(*ids, block, replicates, level, seed)

    return DependenceReport(
        label_x=series_label(x, "x"),
        label_y=series_label(y, "y"),
        scheme=scheme.name,
        estimates=est,
        coincidence_variance=var_p,
        score_variance=var_s,
        comparison_ci=q_ci,
        coefficient_ci=c_ci,
        level=level,
    )
