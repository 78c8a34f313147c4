"""Ordinal pattern dependence between the series of a gauge set.

The series are cut into simultaneous sliding windows, each window is
encoded as a tie-aware pattern, and the co-movement of every pair is
measured by

* the probability of coincident patterns, benchmarked against the
  comparison value it would have under independence, and
* the total score: the mean metric-weighted similarity of the two
  patterns, which also credits near-misses.

Kernel-weighted long-run variances give asymptotic confidence intervals
for the probability-type estimators; one moving-block bootstrap of the
window pattern sequence covers the comparison value and the
standardized coefficient. The classical tie-handling baselines (skip /
randomize / first-appearance) run the same pipeline through permutation
patterns and the plain L1 metric.

One estimator core serves every caller: it takes G equally long series
as one (G, W, n) int8 code stack, numbers the patterns of every series
and of the negated series 1..G-1 with one ``patterns.pattern_index``
call, and estimates all G(G-1)/2 pairs from those dense ids in one pass per
statistic (``_pair_terms`` also serves each bootstrap replicate, and one
stacked long-run variance every pair); a single pair is the case G = 2.
One bootstrap per call resamples the window blocks of all series together.
Each pipeline picks one encoder and one distance kernel of ``_kernels``:
tie-aware patterns are ``rank_codes`` compared by ``df_rows``; classical
ones are ``permutation_index`` looked up in ``patterns.permutation_table``
and compared by ``l1_rows``. Codes stay int8 through the negation, the
pattern keys (int64) and the distance kernels, whose distances are int64.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations
from statistics import NormalDist
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import _kernels
from .exceptions import NumericalWarning
from .metric import WeightScheme, scheme_for_length
from .patterns import (
    TiePolicy, check_finite, pattern_index, pattern_keys, permutation_table, randomize_values,
    smallest_gap,
)


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


def _pair_labels(x: SeriesLike, y: SeriesLike) -> list[str]:
    return [series_label(x, "x"), series_label(y, "y")]


def _stacked_values(series: Sequence[SeriesLike], n: int, stride: int) -> np.ndarray:
    """The (G, L) values of equally long series that hold at least one window."""
    values = [series_values(v) for v in series]
    for v in values[1:]:
        if v.shape[0] != values[0].shape[0]:
            raise ValueError(f"series length mismatch: {values[0].shape[0]} vs {v.shape[0]}")
    if n < 1:
        raise ValueError("pattern length must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if values[0].shape[0] < n:
        raise ValueError(
            f"series of length {values[0].shape[0]} is shorter than pattern length {n}"
        )
    return np.stack(values)


def _stacked_codes(series: Sequence[SeriesLike], n: int, stride: int) -> np.ndarray:
    """(G, W, n) rank codes of equally long series, from one encode."""
    return _kernels.encode_windows(_stacked_values(series, n, stride), n, stride)


# ---------------------------------------------------------------------------
# estimator core: one (G, W, n) code stack, dense pattern ids, every gauge
# pair at once; shared by the tie-aware and classical pipelines
# ---------------------------------------------------------------------------

def _negated_codes(codes: np.ndarray) -> np.ndarray:
    """Codes of the negated windows: m + 1 - c, m the window's largest code.

    Keeps the dtype of ``codes``: int8 codes stay int8, since m + 1 is at
    most 16.
    """
    top = codes[..., 0]
    for j in range(1, codes.shape[-1]):  # column by column: n is small
        top = np.maximum(top, codes[..., j])
    return top[..., None] + 1 - codes


def _score_comparisons(
    hists: np.ndarray,
    patterns: np.ndarray,
    scheme: WeightScheme,
    distance: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """(G, G) sums h_i^T S h_j, S the score table of the patterns the G series show.

    S is built from int8 codes a slice of rows at a time, each row
    costing m * n cells (m patterns). The built-in weights are dyadic and
    the counts integers, so every partial sum is exact and the slicing
    does not change the result.
    """
    seen = np.flatnonzero(hists.any(axis=0))
    counts, codes = hists[:, seen].astype(np.float64), patterns[seen].astype(np.int8)
    total = np.zeros((hists.shape[0], hists.shape[0]))
    for part in _kernels.chunks(seen.shape[0], seen.shape[0] * codes.shape[1]):
        table = scheme.weights_for(distance(codes[part, None], codes[None]))
        total += counts[:, part] @ table @ counts.T
    return total


def _warn_degenerate(q_hat: float, s_hat: float, prefix: str = "", stacklevel: int = 3) -> None:
    """One warning if either comparison value of a pair is 1."""
    sides = [side for comp, side in ((q_hat, "monotone"), (s_hat, "anti-monotone")) if comp >= 1.0]
    if sides:
        values = "values are 1, terms" if len(sides) == 2 else "value is 1, term"
        message = f"{prefix}degenerate marginal: {' and '.join(sides)} comparison {values} set to 0"
        warnings.warn(message, NumericalWarning, stacklevel=stacklevel)


def _pair_terms(
    hists: np.ndarray, rates: np.ndarray, first: np.ndarray, second: np.ndarray
) -> tuple[np.ndarray, ...]:
    """p̂, q̂, r̂, ŝ and the coefficient of the pairs (first, second), each (R, K), for core and bootstrap.

    Takes R stacks of (2G - 1, m) histograms (G series, then the negated
    series 1..G-1, each summing to W) and the (R, 2K) coincidence rates
    (x_i = x_j, then x_i = -x_j). Every term is an integer count over W or
    W², so any summation order is exact.
    """
    gauges = (hists.shape[1] + 1) // 2
    pairs = hists[0, 0].sum() ** 2
    p_hat, r_hat = rates[:, : first.shape[0]], rates[:, first.shape[0] :]
    q_hat = (hists[:, :gauges] @ hists[:, :gauges].transpose(0, 2, 1))[:, first, second] / pairs
    s_hat = (hists[:, :gauges] @ hists[:, gauges:].transpose(0, 2, 1))[:, first, second - 1] / pairs
    return p_hat, q_hat, r_hat, s_hat, _coefficients(p_hat, q_hat, r_hat, s_hat)


def _estimates_from_codes(
    codes: np.ndarray,
    neg_codes: np.ndarray,
    scheme: WeightScheme,
    stride: int,
    distance: Callable[[np.ndarray, np.ndarray], np.ndarray],
    labels: Sequence[str],
) -> tuple[list["DependenceEstimates"], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Point estimates of every pair i < j of a (G, W, n) code stack.

    ``neg_codes`` holds the codes of the negated series 1..G-1 (series 0
    is never the y of a pair). Coincidences come from id equality,
    comparison values from the histogram products H H^T and H H_-^T,
    score comparisons from H S H^T, per-window scores from one aligned
    distance call per slice of pairs. A degenerate pair warns by ``labels``.
    Returns the estimates of the K pairs in row-major order; their (2K, W)
    coincidences x_i = x_j, then x_i = -x_j, per window; their (K, W)
    per-window scores; the (2G - 1, W) ids; and the symmetric (G, G)
    score comparisons. The first K coincidence rows and the scores feed
    the long-run variances, the ids and all coincidences the bootstrap.
    """
    gauges, num_windows, n = codes.shape
    ids, hists, patterns = pattern_index(*codes, *neg_codes)
    ids, hists = np.stack(ids), np.stack(hists)
    first, second = np.triu_indices(gauges, 1)
    same = np.concatenate([ids[first] == ids[second], ids[first] == ids[gauges + second - 1]])
    rates = np.count_nonzero(same, axis=1)[None] / num_windows
    terms = [t[0] for t in _pair_terms(hists[None], rates, first, second)]
    for k in (np.maximum(terms[1], terms[3]) >= 1.0).nonzero()[0].tolist():  # q̂ or ŝ is 1
        _warn_degenerate(terms[1][k], terms[3][k], f"{labels[first[k]]}|{labels[second[k]]}: ", 4)
    upper = np.triu(_score_comparisons(hists[:gauges], patterns, scheme, distance)) / num_windows**2
    comparisons = upper + np.triu(upper, 1).T
    scores = np.empty((first.shape[0], num_windows))
    for part in _kernels.chunks(first.shape[0], 2 * n * num_windows):
        scores[part] = scheme.weights_for(distance(codes[first[part]], codes[second[part]]))
    columns = (*terms, scores.sum(axis=1) / num_windows, comparisons[first, second])
    estimates = [DependenceEstimates(*v, n, stride, num_windows) for v in zip(*(c.tolist() for c in columns))]
    return estimates, same, scores, ids, comparisons


def _row_scores(
    xs: Sequence[SeriesLike],
    ys: Sequence[SeriesLike],
    n: int,
    stride: int,
    scheme: WeightScheme,
    policies: Optional[Sequence[TiePolicy]] = None,
) -> np.ndarray:
    """Per-window scores of the equally long pairs (xs[k], ys[k]), an (R, W) array.

    Without ``policies`` the pairs run through the tie-aware pipeline,
    with one classical tie policy per pair through the classical one.
    Each chunk of pairs, at 2 * n * length cells a pair, takes one encode
    and one distance call.
    """
    length = series_values(xs[0]).shape[0]
    parts = []
    for part in _kernels.chunks(len(xs), 2 * n * length):
        values = _stacked_values([*xs[part], *ys[part]], n, stride)
        if values.shape[1] != length:
            raise ValueError(f"series length mismatch: {length} vs {values.shape[1]}")
        if policies is None:
            codes, distance = _kernels.encode_windows(values, n, stride), _kernels.df_rows
        else:
            windows = _classical_windows(values, n, stride, policies[part])
            codes, distance = _permutation_codes(windows), _kernels.l1_rows
        half = codes.shape[0] // 2
        parts.append(scheme.weights_for(distance(codes[:half], codes[half:])))
    return np.concatenate(parts)


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
    cx, cy = _stacked_codes([x, y], n, stride)
    indicators = (pattern_keys(cx) == pattern_keys(cy)).astype(np.float64)
    return float(indicators.sum() / indicators.shape[0]), indicators


def comparison_value(x: SeriesLike, y: SeriesLike, n: int, stride: int = 1) -> float:
    """Coincidence probability the pair would have under independence.

    Sum over patterns of the product of the two empirical pattern
    frequencies, computed on the same window grid.
    """
    cx, cy = _stacked_codes([x, y], n, stride)
    _, (x_hist, y_hist), _ = pattern_index(cx, cy)
    return int(x_hist @ y_hist) / (cx.shape[0] * cx.shape[0])


def anti_estimates(x: SeriesLike, y: SeriesLike, n: int, stride: int = 1) -> tuple[float, float]:
    """Coincidence probability and comparison value of x against -y.

    These carry the anti-monotone side of the standardized coefficient.
    The codes of -y follow from those of y: a window's ranks reverse.
    """
    cx, cy = _stacked_codes([x, y], n, stride)
    (x_ids, neg_ids), (x_hist, neg_hist), _ = pattern_index(cx, _negated_codes(cy))
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

    ((p - q)/(1 - q))^+ - ((r - s)/(1 - s))^+ in [-1, 1], for four
    probabilities in [0, 1]; any other input is a ValueError. A degenerate
    marginal (comparison value 1, so every window shows one single
    pattern) makes a term 0/0; that term is defined as 0 with a warning
    since excess dependence is indistinguishable there.
    """
    for name, value in zip(("p_hat", "q_hat", "r_hat", "s_hat"), (p_hat, q_hat, r_hat, s_hat)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    _warn_degenerate(q_hat, s_hat)
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
    scores = _row_scores([x], [y], n, stride, scheme or scheme_for_length(n))[0]
    return float(scores.sum() / scores.shape[0]), scores


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
    codes = _stacked_codes([x, y], n, stride)
    _, hists, patterns = pattern_index(*codes)
    scheme = scheme or scheme_for_length(n)
    total = _score_comparisons(np.stack(hists), patterns, scheme, _kernels.df_rows)
    return float(total[0, 1] / (codes.shape[1] * codes.shape[1]))


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
    codes = _stacked_codes([x, y], n, stride)
    return _estimates_from_codes(
        codes, _negated_codes(codes[1:]), scheme or scheme_for_length(n), stride,
        _kernels.df_rows, _pair_labels(x, y),
    )[0][0]


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
    values: np.ndarray, n: int, stride: int, policies: Sequence[TiePolicy]
) -> np.ndarray:
    """(2R, W, n) windows of R pairs after their tie policies.

    ``values`` stacks the R x series, then the R y series. The policies,
    one per pair, share one kind; "randomize" draws each
    pair's noise from its own seed. "skip" drops the windows with a tie in
    either series, which takes one pair at a time.
    """
    kind = policies[0].kind
    values = values.astype(np.float64)
    pairs = len(policies)
    if kind == "randomize":
        gaps = smallest_gap(values)
        for k, policy in enumerate(policies):
            for row, seed in zip((k, pairs + k), np.random.SeedSequence(policy.seed).spawn(2)):
                values[row] = randomize_values(values[row], seed, gaps[row])
    windows = _kernels.sliding_windows(values, n, stride)
    if kind == "skip":
        if pairs != 1:
            raise ValueError("the skip policy drops windows pair by pair: pass one pair")
        ordered = np.sort(windows, axis=-1)
        keep = np.all(ordered[..., 1:] != ordered[..., :-1], axis=-1).all(axis=0)
        if not keep.any():
            raise ValueError("skip policy removed every window (ties everywhere)")
        windows = windows[:, keep]
    return windows


def _permutation_codes(windows: np.ndarray) -> np.ndarray:
    """int8 descending permutations of (..., n) windows: one table row per Lehmer index."""
    return np.take(permutation_table(windows.shape[-1]), _kernels.permutation_index(windows), axis=0)


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
    windows = _classical_windows(_stacked_values([x, y], n, stride), n, stride, [policy])
    return _estimates_from_codes(
        _permutation_codes(windows), _permutation_codes(-windows[1:]), scheme, stride,
        _kernels.l1_rows, _pair_labels(x, y),
    )[0][0]


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


def _long_run_variances(
    rows: np.ndarray, kernel: str, bandwidth: Optional[float], name: Callable[[int], str] = lambda k: ""
) -> tuple[np.ndarray, float]:
    """``long_run_variance`` of every sequence along the last axis of ``rows``, and the bandwidth.

    Each row takes one dot product per lag, the same in any stack; a warning starts ``name(row)``.
    """
    count = rows.shape[-1]
    if count < 2:
        raise ValueError("need a 1-d sequence of length >= 2")
    check_finite(rows, "sequence")
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; known: {sorted(KERNELS)}")
    if bandwidth is None:
        bandwidth = default_bandwidth(count)
    if not math.isfinite(bandwidth):
        raise ValueError(f"bandwidth must be finite, got {bandwidth}")
    if bandwidth < 1:
        raise ValueError("bandwidth must be >= 1")
    stack = rows.reshape(-1, count)
    max_lag = min(count - 1, int(math.floor(bandwidth)))
    kernel_weights = KERNELS[kernel](np.arange(max_lag + 1) / bandwidth)
    sigma2 = np.empty(stack.shape[0])
    for part in _kernels.chunks(stack.shape[0], 2 * count):  # a float and a centered copy
        block = stack[part].astype(np.float64, copy=False)
        centered = block - block.sum(axis=1, keepdims=True) / count
        acov = np.empty((block.shape[0], max_lag + 1, 1, 1))
        for lag in range(max_lag + 1):
            np.matmul(centered[:, None, : count - lag], centered[:, lag:, None], out=acov[:, lag])
        weighted = acov.reshape(block.shape[0], -1) / count * kernel_weights
        sigma2[part] = weighted[:, 0] + 2.0 * weighted[:, 1:].sum(axis=1)
        sigma2[part][(block == block[:, :1]).all(axis=1)] = 0.0  # constant rows
    for row in np.flatnonzero(sigma2 < 0.0).tolist():
        message = f"{name(row)}long-run variance estimate {sigma2[row]:.3e} is negative; truncated to 0"
        warnings.warn(message, NumericalWarning, stacklevel=3)
        sigma2[row] = 0.0
    return sigma2.reshape(rows.shape[:-1]), float(bandwidth)


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
    if seq.ndim != 1:
        raise ValueError("need a 1-d sequence of length >= 2")
    sigma2, bandwidth = _long_run_variances(seq, kernel, bandwidth)
    return VarianceEstimate(sigma2=float(sigma2), kernel=kernel, bandwidth=bandwidth)


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
    if not (math.isfinite(point) and math.isfinite(sigma2)):
        raise ValueError(f"point {point} and variance {sigma2} must be finite")
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

def block_bootstrap_ci(
    ids: np.ndarray,
    same: np.ndarray,
    block: Optional[int] = None,
    replicates: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Moving-block bootstrap intervals of the comparison value and coefficient of every pair.

    Takes the (2G - 1, W) pattern ids of G series, then of the negated
    series 1..G-1, and the (2K, W) per-window coincidences of the K pairs
    i < j in row-major order (x_i = x_j, then x_i = -x_j). Resamples
    blocks of ``block`` consecutive windows (default
    ``default_bandwidth(W)``) jointly from all of them: Kuensch's
    moving-block bootstrap of the multivariate pattern sequence. One
    generator draws the block starts, which every series shares, so a
    pair gets the intervals a run on that pair alone gives at the same
    seed. A replicate is a vector of window multiplicities (+1 at each
    block start, -1 past each block end, accumulated; the last block is
    cut to fill W windows); its histograms are weighted bincounts, and one
    ``_pair_terms`` call per chunk of replicates gives every pair's
    statistics with the point estimates' formulas. Returns (comparison_ci,
    coefficient_ci), (K, 2) arrays over the pairs i < j in row-major order.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie strictly between 0 and 1")
    if replicates < 2:
        raise ValueError("need at least 2 bootstrap replicates")
    arrays, num_windows = ids.shape
    gauges = (arrays + 1) // 2
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
    first, second = np.triu_indices(gauges, 1)
    same = same.astype(np.float64)
    size = 1 + int(ids.max())
    comparison, coefficient = np.empty((2, replicates, first.shape[0]))
    # a replicate's cells: window multiplicities, histograms, pair statistics
    for part in _kernels.chunks(replicates, num_windows + arrays * size + 3 * gauges * gauges):
        rows = starts[part]
        count = rows.shape[0]
        cells = count * num_windows
        offsets = (np.arange(count) * num_windows)[:, None]
        ends = rows + lengths
        steps = np.bincount((rows + offsets).ravel(), minlength=cells)
        steps -= np.bincount((ends + offsets)[ends < num_windows], minlength=cells)
        weights = np.cumsum(steps.reshape(count, num_windows), axis=1, dtype=np.float64)
        # every count is an integer below 2^53, so the float sums and
        # products are exact in any order
        id_offsets = (np.arange(count) * size)[:, None]
        hists = np.empty((count, arrays, size))
        for a, array_ids in enumerate(ids):
            hists[:, a] = np.bincount(
                (array_ids + id_offsets).ravel(), weights.ravel(), count * size
            ).reshape(count, size)
        rates = weights @ same.T / num_windows
        _, comparison[part], _, _, coefficient[part] = _pair_terms(hists, rates, first, second)
    alpha = 1.0 - level
    quantiles = [alpha / 2.0, 1.0 - alpha / 2.0]
    return (
        np.quantile(comparison, quantiles, axis=0, overwrite_input=True).T,
        np.quantile(coefficient, quantiles, axis=0, overwrite_input=True).T,
    )


# ---------------------------------------------------------------------------
# full reports for every pair
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


def _analyze_pairs(
    series: Sequence[SeriesLike], labels: Sequence[str], n: int, stride: int,
    scheme: WeightScheme, level: float, kernel: str, bandwidth: Optional[float],
    block: Optional[int], replicates: int, seed: int,
) -> tuple[list[DependenceReport], np.ndarray]:
    """Reports for every pair i < j of equally long labelled series, and their score comparisons.

    One encode and one core call estimate all pairs, one bootstrap covers
    them all, and so does one stacked long-run variance per statistic,
    whose warnings name pair and statistic. Returns the reports in row-major
    pair order and the symmetric (G, G) score comparisons, diagonal included.
    """
    codes = _stacked_codes(series, n, stride)
    estimates, same, scores, ids, comparisons = _estimates_from_codes(
        codes, _negated_codes(codes[1:]), scheme, stride, _kernels.df_rows, labels
    )
    q_ci, c_ci = block_bootstrap_ci(ids, same, block, replicates, level, seed)
    pairs = list(combinations(labels, 2))  # row-major, as the core's pairs i < j
    variances = []
    for what, field, rows in (("coincidence", "coincidence", same), ("score", "total_score", scores)):
        sigma2, used = _long_run_variances(
            rows[: len(pairs)], kernel, bandwidth, lambda k: "{}|{} {}: ".format(*pairs[k], what)
        )
        variances.append([
            VarianceEstimate(s2, kernel, used, *confidence_interval(
                getattr(est, field), s2, codes.shape[1], level), level)
            for s2, est in zip(sigma2.tolist(), estimates)
        ])
    return [
        DependenceReport(*pair, scheme.name, est, var_p, var_s, tuple(q), tuple(c), level)
        for pair, est, var_p, var_s, q, c in zip(pairs, estimates, *variances, q_ci.tolist(), c_ci.tolist())
    ], comparisons


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
    ``block`` windows. The two-series case of the all-pairs analysis of
    ``ordpat pairwise``, which gives pair a|b these same intervals at the
    same seed.
    """
    return _analyze_pairs(
        [x, y], _pair_labels(x, y), n, stride, scheme or scheme_for_length(n), level, kernel,
        bandwidth, block, replicates, seed,
    )[0][0]
