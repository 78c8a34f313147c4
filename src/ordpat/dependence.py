"""Ordinal pattern dependence between the series of a gauge set.

The series are cut into simultaneous sliding windows, each window is
encoded as a tie-aware pattern, and the co-movement of every pair is
measured by

* the probability of coincident patterns, benchmarked against the
  comparison value it would have under independence, and
* the total score: the mean metric-weighted similarity of the two
  patterns, which also credits near-misses.

Each point estimate of a pair is a field of one ``DependenceEstimates``
(``dependence_estimates``, ``classical_dependence``). Kernel-weighted
long-run variances of the per-window coincidences and scores
(``analyze_pair``) give asymptotic confidence intervals for the
probability-type estimators; one moving-block bootstrap of the
window pattern sequence covers the comparison value and the
standardized coefficient. The classical tie-handling baselines run the
same pipeline through permutation patterns and the plain L1 metric.
Randomize adds noise to the values before the encode and skip drops the
windows whose int8 rank codes hold a tie: ``classical_dependence`` takes
every policy, ``_score_slices`` all but skip.

One estimator core serves every caller. It takes G equally long series
as one (G, W, n) int8 stack of rank codes and numbers only the series,
with one ``patterns.pattern_index`` call. A pipeline is an alphabet on
the numbered patterns: the identity (tie-aware, compared by
``_kernels.df_rows``) or the descending permutation (classical, the rule
of ``patterns.permutation_table``, compared by ``_kernels.l1_rows``).
A second call numbers the symbols of the patterns and of their negations
in one table, which maps each pattern to both, so the negated series
1..G-1 (x against -y) are never built as windows, nor are the classical
symbols of a series: a block of per-window scores gathers them by id.
All G(G-1)/2 pairs are estimated from the dense symbol ids in one pass
per statistic (``_pair_terms`` also serves each bootstrap replicate, and
one stacked long-run variance every pair); a single pair is the case
G = 2. One bootstrap per call resamples the window blocks of all series
together and moves each series' counts to its negated series through
that map.
Only the int8 codes, the int64 symbol ids, the bool coincidences and the
float64 scores span every window of a long series. The numbering's
temporaries stay within a fixed multiple of the ids, and so do the
bootstrap's, which builds whole replicates under ``_kernels.CELL_BUDGET``
and at least one at a time; the other per-window temporaries are built
in slices under that budget.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from . import _kernels
from .exceptions import NumericalWarning
from .metric import WeightScheme, scheme_for_length
from .patterns import (
    TiePolicy, check_finite, check_integer, check_number, check_real, descending_permutations,
    pattern_index, permutation_table, randomize_values, smallest_gap,
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
        check_real(self.values)

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
    check_real(arr)
    return arr


def series_label(x: SeriesLike, default: str) -> str:
    return x.label if isinstance(x, ClassSeries) and x.label else default


def _pair_labels(x: SeriesLike, y: SeriesLike) -> list[str]:
    return [series_label(x, "x"), series_label(y, "y")]


def _series_list(series: Sequence[SeriesLike], n: int, stride: int) -> list[np.ndarray]:
    """The 1-d values of equally long series that hold at least one window."""
    values = [series_values(v) for v in series]
    for v in values[1:]:
        if v.shape[0] != values[0].shape[0]:
            raise ValueError(f"series length mismatch: {values[0].shape[0]} vs {v.shape[0]}")
    check_integer("n", n)
    check_integer("stride", stride)
    if n < 1:
        raise ValueError("pattern length must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if values[0].shape[0] < n:
        raise ValueError(f"series of length {values[0].shape[0]} is shorter than pattern length {n}")
    return values


def _stacked_codes(series: Sequence[SeriesLike], n: int, stride: int) -> np.ndarray:
    """(G, W, n) rank codes of the windows at step ``stride`` of equally long series.

    Series are encoded in groups under the cell budget, a stacked group
    costing one cell per value; a series too long to share a group is
    encoded as it is, without a copy. The step is a slice of the codes of
    every window: a step s > 1 encodes s times the windows it keeps and
    holds the step-1 codes, still linear in the input.
    """
    values = _series_list(series, n, stride)
    length = values[0].shape[0]
    codes = np.empty((len(values), _kernels.window_count(length, n), n), dtype=np.int8)
    for part in _kernels.chunks(len(values), length):
        group = values[part]
        stack = group[0][None] if len(group) == 1 else np.stack(group)
        _kernels.encode_windows(stack, n, out=codes[part])
    return codes[:, ::stride]


# ---------------------------------------------------------------------------
# estimator core: one (G, W, n) rank-code stack, dense symbol ids, every
# gauge pair at once; shared by the tie-aware and classical pipelines
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pair_indices(gauges: int) -> np.ndarray:
    """The (2, K) series indices (first, second) of the K pairs i < j of G series in row-major order, read-only."""
    pairs = np.stack(np.triu_indices(gauges, 1))
    pairs.flags.writeable = False
    return pairs


def _identity(codes: np.ndarray) -> np.ndarray:
    """The tie-aware alphabet: a rank pattern is its own symbol."""
    return codes


def _negated_codes(codes: np.ndarray) -> np.ndarray:
    """Codes of the negated windows: m + 1 - c, m the window's largest code; int8 stays int8 (m < 16)."""
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


def _symbol_ids(
    codes: np.ndarray, alphabet: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Symbol ids of a (G, W, n) rank-code stack's windows and of its negated series 1..G-1.

    ``pattern_index`` numbers the m patterns of the G series, then the k
    symbols that ``alphabet`` gives those patterns and their negations;
    the second call's (2, m) ids map each pattern to its symbol and to its
    negation's. Returns the (G, W) symbol ids of the series (renumbered in
    place), the (G - 1, W) ids of the negated series 1..G-1 (series 0 is
    never the y of a pair), their (2G - 1, k) histograms (the maps'
    bincounts weighted by the pattern counts), the map and the (k, n) symbols.
    """
    ids, counts, patterns = pattern_index(*codes)
    both = alphabet(np.concatenate((patterns, _negated_codes(patterns))))  # one call for the two tables
    negation, _, symbols = pattern_index(both[: len(patterns)], both[len(patterns) :])
    negated = np.take(negation[1], ids[1:])
    np.take(negation[0], ids, out=ids, mode="clip")  # "clip" writes in place
    hists = np.empty((2 * len(codes) - 1, symbols.shape[0]), dtype=np.int64)
    for row, (hist, weights) in enumerate(zip(hists, [*counts, *counts[1:]])):  # series, then negated
        hist[:] = np.bincount(negation[int(row >= len(codes))], weights, hist.shape[0])  # exact: integers
    return ids, negated, hists, negation, symbols


def _estimates_from_codes(
    codes: np.ndarray,
    alphabet: Callable[[np.ndarray], np.ndarray],
    scheme: WeightScheme,
    stride: int,
    distance: Callable[[np.ndarray, np.ndarray], np.ndarray],
    labels: Sequence[str],
) -> tuple[list["DependenceEstimates"], np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Point estimates of every pair i < j of a (G, W, n) rank-code stack.

    ``alphabet`` maps the numbered (m, n) patterns to symbols: ``_identity``
    (tie-aware) or ``_permutation_codes`` (classical), exact because a
    descending permutation reads only ``>=`` comparisons, which rank codes
    keep. Coincidences come from symbol-id equality (``_symbol_ids``),
    comparison values from H H^T and H H_-^T, score comparisons from
    H S H^T, per-window scores from one aligned distance call per block of
    pairs and windows (``_kernels.blocks``) on their gathered rank codes or
    classical symbols (``np.take`` by id). A degenerate pair warns by ``labels``. Returns
    the estimates of the K pairs in row-major order; their (2K, W)
    coincidences x_i = x_j, then x_i = -x_j; their (K, W) scores; the
    (G, W) symbol ids; the (2, m) negation map; and the symmetric (G, G)
    score comparisons. The first K coincidence rows and the scores feed
    the long-run variances; the ids, the map and all coincidences the bootstrap.
    """
    gauges, num_windows, n = codes.shape
    ids, negated, hists, negation, symbols = _symbol_ids(codes, alphabet)
    first, second = pair_index = _pair_indices(gauges)
    pairs = first.shape[0]
    same = np.empty((2 * pairs, num_windows), dtype=bool)
    # per pair and window: three int64 id copies and two bool results
    for rows, part in _kernels.blocks(pairs, num_windows, 3 + 2 / 8):
        left = ids[first[rows], part]
        np.equal(left, ids[second[rows], part], out=same[rows, part])
        np.equal(left, negated[second[rows] - 1, part], out=same[pairs:][rows, part])
    del negated
    rates = np.count_nonzero(same, axis=1)[None] / num_windows
    terms = [t[0] for t in _pair_terms(hists[None], rates, first, second)]
    for k in (np.maximum(terms[1], terms[3]) >= 1.0).nonzero()[0].tolist():  # q̂ or ŝ is 1
        sides = [side for comp, side in zip((terms[1][k], terms[3][k]), ("monotone", "anti-monotone")) if comp >= 1]
        values = "values are 1, terms" if len(sides) == 2 else "value is 1, term"
        message = f"degenerate marginal: {' and '.join(sides)} comparison {values} set to 0"
        warnings.warn(f"{labels[first[k]]}|{labels[second[k]]}: {message}", NumericalWarning, stacklevel=3)
    comparisons = _score_comparisons(hists[:gauges], symbols, scheme, distance) / num_windows**2
    comparisons[second, first] = comparisons[first, second]  # symmetric as the upper triangle
    scores = np.empty((pairs, num_windows))
    table = None if alphabet is _identity else symbols.astype(np.int8)
    # per pair and window: two int64 id copies and two int8 symbols of a classical table (or two int8
    # code copies), n int8 differences and two more in the sort, the int64 distance, a clipped copy, a weight
    for rows, part in _kernels.blocks(pairs, num_windows, (3 * n + 2) / 8 + 5):
        index = pair_index[:, rows]
        operands = codes[index, part] if table is None else np.take(table, ids[index, part], axis=0)
        scores[rows, part] = scheme.weights_for(distance(*operands))
    columns = (*terms, scores.sum(axis=1) / num_windows, comparisons[first, second])
    estimates = [DependenceEstimates(*v, n, stride, num_windows) for v in zip(*(c.tolist() for c in columns))]
    return estimates, same, scores, ids, negation, comparisons


def _score_slices(
    xs: Sequence[SeriesLike],
    ys: Sequence[SeriesLike],
    n: int,
    stride: int,
    scheme: WeightScheme,
    policies: Optional[Sequence[TiePolicy]] = None,
) -> Iterator[np.ndarray]:
    """Per-window scores of the equally long pairs (xs[k], ys[k]), a (rows, W) array per slice of pairs.

    Without ``policies`` the pairs run through the tie-aware pipeline,
    with one randomize or first_appearance policy per pair through the
    classical one (skip drops windows: ``classical_dependence``). Each
    slice of pairs, at 2 * n * length cells a pair, takes one encode and
    one distance call; the slices come in pair order.
    """
    if policies is not None and any(policy.kind == "skip" for policy in policies):
        raise ValueError("the skip policy drops windows: use classical_dependence")
    series = _series_list([*xs, *ys], n, stride)
    xs, ys = series[: len(xs)], series[len(xs):]
    for part in _kernels.chunks(len(xs), 2 * n * series[0].shape[0]):
        values = np.stack(xs[part] + ys[part])
        if policies is None:
            codes, distance = _kernels.encode_windows(values, n)[:, ::stride], _kernels.df_rows
        else:
            index = _kernels.window_permutation_index(_tie_broken(values, policies[part]), n)[:, ::stride]
            codes, distance = np.take(permutation_table(n), index, axis=0), _kernels.l1_rows
        half = codes.shape[0] // 2
        yield scheme.weights_for(distance(codes[:half], codes[half:]))


# ---------------------------------------------------------------------------
# standardized coefficient of four probability estimates
# ---------------------------------------------------------------------------

def _excess(prob: np.ndarray, comp: np.ndarray) -> np.ndarray:
    # ((prob - comp) / (1 - comp))^+, defined as 0 where comp is 1
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = np.maximum((prob - comp) / (1.0 - comp), 0.0)
    return np.where(comp >= 1.0, 0.0, excess)


def _coefficients(p_hat, q_hat, r_hat, s_hat) -> np.ndarray:
    """Standardized coefficient ((p - q)/(1 - q))^+ - ((r - s)/(1 - s))^+ in [-1, 1], elementwise.

    A degenerate marginal (comparison value 1, every window showing one
    pattern) makes its term 0/0, defined as 0: excess dependence is
    indistinguishable there. The core warns of it, naming the pair.
    """
    p_hat, q_hat, r_hat, s_hat = (
        np.asarray(v, dtype=np.float64) for v in (p_hat, q_hat, r_hat, s_hat)
    )
    return _excess(p_hat, q_hat) - _excess(r_hat, s_hat)


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
    return _estimates_from_codes(
        _stacked_codes([x, y], n, stride), _identity, scheme or scheme_for_length(n), stride,
        _kernels.df_rows, _pair_labels(x, y),
    )[0][0]


# ---------------------------------------------------------------------------
# classical tie-policy baselines
# ---------------------------------------------------------------------------

def _tie_broken(values: np.ndarray, policies: Sequence[TiePolicy]) -> np.ndarray:
    """(2R, length) values of R pairs, x series then y series, after their policies' value step.

    The policies, one per pair, share one kind: "randomize" adds each
    pair's noise, drawn from its own seed, to a float64 copy; any other
    kind returns ``values`` as they are.
    """
    if policies[0].kind != "randomize":
        return values
    values = values.astype(np.float64)
    gaps = smallest_gap(values)
    for k, policy in enumerate(policies):
        for row, seed in zip((k, len(policies) + k), np.random.SeedSequence(policy.seed).spawn(2)):
            values[row] = randomize_values(values[row], seed, gaps[row])
    return values


def _permutation_codes(windows: np.ndarray) -> np.ndarray:
    """int8 descending permutations of (..., n) windows, the rows of ``permutation_table``."""
    return descending_permutations(windows).astype(np.int8)


def classical_dependence(
    x: SeriesLike,
    y: SeriesLike,
    n: int,
    stride: int = 1,
    policy: TiePolicy = TiePolicy.first_appearance(),
) -> DependenceEstimates:
    """The dependence pipeline through classical permutation patterns.

    Windows are encoded as descending-order permutations under the given
    tie policy and compared with the plain L1 metric, whose values on
    permutations are always even, under the classical scheme of n
    (``scheme_for_length(n, classical=True)``, so n is 4 or 6). Under
    "skip", windows containing a tie in either series are dropped from both
    after the encode: a window is tie-free exactly when its largest code is n.
    """
    values = _series_list([x, y], n, stride)
    scheme = scheme_for_length(n, classical=True)
    codes = _kernels.encode_windows(_tie_broken(np.stack(values), [policy]), n)[:, ::stride]
    if policy.kind == "skip":
        keep = (codes.max(axis=-1) == n).all(axis=0)
        if not keep.any():
            raise ValueError("skip policy removed every window (ties everywhere)")
        codes = codes[:, keep]
    return _estimates_from_codes(
        codes, _permutation_codes, scheme, stride, _kernels.l1_rows, _pair_labels(x, y)
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
    """Long-run variance estimate of a per-window sequence and the normal confidence interval it gives."""

    sigma2: float
    kernel: str
    bandwidth: float
    ci_low: float
    ci_high: float
    level: float


def default_bandwidth(count: int) -> int:
    """Default kernel bandwidth: ceil(count ** (1/3))."""
    return int(math.ceil(count ** (1.0 / 3.0)))


def _long_run_variances(
    rows: np.ndarray, kernel: str, bandwidth: Optional[float], name: Callable[[int], str] = lambda k: ""
) -> tuple[np.ndarray, float]:
    """Kernel-weighted long-run variance of every sequence along the last axis of ``rows``, and the bandwidth.

    Each is the centered double sum (1/N) sum_ij k((i-j)/b) d_i d_j, the
    variance of the normalized partial sums, from autocovariances: one dot
    product per lag, the same in any stack. Finite-sample kernel sums can
    dip below zero. The sum of the L + 1 lag terms (L the largest lag) is
    off by up to (L + 1) * eps * g0 from rounding, g0 the lag-0 term, so a
    sum no further below 0 is set to 0; one further below is truncated to
    0 with a warning that starts ``name(row)``.
    """
    count = rows.shape[-1]
    if count < 2:
        raise ValueError("need a 1-d sequence of length >= 2")
    check_finite(rows, "sequence")
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; known: {sorted(KERNELS)}")
    if bandwidth is None:
        bandwidth = default_bandwidth(count)
    check_number("bandwidth", bandwidth)
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
        tolerance = (max_lag + 1) * np.finfo(np.float64).eps * weighted[:, 0]
        rounding = (sigma2[part] < 0.0) & (sigma2[part] >= -tolerance)
        sigma2[part][(block == block[:, :1]).all(axis=1) | rounding] = 0.0  # constant rows, rounding
    for row in np.flatnonzero(sigma2 < 0.0).tolist():
        message = f"{name(row)}long-run variance estimate {sigma2[row]:.3e} is negative; truncated to 0"
        warnings.warn(message, NumericalWarning, stacklevel=3)
        sigma2[row] = 0.0
    return sigma2.reshape(rows.shape[:-1]), float(bandwidth)


def _interval_bounds(
    points: np.ndarray, sigma2: np.ndarray, count: int, level: float
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise point -/+ z * sqrt(sigma2 / count), z computed once, clipped to [0, 1]."""
    half = NormalDist().inv_cdf(0.5 * (1.0 + level)) * np.sqrt(sigma2 / count)
    return np.maximum(points - half, 0.0), np.minimum(points + half, 1.0)


# ---------------------------------------------------------------------------
# moving-block bootstrap
# ---------------------------------------------------------------------------

def _percentiles(stats: np.ndarray, quantiles: Sequence[float]) -> np.ndarray:
    """``np.quantile(stats, quantiles, axis=0)`` of finite (R, K) stats, without ``np.quantile``.

    The first ``np.quantile`` call imports ``numpy.ma`` (about 16 ms and
    1.3 MiB). This is numpy's linear method: the quantile q lies at the
    virtual index (R - 1) * q between the order statistics a and b around
    it, at the fraction t past a, and is a + (b - a) * t, or
    b - (b - a) * (1 - t) where t >= 0.5. One ``partition`` (in place)
    places every a and b. Returns a (len(quantiles), K) array.
    """
    last = stats.shape[0] - 1
    spots = []
    for q in quantiles:
        virtual = last * q
        below = min(math.floor(virtual), last)
        spots.append((below, min(below + 1, last), virtual - below))
    stats.partition(sorted({i for below, above, _ in spots for i in (below, above)}), axis=0)
    rows = []
    for below, above, t in spots:
        low, high = stats[below], stats[above]
        rows.append(high - (high - low) * (1 - t) if t >= 0.5 else low + (high - low) * t)
    return np.stack(rows)


def _window_weights(starts: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """Window multiplicities of replicates of ``width`` windows with these block starts and lengths.

    One weighted bincount, flat over the replicates, puts +1 at each block
    start and -1 at each block end, and one float64 cumsum accumulates them
    in place. Every block ends by window ``width``, so the running total
    is 0 again where an end at ``width`` falls: in the next replicate's
    first cell, whose starts then count from 0, or past the last cell for
    the last replicate. Returns the flat float64 multiplicities, replicate
    by replicate.
    """
    offsets = (np.arange(starts.shape[0]) * width)[:, None]
    index = np.concatenate([(starts + offsets).ravel(), (starts + lengths + offsets).ravel()])
    steps = np.bincount(index, np.repeat([1.0, -1.0], starts.size), starts.shape[0] * width + 1)
    return np.cumsum(steps[:-1], out=steps[:-1])


def block_bootstrap_ci(
    ids: np.ndarray,
    negation: np.ndarray,
    same: np.ndarray,
    block: Optional[int] = None,
    replicates: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Moving-block bootstrap intervals of the comparison value and coefficient of every pair.

    Takes the (G, W) symbol ids of G series, the (2, m) negation map
    (``source``, ``target``) of ``_symbol_ids`` and the (2K, W) per-window
    coincidences of the K pairs i < j in row-major order (x_i = x_j, then
    x_i = -x_j). ``source``, the symbol of each pattern, must be one to
    one, as under the tie-aware alphabet: a negated series' histogram is
    then its series' histogram with bin ``source[k]`` moved to
    ``target[k]``, the symbol of pattern k's negation. Resamples blocks of
    ``block`` consecutive windows (default ``default_bandwidth(W)``)
    jointly from all series: Kuensch's moving-block bootstrap of the
    multivariate pattern sequence. One generator draws the block starts,
    which every series shares, so a pair gets the intervals a run on that
    pair alone gives at the same seed; it draws them a chunk of replicates
    at a time, which gives the same stream as one draw of them all. A
    replicate is a vector of window multiplicities (+1 at each block start,
    -1 past each block end, accumulated; the last block is cut to fill W
    windows), built a chunk of whole replicates at a time, at least one
    per chunk. The series' histograms are weighted bincounts, the
    coincidence rates one matrix product per chunk, and one ``_pair_terms``
    call per chunk gives every pair's statistics with the point estimates'
    formulas. Returns (comparison_ci, coefficient_ci), (K, 2) arrays over
    the pairs i < j in row-major order.
    """
    check_number("level", level)
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie strictly between 0 and 1")
    check_integer("replicates", replicates)
    if replicates < 2:
        raise ValueError("need at least 2 bootstrap replicates")
    check_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    gauges, num_windows = ids.shape
    arrays = 2 * gauges - 1
    if block is None:
        block = default_bandwidth(num_windows)
    check_integer("block", block)
    if not 1 <= block <= num_windows:
        raise ValueError(
            f"bootstrap block must lie in 1..{num_windows} (the number of windows), got {block}"
        )
    rng = np.random.default_rng(seed)
    spans = -(-num_windows // block)
    lengths = np.full(spans, block)
    lengths[-1] = num_windows - block * (spans - 1)
    first, second = _pair_indices(gauges)
    source, target = negation
    size = int(negation.max()) + 1  # every symbol is a pattern's or its negation's
    # every count is an integer of at most W, so the float sums and products
    # are exact in any order, in float32 up to W = 2^24
    same = same.astype(np.float32 if num_windows <= 1 << 24 else np.float64)
    comparison, coefficient = np.empty((2, replicates, first.shape[0]))
    # a replicate's cells: per window its float64 multiplicities, their
    # float32 copy and, in a chunk of several replicates, an int64 bincount
    # index (2.5 cells); its histograms and pair statistics; per block its
    # int64 start and end
    fixed = arrays * size + 3 * gauges * gauges + 2 * spans
    for rows in _kernels.chunks(replicates, 2.5 * num_windows + fixed):
        count = rows.stop - rows.start
        starts = rng.integers(0, num_windows - block + 1, size=(count, spans))
        weights = _window_weights(starts, lengths, num_windows)
        hists = np.zeros((count, arrays, size))
        id_offsets = (np.arange(count) * size)[:, None]
        for a in range(gauges):
            index = ids[a] if count == 1 else (ids[a] + id_offsets).ravel()
            hists[:, a] = np.bincount(index, weights, count * size).reshape(count, size)
        hists[:, gauges:, target] = hists[:, 1:gauges, source]
        hits = weights.astype(same.dtype).reshape(count, num_windows) @ same.T
        del weights  # before the next chunk's temporaries
        _, comparison[rows], _, _, coefficient[rows] = _pair_terms(
            hists, hits.astype(np.float64) / num_windows, first, second  # float64 rates, as in the core
        )
    alpha = 1.0 - level
    quantiles = (alpha / 2.0, 1.0 - alpha / 2.0)
    return _percentiles(comparison, quantiles).T, _percentiles(coefficient, quantiles).T


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
    num_windows = codes.shape[1]
    if num_windows < 2:
        raise ValueError(f"need at least 2 windows, got {num_windows} (n={n}, stride={stride})")
    estimates, same, scores, ids, negation, comparisons = _estimates_from_codes(
        codes, _identity, scheme, stride, _kernels.df_rows, labels
    )
    del codes  # later steps read ids, coincidences and scores
    pairs = [(labels[i], labels[j]) for i, j in _pair_indices(len(labels)).T.tolist()]
    stacked = []  # before the bootstrap, so that a bad bandwidth fails before it runs
    for what, field, rows in (("coincidence", "coincidence", same), ("score", "total_score", scores)):
        stacked.append((field, *_long_run_variances(
            rows[: len(pairs)], kernel, bandwidth, lambda k: "{}|{} {}: ".format(*pairs[k], what)
        )))
    del scores, rows  # the bootstrap reads the ids and the coincidences
    q_ci, c_ci = block_bootstrap_ci(ids, negation, same, block, replicates, level, seed)
    del ids
    variances = []
    for field, sigma2, used in stacked:
        points = np.array([getattr(est, field) for est in estimates])
        low, high = _interval_bounds(points, sigma2, num_windows, level)
        variances.append([
            VarianceEstimate(s2, kernel, used, lo, hi, level)
            for s2, lo, hi in zip(sigma2.tolist(), low.tolist(), high.tolist())
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
