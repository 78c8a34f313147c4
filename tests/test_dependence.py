"""Dependence estimators against naive oracles and known values."""

import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from oracles import (
    oracle_classical_estimates,
    oracle_encode,
    oracle_estimates,
    oracle_first_appearance,
    oracle_l1,
    oracle_long_run_variance,
    oracle_shift_min_l1,
    oracle_windows,
)
from ordpat import _kernels, dependence
from ordpat._kernels import df_rows, encode_windows
from ordpat.cli import run_pairwise
from ordpat.dependence import (
    ClassSeries,
    analyze_pair,
    classical_dependence,
    default_bandwidth,
    dependence_estimates,
)
from ordpat.exceptions import NumericalWarning
from ordpat.metric import CLASSICAL_SHORT, EXACT, GENERALIZED_SHORT, scheme_for_length
from ordpat.patterns import (
    TiePolicy, encode_pattern, encode_permutation, pattern_index, pattern_keys, permutation_table,
    randomize_values,
)
from ordpat.spatial import ClassMatrix


def row_scores(xs, ys, n, stride, scheme, policies=None):
    """Per-window scores of the pairs (xs[k], ys[k]), an (R, W) array: ``_score_slices`` joined."""
    return np.concatenate(list(dependence._score_slices(xs, ys, n, stride, scheme, policies)))


# monotone and constant series have degenerate marginals, which warn
@pytest.mark.filterwarnings("ignore::ordpat.exceptions.NumericalWarning")
class TestCoincidenceProbability:
    def test_identical_series(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 5, size=60)
        est = dependence_estimates(x, x, 4)
        assert est.coincidence == 1.0
        assert est.num_windows == 57

    def test_opposite_monotone(self):
        assert dependence_estimates([1, 2, 3, 4, 5], [5, 4, 3, 2, 1], 2).coincidence == 0.0

    def test_monotone_equivalent_with_ties(self):
        assert dependence_estimates([1, 1, 2, 2], [3, 3, 5, 5], 2).coincidence == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            dependence_estimates([1, 2, 3], [1, 2], 2)

    def test_too_short(self):
        with pytest.raises(ValueError, match="shorter"):
            dependence_estimates([1, 2], [2, 1], 3)


@pytest.mark.filterwarnings("ignore::ordpat.exceptions.NumericalWarning")
class TestComparisonValue:
    def test_constant_series(self):
        x = np.full(30, 7)
        assert dependence_estimates(x, x, 3).comparison == 1.0

    def test_disjoint_supports(self):
        assert dependence_estimates(np.arange(20), -np.arange(20), 2).comparison == 0.0

    def test_matches_bruteforce_on_random_pair(self):
        rng = np.random.default_rng(11)
        x = rng.integers(0, 3, size=500)
        y = rng.integers(0, 3, size=500)
        expected = oracle_estimates(x.tolist(), y.tolist(), 2)["comparison"]
        assert dependence_estimates(x, y, 2).comparison == expected


@pytest.mark.filterwarnings("ignore::ordpat.exceptions.NumericalWarning")
class TestAntiEstimates:
    def test_negated_series(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 5, size=50)
        assert dependence_estimates(x, -x, 3).anti_coincidence == 1.0

    def test_strictly_monotone(self):
        x = np.arange(30)
        assert dependence_estimates(x, x, 2).anti_coincidence == 0.0

    def test_ties_against_bruteforce(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, size=80)
        y = rng.integers(0, 2, size=80)
        ref = oracle_estimates(x.tolist(), y.tolist(), 3)
        est = dependence_estimates(x, y, 3)
        assert est.anti_coincidence == ref["anti_coincidence"]
        assert est.anti_comparison == ref["anti_comparison"]


class TestStandardizedCoefficient:
    def test_arithmetic(self):
        assert dependence._coefficients(0.6, 0.2, 0.1, 0.3) == pytest.approx(0.5)

    def test_self_dependence(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 5, size=100)
        est = dependence_estimates(x, x, 3)
        assert est.comparison < 1.0
        # the monotone term alone is 1; the anti side is clipped at 0
        assert (est.coincidence - est.comparison) / (1 - est.comparison) == 1.0

    def test_degenerate_marginal_warns(self):
        # a constant series shows one pattern, as does its negation: both terms are 0/0
        message = r"^x\|y: degenerate marginal: monotone and anti-monotone comparison values are 1, terms set to 0$"
        with pytest.warns(NumericalWarning, match=message):
            est = dependence_estimates(np.full(10, 2), np.full(10, 3), 3)
        assert (est.comparison, est.anti_comparison, est.coefficient) == (1.0, 1.0, 0.0)
        assert dependence._coefficients(1.0, 1.0, 0.0, 0.5) == 0.0

    def test_degenerate_pair_warning_names_the_pair(self):
        # x rises in every window and y falls: only the anti-monotone side is degenerate
        message = r"^up\|y: degenerate marginal: anti-monotone comparison value is 1, term set to 0$"
        with pytest.warns(NumericalWarning, match=message) as caught:
            est = dependence_estimates(ClassSeries(np.arange(10), "up"), -np.arange(10), 2)
        assert len(caught) == 1
        assert (est.anti_comparison, est.coefficient) == (1.0, 0.0)

    def test_independent_series_near_zero(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 3, size=10_000)
        y = rng.integers(0, 3, size=10_000)
        est = dependence_estimates(x, y, 3)
        assert abs(est.coefficient) < 0.05


class TestTotalScore:
    def test_identical_series(self):
        rng = np.random.default_rng(6)
        x = rng.integers(0, 4, size=40)
        assert dependence_estimates(x, x, 4).total_score == 1.0
        assert np.all(row_scores([x], [x], 4, 1, scheme_for_length(4)) == 1.0)

    def test_constant_against_blip_series(self):
        # y has runs long enough for some constant windows, so scores mix
        x = np.full(24, 5)
        y = np.array([5, 5, 5, 4, 5, 5, 5, 5] * 3)
        value = dependence_estimates(x, y, 4, scheme=GENERALIZED_SHORT).total_score
        assert set(np.unique(row_scores([x], [y], 4, 1, GENERALIZED_SHORT))) == {0.5, 1.0}
        assert 0.5 < value <= 1.0

    @pytest.mark.filterwarnings("ignore::ordpat.exceptions.NumericalWarning")
    def test_disjoint_structures_score_zero(self):
        x = np.arange(30)
        value = dependence_estimates(x, -x, 4, scheme=GENERALIZED_SHORT).total_score
        assert value == 0.0 and np.all(row_scores([x], [-x], 4, 1, GENERALIZED_SHORT) == 0.0)

    def test_exact_scheme_recovers_coincidence(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 3, size=200)
        y = rng.integers(0, 3, size=200)
        est = dependence_estimates(x, y, 3, scheme=EXACT)
        assert est.total_score == est.coincidence


class TestScoreComparison:
    @pytest.mark.filterwarnings("ignore::ordpat.exceptions.NumericalWarning")
    def test_constant_series(self):
        x = np.full(20, 2)
        assert dependence_estimates(x, x, 3).score_comparison == 1.0

    def test_exact_scheme_recovers_comparison(self):
        rng = np.random.default_rng(8)
        x = rng.integers(0, 4, size=300)
        y = rng.integers(0, 4, size=300)
        est = dependence_estimates(x, y, 3, scheme=EXACT)
        assert est.score_comparison == est.comparison

    def test_against_permutation_resampling(self):
        # independence-hypothesis score == expected score of randomly
        # re-paired windows; Monte-Carlo re-pairing is the oracle
        rng = np.random.default_rng(9)
        x = rng.integers(0, 3, size=400)
        y = rng.integers(0, 3, size=400)
        value = dependence_estimates(x, y, 4, scheme=GENERALIZED_SHORT).score_comparison
        from ordpat._kernels import df_rows, encode_windows

        cx = encode_windows(x, 4, 1)
        cy = encode_windows(y, 4, 1)
        draws = 400_000
        ix = rng.integers(0, len(cx), size=draws)
        iy = rng.integers(0, len(cy), size=draws)
        mc = GENERALIZED_SHORT.weights_for(df_rows(cx[ix], cy[iy])).mean()
        assert abs(value - mc) < 0.01

    @pytest.mark.parametrize("n", [4, 6])
    def test_slicing_does_not_change_the_value(self, n, monkeypatch):
        rng = np.random.default_rng(12 + n)
        x = rng.integers(0, 5, size=600)
        y = rng.integers(0, 5, size=600)
        whole = dependence_estimates(x, y, n).score_comparison
        classical = classical_dependence(x, y, n).score_comparison
        # a few cells: one distinct x-pattern per distance table
        monkeypatch.setattr(_kernels, "CELL_BUDGET", 5)
        assert dependence_estimates(x, y, n).score_comparison == whole
        assert classical_dependence(x, y, n).score_comparison == classical


class TestOracleEquivalence:
    # degenerate marginals (all-equal patterns) are expected in exhaustive runs
    @pytest.mark.filterwarnings("ignore::ordpat.exceptions.NumericalWarning")
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_short_pairs(self, n):
        import itertools

        for x in itertools.product((0, 1, 2), repeat=4):
            for y in itertools.product((0, 1), repeat=4):
                ref = oracle_estimates(x, y, n, weights=dict(GENERALIZED_SHORT.mapping))
                est = dependence_estimates(np.array(x), np.array(y), n)
                assert est.coincidence == ref["coincidence"]
                assert est.comparison == ref["comparison"]
                assert est.anti_coincidence == ref["anti_coincidence"]
                assert est.anti_comparison == ref["anti_comparison"]
                assert est.total_score == ref["total_score"]

    @pytest.mark.filterwarnings("ignore::ordpat.exceptions.NumericalWarning")
    @pytest.mark.parametrize("stride", [1, 3])
    def test_random_longer_pairs(self, stride):
        rng = np.random.default_rng(10)
        for _ in range(60):
            size = int(rng.integers(6, 13))
            x = rng.integers(0, 3, size=size)
            y = rng.integers(0, 3, size=size)
            ref = oracle_estimates(
                x.tolist(), y.tolist(), 3, stride, weights=dict(GENERALIZED_SHORT.mapping)
            )
            est = dependence_estimates(x, y, 3, stride)
            assert est.coincidence == ref["coincidence"]
            assert est.comparison == ref["comparison"]
            assert est.total_score == ref["total_score"]


class TestInvariances:
    def test_monotone_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            x = rng.integers(0, 5, size=80)
            y = rng.integers(0, 5, size=80)
            gaps = rng.uniform(0.5, 2.0, size=8)
            table = np.concatenate([[0.0], np.cumsum(gaps)])
            a = dependence_estimates(x, y, 3)
            b = dependence_estimates(table[x], table[y], 3)
            assert a == b

    def test_symmetry(self):
        rng = np.random.default_rng(14)
        x = rng.integers(0, 4, size=150)
        y = rng.integers(0, 4, size=150)
        a = dependence_estimates(x, y, 4)
        b = dependence_estimates(y, x, 4)
        assert a.coincidence == b.coincidence
        assert a.comparison == b.comparison
        assert a.total_score == b.total_score

    def test_ranges(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            x = rng.integers(0, 3, size=50)
            y = rng.integers(0, 3, size=50)
            est = dependence_estimates(x, y, 3)
            for value in (est.coincidence, est.comparison, est.anti_coincidence,
                          est.anti_comparison, est.total_score, est.score_comparison):
                assert 0.0 <= value <= 1.0
            assert -1.0 <= est.coefficient <= 1.0
            # near-misses only ever add to the exact coincidences
            assert est.total_score >= est.coincidence


def dot_product_long_run_variance(seq, kernel, bandwidth):
    """The 1-d estimator lag by lag: one 1-d dot product of the centered sequence per lag."""
    count = seq.shape[0]
    bandwidth = bandwidth or default_bandwidth(count)
    if np.all(seq == seq[0]):
        return 0.0
    centered = seq - seq.mean()
    lags = np.arange(min(count - 1, int(bandwidth)) + 1)
    weights = dependence.KERNELS[kernel](lags / bandwidth)
    acov = np.array([centered[: count - lag] @ centered[lag:] / count for lag in lags])
    return max(float(acov[0] * weights[0] + 2.0 * (weights[1:] * acov[1:]).sum()), 0.0)


class TestLongRunVariance:
    def test_matches_literal_double_sum(self):
        def parzen(u):
            u = abs(u)
            if u <= 0.5:
                return 1.0 - 6.0 * u**2 + 6.0 * u**3
            return 2.0 * (1.0 - u) ** 3 if u <= 1.0 else 0.0

        rng = np.random.default_rng(16)
        values = rng.normal(size=150)
        for kernel_name, kernel in (
            ("bartlett", lambda u: max(0.0, 1.0 - abs(u))),
            ("truncated", lambda u: 1.0 if abs(u) <= 1 else 0.0),
            ("parzen", parzen),
        ):
            sigma2 = dependence._long_run_variances(values, kernel_name, 6)[0]
            ref = oracle_long_run_variance(values.tolist(), kernel, 6)
            assert sigma2 == pytest.approx(ref, rel=1e-12)

    def test_constant_sequence_is_zero(self):
        assert dependence._long_run_variances(np.full(100, 0.4), "bartlett", None)[0] == 0.0

    def test_iid_bernoulli_close_to_closed_form(self):
        rng = np.random.default_rng(17)
        values = (rng.random(10_000) < 0.3).astype(float)
        sigma2 = dependence._long_run_variances(values, "bartlett", None)[0]  # bandwidth ceil(N^(1/3))
        assert sigma2 == pytest.approx(0.21, rel=0.15)

    def test_autocorrelated_matches_batch_means(self):
        # AR(1)-driven indicators; batch-means is the independent oracle
        rng = np.random.default_rng(18)
        size, batches = 40_000, 50
        z = np.empty(size)
        z[0] = rng.normal()
        for t in range(1, size):
            z[t] = 0.6 * z[t - 1] + rng.normal()
        indicators = (z > 0).astype(float)
        sigma2 = dependence._long_run_variances(indicators, "bartlett", None)[0]
        batch = size // batches
        means = indicators[: batch * batches].reshape(batches, batch).mean(axis=1)
        batch_means_var = batch * means.var(ddof=1)
        assert sigma2 == pytest.approx(batch_means_var, rel=0.25)

    def test_negative_truncation_warns(self):
        # the truncated kernel is not positive semi-definite; alternating
        # signs drive the lag-1 term below -gamma(0)
        values = np.array([1.0, -1.0] * 30)
        message = r"^long-run variance estimate -9\.667e-01 is negative; truncated to 0$"
        with pytest.warns(NumericalWarning, match=message):
            sigma2 = dependence._long_run_variances(values, "truncated", 1)[0]
        assert sigma2 == 0.0

    def test_rounding_level_sums_are_zero_without_a_warning(self):
        # far past the last lag every kernel weight is 1, so each sum is (1/N) (sum of the
        # centered sequence)^2, 0 in exact arithmetic; the pairs of this flood-like matrix
        # give 30 float sums down to -9.7e-16, which warned before sums within rounding were 0
        rng = np.random.default_rng(7)
        base = rng.choice(6, p=[0.1, 0.45, 0.2, 0.12, 0.08, 0.05], size=300) - 1
        classes = np.clip(base[:, None] + rng.choice([-1, 0, 1], p=[0.2, 0.6, 0.2], size=(300, 8)), -1, 4)
        matrix = ClassMatrix(classes, tuple(f"g{i}" for i in range(8)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, reports = run_pairwise(matrix, kernel="parzen", bandwidth=1e300, replicates=2)
        sigma2 = [v.sigma2 for r in reports for v in (r.coincidence_variance, r.score_variance)]
        assert min(sigma2) == 0.0 and max(sigma2) < 1e-15

    @pytest.mark.parametrize("kernel", sorted(dependence.KERNELS))
    @pytest.mark.parametrize("bandwidth", [None, 1, 2.5, "past W"])
    @pytest.mark.parametrize("length", [2, 37])
    def test_stack_matches_one_row_calls(self, kernel, bandwidth, length, monkeypatch):
        # three rows a chunk, so chunk boundaries fall inside the stack
        monkeypatch.setattr(_kernels, "CELL_BUDGET", 3 * 2 * length)
        if bandwidth == "past W":
            bandwidth = length + 3
        rng = np.random.default_rng(20 + length)
        rows = np.concatenate([
            (rng.random((4, length)) < 0.4).astype(np.float64),  # coincidence indicators
            rng.integers(0, 5, size=(3, length)) / 4,  # dyadic scores
            rng.normal(size=(4, length)),
            np.full((2, length), 0.3),  # constant rows
            np.array([1.0, -1.0] * length)[None, :length],  # negative under "truncated"
        ])
        with warnings.catch_warnings(record=True) as stacked:
            warnings.simplefilter("always")
            sigma2, used = dependence._long_run_variances(rows, kernel, bandwidth)
            nested, _ = dependence._long_run_variances(rows.reshape(2, 7, length), kernel, bandwidth)
        with warnings.catch_warnings(record=True) as single:
            warnings.simplefilter("always")
            expected = [dependence._long_run_variances(row, kernel, bandwidth) for row in rows]
        assert sigma2.tobytes() == np.array([float(e[0]) for e in expected]).tobytes()
        reference = [dot_product_long_run_variance(row, kernel, bandwidth) for row in rows]
        assert sigma2.tobytes() == np.array(reference).tobytes()
        assert {used} == {e[1] for e in expected}
        assert [str(w.message) for w in stacked] == 2 * [str(w.message) for w in single]
        assert nested.shape == (2, 7) and nested.tobytes() == sigma2.tobytes()

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError, match="length >= 2"):
            dependence._long_run_variances(np.array([1.0]), "bartlett", None)
        with pytest.raises(ValueError, match="unknown kernel 'box'"):
            dependence._long_run_variances(np.ones(10), "box", None)
        with pytest.raises(ValueError, match="bandwidth must be >= 1"):
            dependence._long_run_variances(np.ones(10), "bartlett", 0.2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sequence_rejected(self, bad):
        values = np.arange(10.0)
        values[3] = bad
        with pytest.raises(ValueError, match="sequence value at index 3 is not finite"):
            dependence._long_run_variances(values, "bartlett", None)

    @pytest.mark.parametrize("bandwidth", [np.inf, -np.inf, np.nan])
    def test_non_finite_bandwidth_rejected(self, bandwidth):
        for values in (np.ones(10), np.arange(10.0)):
            with pytest.raises(ValueError, match="bandwidth must be finite"):
                dependence._long_run_variances(values, "bartlett", bandwidth)


class TestConfidenceInterval:
    def test_degenerate_variance(self):
        assert dependence._interval_bounds(0.4, 0.0, 100, 0.95) == (0.4, 0.4)

    def test_known_normal_quantile(self):
        low, high = dependence._interval_bounds(0.5, 0.25, 100, 0.95)
        assert low == pytest.approx(0.402, abs=5e-4)
        assert high == pytest.approx(0.598, abs=5e-4)

    def test_clipping(self):
        low, high = dependence._interval_bounds(0.02, 1.0, 10, 0.95)
        assert low == 0.0 and high <= 1.0
        low, high = dependence._interval_bounds(0.98, 1.0, 10, 0.95)
        assert low >= 0.0 and high == 1.0

    def test_invalid_level(self):
        x = np.arange(40) % 5
        with pytest.raises(ValueError, match="confidence level must lie strictly between 0 and 1"):
            analyze_pair(x, x[::-1], 3, replicates=5, level=1.0)

    @pytest.mark.parametrize("clips", [True, False])
    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99])
    def test_vectorized_bounds_match_scalar_arithmetic(self, level, clips):
        # the scalar formula in Python floats, clipped with max/min. With
        # ``clips``, points near 0 and 1 with large variances clip on both
        # sides; without, small variances around 1/2 leave every bound as
        # the formula gives it
        rng = np.random.default_rng(int(level * 100))
        if clips:
            points = np.concatenate([rng.uniform(0, 1, 200), [0.0, 1.0, 0.001, 0.999, 0.5]])
            sigma2 = np.concatenate([rng.uniform(0, 3, 200), [0.0, 0.0, 2.0, 2.0, 40.0]])
        else:
            points, sigma2 = rng.uniform(0.3, 0.7, 200), rng.uniform(0, 0.5, 200)
        z = NormalDist().inv_cdf(0.5 * (1.0 + level))
        raw = []
        for point, s2 in zip(points.tolist(), sigma2.tolist()):
            half = z * math.sqrt(s2 / 37)
            raw.append((point - half, point + half))
        outside = any(low < 0.0 for low, _ in raw) and any(high > 1.0 for _, high in raw)
        inside = all(0.0 <= low and high <= 1.0 for low, high in raw)
        assert outside if clips else inside
        expected = [(max(low, 0.0), min(high, 1.0)) for low, high in raw]
        low, high = dependence._interval_bounds(points, sigma2, 37, level)
        assert list(zip(low.tolist(), high.tolist())) == expected

    def test_report_intervals_are_confidence_intervals(self):
        rng = np.random.default_rng(26)
        base = rng.integers(0, 3, size=150)
        x, y = (np.clip(base + rng.integers(-1, 2, size=150), 0, 4) for _ in range(2))
        report = analyze_pair(x, y, 3, replicates=20, level=0.9)
        est = report.estimates
        for var, point in ((report.coincidence_variance, est.coincidence),
                           (report.score_variance, est.total_score)):
            expected = dependence._interval_bounds(point, var.sigma2, est.num_windows, 0.9)
            assert (var.ci_low, var.ci_high) == expected


class TestClassicalBaselines:
    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_rejected(self, stride):
        x, y = np.arange(20.0), np.arange(20.0)[::-1]
        with pytest.raises(ValueError, match="stride must be >= 1"):
            classical_dependence(x, y, 4, stride=stride)
        policy = TiePolicy.first_appearance()
        with pytest.raises(ValueError, match="stride must be >= 1"):
            row_scores([x], [y], 4, stride, CLASSICAL_SHORT, [policy])

    def test_tie_free_pair_matches_generalized(self):
        rng = np.random.default_rng(19)
        x = rng.permutation(200)
        y = (x + rng.normal(scale=20, size=200)).round(3)  # ties impossible
        generalized = dependence_estimates(x, y, 4)
        for policy in (TiePolicy.skip(), TiePolicy.first_appearance(), TiePolicy.randomize(1)):
            classical = classical_dependence(x, y, 4, policy=policy)
            assert classical.num_windows == generalized.num_windows
            assert classical.coincidence == generalized.coincidence
            assert classical.comparison == generalized.comparison
            assert classical.anti_coincidence == generalized.anti_coincidence
            assert classical.anti_comparison == generalized.anti_comparison
            assert classical.coefficient == generalized.coefficient

    def test_policies_agree_without_ties(self):
        rng = np.random.default_rng(20)
        x = rng.permutation(100)
        y = rng.permutation(100)
        results = [
            classical_dependence(x, y, 4, policy=p)
            for p in (TiePolicy.skip(), TiePolicy.first_appearance(), TiePolicy.randomize(2))
        ]
        assert results[0] == results[1] == results[2]

    def test_randomize_breaks_tied_comovement(self):
        rng = np.random.default_rng(21)
        x = rng.integers(0, 3, size=300)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericalWarning)
            est = classical_dependence(x, x, 4, policy=TiePolicy.randomize(3))
        assert est.total_score < 1.0
        assert dependence_estimates(x, x, 4).total_score == 1.0

    def test_first_appearance_on_constant_series(self):
        x = np.full(40, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericalWarning)
            est = classical_dependence(x, x, 4, policy=TiePolicy.first_appearance())
        assert est.coincidence == 1.0 and est.total_score == 1.0

    @pytest.mark.filterwarnings("ignore::ordpat.exceptions.NumericalWarning")
    def test_skip_drops_tied_windows_jointly(self):
        x = np.array([1, 2, 3, 4, 4, 5, 6, 7, 8])  # one tied pair
        y = np.arange(9)
        est = classical_dependence(x, y, 4, policy=TiePolicy.skip())
        # the three windows containing both tied values are dropped
        assert est.num_windows == 3
        assert est.coincidence == 1.0

    def test_skip_everything_tied_rejected(self):
        x = np.full(20, 1)
        with pytest.raises(ValueError, match="every window"):
            classical_dependence(x, x, 4, policy=TiePolicy.skip())

    def test_scheme_length_pairing_enforced(self):
        x = np.arange(20)
        with pytest.raises(ValueError, match=r"classical weight schemes exist only for n in \(4, 6\), got n=5"):
            classical_dependence(x, x, 5, policy=TiePolicy.first_appearance())

    def test_classical_distances_even(self):
        rng = np.random.default_rng(22)
        x = rng.integers(0, 3, size=100)
        y = rng.integers(0, 3, size=100)
        from numpy.lib.stride_tricks import sliding_window_view

        from ordpat._kernels import l1_rows
        from ordpat.patterns import descending_permutations

        perms_x = descending_permutations(sliding_window_view(x.astype(float), 4))
        perms_y = descending_permutations(sliding_window_view(y.astype(float), 4))
        assert np.all(l1_rows(perms_x, perms_y) % 2 == 0)


def explicit_score_comparison(a, b, distance, weights):
    """Score comparison of two pattern lists, summed over distinct pattern pairs."""
    count_a, count_b = Counter(a), Counter(b)
    total = sum(
        m * k * weights.get(distance(t, u), 0.0)
        for t, m in count_a.items()
        for u, k in count_b.items()
    )
    return total / (len(a) * len(b))


ORACLE_FIELDS = ("coincidence", "comparison", "anti_coincidence", "anti_comparison", "total_score")


class TestIdCore:
    """The estimator core on dense pattern ids, with score tables a few cells big."""

    @pytest.mark.filterwarnings("ignore::ordpat.exceptions.NumericalWarning")
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("stride", [1, 2])
    def test_estimates_match_oracle(self, n, stride, monkeypatch):
        # one x pattern per score-table slice
        monkeypatch.setattr(_kernels, "CELL_BUDGET", 3)
        rng = np.random.default_rng(100 + 10 * n + stride)
        base = rng.integers(0, 4, size=70)
        x = np.clip(base + rng.integers(-1, 2, size=70), 0, 4)
        y = np.clip(base + rng.integers(-1, 2, size=70), 0, 4)
        weights = dict(scheme_for_length(n).mapping)
        expected = oracle_estimates(x.tolist(), y.tolist(), n, stride, weights)
        patterns = [
            [oracle_encode(w) for w in oracle_windows(v.tolist(), n, stride)] for v in (x, y)
        ]
        score_comparison = explicit_score_comparison(*patterns, oracle_shift_min_l1, weights)
        estimates = dependence_estimates(x, y, n, stride)
        report = analyze_pair(x, y, n, stride, replicates=4, seed=n)
        for got in (estimates, report.estimates):
            assert {f: getattr(got, f) for f in ORACLE_FIELDS} == expected
            assert got.score_comparison == score_comparison
            # plain floats, so printed and repr'd results do not change form
            assert {type(getattr(got, f)) for f in (*ORACLE_FIELDS, "score_comparison")} == {float}

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_classical_matches_oracle_on_tie_free_series(self, n, stride, monkeypatch):
        # without ties a permutation pattern and a rank pattern determine
        # each other, so the probability-type estimates are the oracle's
        monkeypatch.setattr(_kernels, "CELL_BUDGET", 3)
        rng = np.random.default_rng(60 + n + stride)
        x = rng.permutation(90).astype(np.float64)
        y = np.argsort(np.argsort(x + rng.integers(0, 30, size=90))).astype(np.float64)
        expected = oracle_estimates(x.tolist(), y.tolist(), n, stride)
        scheme = scheme_for_length(n, classical=True)
        patterns = [
            [oracle_first_appearance(w) for w in oracle_windows(v.tolist(), n, stride)] for v in (x, y)
        ]
        score_comparison = explicit_score_comparison(*patterns, oracle_l1, dict(scheme.mapping))
        # skip drops no window of tie-free series, so it scores as first-appearance
        scores = row_scores([x], [y], n, stride, scheme, [TiePolicy.first_appearance()])[0]
        for policy in (TiePolicy.first_appearance(), TiePolicy.skip()):
            got = classical_dependence(x, y, n, stride, policy)
            assert {f: getattr(got, f) for f in ORACLE_FIELDS[:4]} == {
                f: expected[f] for f in ORACLE_FIELDS[:4]
            }
            assert got.total_score == scores.sum() / scores.shape[0]
            assert got.score_comparison == score_comparison

    @pytest.mark.parametrize("classes", [3, 4, 5])
    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_classical_matches_oracle_on_tied_series(self, classes, n, stride):
        # ties make the anti side differ from the rank pipeline's: the
        # first-appearance pattern of -y breaks its ties by position again
        rng = np.random.default_rng(100 * classes + 10 * n + stride)
        x = rng.integers(0, classes, size=600)
        y = np.where(rng.random(600) < 0.6, x, rng.integers(0, classes, size=600))
        scheme = scheme_for_length(n, classical=True)
        fields = (*ORACLE_FIELDS, "score_comparison")
        for policy in (TiePolicy.first_appearance(), TiePolicy.skip()):
            skip = policy.kind == "skip"
            if skip and classes < n:  # every window holds a tie
                with pytest.raises(ValueError, match="skip policy removed every window"):
                    classical_dependence(x, y, n, stride, policy)
                continue
            expected = oracle_classical_estimates(x.tolist(), y.tolist(), n, stride, dict(scheme.mapping), skip)
            got = classical_dependence(x, y, n, stride, policy)
            assert {f: getattr(got, f) for f in fields} == expected
            assert got.coefficient == dependence._coefficients(*(expected[f] for f in fields[:4]))

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    # 1: one pair per distance call
    @pytest.mark.parametrize("cells", [None, 1, 3, 4096])
    def test_window_scores_equal_row_kernel(self, n, cells, monkeypatch):
        if cells is not None:
            monkeypatch.setattr(_kernels, "CELL_BUDGET", cells)
        rng = np.random.default_rng(70 + n)
        x = rng.integers(0, 5, size=400)
        y = rng.integers(0, 5, size=400)
        cx, cy = encode_windows(x, n), encode_windows(y, n)
        scheme = scheme_for_length(n)
        _, _, (scores,), _, _, _ = dependence._estimates_from_codes(
            np.stack([cx, cy]), dependence._identity, scheme, 1, df_rows, "xy"
        )
        expected = scheme.weights_for(df_rows(cx, cy))
        assert scores.dtype == expected.dtype
        assert scores.tobytes() == expected.tobytes()
        assert row_scores([x], [y], n, 1, scheme)[0].tobytes() == expected.tobytes()
        # G = 4: every pair of the stack gets the scores of its own kernel call
        codes = encode_windows(np.stack([x, y, rng.integers(0, 5, size=400), (x + y) % 5]), n)
        _, _, scores, _, _, _ = dependence._estimates_from_codes(
            codes, dependence._identity, scheme, 1, df_rows, "abcd"
        )
        pairs = zip(*dependence._pair_indices(4))
        expected = np.stack([scheme.weights_for(df_rows(codes[i], codes[j])) for i, j in pairs])
        assert scores.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_pair_terms_are_the_estimates(self, dtype):
        # unit multiplicities: the bootstrap's formulas on the original windows
        rng = np.random.default_rng(85)
        base = rng.integers(0, 4, size=90)
        series = [np.clip(base + rng.integers(-1, 2, size=90), 0, 4) for _ in range(5)]
        codes = encode_windows(np.stack(series), 4)
        ids, hists, _ = pattern_index(*codes, *dependence._negated_codes(codes[1:]))
        hists = hists.astype(dtype)
        first, second = np.triu_indices(5, 1)
        same = np.concatenate([ids[first] == ids[second], ids[first] == ids[5 + second - 1]])
        num_windows = codes.shape[1]
        rates = np.ones((1, num_windows), dtype) @ same.T.astype(dtype) / num_windows
        terms = dependence._pair_terms(hists[None], rates, first, second)
        assert {t.shape for t in terms} == {(1, 10)}
        for k, (i, j) in enumerate(zip(first.tolist(), second.tolist())):
            est = dependence_estimates(series[i], series[j], 4)
            assert [float(t[0, k]) for t in terms] == [
                est.coincidence, est.comparison, est.anti_coincidence, est.anti_comparison,
                est.coefficient,
            ]

    def test_long_n6_estimates_stay_under_memory_budget(self, traced_peak):
        # the whole 3962 x 3960 float64 score table alone would take ~125 MB
        rng = np.random.default_rng(80)
        x = rng.integers(0, 5, size=100_000)
        y = rng.integers(0, 5, size=100_000)
        _, peak = traced_peak(lambda: dependence_estimates(x, y, 6))
        assert peak < 64 * 2**20

    def test_long_n4_estimates_keep_codes_narrow(self, traced_peak):
        # one (2, W, 4) int64 code stack is 6.1 MiB and its negated copy 3 MiB
        # more; int8 codes take an eighth of that
        rng = np.random.default_rng(81)
        x, y = rng.poisson(4.0, size=(2, 100_000))
        _, peak = traced_peak(lambda: dependence_estimates(x, y, 4))
        assert peak < 10 * 2**20


class TestAnalyzePair:
    def test_report_shape(self):
        rng = np.random.default_rng(25)
        base = rng.integers(0, 3, size=200)
        x = ClassSeries(np.clip(base + rng.integers(-1, 2, size=200), 0, 4), "up")
        y = ClassSeries(np.clip(base + rng.integers(-1, 2, size=200), 0, 4), "down")
        report = analyze_pair(x, y, 4, replicates=50, seed=1)
        assert report.label_x == "up" and report.label_y == "down"
        est = report.estimates
        var = report.coincidence_variance
        assert var.ci_low <= est.coincidence <= var.ci_high
        assert report.score_variance.ci_low <= est.total_score <= report.score_variance.ci_high
        assert report.comparison_ci[0] <= report.comparison_ci[1]
        assert report.level == 0.95

    def test_one_window_rejected_naming_count_length_and_stride(self):
        x, y = np.arange(6), np.arange(6)[::-1]
        with pytest.raises(ValueError, match=r"need at least 2 windows, got 1 \(n=6, stride=1\)"):
            analyze_pair(x, y, n=len(x))
        with pytest.raises(ValueError, match=r"got 1 \(n=2, stride=5\)"):
            analyze_pair(x, y, n=2, stride=5)

    def test_bad_bandwidth_fails_before_the_bootstrap(self, monkeypatch):
        def bootstrap(*args, **kwargs):
            raise AssertionError("the bootstrap ran")

        monkeypatch.setattr(dependence, "block_bootstrap_ci", bootstrap)
        rng = np.random.default_rng(26)
        x, y = rng.integers(0, 4, size=(2, 60))
        # the bandwidth error comes first, also when the block is bad too
        for block in (None, 0):
            with pytest.raises(ValueError, match="bandwidth must be >= 1"):
                analyze_pair(x, y, 4, bandwidth=0.5, block=block)

    @pytest.mark.parametrize("argument,value", [
        ("bandwidth", True), ("bandwidth", "3"), ("level", True), ("level", "0.9"),
    ])
    def test_non_real_bandwidth_or_level_rejected(self, argument, value):
        x = np.arange(60) % 5
        with pytest.raises(ValueError, match=f"^{argument} must be a real number, got {value!r}$"):
            analyze_pair(x, x[::-1], 4, replicates=5, **{argument: value})


class TestClassicalTotalScore:
    """The classical total score from ``_score_slices`` alone is the full pipeline's."""

    @pytest.mark.parametrize("n", [4, 6])
    def test_equals_full_pipeline(self, n):
        rng = np.random.default_rng(31)
        x = rng.integers(0, 12, size=150)
        y = rng.integers(0, 12, size=150)
        scheme = scheme_for_length(n, classical=True)
        for policy in (TiePolicy.first_appearance(), TiePolicy.randomize(4)):
            scores = row_scores([x], [y], n, 1, scheme, [policy])[0]
            full = classical_dependence(x, y, n, 1, policy)
            assert scores.sum() / scores.shape[0] == full.total_score


class TestClassicalRowScores:
    def test_randomized_noise_drawn_per_series(self):
        # each series keeps its own generator and its own smallest gap
        rng = np.random.default_rng(33)
        scales = np.array([1.0, 0.5, 1.0, 3.0, 0.25, 2.0])[:, None]
        values = rng.integers(0, 4, size=(6, 50)) * scales
        values[2] = 5.0
        policies = [TiePolicy.randomize(s) for s in (3, 8, 21)]
        noisy = dependence._tie_broken(values, policies)
        expected = values.copy()
        for k, policy in enumerate(policies):
            for row, child in zip((k, 3 + k), np.random.SeedSequence(policy.seed).spawn(2)):
                expected[row] = randomize_values(values[row], child)
        assert noisy.tobytes() == expected.tobytes()
        # every other policy leaves the values as they are, without a copy
        assert dependence._tie_broken(values, [TiePolicy.first_appearance()] * 3) is values

    def test_skip_rejected(self):
        x = np.arange(20.0)
        with pytest.raises(ValueError, match="skip policy drops windows: use classical_dependence"):
            row_scores([x], [x[::-1]], 4, 1, CLASSICAL_SHORT, [TiePolicy.skip()])

    def test_stacked_scores_stay_under_memory_budget(self, monkeypatch, traced_peak):
        # one chunk of 200 pairs x 1000 values at n=6: a single int64
        # (400, 995, 6) array of gathered codes or their differences takes
        # 18.2 MiB, and a float64 (720, 720) score table 4 MiB on top of the
        # ~13 MiB the narrow path peaks at
        monkeypatch.setattr(_kernels, "CELL_BUDGET", 1 << 30)
        rng = np.random.default_rng(34)
        xs = list(rng.integers(0, 5, size=(200, 1000)))
        ys = list(rng.integers(0, 5, size=(200, 1000)))
        scheme = scheme_for_length(6, classical=True)
        for policies in ([TiePolicy.first_appearance()] * 200,
                         [TiePolicy.randomize(k) for k in range(200)]):
            permutation_table.cache_clear()
            scores, peak = traced_peak(lambda: row_scores(xs, ys, 6, 1, scheme, policies))
            assert scores.shape == (200, 995)
            assert peak < 16 * 2**20

    @pytest.mark.parametrize("budget", [_kernels.CELL_BUDGET, 500])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("n", [4, 6])
    def test_core_window_scores_equal_row_scores(self, n, stride, budget, monkeypatch):
        # the core gathers classical symbols from its numbered pattern table;
        # _score_slices takes them from the Lehmer index of every window. A
        # budget of 500 cells cuts the core's rows of ~300 windows into slices.
        monkeypatch.setattr(_kernels, "CELL_BUDGET", budget)
        rng = np.random.default_rng(10 * n + stride)
        scheme = scheme_for_length(n, classical=True)
        tied = np.repeat(rng.integers(0, 3, size=(3, 100)), 3, axis=1)  # plateaus: ties everywhere

        def core_scores(values):
            codes = encode_windows(values, n, stride)
            labels = [str(k) for k in range(len(values))]
            return dependence._estimates_from_codes(
                codes, dependence._permutation_codes, scheme, stride, _kernels.l1_rows, labels
            )[2]

        # pairs 0|1, 0|2 and 1|2 of three tied series under first-appearance
        xs, ys, first = tied[[0, 0, 1]], tied[[1, 2, 2]], [TiePolicy.first_appearance()] * 3
        rows = row_scores(list(xs), list(ys), n, stride, scheme, first)
        assert core_scores(tied).tobytes() == rows.tobytes()
        # one randomized pair, its noise added as classical_dependence adds it
        x, y = rng.poisson(2.0, size=(2, 300))
        policy = TiePolicy.randomize(n + stride)
        rows = row_scores([x], [y], n, stride, scheme, [policy])
        assert core_scores(dependence._tie_broken(np.stack([x, y]), [policy])).tobytes() == rows.tobytes()


def reference_intervals(x, y, n, stride, replicates, seed, level=0.95, block=None):
    """Bootstrap intervals of analyze_pair, one resampled window list at a time.

    Windows and patterns come from the oracles; each replicate joins
    blocks of consecutive windows from the same start table as the
    library and recounts p, q, r and s from pattern lists.
    """
    wx = [oracle_encode(w) for w in oracle_windows(list(x), n, stride)]
    wy = [oracle_encode(w) for w in oracle_windows(list(y), n, stride)]
    wyn = [oracle_encode(tuple(-v for v in w)) for w in oracle_windows(list(y), n, stride)]
    count = len(wx)
    block = block or default_bandwidth(count)
    starts = np.random.default_rng(seed).integers(
        0, count - block + 1, size=(replicates, -(-count // block))
    )

    def excess(prob, comp):
        return 0.0 if comp >= 1.0 else max((prob - comp) / (1.0 - comp), 0.0)

    comparisons, coefficients = [], []
    for row in starts.tolist():
        picked = [s + j for s in row for j in range(block)][:count]
        a, b, c = ([w[i] for i in picked] for w in (wx, wy, wyn))
        ca = Counter(a)
        p_hat = sum(s == t for s, t in zip(a, b)) / count
        r_hat = sum(s == t for s, t in zip(a, c)) / count
        q_hat = sum(ca[t] * m for t, m in Counter(b).items()) / (count * count)
        s_hat = sum(ca[t] * m for t, m in Counter(c).items()) / (count * count)
        comparisons.append(q_hat)
        coefficients.append(excess(p_hat, q_hat) - excess(r_hat, s_hat))
    alpha = 1.0 - level
    return tuple(
        tuple(float(v) for v in np.quantile(stats, [alpha / 2.0, 1.0 - alpha / 2.0]))
        for stats in (comparisons, coefficients)
    )


class TestBatchedBootstrap:
    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    # "7": the cells of 7 windows, so chunks of a few replicates, the last
    # one short, and score-table slices of a few rows; 1: one replicate per
    # chunk and one pattern row per slice
    @pytest.mark.parametrize("budget", [None, pytest.param(7 * 79, id="7"), 1])
    def test_intervals_match_per_replicate_loop(self, n, budget, monkeypatch):
        rng = np.random.default_rng(40 + n)
        base = rng.integers(0, 4, size=160)
        x = np.clip(base + rng.integers(-1, 2, size=160), 0, 4)
        y = np.clip(base + rng.integers(-1, 2, size=160), 0, 4)
        if budget is not None:
            monkeypatch.setattr(_kernels, "CELL_BUDGET", budget)
        report = analyze_pair(x, y, n, stride=2, replicates=50, seed=11)
        q_ci, c_ci = reference_intervals(x, y, n, 2, 50, 11)
        assert report.comparison_ci == q_ci
        assert report.coefficient_ci == c_ci

    def test_mixed_dtypes_match_per_replicate_loop(self):
        rng = np.random.default_rng(44)
        x = rng.integers(0, 4, size=120)
        y = rng.normal(size=120).round(1)
        report = analyze_pair(x, y, 4, replicates=30, seed=2)
        assert (report.comparison_ci, report.coefficient_ci) == reference_intervals(x, y, 4, 1, 30, 2)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(23)
        x = rng.integers(0, 3, size=120)
        y = rng.integers(0, 3, size=120)

        def intervals(seed):
            report = analyze_pair(x, y, 3, replicates=100, seed=seed)
            return report.comparison_ci, report.coefficient_ci

        assert intervals(5) == intervals(5)
        assert intervals(5) != intervals(6)

    def test_block_outside_window_range_rejected(self):
        x = np.arange(120) % 5
        y = x[::-1]
        # 120 values at n=3 give 118 windows
        for block in (1, 118):
            analyze_pair(x, y, 3, block=block, replicates=5)
        for block in (0, -3, 119):
            with pytest.raises(ValueError, match=r"block must lie in 1\.\.118"):
                analyze_pair(x, y, 3, block=block, replicates=5)

    @pytest.mark.parametrize("name,value", [
        ("block", 2.5), ("block", 3.0), ("replicates", 2.5), ("replicates", 1.5), ("replicates", "20"),
        ("block", True),
    ])
    def test_non_integer_block_or_replicates_rejected(self, name, value):
        x = np.arange(120) % 5
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            analyze_pair(x, x[::-1], 3, **{"replicates": 5, name: value})

    @pytest.mark.parametrize("high", [1, 2, 7, 118, 99_954, 2**32 - 1, 2**32, 2**32 + 1, 2**62])
    def test_block_starts_drawn_in_chunks_repeat_one_draw(self, high):
        # the bootstrap draws its (replicates, blocks) starts a chunk of
        # replicates at a time: PCG64 keeps its spare 32-bit half in the
        # generator state, so the chunked draws give one draw's stream
        replicates, spans = 40, 13
        whole = np.random.default_rng(17).integers(0, high, size=(replicates, spans))
        rng = np.random.default_rng(17)
        parts = [rng.integers(0, high, size=(count, spans)) for count in (1, 2, 3, 5, replicates - 11)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("seed,message", [
        (True, "seed must be an integer, got True"), (1.5, "seed must be an integer, got 1.5"),
        ("3", "seed must be an integer, got '3'"), (-1, "seed must be non-negative, got -1"),
    ])
    def test_bad_seed_rejected(self, seed, message):
        x = np.arange(120) % 5
        with pytest.raises(ValueError, match=f"^{message}$"):
            analyze_pair(x, x[::-1], 3, replicates=5, seed=seed)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_pairwise(ClassMatrix(np.column_stack([x, x[::-1]]), ("a", "b")), n=3, replicates=5, seed=seed)

    def test_numpy_integer_block_and_replicates_accepted(self):
        x = np.arange(120) % 5
        report = analyze_pair(x, x[::-1], 3, block=np.int64(4), replicates=np.int32(6), seed=2)
        assert report == analyze_pair(x, x[::-1], 3, block=4, replicates=6, seed=2)

    @pytest.mark.parametrize("gauges", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_table_negation_carries_ids_onto_negated_ids(self, gauges, n):
        # tied inputs: few values, long plateaus
        rng = np.random.default_rng(10 * gauges + n)
        values = np.repeat(rng.integers(0, 3, size=(gauges, 40)), 3, axis=1)[:, rng.permutation(120)]
        codes = encode_windows(values, n)
        for alphabet in (dependence._identity, dependence._permutation_codes):
            ids, negated, hists, _, symbols = dependence._symbol_ids(codes, alphabet)
            keys = pattern_keys(symbols)

            def symbol_ids(rows):
                found = np.searchsorted(keys, pattern_keys(alphabet(rows)))
                np.testing.assert_array_equal(keys[found], pattern_keys(alphabet(rows)))
                return found

            # window by window, series 0..G-1 and the negated series 1..G-1
            np.testing.assert_array_equal(ids, [symbol_ids(c) for c in codes])
            np.testing.assert_array_equal(
                negated, [symbol_ids(dependence._negated_codes(c)) for c in codes[1:]]
            )
            expected = [np.bincount(i, minlength=keys.shape[0]) for i in (*ids, *negated)]
            np.testing.assert_array_equal(hists, expected)

    @pytest.mark.parametrize("kind", ["random", "tied"])
    @pytest.mark.parametrize("replicates", [2, 3, 20, 999, 1000])
    def test_percentiles_match_numpy_quantile(self, replicates, kind):
        rng = np.random.default_rng(replicates)
        stats = rng.normal(size=(replicates, 4))
        if kind == "tied":
            stats = np.round(stats * 2) / 8
        for level in (0.5, 0.9, 0.95, 0.99):
            alpha = 1.0 - level
            quantiles = [alpha / 2.0, 1.0 - alpha / 2.0]
            expected = np.quantile(stats, quantiles, axis=0)
            got = dependence._percentiles(stats.copy(), quantiles)
            assert got.tobytes() == expected.tobytes()


class TestBootstrapEdgeCases:
    def series(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 4, size=150)
        return (
            np.clip(base + rng.integers(-1, 2, size=150), 0, 4),
            np.clip(base + rng.integers(-1, 2, size=150), 0, 4),
        )

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("block", [1, "all"])
    def test_block_extremes_match_per_replicate_loop(self, n, block):
        x, y = self.series(90 + n)
        if block == "all":
            block = x.shape[0] - n + 1
        report = analyze_pair(x, y, n, block=block, replicates=40, seed=3)
        expected = reference_intervals(x, y, n, 1, 40, 3, block=block)
        assert (report.comparison_ci, report.coefficient_ci) == expected

    def test_whole_sequence_block_repeats_the_point_estimates(self):
        x, y = self.series(95)
        report = analyze_pair(x, y, 4, block=x.shape[0] - 3, replicates=10, seed=1)
        est = report.estimates
        assert report.comparison_ci == (est.comparison, est.comparison)
        assert report.coefficient_ci == (est.coefficient, est.coefficient)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_one_replicate_per_chunk(self, stride, monkeypatch):
        monkeypatch.setattr(_kernels, "CELL_BUDGET", 1)
        x, y = self.series(97 + stride)
        report = analyze_pair(x, y, 4, stride, replicates=25, seed=8)
        expected = reference_intervals(x, y, 4, stride, 25, 8)
        assert (report.comparison_ci, report.coefficient_ci) == expected


class TestJointBootstrap:
    """Every gauge pair of a run from one bootstrap with shared block starts."""

    def matrix(self, gauges=5, rows=140, seed=61):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 4, size=rows)
        columns = [np.clip(base + rng.integers(-1, 2, size=rows), 0, 4) for _ in range(gauges)]
        return ClassMatrix(np.column_stack(columns), tuple(f"g{i}" for i in range(gauges)))

    @pytest.mark.parametrize("tiny", [False, True])
    def test_every_pair_matches_per_replicate_loop(self, tiny, monkeypatch):
        if tiny:
            # one replicate per chunk, one pattern row per score-table slice
            monkeypatch.setattr(_kernels, "CELL_BUDGET", 1)
        matrix = self.matrix()
        labels, _, reports = run_pairwise(matrix, n=3, stride=2, replicates=40, seed=19)
        assert len(reports) == 10
        for report in reports:
            x, y = matrix.column(report.label_x), matrix.column(report.label_y)
            expected = reference_intervals(x, y, 3, 2, 40, 19)
            assert (report.comparison_ci, report.coefficient_ci) == expected
            assert report.estimates == dependence_estimates(x, y, 3, 2)

    def test_two_gauge_run_is_analyze_pair(self):
        matrix = self.matrix(gauges=2, seed=62)
        _, _, (report,) = run_pairwise(matrix, n=4, replicates=60, seed=23)
        alone = analyze_pair(
            ClassSeries(matrix.column("g0"), "g0"), ClassSeries(matrix.column("g1"), "g1"),
            4, replicates=60, seed=23,
        )
        assert report == alone

    def test_pair_intervals_do_not_depend_on_the_other_gauges(self):
        matrix = self.matrix(gauges=4, seed=63)
        settings = dict(n=3, replicates=30, seed=5)
        _, _, everything = run_pairwise(matrix, **settings)
        _, _, (alone,) = run_pairwise(matrix, gauges=("g1", "g3"), **settings)
        assert alone == next(r for r in everything if (r.label_x, r.label_y) == ("g1", "g3"))


class TestIntegerArguments:
    # the first five keys name a point estimate; each reads its DependenceEstimates field
    ESTIMATORS = {
        **{
            name: lambda x, y, n, stride=1, field=field: getattr(dependence_estimates(x, y, n, stride), field)
            for name, field in (
                ("coincidence_probability", "coincidence"), ("comparison_value", "comparison"),
                ("anti_estimates", "anti_coincidence"), ("total_score", "total_score"),
                ("score_comparison_value", "score_comparison"),
            )
        },
        "dependence_estimates": dependence_estimates,
        "classical_dependence": classical_dependence,
        "analyze_pair": lambda x, y, n, stride=1: analyze_pair(x, y, n, stride, replicates=5),
    }

    @pytest.mark.parametrize("name", ESTIMATORS)
    @pytest.mark.parametrize("argument,value", [
        ("n", 2.5), ("n", 4.0), ("stride", 2.0), ("stride", "2"), ("n", True), ("stride", True),
    ])
    def test_non_integer_n_or_stride_rejected(self, name, argument, value):
        x = np.arange(60) % 5
        kwargs = {"n": 4, "stride": 1, argument: value}
        with pytest.raises(ValueError, match=f"{argument} must be an integer, got {value!r}"):
            self.ESTIMATORS[name](x, x[::-1], **kwargs)

    @pytest.mark.parametrize("name", ESTIMATORS)
    def test_numpy_integer_n_and_stride_accepted(self, name):
        x = np.arange(60) % 5
        call = self.ESTIMATORS[name]
        assert call(x, x[::-1], np.int64(4), np.int32(2)) == call(x, x[::-1], 4, 2)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_with_first_bad_index(self, bad):
        values = np.arange(12, dtype=np.float64)
        values[5] = values[9] = bad
        with pytest.raises(ValueError, match="index 5 is not finite"):
            ClassSeries(values)
        with pytest.raises(ValueError, match="index 5 is not finite"):
            dependence_estimates(values, np.arange(12.0), 3)
        with pytest.raises(ValueError, match="index 5 is not finite"):
            analyze_pair(np.arange(12.0), values, 3, replicates=5)
        with pytest.raises(ValueError, match="index 5 is not finite"):
            encode_pattern(values[:8])

    def test_finite_floats_and_integers_pass(self):
        est = dependence_estimates(np.arange(12.0), np.arange(12) % 5, 3)
        assert est.num_windows == 10


class TestNonNumericInput:
    # strings order as text ('10' < '9'), complex values do not order at all
    X = [1, 10, 9, 2, 3, 10, 9, 1]
    Y = [2, 9, 10, 1, 3, 9, 10, 2]

    @pytest.mark.parametrize("values,dtype", [
        ([str(v) for v in X], "<U2"),
        (np.array(X) + 0j, "complex128"),
        (np.array([1, None, 3, 4, 5, 6, 7, 8], dtype=object), "object"),
        (np.array(X, dtype=object), "object"),
    ], ids=["str", "complex", "object_none", "object_int"])
    def test_rejected_naming_the_dtype(self, values, dtype):
        message = f"values must be boolean, integer or real numbers, got dtype {dtype}"
        with pytest.raises(ValueError, match=f"^series {message}$"):
            ClassSeries(values)
        with pytest.raises(ValueError, match=f"^series {message}$"):
            dependence_estimates(values, self.Y, 3)
        with pytest.raises(ValueError, match=f"^series {message}$"):
            classical_dependence(self.Y, values, 4)
        with pytest.raises(ValueError, match=f"^window {message}$"):
            encode_pattern(values[:3])
        with pytest.raises(ValueError, match=f"^window {message}$"):
            encode_permutation(values[:3], TiePolicy.first_appearance())

    def test_boolean_integer_and_real_series_pass(self):
        expected = dependence_estimates(self.X, self.Y, 3)
        assert expected.coincidence == 1 / 3
        for dtype in (np.int8, np.uint16, np.float32, np.float64):
            assert dependence_estimates(np.array(self.X, dtype=dtype), self.Y, 3) == expected
        flags = np.array(self.X) > 5
        assert dependence_estimates(flags, self.Y, 3) == dependence_estimates(flags.astype(int), self.Y, 3)
        assert encode_pattern(np.array([True, False, True])) == (2, 1, 2)


class TestLongSeriesPairPath:
    """The pair path keeps per-window temporaries under the cell budget, with the same results."""

    @pytest.mark.parametrize("call,bound_mib", [
        (lambda x, y: dependence_estimates(x, y, 4), 5),
        (lambda x, y: analyze_pair(x, y, 4, replicates=20), 6),
        # the block starts are drawn per chunk of replicates, not as one
        # (1000, 2128) int64 table of 17 MB
        (lambda x, y: analyze_pair(x, y, 4, replicates=1000), 6),
        # the classical encode is sliced too; skip filters the int8 codes,
        # not a sorted copy of the float64 windows (10.2 MiB)
        (lambda x, y: classical_dependence(x, y, 4, policy=TiePolicy.skip()), 6),
        (lambda x, y: classical_dependence(x, y, 4, policy=TiePolicy.randomize(5)), 6),
        (lambda x, y: classical_dependence(x, y, 4, policy=TiePolicy.first_appearance()), 6),
    ], ids=[
        "estimates", "analyze_pair", "analyze_pair_1000_replicates",
        "classical_skip", "classical_randomize", "classical_first_appearance",
    ])
    def test_long_n4_peaks(self, call, bound_mib, traced_peak):
        # kept per-window arrays: int8 codes (0.8 MB), the (3, W) int64 ids
        # (2.4 MB), bool coincidences and float64 scores (1 MB); the numbering's
        # temporaries stay within a multiple of the ids, the bootstrap builds
        # one whole replicate at a time (2.5 cells a window), and every other
        # temporary is sliced under the 1 MiB budget
        rng = np.random.default_rng(81)
        x, y = rng.poisson(4.0, size=(2, 100_000))
        _, peak = traced_peak(lambda: call(x, y))
        assert peak < bound_mib * 2**20

    @pytest.mark.parametrize("budget", [8, 1 << 30])
    def test_results_do_not_depend_on_the_budget(self, budget, monkeypatch):
        rng = np.random.default_rng(82)
        base = rng.integers(0, 4, size=160)
        columns = [np.clip(base + rng.integers(-1, 2, size=160), 0, 4) for _ in range(8)]
        matrix = ClassMatrix(np.column_stack(columns), tuple(f"g{i}" for i in range(8)))
        x, y = columns[0], rng.poisson(2.0, size=160)
        # wide enough that skip keeps some 6-windows of both series
        cx, cy = rng.integers(0, 50, size=(2, 160))
        policies = (TiePolicy.skip(), TiePolicy.randomize(6), TiePolicy.first_appearance())

        def results():
            return (
                [dependence_estimates(x, y, n) for n in range(3, 8)],
                analyze_pair(x, y, 4, replicates=30, seed=9),
                analyze_pair(x, y, 3, block=160 - 2, replicates=5, seed=9),
                [classical_dependence(cx, cy, n, policy=p) for n in (4, 6) for p in policies],
                run_pairwise(matrix, n=4, replicates=12, seed=4),
            )

        expected = results()
        monkeypatch.setattr(_kernels, "CELL_BUDGET", budget)
        got = results()
        assert got[:4] == expected[:4]
        assert got[4][0] == expected[4][0] and got[4][2] == expected[4][2]
        for name, values in expected[4][1].items():
            assert got[4][1][name].tobytes() == values.tobytes()

    def test_bootstrap_peaks_near_the_ids(self, traced_peak):
        # one replicate a chunk: float64 multiplicities and their float32 copy,
        # with no offset copy of the ids to bincount
        x, y = np.random.default_rng(81).poisson(4.0, size=(2, 100_000))
        codes = dependence._stacked_codes([x, y], 4, 1)
        _, same, _, ids, negation, _ = dependence._estimates_from_codes(
            codes, dependence._identity, scheme_for_length(4), 1, _kernels.df_rows, ["x", "y"]
        )
        _, peak = traced_peak(lambda: dependence.block_bootstrap_ci(ids, negation, same, replicates=20))
        assert peak < 1.5 * ids.nbytes

    def test_analyze_pair_leaves_numpy_ma_unimported(self):
        # np.quantile, np.union1d and np.unique without return_inverse or
        # return_counts import numpy.ma on first use; one line per call, in order
        code = (
            "import sys, numpy as np, ordpat\n"
            "x, y = np.random.default_rng(3).poisson(4.0, size=(2, 500))\n"
            "for call in (ordpat.dependence_estimates, ordpat.classical_dependence):\n"
            "    call(x, y, 4)\n"
            "    print('numpy.ma' in sys.modules)\n"
            "ordpat.analyze_pair(x, y, 4, replicates=20)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(dependence.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False"] * 3
