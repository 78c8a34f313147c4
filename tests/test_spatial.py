"""Cross-sectional pattern frequencies, baselines, and significance."""

from collections import Counter

import numpy as np
import pytest

from oracles import oracle_product_law
from ordpat import _kernels
from ordpat.exceptions import NumericalWarning
from ordpat.patterns import enumerate_patterns
from ordpat.spatial import (
    ClassMatrix,
    analyze_spatial,
    baseline_frequencies,
    pattern_frequencies,
    spatial_encode,
    spatial_significance,
)


def make_matrix(classes, gauges=None):
    classes = np.asarray(classes)
    gauges = gauges or tuple(f"g{i}" for i in range(classes.shape[1]))
    return ClassMatrix(classes=classes, gauges=tuple(gauges))


def full_law(matrix):
    """{pattern: probability} of the positive entries of the whole-table baseline."""
    codes = enumerate_patterns(matrix.classes.shape[1]).codes
    probs = baseline_frequencies(matrix, matrix.gauges)
    return {tuple(row): p for row, p in zip(codes.tolist(), probs.tolist()) if p > 0.0}


class TestClassMatrix:
    def test_validation(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            ClassMatrix(classes=np.arange(4), gauges=("a",))
        with pytest.raises(ValueError, match="gauge labels"):
            make_matrix([[0, 1]], gauges=("a",))
        with pytest.raises(ValueError, match="duplicate"):
            make_matrix([[0, 1]], gauges=("a", "a"))

    @pytest.mark.parametrize("classes,cell", [
        ([[1.5, 2.0], [0.2, 3.9]], "class 1.5 at event 1, gauge 'g0'"),
        ([[1.0, 2.0], [0.0, np.nan]], "class nan at event 2, gauge 'g1'"),
        ([[1.0, 2.0], [np.inf, 3.0]], "class inf at event 2, gauge 'g0'"),
        ([[1.0, -1e30], [0.0, 3.0]], "class -1e\\+30 at event 1, gauge 'g1'"),
    ], ids=["fraction", "nan", "inf", "past-int64"])
    def test_non_integral_or_non_finite_cells_rejected(self, classes, cell):
        with pytest.raises(ValueError, match=f"^{cell} is not an integer in the int64 range$"):
            make_matrix(classes)
        matrix = make_matrix([[1.0, -1.0], [0.0, 4.0]])
        assert matrix.classes.dtype == np.int64
        assert matrix.classes.tolist() == [[1, -1], [0, 4]]

    @pytest.mark.parametrize("value", [2**70, -2**70, 2**64, -2**63 - 1, None])
    def test_object_cells_past_int64_rejected(self, value):
        cell = f"class {value} at event 2, gauge 'g0'"
        with pytest.raises(ValueError, match=f"^{cell} is not an integer in the int64 range$"):
            make_matrix([[1, 2], [value, 3]])
        extremes = make_matrix(np.array([[2**63 - 1, -2**63]], dtype=object))
        assert extremes.classes.tolist() == [[2**63 - 1, -2**63]]

    def test_unsigned_cells_past_int64_rejected(self):
        with pytest.raises(ValueError, match="^class 9223372036854775808 at event 1, gauge 'g1' is not"):
            make_matrix(np.array([[3, 2**63]], dtype=np.uint64))
        assert make_matrix(np.array([[3, 2**63 - 1]], dtype=np.uint64)).classes.tolist() == [[3, 2**63 - 1]]

    def test_column_lookup(self):
        matrix = make_matrix([[0, 1], [2, 3]], gauges=("a", "b"))
        np.testing.assert_array_equal(matrix.column("b"), [1, 3])
        with pytest.raises(KeyError):
            matrix.column("c")


class TestSpatialEncode:
    def test_level_shifted_rows(self):
        rows = [[k, k, k, k] for k in (-1, 0, 2, 4)]
        patterns = spatial_encode(make_matrix(rows), ("g0", "g1", "g2", "g3"))
        assert patterns.dtype == np.int64
        assert patterns.tolist() == [[1, 1, 1, 1]] * 4

    def test_peak_within_one_and_a_half_results(self, traced_peak):
        # one window per event row: no flattened copy of the rows and no int8
        # code array beside the int64 result
        rng = np.random.default_rng(40)
        matrix = make_matrix(rng.integers(-1, 5, size=(200_000, 8)))
        codes, peak = traced_peak(lambda: spatial_encode(matrix, matrix.gauges))
        assert peak <= 1.5 * codes.nbytes

    def test_single_raised_gauge(self):
        for k in (-1, 0, 3):
            row = [[k + 1, k, k, k]]
            patterns = spatial_encode(make_matrix(row), ("g0", "g1", "g2", "g3"))
            assert patterns.tolist() == [[2, 1, 1, 1]]

    def test_absence_participates_as_smallest(self):
        patterns = spatial_encode(make_matrix([[3, -1, 0, 2]]), ("g0", "g1", "g2", "g3"))
        assert patterns.tolist() == [[4, 1, 2, 3]]

    def test_subset_order_and_errors(self):
        matrix = make_matrix([[1, 2, 3]], gauges=("a", "b", "c"))
        assert spatial_encode(matrix, ("c", "a")).tolist() == [[2, 1]]
        with pytest.raises(KeyError):
            spatial_encode(matrix, ("a", "z"))
        with pytest.raises(ValueError, match="non-empty"):
            spatial_encode(matrix, ())
        with pytest.raises(ValueError, match="repeats the label 'a'"):
            spatial_encode(matrix, ("a", "b", "a"))
        with pytest.raises(ValueError, match="repeats the label 'c'"):
            analyze_spatial(matrix, ("c", "c"))
        wide = make_matrix([list(range(9))])
        with pytest.raises(ValueError, match="cap"):
            spatial_encode(wide, tuple(f"g{i}" for i in range(9)))

    def test_monotone_invariance_per_row(self):
        rng = np.random.default_rng(0)
        classes = rng.integers(-1, 5, size=(50, 4))
        matrix = make_matrix(classes)
        shifted = make_matrix(3 * classes + 7)
        gauges = matrix.gauges
        np.testing.assert_array_equal(spatial_encode(matrix, gauges), spatial_encode(shifted, gauges))


class TestFrequencies:
    def test_unit_pattern_only(self):
        patterns, freq = pattern_frequencies(np.ones((12, 3), dtype=np.int64))
        assert patterns.tolist() == [[1, 1, 1]]
        assert freq.tolist() == [1.0]

    def test_counts_and_frequencies_sum(self):
        rng = np.random.default_rng(1)
        matrix = make_matrix(rng.integers(0, 3, size=(200, 3)))
        codes = spatial_encode(matrix, matrix.gauges)
        patterns, freq = pattern_frequencies(codes)
        counts = Counter(map(tuple, codes.tolist()))
        assert [tuple(row) for row in patterns.tolist()] == sorted(counts)  # key order
        assert freq.tolist() == [counts[p] / 200 for p in sorted(counts)]
        assert freq.sum() == pytest.approx(1.0, abs=1e-12)

    def test_include_zero_lists_whole_space(self):
        # both gauges take every class, so each pattern of length 2 has a positive baseline
        matrix = make_matrix([[0, 1]] * 30 + [[1, 0]] * 10)
        report = analyze_spatial(matrix, matrix.gauges, include_zero_observed=True)
        assert report.patterns.tolist() == [[1, 2], [2, 1], [1, 1]]  # observed first, then key order
        assert report.observed.tolist() == [0.75, 0.25, 0.0]
        assert analyze_spatial(matrix, matrix.gauges).patterns.tolist() == [[1, 2], [2, 1]]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pattern_frequencies([])
        with pytest.raises(ValueError):
            pattern_frequencies(np.empty((0, 3), dtype=np.int64))
        with pytest.raises(ValueError, match="not a valid pattern"):
            pattern_frequencies([(1, 3)])
        with pytest.raises(ValueError, match=r"^pattern code must be an integer, got 1.9 at index \(0, 0\)$"):
            pattern_frequencies([[1.9, 2, 3], [1, 2, 3]])


class TestBaseline:
    def test_single_constant_class(self):
        matrix = make_matrix(np.full((40, 3), 2))
        baseline = baseline_frequencies(matrix, matrix.gauges)
        assert baseline.shape == (13,)
        assert full_law(matrix) == {(1, 1, 1): pytest.approx(1.0)}

    def test_two_uniform_binary_gauges(self):
        # alternating 0/1 columns -> uniform marginals on {0, 1}
        classes = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 5)
        baseline = full_law(make_matrix(classes))
        assert baseline[(1, 1)] == pytest.approx(0.5)
        assert baseline[(1, 2)] == pytest.approx(0.25)
        assert baseline[(2, 1)] == pytest.approx(0.25)

    def test_matches_pure_python_product_law(self):
        rng = np.random.default_rng(2)
        matrix = make_matrix(rng.integers(-1, 5, size=(120, 3)))
        baseline = full_law(matrix)
        ref = oracle_product_law([matrix.classes[:, j].tolist() for j in range(3)])
        assert set(baseline) == set(ref)
        for pattern, prob in ref.items():
            assert baseline[pattern] == pytest.approx(prob, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_matches_brute_force_product_law(self, d):
        # four classes with the -1 absence mark: at d = 5, 6 the patterns
        # with more levels than classes have probability 0
        rng = np.random.default_rng(30 + d)
        matrix = make_matrix(rng.integers(-1, 3, size=(97, d)))
        ref = oracle_product_law([matrix.classes[:, j].tolist() for j in range(d)])
        table = enumerate_patterns(d)
        full = baseline_frequencies(matrix, matrix.gauges)
        assert full.shape == (len(table),)  # aligned with the table rows
        expected = [ref.get(tuple(row), 0.0) for row in table.codes.tolist()]
        np.testing.assert_allclose(full, expected, rtol=0, atol=1e-12)
        assert {tuple(row) for row in table.codes[full > 0].tolist()} == set(ref)
        assert full.sum() == pytest.approx(1.0, rel=0, abs=1e-12)
        subset = table.codes[::-3]
        partial = baseline_frequencies(matrix, matrix.gauges, patterns=subset)
        np.testing.assert_array_equal(partial, full[::-3])  # aligned with the given rows

    def test_slicing_does_not_change_the_law(self, monkeypatch):
        rng = np.random.default_rng(9)
        matrix = make_matrix(rng.integers(-1, 5, size=(150, 4)))
        whole = baseline_frequencies(matrix, matrix.gauges)
        monkeypatch.setattr(_kernels, "CELL_BUDGET", 13)
        np.testing.assert_array_equal(baseline_frequencies(matrix, matrix.gauges), whole)

    def test_marginals_peak_within_twice_the_subset_copy(self, traced_peak):
        # the class values are numbered one column at a time; numbering the
        # whole (200000, 8) subset copy at once peaked at ~6 times that copy
        matrix = make_matrix(np.random.default_rng(3).integers(-1, 5, size=(200_000, 8)))
        enumerate_patterns(8)  # the cached pattern table outlives the call
        _, peak = traced_peak(lambda: baseline_frequencies(matrix, matrix.gauges))
        assert peak <= 2 * matrix.subset_columns(matrix.gauges).nbytes

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError, match="no events"):
            baseline_frequencies(make_matrix(np.empty((0, 2), dtype=np.int64)), ("g0", "g1"))
        matrix = make_matrix(np.array([[0, 1], [1, 0], [2, 2]]))
        with pytest.raises(ValueError, match="not a valid pattern"):
            baseline_frequencies(matrix, matrix.gauges, patterns=[(1, 3)])
        with pytest.raises(ValueError, match="not a valid pattern"):
            baseline_frequencies(matrix, matrix.gauges, patterns=[(1, 2, 1)])
        with pytest.raises(ValueError, match="not a valid pattern"):
            baseline_frequencies(matrix, matrix.gauges, patterns=[])  # one empty pattern
        with pytest.raises(ValueError, match=r"^pattern code must be an integer, got 1.5 at index \(0, 0\)$"):
            baseline_frequencies(matrix, matrix.gauges, patterns=[(1.5, 2)])
        no_rows = np.empty((0, 2), dtype=np.int64)
        assert baseline_frequencies(matrix, matrix.gauges, patterns=no_rows).shape == (0,)

    def test_exact_for_supports_beyond_enumeration(self):
        # 8 Poisson(8) gauges: the support product is ~1e9 cells, far past
        # what enumerating class vectors could cover
        rng = np.random.default_rng(11)
        matrix = make_matrix(rng.poisson(8.0, size=(300, 8)))
        cells = np.prod([np.unique(matrix.classes[:, j]).shape[0] for j in range(8)])
        assert cells > 10**7
        report = analyze_spatial(matrix, matrix.gauges)
        observed = set(map(tuple, spatial_encode(matrix, matrix.gauges).tolist()))
        assert set(map(tuple, report.patterns.tolist())) == observed
        assert np.all(report.baseline > 0.0)
        assert not report.impossible_under_baseline.any()
        assert report.tests == len(observed)
        full = baseline_frequencies(matrix, matrix.gauges)
        assert full.sum() == pytest.approx(1.0, rel=0, abs=1e-12)
        positions = enumerate_patterns(8).index_of(report.patterns)
        np.testing.assert_array_equal(full[positions], report.baseline)

    def test_observed_matches_product_law_for_independent_columns(self):
        rng = np.random.default_rng(4)
        matrix = make_matrix(rng.integers(0, 6, size=(10_000, 3)))
        report = analyze_spatial(matrix, matrix.gauges, include_zero_observed=True)
        assert len(report.patterns) == len(enumerate_patterns(3))
        assert np.all(np.abs(report.observed - report.baseline) < 0.02)


class TestSignificance:
    def test_zero_when_observed_equals_baseline(self):
        freq = [0.6, 0.4]
        report = spatial_significance([(1, 1), (1, 2)], freq, freq, num_events=400)
        assert np.all(report.z == 0.0)
        assert not report.significant.any()

    def test_z_statistic_reference_point(self):
        report = spatial_significance([(1, 1, 1, 1)], [0.583], [0.482], num_events=314)
        assert report.z[0] == pytest.approx(3.58, abs=0.01)
        assert report.significant[0]
        assert report.counts.tolist() == [183]

    def test_never_observed_pattern_not_significant(self):
        report = spatial_significance(
            [(1, 2, 3, 4), (1, 1, 1, 1)], [1.0, 0.0], [0.99, 0.01], num_events=314,
        )
        row = report.patterns.tolist().index([1, 1, 1, 1])
        assert report.z[row] == pytest.approx(-1.78, abs=0.01)
        assert not report.significant[row]

    def test_impossible_under_baseline_flag(self):
        report = spatial_significance([(2, 1), (1, 2)], [0.5, 0.5], [0.0, 1.0], num_events=100)
        assert report.patterns.tolist() == [[1, 2], [2, 1]]
        assert report.impossible_under_baseline.tolist() == [False, True]
        assert np.isnan(report.z[1]) and not report.significant[1]
        assert report.tests == 1

    def test_rows_kept_and_sorted_by_observed_then_pattern(self):
        patterns = [(2, 1, 1), (1, 2, 1), (1, 1, 1), (1, 2, 3), (3, 2, 1)]
        observed = [0.25, 0.25, 0.5, 0.0, 0.0]
        baseline = [0.2, 0.2, 0.3, 0.3, 0.0]
        report = spatial_significance(patterns, observed, baseline, num_events=400)
        # a zero row is listed when its baseline is positive
        assert report.patterns.tolist() == [[1, 1, 1], [1, 2, 1], [2, 1, 1], [1, 2, 3]]
        assert report.tests == 4
        observed_only = spatial_significance(patterns[:3], observed[:3], baseline[:3], num_events=400)
        assert observed_only.patterns.tolist() == [[1, 1, 1], [1, 2, 1], [2, 1, 1]]

    def test_small_sample_warns(self):
        with pytest.warns(NumericalWarning, match="asymptotic"):
            spatial_significance([(1, 1)], [1.0], [1.0], num_events=10)

    def test_small_sample_warning_names_the_gauge_subset(self):
        matrix = make_matrix(np.arange(30).reshape(10, 3) % 4, gauges=("G01", "G02", "G03"))
        with pytest.warns(NumericalWarning) as caught:
            analyze_spatial(matrix, ("G03", "G01"))
        assert [str(w.message) for w in caught] == [
            "G03,G01: only 10 events; spatial z-statistics are asymptotic"
        ]
        with pytest.warns(NumericalWarning) as caught:
            spatial_significance([(1, 1)], [1.0], [1.0], num_events=10)
        assert [str(w.message) for w in caught] == ["only 10 events; spatial z-statistics are asymptotic"]

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.05, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie strictly between 0 and 1"):
            spatial_significance([(1, 2)], [1.0], [0.5], num_events=100, alpha=alpha)

    @pytest.mark.parametrize("observed,baseline,message", [
        ([0.5, np.nan], [0.2, 0.3], "observed frequency nan at row 1"),
        ([0.5, 0.5], [np.nan, 0.3], "baseline frequency nan at row 0"),
        ([0.5, 0.5], [1.5, -0.5], "baseline frequency 1.5 at row 0"),
        ([0.5, 0.5], [0.3, -0.5], "baseline frequency -0.5 at row 1"),
        ([np.inf, 0.5], [0.3, 0.2], "observed frequency inf at row 0"),
    ], ids=["observed-nan", "baseline-nan", "baseline-above-one", "baseline-negative", "observed-inf"])
    def test_frequencies_outside_unit_interval_rejected(self, observed, baseline, message):
        with pytest.raises(ValueError, match=f"^{message} is not a probability in \\[0, 1\\]$"):
            spatial_significance([(1, 2), (2, 1)], observed, baseline, num_events=100)

    def test_baseline_rounded_past_one_accepted(self):
        # 18/56 + 36/56 + 2/56 rounds to 1 + 2^-52
        report = analyze_spatial(make_matrix([[0]] * 18 + [[1]] * 36 + [[2]] * 2), ("g0",))
        assert report.baseline[0] > 1.0

    def test_baseline_rounded_past_one_tests_as_one(self):
        # every event shows the one pattern that the baseline gives 1 + 2^-52
        report = analyze_spatial(make_matrix([[0]] * 18 + [[1]] * 36 + [[2]] * 2), ("g0",))
        assert report.observed.tolist() == [1.0]
        assert report.z.tolist() == [0.0]
        assert report.significant.tolist() == [False]

    @pytest.mark.parametrize("num_events", [0, -3])
    def test_no_events_rejected(self, num_events):
        with pytest.raises(ValueError, match=f"num_events must be at least 1, got {num_events}"):
            spatial_significance([(1, 2)], [1.0], [0.5], num_events=num_events)

    def test_fractional_or_text_patterns_rejected(self):
        with pytest.raises(ValueError, match=r"^pattern code must be an integer, got 1.5 at index \(0, 0\)$"):
            spatial_significance([(1.5, 2)], [1.0], [0.5], num_events=100)
        with pytest.raises(ValueError, match="got dtype <U1$"):
            spatial_significance([("1", "2")], [1.0], [0.5], num_events=100)

    def test_mismatched_tables_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            spatial_significance([(1, 2), (2, 1)], [1.0], [0.5, 0.5], num_events=100)
        with pytest.raises(ValueError, match="misaligned"):
            spatial_significance([(1, 2)], [1.0], [0.5, 0.5], num_events=100)
        with pytest.raises(ValueError, match="misaligned"):
            spatial_significance((1, 2), [1.0, 0.0], [0.5, 0.5], num_events=100)

    def test_gauge_permutation_consistency(self):
        rng = np.random.default_rng(5)
        matrix = make_matrix(rng.integers(-1, 5, size=(200, 4)))
        order_a = ("g0", "g1", "g2", "g3")
        order_b = ("g2", "g0", "g3", "g1")
        move = [order_a.index(g) for g in order_b]
        rows_a, freq_a = pattern_frequencies(spatial_encode(matrix, order_a))
        rows_b, freq_b = pattern_frequencies(spatial_encode(matrix, order_b))
        remapped = {tuple(p[i] for i in move): f for p, f in zip(rows_a.tolist(), freq_a.tolist())}
        assert remapped == dict(zip(map(tuple, rows_b.tolist()), freq_b.tolist()))

    def test_level_shifted_events_make_unit_pattern_significant(self):
        # every event is a level shift of the constant base vector
        rng = np.random.default_rng(8)
        levels = rng.integers(0, 5, size=200)
        matrix = make_matrix(np.column_stack([levels] * 4))
        report = analyze_spatial(matrix, matrix.gauges)
        assert report.patterns.tolist() == [[1, 1, 1, 1]]
        assert report.observed.tolist() == [1.0]
        assert report.baseline[0] < 1.0
        assert report.significant.tolist() == [True]

    @pytest.mark.filterwarnings("ignore::ordpat.exceptions.NumericalWarning")
    def test_independent_columns_rarely_significant(self):
        # marginals chosen so every pattern has decent expected count;
        # the z-approximation needs K * baseline well above 1
        hits = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            classes = np.column_stack([
                rng.choice([0, 1, 2], p=[0.5, 0.3, 0.2], size=314) for _ in range(3)
            ])
            report = analyze_spatial(make_matrix(classes), ("g0", "g1", "g2"))
            if report.significant.any():
                hits += 1
        assert hits <= 1  # >= 90% of seeds show nothing significant

