"""Pattern encodings, enumeration, and the classical tie policies."""

import itertools
import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from ordpat import _kernels
from ordpat._kernels import window_permutation_index
from ordpat.patterns import (
    TiePolicy,
    check_finite,
    check_patterns,
    descending_permutations,
    encode_pattern,
    encode_permutation,
    enumerate_patterns,
    fubini,
    pattern_codes,
    pattern_index,
    pattern_keys,
    permutation_table,
    randomize_values,
    smallest_gap,
    valid_rows,
)


def oracle_encode(window):
    """Independent rank encoding: index into the sorted distinct values."""
    distinct = sorted(set(window))
    return tuple(distinct.index(v) + 1 for v in window)


def surjection_count(n):
    """Independent pattern count: sum over m of m! * Stirling2(n, m)."""
    # Stirling numbers of the second kind by their own recurrence
    stirling = [[0] * (n + 1) for _ in range(n + 1)]
    stirling[0][0] = 1
    for i in range(1, n + 1):
        for m in range(1, n + 1):
            stirling[i][m] = m * stirling[i - 1][m] + stirling[i - 1][m - 1]
    total = 0
    factorial = 1
    for m in range(1, n + 1):
        factorial *= m
        total += factorial * stirling[n][m]
    return total


class TestEncodePattern:
    def test_known_windows(self):
        assert encode_pattern((1, 2, 4, 3)) == (1, 2, 4, 3)
        assert encode_pattern((5, 5, 5, 5)) == (1, 1, 1, 1)
        assert encode_pattern((5, 5, 5, 4)) == (2, 2, 2, 1)
        assert encode_pattern((5, 5, 5, 6)) == (1, 1, 1, 2)
        assert encode_pattern((7,)) == (1,)

    def test_absence_mark_is_smallest(self):
        assert encode_pattern((3, -1, 0, 2)) == (4, 1, 2, 3)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty window"):
            encode_pattern(())

    def test_window_length_limited_to_int8_codes(self):
        # int8 codes would wrap to -128 past 127 distinct values
        assert encode_pattern(range(127)) == tuple(range(1, 128))
        with pytest.raises(ValueError, match="window of 128 values exceeds the limit of 127"):
            encode_pattern(range(128))

    def test_non_finite_index_in_a_series(self):
        with pytest.raises(ValueError) as caught:
            check_finite(np.array([1.0, 2.0, 4.0, np.nan, np.inf]), "sequence")
        assert str(caught.value) == "sequence value at index 3 is not finite (nan)"

    def test_non_finite_position_in_a_stack(self):
        with pytest.raises(ValueError, match=r"^series value at index \(1, 1\) is not finite \(nan\)$"):
            check_finite(np.array([[1, 2, 4, 5], [1, np.nan, 3, 1]]))
        stack = np.zeros((2, 3, 4))
        stack[1, 2, 0] = stack[1, 2, 3] = -np.inf
        with pytest.raises(ValueError, match=r"index \(1, 2, 0\) is not finite \(-inf\)"):
            check_finite(stack)
        check_finite(np.zeros((3, 4)))

    def test_matches_oracle_on_random_windows(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            window = rng.integers(-5, 6, size=n)
            assert encode_pattern(window) == oracle_encode(window.tolist())

    def test_monotone_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            window = rng.integers(0, 6, size=n)
            # strictly increasing piecewise-linear map of the value range
            gaps = rng.uniform(0.1, 3.0, size=12)
            table = np.concatenate([[0.0], np.cumsum(gaps)])
            mapped = table[window]
            assert encode_pattern(mapped) == encode_pattern(window)


class TestClassicalPolicies:
    def test_first_appearance_constant(self):
        policy = TiePolicy.first_appearance()
        assert encode_permutation((4, 4, 4, 4), policy) == (4, 3, 2, 1)
        assert encode_permutation((1, 10, 100, 1000), policy) == (4, 3, 2, 1)

    def test_skip(self):
        assert encode_permutation((3, 1, 2), TiePolicy.skip()) == (1, 3, 2)
        assert encode_permutation((2, 2), TiePolicy.skip()) is None
        # past 127 values, where int8 rank codes would wrap
        window = np.random.default_rng(5).permutation(200)
        # positions by descending value, one-based
        assert encode_permutation(window, TiePolicy.skip()) == tuple((np.argsort(-window) + 1).tolist())
        window[17] = window[150]
        assert encode_permutation(window, TiePolicy.skip()) is None

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            encode_permutation((), TiePolicy.skip())

    @pytest.mark.parametrize("kind", ["skip", "first_appearance"])
    def test_non_finite_window_rejected(self, kind):
        with pytest.raises(ValueError, match="window value at index 0 is not finite"):
            encode_permutation((np.nan, 1, 2), TiePolicy(kind))
        with pytest.raises(ValueError, match="index 1 is not finite"):
            encode_permutation((1, np.inf, 2), TiePolicy.randomize(3))

    def test_randomize_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            TiePolicy("randomize")

    @pytest.mark.parametrize("seed,message", [
        (True, "randomize seed must be an integer, got True"),
        (1.5, "randomize seed must be an integer, got 1.5"),
        ("3", "randomize seed must be an integer, got '3'"),
        (-1, "randomize seed must be non-negative, got -1"),
        (np.int64(-2), "randomize seed must be non-negative, got -2"),
    ])
    def test_randomize_seed_checked_when_built(self, seed, message):
        with pytest.raises(ValueError) as caught:
            TiePolicy.randomize(seed)
        assert str(caught.value) == message

    @pytest.mark.parametrize("seed", [0, 7, np.int64(7), 2**70])
    def test_randomize_takes_non_negative_integer_seeds(self, seed):
        policy = TiePolicy.randomize(seed)
        assert policy.seed == seed
        assert encode_permutation((2, 2, 1, 2), policy) == encode_permutation((2, 2, 1, 2), policy)

    def test_randomize_deterministic(self):
        window = (2, 2, 1, 2)
        a = encode_permutation(window, TiePolicy.randomize(5))
        b = encode_permutation(window, TiePolicy.randomize(5))
        assert a == b

    def test_tie_free_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            window = rng.choice(100, size=n, replace=False)
            skip = encode_permutation(window, TiePolicy.skip())
            first = encode_permutation(window, TiePolicy.first_appearance())
            rand = encode_permutation(window, TiePolicy.randomize(int(rng.integers(1e6))))
            assert skip == first == rand
            # the tie-aware pattern is the matching rank vector
            ranks = encode_pattern(window)
            assert all(ranks[pos - 1] == n - j for j, pos in enumerate(skip))

    def test_randomize_noise_preserves_order(self):
        rng = np.random.default_rng(8)
        for seed in range(50):
            values = rng.integers(0, 4, size=20)
            noisy = randomize_values(values, seed)
            gap = smallest_gap(values)
            assert np.all(noisy - values >= 0)
            assert np.all(noisy - values < gap / 2)
            # distinct values keep their strict order
            order = np.argsort(values, kind="stable")
            strict = np.diff(values[order]) > 0
            assert np.all(np.diff(noisy[order])[strict] > 0)

    @pytest.mark.parametrize("n", [4, 6])
    def test_single_window_and_batched_encoders_agree(self, n):
        # a tie-heavy integer series: most windows hold ties
        values = np.random.default_rng(n).integers(0, 3, size=400).astype(float)
        windows = sliding_window_view(values, n)
        batched = descending_permutations(windows)
        for window, row in zip(windows, batched.tolist()):
            single = encode_permutation(window, TiePolicy.first_appearance())
            # descending values, ties by descending position
            reference = tuple(int(i) + 1 for i in np.lexsort((-np.arange(n), -window)))
            assert single == tuple(row) == reference

    def test_smallest_gap_constant_window(self):
        assert smallest_gap(np.array([3, 3, 3])) == 1.0
        assert smallest_gap(np.array([1, 4, 2])) == 1.0
        assert smallest_gap(np.array([0.5, 2.0])) == 1.5
        assert type(smallest_gap(np.array([0.5, 2.0]))) is float

    def test_smallest_gap_per_row_matches_unique(self):
        rng = np.random.default_rng(12)
        rows = np.concatenate([
            rng.integers(0, 4, size=(30, 25)).astype(float),
            rng.random((5, 25)) * rng.integers(1, 9, size=(5, 25)),
            np.full((2, 25), 7.0),
        ])
        gaps = smallest_gap(rows)
        assert gaps.shape == (rows.shape[0],)
        for row, gap in zip(rows, gaps):
            distinct = np.unique(row)
            expected = float(np.min(np.diff(distinct))) if distinct.shape[0] > 1 else 1.0
            assert gap == expected == smallest_gap(row)


def descending_reference(window):
    """One-based positions by descending value, ties by descending position."""
    n = len(window)
    return sorted(range(1, n + 1), key=lambda j: (-window[j - 1], -j))


class TestPermutationTable:
    """Classical codes as ``permutation_table(n)[index]``, each row's index read as a one-window series."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_window_over_n_values(self, n):
        windows = np.array(list(itertools.product(range(n), repeat=n)), dtype=np.float64)
        table = permutation_table(n)
        for w in (windows, -windows):
            assert np.array_equal(table[window_permutation_index(w, n)[..., 0]], descending_permutations(w))
        # and against a plain sort on a sample
        sample = windows[:: max(1, windows.shape[0] // 300)]
        expected = [descending_reference(w) for w in sample.tolist()]
        assert table[window_permutation_index(sample, n)[..., 0]].tolist() == expected

    def test_random_tied_float_windows(self):
        rng = np.random.default_rng(17)
        windows = rng.choice([-1.5, 0.0, 0.25, 2.0, 7.5], size=(3000, 7))
        table = permutation_table(7)
        for w in (windows, -windows):
            codes = table[window_permutation_index(w, 7)[..., 0]]
            assert np.array_equal(codes, descending_permutations(w))
            assert codes.tolist() == [descending_reference(row.tolist()) for row in w]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_index_is_a_bijection_on_tie_free_windows(self, n):
        windows = np.array(list(itertools.permutations(range(n))))
        index = window_permutation_index(windows, n)[..., 0]
        assert index.min() >= 0 and index.max() < math.factorial(n)
        assert np.array_equal(np.bincount(index, minlength=math.factorial(n)), np.ones(math.factorial(n)))

    def test_table_shape_and_bounds(self):
        table = permutation_table(6)
        assert table.shape == (720, 6) and table.dtype == np.int8
        assert not table.flags.writeable
        assert np.array_equal(np.sort(table, axis=1), np.tile(np.arange(1, 7), (720, 1)))
        with pytest.raises(ValueError, match="1..8"):
            permutation_table(9)


class TestEnumeration:
    def test_first_fubini_numbers(self):
        assert [fubini(n) for n in range(1, 8)] == [1, 3, 13, 75, 541, 4683, 47293]

    def test_fubini_length_eight_against_surjection_oracle(self):
        assert fubini(8) == surjection_count(8) == 545835

    def test_fubini_of_long_lengths_needs_no_recursion(self):
        assert [fubini(n) for n in range(11)][8:] == [545835, 7087261, 102247563]
        assert fubini(150) == surjection_count(150)
        # a(n) = n! / (2 ln(2)^(n+1)) up to a relative term far below float precision
        expected = math.lgamma(1201) - math.log(2) - 1201 * math.log(math.log(2))
        assert math.log(fubini(1200)) == pytest.approx(expected, rel=1e-12)

    def test_table_sizes(self):
        assert len(enumerate_patterns(1)) == 1
        assert enumerate_patterns(1).codes.tolist() == [[1]]
        assert len(enumerate_patterns(3)) == 13
        assert len(enumerate_patterns(4)) == 75

    def test_known_members_of_length_three(self):
        table = enumerate_patterns(3)
        rows = table.codes.tolist()
        for member in [(1, 2, 3), (1, 1, 2), (2, 1, 2), (1, 1, 1)]:
            assert list(member) in rows
        assert [1, 3, 3] not in rows

    def test_lexicographic_order(self):
        for n in range(1, 6):
            rows = enumerate_patterns(n).codes.tolist()
            assert rows == sorted(rows)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            enumerate_patterns(0)
        with pytest.raises(ValueError):
            enumerate_patterns(9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_completeness_against_exhaustive_windows(self, n):
        # every window over {1..n} encodes to a table row; all appear, in order
        seen = {oracle_encode(w) for w in itertools.product(range(1, n + 1), repeat=n)}
        table = enumerate_patterns(n)
        assert [tuple(row) for row in table.codes.tolist()] == sorted(seen)
        assert len(table) == fubini(n)

    @pytest.mark.parametrize("n", [7, 8])
    def test_long_tables_valid_and_key_ordered(self, n):
        table = enumerate_patterns(n)
        assert table.codes.shape == (fubini(n), n)
        assert valid_rows(table.codes).all()
        np.testing.assert_array_equal(table.keys, pattern_keys(table.codes))
        assert np.all(np.diff(table.keys) > 0)
        assert not table.codes.flags.writeable

    def test_index_is_a_bijection(self):
        for n in range(1, 6):
            table = enumerate_patterns(n)
            positions = [table.index_of(row) for row in table.codes.tolist()]
            assert positions == list(range(len(table)))
            np.testing.assert_array_equal(table.index_of(table.codes), np.arange(len(table)))

    def test_index_of_pair_windows(self):
        assert enumerate_patterns(1).index_of((1,)) == 0
        table = enumerate_patterns(2)
        assert table.codes.tolist() == [[1, 1], [1, 2], [2, 1]]
        assert table.index_of((1, 1)) == 0

    def test_index_rejects_malformed_patterns(self):
        table = enumerate_patterns(3)
        with pytest.raises(ValueError):
            table.index_of((1, 3, 3))  # gap: no 2
        with pytest.raises(ValueError):
            table.index_of((0, 1, 2))
        with pytest.raises(ValueError):
            table.index_of((1, 2))
        with pytest.raises(ValueError):
            table.index_of(())
        with pytest.raises(ValueError, match=r"\[2, 2, 2\]"):
            table.index_of([[1, 2, 3], [2, 2, 2]])  # names the first bad row

    def test_valid_rows_and_check_patterns(self):
        np.testing.assert_array_equal(
            valid_rows(np.array([[2, 1, 2], [2, 2, 2], [0, 1, 2], [1, 3, 2], [1, 3, 3]])),
            [True, False, False, True, False],
        )
        assert check_patterns(np.empty((0, 3)), 3).shape == (0, 3)
        assert check_patterns((1, 2, 1), 3).tolist() == [[1, 2, 1]]
        for bad in ([[1, 2]], (), [[[1, 1, 1]]]):
            with pytest.raises(ValueError, match="length 3"):
                check_patterns(bad, 3)
        with pytest.raises(ValueError, match=r"\[2, 2, 2\]"):
            check_patterns((2, 2, 2), 3)

    def test_codes_must_be_whole_numbers(self):
        # an int64 cast would read 1.9 as 1 and parse strings
        with pytest.raises(ValueError, match=r"^pattern code must be an integer, got 1.9 at index \(0, 0\)$"):
            check_patterns([[1.9, 2, 3], [1, 2, 3]], 3)
        with pytest.raises(ValueError, match="^pattern code must be an integer, got 1.5 at index 0$"):
            enumerate_patterns(3).index_of((1.5, 2, 3))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"got {bad} at index 2"):
                check_patterns([1.0, 2.0, bad], 3)
        message = "^pattern code values must be boolean, integer or whole real numbers, got dtype <U1$"
        with pytest.raises(ValueError, match=message):
            check_patterns(["1", "2", "3"], 3)
        assert check_patterns([[1.0, 2.0, 1.0]], 3).tolist() == [[1, 2, 1]]
        assert check_patterns(np.array([True, True]), 2).tolist() == [[1, 1]]


class TestPatternKeys:
    def test_keys_unique_and_order_preserving(self):
        for n in (2, 4, 6):
            table = enumerate_patterns(n)
            keys = pattern_keys(table.codes)
            assert len(np.unique(keys)) == len(table)
            assert np.all(np.diff(keys) > 0)  # lexicographic <-> numeric

    @pytest.mark.parametrize("n", range(1, 16))
    def test_codes_invert_keys(self, n):
        rng = np.random.default_rng(n)
        codes = np.array([oracle_encode(w) for w in rng.integers(0, n, size=(200, n)).tolist()])
        codes = np.concatenate([codes, np.arange(n, 0, -1)[None], np.ones((1, n), dtype=np.int64)])
        decoded = pattern_codes(pattern_keys(codes), n)
        assert decoded.dtype == np.int64
        np.testing.assert_array_equal(decoded, codes)

    @pytest.mark.parametrize("n", [1, 3, 6, 8, 15])
    def test_keys_do_not_depend_on_the_code_dtype(self, n):
        # a (2, 51, n) stack whose last rows are the largest pattern, n..1
        rng = np.random.default_rng(40 + n)
        codes = rng.integers(1, n + 1, size=(2, 51, n))
        codes[:, -1] = np.arange(n, 0, -1)
        reference = codes @ (n + 1) ** np.arange(n - 1, -1, -1)
        for dtype in (np.int64, np.int8, np.float64):
            keys = pattern_keys(codes.astype(dtype))
            assert keys.dtype == np.int64
            np.testing.assert_array_equal(keys, reference)


def sorts(monkeypatch):
    """Record whether ``pattern_index`` numbers through a sort: a list that ``np.unique`` appends to."""
    calls = []
    unique = np.unique

    def spy(*args, **kwargs):
        calls.append(True)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    return calls


class TestPatternIndex:
    @pytest.mark.parametrize("budget", [None, 0])  # the budget no longer selects a path
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_unique_reference(self, n, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(_kernels, "CELL_BUDGET", budget)
        sorted_calls = sorts(monkeypatch)
        rng = np.random.default_rng(40 + n)
        for rows in (300, 1):
            arrays = [
                np.array([oracle_encode(w) for w in rng.integers(0, 3, size=(rows, n)).tolist()])
                for _ in range(3)
            ]
            keys = [pattern_keys(a) for a in arrays]
            distinct, inverse = np.unique(np.concatenate(keys), return_inverse=True)
            sorted_calls.clear()
            ids, hists, codes = pattern_index(*arrays)
            # a lookup table when the key range is at most twice the 3 * rows keys
            assert sorted_calls == [True] * (int(max(k.max() for k in keys)) + 1 > 2 * 3 * rows)
            np.testing.assert_array_equal(codes, pattern_codes(distinct, n))
            np.testing.assert_array_equal(pattern_keys(codes), distinct)
            for a, got, hist, expected in zip(arrays, ids, hists, inverse.reshape(3, rows)):
                np.testing.assert_array_equal(got, expected)
                np.testing.assert_array_equal(codes[got], a)
                np.testing.assert_array_equal(hist, np.bincount(expected, minlength=distinct.shape[0]))

    @pytest.mark.parametrize("rows,arrays,sort", [
        (4, 2, False),  # range 8 below 2 x 8 keys
        (2, 2, False),  # range 8 at 2 x 4 keys
        (4, 1, False),  # range 8 at 2 x 4 keys
        (3, 1, True),  # range 8 above 2 x 3 keys
        (1, 2, True),  # range 8 above 2 x 2 keys
    ])
    def test_key_range_picks_the_path(self, rows, arrays, sort, monkeypatch):
        # n = 2 keys are base-3 numbers: (1, 1) -> 4, (1, 2) -> 5, (2, 1) -> 7; the first
        # array starts with (2, 1), so the range is 8
        patterns = np.array([[2, 1], [1, 1], [1, 2], [1, 1]], dtype=np.int8)
        codes = [np.roll(patterns, k, axis=0)[:rows] for k in range(arrays)]
        sorted_calls = sorts(monkeypatch)
        ids, hists, distinct = pattern_index(*codes)
        assert sorted_calls == [True] * sort
        keys = pattern_keys(np.stack(codes))
        np.testing.assert_array_equal(pattern_keys(distinct), np.unique(keys))
        np.testing.assert_array_equal(distinct[ids], np.stack(codes))
        np.testing.assert_array_equal(hists.sum(axis=1), [rows] * arrays)

    @pytest.mark.parametrize("budget", [None, 0, 3])  # the budget no longer selects a path
    def test_equal_lengths_share_one_id_array(self, budget, monkeypatch):
        rng = np.random.default_rng(47)
        arrays = [
            np.array([oracle_encode(w) for w in rng.integers(0, 4, size=(70, 5)).tolist()], dtype=np.int8)
            for _ in range(3)
        ]
        expected_ids, expected_hists, expected_codes = pattern_index(*arrays)
        if budget is not None:
            monkeypatch.setattr(_kernels, "CELL_BUDGET", budget)
        ids, hists, codes = pattern_index(*arrays)
        assert isinstance(ids, np.ndarray) and ids.shape == (3, 70) and ids.dtype == np.int64
        assert hists.shape == (3, codes.shape[0])
        np.testing.assert_array_equal(codes, expected_codes)
        np.testing.assert_array_equal(ids, expected_ids)
        np.testing.assert_array_equal(hists, expected_hists)

    def test_short_n6_numbering_stays_small(self, traced_peak):
        # a lookup table over the 7^6 keys of n = 6 would take 1.1 MiB for 74 keys
        rng = np.random.default_rng(48)
        codes = _kernels.encode_windows(rng.integers(0, 5, size=(2, 40)), 6)
        pattern_index(*codes)
        _, peak = traced_peak(lambda: pattern_index(*codes))
        assert peak < 64 * 2**10

    def test_long_n7_numbering_is_linear_in_the_keys(self, traced_peak):
        # 2e5 keys spread over 8^7 take the sort: the returned (2, W) int64 ids
        # and np.unique's sorted copies, order and inverse, about 6.3 times the ids
        rng = np.random.default_rng(49)
        codes = _kernels.encode_windows(rng.poisson(4.0, size=(2, 100_000)), 7)
        (ids, _, _), peak = traced_peak(lambda: pattern_index(*codes))
        assert peak < 7 * ids.nbytes

    def test_unequal_lengths_rejected(self):
        codes = np.array([[1, 2], [2, 1], [1, 1]])
        with pytest.raises(ValueError, match="unequal lengths: 3 vs 1 rows"):
            pattern_index(codes, codes[:1])

    @pytest.mark.parametrize("arrays", [1, 2])
    def test_no_rows_rejected(self, arrays):
        empty = np.empty((0, 3), dtype=np.int8)
        with pytest.raises(ValueError, match="no code rows to number"):
            pattern_index(*[empty] * arrays)
