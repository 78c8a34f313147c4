"""Pattern encodings, enumeration, and the classical tie policies."""

import itertools

import numpy as np
import pytest

from ordpat._kernels import sliding_windows
from ordpat.patterns import (
    TiePolicy,
    check_patterns,
    descending_permutations,
    encode_pattern,
    encode_permutation,
    enumerate_patterns,
    fubini,
    is_valid_pattern,
    pattern_keys,
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

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            encode_permutation((), TiePolicy.skip())

    def test_randomize_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            TiePolicy("randomize")

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
        windows = sliding_windows(values, n)
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


class TestEnumeration:
    def test_first_fubini_numbers(self):
        assert [fubini(n) for n in range(1, 8)] == [1, 3, 13, 75, 541, 4683, 47293]

    def test_fubini_length_eight_against_surjection_oracle(self):
        assert fubini(8) == surjection_count(8) == 545835

    def test_table_sizes(self):
        assert len(enumerate_patterns(1)) == 1
        assert enumerate_patterns(1).codes.tolist() == [[1]]
        assert len(enumerate_patterns(3)) == 13
        assert len(enumerate_patterns(4)) == 75

    def test_known_members_of_length_three(self):
        table = enumerate_patterns(3)
        rows = table.codes.tolist()
        for member in [(1, 2, 3), (1, 1, 2), (2, 1, 2), (1, 1, 1)]:
            assert member in table
            assert list(member) in rows
        assert (1, 3, 3) not in table and (1, 2) not in table

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

    def test_is_valid_pattern(self):
        assert is_valid_pattern((2, 1, 2))
        assert not is_valid_pattern((2, 2, 2))
        assert not is_valid_pattern(())
        np.testing.assert_array_equal(
            valid_rows(np.array([[2, 1, 2], [2, 2, 2], [0, 1, 2], [1, 3, 2]])),
            [True, False, False, True],
        )
        assert check_patterns(np.empty((0, 3)), 3).shape == (0, 3)
        assert check_patterns((1, 2, 1), 3).tolist() == [[1, 2, 1]]
        for bad in ([[1, 2]], (), [[[1, 1, 1]]]):
            with pytest.raises(ValueError, match="length 3"):
                check_patterns(bad, 3)


class TestPatternKeys:
    def test_keys_unique_and_order_preserving(self):
        for n in (2, 4, 6):
            table = enumerate_patterns(n)
            keys = pattern_keys(table.codes)
            assert len(np.unique(keys)) == len(table)
            assert np.all(np.diff(keys) > 0)  # lexicographic <-> numeric
