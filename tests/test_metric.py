"""Distance metric, weight schemes, and the similarity score."""

import functools
import itertools

import numpy as np
import pytest

from ordpat.metric import (
    CLASSICAL_LONG,
    CLASSICAL_SHORT,
    EXACT,
    GENERALIZED_LONG,
    GENERALIZED_SHORT,
    SCHEMES,
    WeightScheme,
    get_scheme,
    l1_distance,
    pattern_distance,
    scheme_for_length,
    score,
)
from ordpat.patterns import enumerate_patterns


def oracle_shift_min_l1(t, u, reach=3):
    """Brute-force reference: minimize L1 over shifts in [-reach*n, reach*n]."""
    n = len(t)
    return min(
        sum(abs(t[j] + k - u[j]) for j in range(n))
        for k in range(-reach * n, reach * n + 1)
    )


def table_rows(n):
    """The patterns of length n as tuples, in table order."""
    return [tuple(row) for row in enumerate_patterns(n).codes.tolist()]


def random_patterns(n, count, seed):
    rng = np.random.default_rng(seed)
    windows = rng.integers(1, n + 1, size=(count, n))
    from ordpat._kernels import encode_windows

    return np.vstack([encode_windows(w, n, 1) for w in windows])


class TestDistances:
    def test_l1_known_values(self):
        assert l1_distance((1, 1, 1, 2), (1, 1, 1, 1)) == 1
        assert l1_distance((2, 2, 2, 1), (1, 1, 1, 1)) == 3
        assert l1_distance((1, 3, 2), (1, 3, 2)) == 0

    def test_shift_min_known_values(self):
        # shifting absorbs the level difference between the two tie breaks
        assert pattern_distance((2, 2, 2, 1), (1, 1, 1, 1)) == 1
        assert pattern_distance((1, 1, 1, 2), (1, 1, 1, 1)) == 1
        assert pattern_distance((1, 2, 3), (3, 2, 1)) == oracle_shift_min_l1((1, 2, 3), (3, 2, 1)) == 4
        assert pattern_distance((1, 2, 2), (1, 2, 2)) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            l1_distance((1, 2), (1, 2, 3))
        with pytest.raises(ValueError, match="mismatch"):
            pattern_distance((1, 2), (1, 2, 3))

    def test_codes_must_be_patterns(self):
        for call in (l1_distance, pattern_distance):
            with pytest.raises(ValueError, match="^pattern code must be an integer, got 1.5 at index 0$"):
                call((1.5, 2), (1, 2))
            with pytest.raises(ValueError, match=r"^not a valid pattern of length 2: \[0, 7\]$"):
                call((0, 7), (1, 1))
            with pytest.raises(ValueError, match="got dtype <U1$"):
                call(("1", "2"), (1, 2))
            with pytest.raises(ValueError, match="non-empty 1-d"):
                call([[1]], [[1]])

    def test_never_exceeds_l1(self):
        entries = table_rows(3)
        for t, u in itertools.product(entries, repeat=2):
            assert pattern_distance(t, u) <= l1_distance(t, u)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_metric_axioms_exhaustive(self, n):
        entries = table_rows(n)
        dist = {
            (t, u): pattern_distance(t, u) for t, u in itertools.product(entries, repeat=2)
        }
        for t, u in itertools.product(entries, repeat=2):
            assert (dist[(t, u)] == 0) == (t == u)
            assert dist[(t, u)] == dist[(u, t)]
        for t, u, v in itertools.product(entries, repeat=3):
            assert dist[(t, v)] <= dist[(t, u)] + dist[(u, v)]

    @pytest.mark.parametrize("n", [4, 5])
    def test_metric_axioms_random(self, n):
        pats = random_patterns(n, 600, seed=n)
        a, b, c = pats[:200], pats[200:400], pats[400:]
        from ordpat._kernels import df_rows

        dab, dba = df_rows(a, b), df_rows(b, a)
        np.testing.assert_array_equal(dab, dba)
        assert np.all((dab == 0) == np.all(a == b, axis=1))
        assert np.all(df_rows(a, c) <= dab + df_rows(b, c))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_shift_range_matches_wider_oracle(self, n):
        entries = table_rows(n)
        for t, u in itertools.product(entries, repeat=2):
            assert pattern_distance(t, u) == oracle_shift_min_l1(t, u, reach=3)


class TestWeightSchemes:
    def test_step_tables(self):
        assert GENERALIZED_SHORT.weight(0) == 1.0
        assert GENERALIZED_SHORT.weight(1) == 0.5
        assert GENERALIZED_SHORT.weight(2) == 0.0
        assert GENERALIZED_LONG.weight(3) == 0.25
        assert CLASSICAL_SHORT.weight(2) == 0.5
        assert CLASSICAL_LONG.weight(4) == 0.5
        assert CLASSICAL_LONG.weight(6) == 0.25
        for scheme in (GENERALIZED_SHORT, GENERALIZED_LONG, CLASSICAL_SHORT, CLASSICAL_LONG, EXACT):
            assert scheme.weight(0) == 1.0
            assert scheme.weight(99) == 0.0

    def test_vectorized_lookup_matches_scalar(self):
        distances = np.arange(0, 12)
        for scheme in (GENERALIZED_SHORT, GENERALIZED_LONG, CLASSICAL_LONG, EXACT):
            expected = [scheme.weight(int(d)) for d in distances]
            np.testing.assert_array_equal(scheme.weights_for(distances), expected)

    def test_negative_distances_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            GENERALIZED_SHORT.weights_for([-1, -2])
        with pytest.raises(ValueError, match="non-negative"):
            GENERALIZED_SHORT.weights_for(np.array([[0, 1], [2, -3]]))
        with pytest.raises(ValueError, match="non-negative"):
            GENERALIZED_SHORT.weight(-1)

    def test_fractional_distances_rejected(self):
        with pytest.raises(ValueError, match="must be an integer, got 1.5"):
            GENERALIZED_SHORT.weight(1.5)
        for bad in ([0.9, 1.5, 2.5], [[0.0, 1.0], [np.nan, 2.0]], [np.inf]):
            with pytest.raises(ValueError, match="must be an integer"):
                GENERALIZED_SHORT.weights_for(bad)
        with pytest.raises(ValueError, match="^distance values must be boolean, integer or whole real numbers"):
            GENERALIZED_SHORT.weights_for(["1"])
        # integral floats are integers; integer arrays skip the check
        np.testing.assert_array_equal(GENERALIZED_SHORT.weights_for([0.0, 1.0, 2.0]), [1.0, 0.5, 0.0])
        np.testing.assert_array_equal(
            GENERALIZED_SHORT.weights_for(np.array([0, 1, 2], dtype=np.uint8)), [1.0, 0.5, 0.0]
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="distance 0"):
            WeightScheme("bad", {1: 0.5})
        with pytest.raises(ValueError, match="non-increasing"):
            WeightScheme("bad", {0: 1.0, 1: 0.2, 2: 0.8})
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            WeightScheme("bad", {0: 1.0, 1: 1.5})

    def test_nan_weight_and_fractional_distance_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\], got nan at distance 1"):
            WeightScheme("bad", {0: 1.0, 1: float("nan")})
        with pytest.raises(ValueError, match="non-negative integers, got 1.5"):
            WeightScheme("bad", {0: 1.0, 1.5: 0.5})
        with pytest.raises(ValueError, match="non-negative integers, got -1"):
            WeightScheme("bad", {-1: 1.0, 0: 1.0})
        custom = WeightScheme("halved", {0: 1.0, 1: 0.9, 4: 0.1})
        assert custom.weight(4) == 0.1
        assert custom.weight(2) == 0.0

    def test_schemes_hash_by_name(self):
        for scheme in SCHEMES.values():
            assert hash(scheme) == hash(WeightScheme(scheme.name, dict(scheme.mapping)))
        a, b = WeightScheme("steps", {0: 1.0, 2: 0.5}), WeightScheme("steps", {0: 1.0, 2: 0.5})
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: "first", b: "second"} == {a: "second"}

        @functools.lru_cache(maxsize=None)
        def second_weight(scheme):
            return scheme.weight(2)

        assert second_weight(a) == second_weight(b) == 0.5
        assert second_weight.cache_info().hits == 1

    def test_selection_by_length(self):
        assert scheme_for_length(4) is GENERALIZED_SHORT
        assert scheme_for_length(5) is GENERALIZED_SHORT
        assert scheme_for_length(6) is GENERALIZED_LONG
        assert scheme_for_length(8) is GENERALIZED_LONG
        assert scheme_for_length(4, classical=True) is CLASSICAL_SHORT
        assert scheme_for_length(6, classical=True) is CLASSICAL_LONG
        with pytest.raises(ValueError):
            scheme_for_length(5, classical=True)
        assert get_scheme("exact") is EXACT
        with pytest.raises(ValueError):
            get_scheme("nope")


class TestScore:
    def test_known_scores(self):
        assert score((1, 2, 2), (1, 2, 2), GENERALIZED_SHORT) == 1.0
        assert score((1, 1, 1, 1), (2, 2, 2, 1), GENERALIZED_SHORT) == 0.5
        assert score((1, 2, 3, 4), (4, 3, 2, 1), GENERALIZED_SHORT) == 0.0
        assert oracle_shift_min_l1((1, 2, 3, 4), (4, 3, 2, 1)) == 8

    def test_symmetry(self):
        entries = table_rows(3)
        for t, u in itertools.product(entries[::2], repeat=2):
            assert score(t, u, GENERALIZED_SHORT) == score(u, t, GENERALIZED_SHORT)
