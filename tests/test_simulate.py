"""Count-process simulation and the coherence benchmark driver."""

import numpy as np
import pytest

from oracles import oracle_ingarch
from ordpat.cli import run_benchmark_simulated
from ordpat.dependence import dependence_estimates
from ordpat.simulate import IngarchSpec, simulate_ingarch, simulate_pairs


class TestIngarchSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="beta0"):
            IngarchSpec(beta0=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            IngarchSpec(beta0=1.0, beta=(-0.1,))
        with pytest.raises(ValueError, match="stationarity"):
            IngarchSpec(beta0=1.0, beta=(0.6,), alpha=(0.4,))
        with pytest.raises(ValueError, match="length"):
            IngarchSpec(beta0=1.0, length=0)
        with pytest.raises(ValueError, match="burn_in"):
            IngarchSpec(beta0=1.0, burn_in=-1)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="beta0 must be finite"):
                IngarchSpec(beta0=bad)
            with pytest.raises(ValueError, match="beta must be finite"):
                IngarchSpec(beta0=1.0, beta=(0.1, bad))
            with pytest.raises(ValueError, match="alpha must be finite"):
                IngarchSpec(beta0=1.0, alpha=(bad,))

    @pytest.mark.parametrize("name,value", [
        ("length", 2.5), ("length", 100.0), ("burn_in", 0.5), ("burn_in", "10"), ("length", True),
    ])
    def test_non_integer_length_or_burn_in_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            IngarchSpec(beta0=1.0, **{name: value})

    def test_numpy_integer_length_and_burn_in_accepted(self):
        spec = IngarchSpec(beta0=1.0, length=np.int64(30), burn_in=np.int32(5), seed=3)
        np.testing.assert_array_equal(
            simulate_ingarch(spec), simulate_ingarch(IngarchSpec(beta0=1.0, length=30, burn_in=5, seed=3))
        )

    def test_stationary_mean(self):
        assert IngarchSpec(beta0=2.0).stationary_mean == pytest.approx(2.0)
        assert IngarchSpec(beta0=2.0, beta=(0.3,)).stationary_mean == pytest.approx(2.0 / 0.7)
        assert IngarchSpec(beta0=1.0, beta=(0.2,), alpha=(0.3,)).stationary_mean == pytest.approx(2.0)


class TestSimulate:
    def test_plain_poisson_mean(self):
        spec = IngarchSpec(beta0=2.0, length=100_000, seed=1)
        counts = simulate_ingarch(spec)
        assert counts.dtype == np.int64
        assert len(counts) == 100_000
        assert counts.mean() == pytest.approx(2.0, abs=0.05)

    def test_feedback_mean_matches_closed_form(self):
        spec = IngarchSpec(beta0=2.0, beta=(0.3,), length=100_000, seed=2)
        counts = simulate_ingarch(spec)
        assert counts.mean() == pytest.approx(spec.stationary_mean, rel=0.02)

    def test_mean_feedback_terms(self):
        spec = IngarchSpec(beta0=1.0, beta=(0.2,), alpha=(0.3,), length=60_000, seed=3)
        counts = simulate_ingarch(spec)
        # within 3 standard errors of the stationary mean
        stderr = counts.std() / np.sqrt(len(counts))
        assert abs(counts.mean() - spec.stationary_mean) < 3 * stderr * 3

    def test_reproducible_from_seed(self):
        spec = IngarchSpec(beta0=2.0, beta=(0.3,), length=500, seed=42)
        np.testing.assert_array_equal(simulate_ingarch(spec), simulate_ingarch(spec))

    def test_seeds_differ(self):
        a = simulate_ingarch(IngarchSpec(beta0=2.0, beta=(0.3,), length=500, seed=1))
        b = simulate_ingarch(IngarchSpec(beta0=2.0, beta=(0.3,), length=500, seed=2))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("q", [0, 1, 2])
    @pytest.mark.parametrize("burn_in", [0, 40])
    def test_matches_scalar_oracle(self, p, q, burn_in):
        spec = IngarchSpec(
            beta0=1.5, beta=(0.25, 0.1)[:p], alpha=(0.3, 0.05)[:q],
            length=300, seed=10 * p + q, burn_in=burn_in,
        )
        counts = simulate_ingarch(spec)
        assert counts.shape == (300,) and counts.dtype == np.int64
        np.testing.assert_array_equal(counts, oracle_ingarch(spec))

    def test_batch(self):
        spec = IngarchSpec(beta0=1.0, beta=(0.3,), alpha=(0.2,), length=400, seed=6)
        batch = simulate_ingarch(spec, rows=50)
        assert batch.shape == (50, 400) and batch.dtype == np.int64
        np.testing.assert_array_equal(batch, simulate_ingarch(spec, rows=50))
        assert len({row.tobytes() for row in batch}) == 50
        assert batch.mean() == pytest.approx(spec.stationary_mean, rel=0.03)


class TestCoherenceBenchmark:
    def test_summary_shape_and_determinism(self):
        spec = IngarchSpec(beta0=2.0, beta=(0.3,), length=300, seed=9)
        one = run_benchmark_simulated(spec, 20, lengths=(4, 6), seed=4)
        two = run_benchmark_simulated(spec, 20, lengths=(4, 6), seed=4)
        assert [(row["approach"], row["n"]) for row in one] == [
            (approach, n) for n in (4, 6)
            for approach in ("generalized", "randomized", "first_appearance")
        ]
        for row in one:
            assert 0.0 <= row["min"] <= row["mean"] <= row["max"] <= 1.0
        assert one == two

    def test_identical_streams_score_one(self):
        spec = IngarchSpec(beta0=2.0, beta=(0.3,), length=200, seed=4)
        counts = simulate_ingarch(spec)
        from ordpat.dependence import total_score

        assert total_score(counts, counts, 4)[0] == 1.0

    def test_streams_are_independent(self):
        # the coefficient between the two simulated streams stays near zero
        spec = IngarchSpec(beta0=2.0, beta=(0.3,), length=2000, seed=5)
        xs, ys = simulate_pairs(spec, 20)
        coefficients = [dependence_estimates(x, y, 3).coefficient for x, y in zip(xs, ys)]
        assert abs(np.mean(coefficients)) < 0.05

    def test_pairs_are_the_halves_of_one_batch(self):
        spec = IngarchSpec(beta0=2.0, beta=(0.3,), length=100, seed=8)
        xs, ys = simulate_pairs(spec, 3)
        both = simulate_ingarch(spec, rows=6)
        np.testing.assert_array_equal(xs, both[:3])
        np.testing.assert_array_equal(ys, both[3:])

    def test_replications_validated(self):
        for call in (
            lambda: run_benchmark_simulated(IngarchSpec(beta0=1.0), 0),
            lambda: simulate_pairs(IngarchSpec(beta0=1.0), 0),
        ):
            with pytest.raises(ValueError, match="replications must be >= 1"):
                call()

    @pytest.mark.parametrize("value", [2.5, 3.0, "3", True])
    def test_non_integer_replications_rejected(self, value):
        spec = IngarchSpec(beta0=1.0, length=20)
        for call in (simulate_pairs, run_benchmark_simulated):
            with pytest.raises(ValueError, match=f"replications must be an integer, got {value!r}"):
                call(spec, value)
        xs, _ = simulate_pairs(IngarchSpec(beta0=1.0, length=20), np.int64(3))
        assert xs.shape == (3, 20)
