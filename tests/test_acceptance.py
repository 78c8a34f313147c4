"""Acceptance gate: one test per criterion, one PASS/FAIL line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Criterion 5a is expected to fail and is kept failing on purpose: the
reference coherence values (22.2% / 20.4%) are unreachable with the
two-step weight table it prescribes (measured ~5%); they reproduce with
the four-step table, which criterion 5b verifies. See the companion
analysis in the project notes.
"""

import itertools
import time
import warnings

import numpy as np
import pytest

from oracles import oracle_estimates
from ordpat._kernels import df_rows, encode_windows
from ordpat.dependence import (
    _score_slices,
    analyze_pair,
    classical_dependence,
    dependence_estimates,
    long_run_variance,
)
from ordpat.metric import GENERALIZED_LONG, GENERALIZED_SHORT, l1_distance, pattern_distance
from ordpat.patterns import TiePolicy, encode_pattern, encode_permutation, enumerate_patterns, fubini
from ordpat.simulate import IngarchSpec, simulate_pairs
from ordpat.spatial import ClassMatrix, analyze_spatial, spatial_significance


def report(name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {name}: {state}{suffix}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. pattern-space enumeration
# ---------------------------------------------------------------------------

def test_01_fubini_enumeration():
    expected = [1, 3, 13, 75, 541, 4683, 47293]
    enumerate_patterns.cache_clear()
    start = time.perf_counter()
    counts = [fubini(n) for n in range(1, 8)]
    sizes = [len(enumerate_patterns(n)) for n in range(1, 8)]
    elapsed = time.perf_counter() - start
    report(
        "fubini enumeration n=1..7",
        counts == expected and sizes == expected and elapsed < 1.0,
        f"counts={counts}, sizes match={sizes == expected}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. encoding golden cases
# ---------------------------------------------------------------------------

def test_02_encoding_golden_cases():
    start = time.perf_counter()
    checks = [
        encode_pattern((1, 2, 4, 3)) == (1, 2, 4, 3),
        encode_pattern((5, 5, 5, 5)) == (1, 1, 1, 1),
        encode_pattern((5, 5, 5, 6)) == (1, 1, 1, 2),
        encode_pattern((5, 5, 5, 4)) == (2, 2, 2, 1),
        l1_distance((1, 1, 1, 2), (1, 1, 1, 1)) == 1,
        l1_distance((2, 2, 2, 1), (1, 1, 1, 1)) == 3,
        pattern_distance((1, 1, 1, 2), (1, 1, 1, 1)) == 1,
        pattern_distance((2, 2, 2, 1), (1, 1, 1, 1)) == 1,
        encode_permutation((4, 4, 4, 4), TiePolicy.first_appearance()) == (4, 3, 2, 1),
        encode_permutation((1, 10, 100, 1000), TiePolicy.first_appearance()) == (4, 3, 2, 1),
    ]
    elapsed = time.perf_counter() - start
    report("encoding golden cases", all(checks) and elapsed < 1.0, f"{sum(checks)}/10, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. metric axioms
# ---------------------------------------------------------------------------

def test_03_metric_axioms():
    start = time.perf_counter()
    violations = 0

    # exhaustive over the 13^3 pattern triples of length 3
    codes3 = enumerate_patterns(3).codes
    dist = df_rows(codes3[:, None], codes3[None])
    violations += int(np.sum((dist == 0) != np.eye(13, dtype=bool)))
    violations += int(np.sum(dist != dist.T))
    violations += int(np.sum(dist[:, None, :] > dist[:, :, None] + dist[None, :, :]))

    # 1e5 random pairs and triples for n in {4, 5}
    for n in (4, 5):
        rng = np.random.default_rng(n)
        draws = rng.integers(1, n + 1, size=(3, 100_000, n)).reshape(3, -1)
        a, b, c = (encode_windows(row, n, n) for row in draws)
        dab, dba = df_rows(a, b), df_rows(b, a)
        violations += int(np.sum(dab != dba))
        violations += int(np.sum((dab == 0) != np.all(a == b, axis=1)))
        violations += int(np.sum(df_rows(a, a) != 0))
        violations += int(np.sum(df_rows(a, c) > dab + df_rows(b, c)))
    elapsed = time.perf_counter() - start
    report(
        "metric axioms (exhaustive T_3 + 1e5 random, n in {4,5})",
        violations == 0 and elapsed < 30.0,
        f"{violations} violations, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. shift-range sufficiency
# ---------------------------------------------------------------------------

def test_04_shift_range():
    violations = 0
    for n in range(1, 5):
        codes = enumerate_patterns(n).codes
        narrow = df_rows(codes[:, None], codes[None])
        diff = codes[:, None, :] - codes[None, :, :]
        shifts = np.arange(-3 * n, 3 * n + 1, dtype=np.int64)
        wide = np.abs(diff[:, :, None, :] + shifts[None, None, :, None]).sum(axis=3).min(axis=2)
        violations += int(np.sum(narrow != wide))
    report("shift range [-n, n] sufficient (exhaustive n<=4)", violations == 0,
           f"{violations} violations")


# ---------------------------------------------------------------------------
# 5. simulated coherence reference values
# ---------------------------------------------------------------------------

_COHERENCE_CACHE: dict = {}


def _simulated_coherence(beta1: float, replications: int = 1000) -> dict:
    """Mean coherence under both weight tables, sharing the simulations."""
    if beta1 in _COHERENCE_CACHE:
        return _COHERENCE_CACHE[beta1]
    spec = IngarchSpec(beta0=2.0, beta=(beta1,), length=1000, seed=8128)
    x, y = simulate_pairs(spec, replications)
    # (replications, windows) scores of every pair from one stacked call per table
    result = {
        name: float(np.concatenate(list(_score_slices(x, y, 4, 1, scheme))).mean(axis=1).mean())
        for name, scheme in (("short", GENERALIZED_SHORT), ("long", GENERALIZED_LONG))
    }
    _COHERENCE_CACHE[beta1] = result
    return result


def test_05a_coherence_reference_values_with_two_step_weights():
    """Reference: 22.2% (feedback 0.3) and 20.4% (feedback 0.6), +-2pp.

    As specified this uses the two-step weight table for the length-4
    patterns; the measured coherence sits near 5%, so this check cannot
    reach its targets and is expected to fail. The reference values are
    attainable only with the four-step table (see 5b). Kept as stated so
    the discrepancy stays visible instead of being silently repaired.
    """
    mean_03 = 100 * _simulated_coherence(0.3)["short"]
    mean_06 = 100 * _simulated_coherence(0.6)["short"]
    report(
        "coherence reference values, two-step weights as stated",
        abs(mean_03 - 22.2) <= 2.0 and abs(mean_06 - 20.4) <= 2.0,
        f"measured {mean_03:.1f}% vs 22.2+-2, {mean_06:.1f}% vs 20.4+-2; "
        "targets reproduce only under the four-step table (see 5b)",
    )


def test_05b_coherence_reference_values_with_four_step_weights():
    mean_03 = 100 * _simulated_coherence(0.3)["long"]
    mean_06 = 100 * _simulated_coherence(0.6)["long"]
    report(
        "coherence reference values, four-step weights (reproducing configuration)",
        abs(mean_03 - 22.2) <= 2.0 and abs(mean_06 - 20.4) <= 2.0,
        f"measured {mean_03:.1f}% vs 22.2+-2pp and {mean_06:.1f}% vs 20.4+-2pp",
    )


# ---------------------------------------------------------------------------
# 6. tie-handling ordering
# ---------------------------------------------------------------------------

def _tied_class_pair(seed: int, size: int = 314):
    # zero-inflated flood-like classes over a shared base; independent
    # +-1 perturbations split and merge the tie groups
    rng = np.random.default_rng(seed)
    base = rng.choice([0, 1, 2, 3, 4], p=[0.6, 0.18, 0.12, 0.06, 0.04], size=size)

    def noisy():
        bump = rng.choice([-1, 0, 1], p=[0.2, 0.6, 0.2], size=size)
        return np.clip(base + bump, 0, 4)

    return noisy(), noisy()


@pytest.mark.filterwarnings("ignore::ordpat.exceptions.NumericalWarning")
def test_06_tie_handling_ordering():
    # the four-step table scores the tie-aware pipeline at both lengths
    # (the two-step table cannot beat first-appearance at n=4: that rule
    # is a coarsening of the tie-aware pattern, so its coincidence rate
    # always dominates)
    seeds = 40
    strict = 0
    for seed in range(seeds):
        x, y = _tied_class_pair(3000 + seed)
        good = True
        for n in (4, 6):
            tie_aware = dependence_estimates(x, y, n, scheme=GENERALIZED_LONG).total_score
            first = classical_dependence(
                x, y, n, policy=TiePolicy.first_appearance()
            ).total_score
            randomized = classical_dependence(
                x, y, n, policy=TiePolicy.randomize(seed)
            ).total_score
            good = good and tie_aware > first and tie_aware > randomized
        strict += good
    report(
        "tie-handling ordering (tie-aware > first-appearance, randomized at n=4,6)",
        strict >= 0.95 * seeds,
        f"strict ordering in {strict}/{seeds} seeds",
    )


# ---------------------------------------------------------------------------
# 7. estimator oracle equivalence
# ---------------------------------------------------------------------------

def _estimators_match_oracle(x, y, n) -> bool:
    ref = oracle_estimates(list(x), list(y), n, weights=dict(GENERALIZED_SHORT.mapping))
    est = dependence_estimates(np.array(x), np.array(y), n, scheme=GENERALIZED_SHORT)
    return all(getattr(est, field) == value for field, value in ref.items())


# degenerate marginals (all-equal patterns) are expected in exhaustive runs
@pytest.mark.filterwarnings("ignore::ordpat.exceptions.NumericalWarning")
def test_07_estimator_oracle_equivalence():
    mismatches = 0
    checked = 0
    # exhaustive: every pair of length-4 series over {0, 1, 2}
    quads = list(itertools.product((0, 1, 2), repeat=4))
    for n in (1, 2, 3):
        for x in quads:
            for y in quads:
                mismatches += not _estimators_match_oracle(x, y, n)
        checked += len(quads) ** 2
    # seeded random pairs for lengths 5..12
    rng = np.random.default_rng(424242)
    for size in range(5, 13):
        for _ in range(250):
            x = rng.integers(0, 3, size=size)
            y = rng.integers(0, 3, size=size)
            for n in (2, 3):
                mismatches += not _estimators_match_oracle(x.tolist(), y.tolist(), n)
                checked += 1
    report(
        "estimator oracle equivalence (exact)",
        mismatches == 0,
        f"{checked} pairs checked, {mismatches} mismatches",
    )


# ---------------------------------------------------------------------------
# 8. coefficient endpoints
# ---------------------------------------------------------------------------

def _series_without_constant_windows(rng, size=60, classes=5):
    out = np.empty(size, dtype=np.int64)
    out[0] = rng.integers(0, classes)
    for i in range(1, size):
        v = rng.integers(0, classes - 1)
        out[i] = v + (v >= out[i - 1])  # anything but the previous value
    return out


def test_08_coefficient_endpoints():
    exact = 0
    rng = np.random.default_rng(515151)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # degenerate marginals would warn
        for _ in range(100):
            x = _series_without_constant_windows(rng)
            self_dep = dependence_estimates(x, x, 3)
            anti_dep = dependence_estimates(x, -x, 3)
            exact += self_dep.coefficient == 1.0 and anti_dep.coefficient == -1.0
    report("coefficient endpoints +1/-1 (exact, 100 series)", exact == 100, f"{exact}/100")


# ---------------------------------------------------------------------------
# 9. confidence-interval coverage
# ---------------------------------------------------------------------------

def test_09_ci_coverage():
    # iid uniform over 3 classes: P(equal window patterns) = 1/3 at n=2
    true_p = 1.0 / 3.0
    replications, size = 500, 2000
    covered = 0
    for child in np.random.SeedSequence(616161).spawn(replications):
        rng = np.random.default_rng(child)
        x = rng.integers(0, 3, size=size)
        y = rng.integers(0, 3, size=size)
        var = analyze_pair(x, y, 2, replicates=2).coincidence_variance  # Bartlett, ceil(W^(1/3))
        covered += var.ci_low <= true_p <= var.ci_high
    rate = covered / replications
    report(
        "95% interval coverage in [90%, 98%]",
        0.90 <= rate <= 0.98,
        f"{covered}/{replications} = {100 * rate:.1f}%",
    )


@pytest.mark.parametrize("copy_rate", [0.0, 0.5], ids=["independent", "half-copied"])
def test_09b_bootstrap_ci_coverage(copy_rate):
    # iid classes with probabilities (0.6, 0.3, 0.1): at n=2 a window ties
    # with probability 0.46 and rises or falls with 0.27 each, so the
    # comparison value is 0.46^2 + 2 * 0.27^2 = 0.3574. Uniform classes
    # would make it a degenerate statistic (q = 1/3 exactly at the
    # uniform law) and the percentile interval over-cover. y copies x at
    # each step with probability copy_rate, which keeps y iid with the
    # same law but makes the pair dependent.
    true_q = 0.46**2 + 2 * 0.27**2
    replications, size = 200, 1000
    covered = 0
    for child in np.random.SeedSequence([818181, int(10 * copy_rate)]).spawn(replications):
        rng = np.random.default_rng(child)
        x = rng.choice(3, p=[0.6, 0.3, 0.1], size=size)
        y = np.where(rng.random(size) < copy_rate, x, rng.choice(3, p=[0.6, 0.3, 0.1], size=size))
        low, high = analyze_pair(x, y, 2, replicates=200, seed=int(rng.integers(2**32))).comparison_ci
        covered += low <= true_q <= high
    rate = covered / replications
    report(
        f"bootstrap 95% comparison interval coverage in [90%, 98%] ({copy_rate:.0%} copied)",
        0.90 <= rate <= 0.98,
        f"{covered}/{replications} = {100 * rate:.1f}%",
    )


# ---------------------------------------------------------------------------
# 10. long-run variance oracle
# ---------------------------------------------------------------------------

def test_10_variance_oracle():
    target = 0.3 * 0.7  # iid Bernoulli(0.3) long-run variance
    seeds = 100
    hits = 0
    for child in np.random.SeedSequence(717171).spawn(seeds):
        rng = np.random.default_rng(child)
        indicators = (rng.random(10_000) < 0.3).astype(float)
        sigma2 = long_run_variance(indicators).sigma2
        hits += abs(sigma2 - target) <= 0.15 * target
    report(
        "variance oracle: iid Bernoulli(0.3) within 15% of 0.21",
        hits >= 0.95 * seeds,
        f"{hits}/{seeds} seeds",
    )


# ---------------------------------------------------------------------------
# 11. spatial z golden value and null calibration
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::ordpat.exceptions.NumericalWarning")
def test_11_spatial_z_and_null_calibration():
    pattern = (1, 1, 1, 1)
    rep = spatial_significance([pattern], [0.583], [0.482], num_events=314)
    z_value = rep.z[0]
    golden_ok = abs(z_value - 3.58) <= 0.01 and rep.significant[0]

    clean = 0
    seeds = 30
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        classes = np.column_stack([
            rng.choice([0, 1, 2], p=[0.5, 0.3, 0.2], size=314) for _ in range(3)
        ])
        matrix = ClassMatrix(classes=classes, gauges=("g0", "g1", "g2"))
        null_rep = analyze_spatial(matrix, ("g0", "g1", "g2"))
        clean += not null_rep.significant.any()
    report(
        "spatial z golden value and null calibration",
        golden_ok and clean >= 0.90 * seeds,
        f"z={z_value:.3f} (target 3.58+-0.01), null clean {clean}/{seeds}",
    )


# ---------------------------------------------------------------------------
# 12. monotone-invariance of encodings and estimates
# ---------------------------------------------------------------------------

def test_12_monotone_invariance():
    rng = np.random.default_rng(818181)
    pairs = 10_000
    identical = 0
    for _ in range(pairs):
        x = rng.integers(0, 5, size=40)
        y = rng.integers(0, 5, size=40)
        gaps = rng.uniform(0.25, 2.0, size=8)
        table = rng.uniform(-5.0, 5.0) + np.concatenate([[0.0], np.cumsum(gaps)])
        same_codes = np.array_equal(
            encode_windows(table[x], 3, 1), encode_windows(x, 3, 1)
        )
        before = dependence_estimates(x, y, 3)
        after = dependence_estimates(table[x], table[y], 3)
        identical += same_codes and before == after
    report(
        "monotone invariance, bit-identical (1e4 series/map pairs)",
        identical == pairs,
        f"{identical}/{pairs}",
    )
