"""Naive pure-Python reference implementations used as test oracles.

Everything here enumerates windows explicitly and avoids the library's
vectorized paths so the two sides stay independent.
"""

import itertools
from collections import Counter


def oracle_encode(window):
    distinct = sorted(set(window))
    return tuple(distinct.index(v) + 1 for v in window)


def oracle_windows(values, n, stride=1):
    out = []
    start = 0
    while start + n <= len(values):
        out.append(tuple(values[start : start + n]))
        start += stride
    return out


def oracle_shift_min_l1(t, u, reach=1):
    n = len(t)
    return min(
        sum(abs(t[j] + k - u[j]) for j in range(n))
        for k in range(-reach * n, reach * n + 1)
    )


def oracle_first_appearance(window):
    """Classical pattern: positions 1..n by descending value, the larger position first on ties."""
    return tuple(sorted(range(1, len(window) + 1), key=lambda j: (-window[j - 1], -j)))


def oracle_l1(t, u):
    return sum(abs(a - b) for a, b in zip(t, u))


def oracle_estimates(x, y, n, stride=1, weights=None):
    """p, q, r, s and the total score, window by window.

    ``weights`` maps shift-minimized distances to scores (default: exact
    coincidence only). All sums stay dyadic so results are exactly
    comparable with the library.
    """
    weights = weights if weights is not None else {0: 1.0}
    pairs = list(zip(oracle_windows(x, n, stride), oracle_windows(y, n, stride)))
    return _pair_estimates(pairs, oracle_encode, oracle_shift_min_l1, weights)


def oracle_classical_estimates(x, y, n, stride, weights, skip=False):
    """p, q, r, s, the total score and the score comparison of first-appearance patterns.

    ``weights`` maps plain L1 distances to scores. With ``skip`` the
    windows holding a tie in either series are dropped first.
    """
    pairs = list(zip(oracle_windows(x, n, stride), oracle_windows(y, n, stride)))
    if skip:
        pairs = [(a, b) for a, b in pairs if len(set(a)) == n and len(set(b)) == n]
    expected = _pair_estimates(pairs, oracle_first_appearance, oracle_l1, weights)
    wx = Counter(oracle_first_appearance(a) for a, _ in pairs)
    wy = Counter(oracle_first_appearance(b) for _, b in pairs)
    total = sum(m * k * weights.get(oracle_l1(t, u), 0.0) for t, m in wx.items() for u, k in wy.items())
    expected["score_comparison"] = total / (len(pairs) * len(pairs))
    return expected


def _pair_estimates(pairs, encode, distance, weights):
    wx = [encode(a) for a, _ in pairs]
    wy = [encode(b) for _, b in pairs]
    wyn = [encode(tuple(-v for v in b)) for _, b in pairs]
    count = len(wx)

    def prob(a, b):
        return sum(1 for s, t in zip(a, b) if s == t) / count

    def indep(a, b):
        ca, cb = Counter(a), Counter(b)
        return sum(ca[t] * cb[t] for t in ca if t in cb) / (count * count)

    total = sum(weights.get(distance(s, t), 0.0) for s, t in zip(wx, wy))
    return {
        "coincidence": prob(wx, wy),
        "comparison": indep(wx, wy),
        "anti_coincidence": prob(wx, wyn),
        "anti_comparison": indep(wx, wyn),
        "total_score": total / count,
    }


def oracle_long_run_variance(values, kernel, bandwidth):
    """Literal centered double sum (1/N) sum_ij k((i-j)/b) d_i d_j."""
    count = len(values)
    mean = sum(values) / count
    centered = [v - mean for v in values]
    total = 0.0
    for i in range(count):
        for j in range(count):
            total += kernel((i - j) / bandwidth) * centered[i] * centered[j]
    return total / count


def oracle_product_law(columns):
    """Pattern law of independent columns: explicit product over the supports."""
    count = len(columns[0])
    margs = [Counter(c) for c in columns]
    law = Counter()
    for combo in itertools.product(*(sorted(m) for m in margs)):
        weight = 1.0
        for m, v in zip(margs, combo):
            weight *= m[v] / count
        law[oracle_encode(combo)] += weight
    return law


def oracle_ingarch(spec):
    """Poisson-INGARCH counts, one scalar Poisson draw per step.

    History before the first step sits at the stationary mean; each
    feedback sum runs over the lags in order, as floats. numpy supplies
    only the generator, so both sides draw from the same stream.
    """
    import numpy as np

    rng = np.random.default_rng(spec.seed)
    counts = [spec.stationary_mean] * len(spec.beta)  # most recent last
    nus = [spec.stationary_mean] * len(spec.alpha)

    def feedback(coefficients, history):
        total = 0.0
        for c, v in zip(coefficients, reversed(history)):
            total += c * v
        return total

    out = []
    for _ in range(spec.burn_in + spec.length):
        nu = spec.beta0 + feedback(spec.beta, counts) + feedback(spec.alpha, nus)
        draw = int(rng.poisson(nu))
        counts.append(draw)
        nus.append(nu)
        out.append(draw)
    return out[spec.burn_in :]
