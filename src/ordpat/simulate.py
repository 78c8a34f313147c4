"""Seeded count-process simulation for coherence benchmarks.

Simulates Poisson-INGARCH processes: counts Z_t drawn from a Poisson
distribution whose mean follows the linear recursion

    nu_t = beta0 + sum_i beta_i * Z_{t-i} + sum_j alpha_j * nu_{t-j}.

Two independent streams of such counts carry no cross dependence, which
makes them the reference point for how much pattern coherence pure
auto-correlation produces.

One generator, seeded from the spec, steps all simulated rows in
lockstep. The coherence pairs are the two halves of one such run: x is
the first half of the rows and y the second. A result therefore depends
on (spec, replications); a smaller replication count is not a prefix of
a larger one. Scoring the pairs is the job of ``ordpat benchmark``
(``cli.run_benchmark_simulated``); this module needs no estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .patterns import check_integer


@dataclass(frozen=True)
class IngarchSpec:
    """Parameters of a Poisson-INGARCH simulation.

    beta are the feedback coefficients on past counts, alpha those on
    past conditional means (lags 1..p and 1..q respectively). Stationarity
    requires sum(beta) + sum(alpha) < 1. The recursion starts at the
    stationary mean and ``burn_in`` initial draws are discarded.
    """

    beta0: float
    beta: tuple[float, ...] = ()
    alpha: tuple[float, ...] = ()
    length: int = 1000
    seed: int = 0
    burn_in: int = 500

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        for name in ("beta0", "beta", "alpha"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if self.beta0 <= 0:
            raise ValueError("beta0 must be positive")
        if any(b < 0 for b in self.beta) or any(a < 0 for a in self.alpha):
            raise ValueError("feedback coefficients must be non-negative")
        if sum(self.beta) + sum(self.alpha) >= 1.0:
            raise ValueError("sum(beta) + sum(alpha) must be < 1 for stationarity")
        check_integer("length", self.length)
        check_integer("burn_in", self.burn_in)
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")

    @property
    def stationary_mean(self) -> float:
        """beta0 / (1 - sum(beta) - sum(alpha))."""
        return self.beta0 / (1.0 - sum(self.beta) - sum(self.alpha))


def simulate_ingarch(spec: IngarchSpec, rows: Optional[int] = None) -> np.ndarray:
    """A (rows, length) int64 array of series, or one series if ``rows`` is None.

    Every step makes one vector Poisson draw for all rows. Pre-sample
    history is pinned at the stationary mean and the burn-in stretch is
    dropped, so the returned series are effectively stationary.
    """
    rng = np.random.default_rng(spec.seed)
    width = 1 if rows is None else rows
    p, q = len(spec.beta), len(spec.alpha)
    # ring buffers over the lags: slot t % p holds Z_t, slot t % q holds nu_t
    counts = np.full((p, width), spec.stationary_mean)
    nus = np.full((q, width), spec.stationary_mean)
    out = np.empty((width, spec.length), dtype=np.int64)
    for t in range(-spec.burn_in, spec.length):
        nu = spec.beta0 + _feedback(spec.beta, counts, t) + _feedback(spec.alpha, nus, t)
        draw = rng.poisson(nu, width)
        if p:
            counts[t % p] = draw
        if q:
            nus[t % q] = nu
        if t >= 0:
            out[:, t] = draw
    return out[0] if rows is None else out


def _feedback(coefficients: tuple[float, ...], ring: np.ndarray, t: int):
    # sum over lags i = 1..k of coefficient_i * value_(t-i), added in lag order
    # so that every row follows the scalar recursion bit for bit
    total = 0.0
    for i, c in enumerate(coefficients, start=1):
        total = total + c * ring[(t - i) % len(coefficients)]
    return total


def simulate_pairs(spec: IngarchSpec, replications: int) -> tuple[np.ndarray, np.ndarray]:
    """Independent stream pairs x, y: the two halves of 2 * replications rows."""
    check_integer("replications", replications)
    if replications < 1:
        raise ValueError("replications must be >= 1")
    both = simulate_ingarch(spec, rows=2 * replications)
    return both[:replications], both[replications:]
