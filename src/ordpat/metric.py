"""Pattern distances, weight schemes, and the similarity score.

The central metric is the L1 distance minimized over constant level
shifts: patterns are compared as equivalence classes under addition of
k*(1,...,1), which makes (1,1,1,2) and (2,2,2,1) equally far from the
constant pattern. Weight schemes map distances to scores in [0, 1];
scoring a pair of patterns composes the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from typing import Mapping, Sequence

import numpy as np

from . import _kernels


def _code_pair(t: Sequence[int], u: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    if len(t) != len(u):
        raise ValueError(f"pattern length mismatch: {len(t)} vs {len(u)}")
    pair = np.asarray(t, dtype=np.int64), np.asarray(u, dtype=np.int64)
    if any(codes.ndim != 1 or codes.shape[0] == 0 for codes in pair):
        raise ValueError("pattern must be a non-empty 1-d sequence of codes")
    return pair


def l1_distance(t: Sequence[int], u: Sequence[int]) -> int:
    """Plain L1 distance sum_j |t_j - u_j| between equal-length patterns."""
    return int(_kernels.l1_rows(*_code_pair(t, u)))


def pattern_distance(t: Sequence[int], u: Sequence[int]) -> int:
    """L1 distance minimized over constant shifts k in [-n, n].

    min_k || t + k*(1,...,1) - u ||_1. This is a metric on the pattern
    space; restricting the shift range to [-n, n] loses nothing because
    codes lie in 1..n.
    """
    return int(_kernels.df_rows(*_code_pair(t, u)))


@dataclass(frozen=True)
class WeightScheme:
    """Anti-monotone map from pattern distances to scores in [0, 1].

    Distances absent from ``mapping`` score 0. A valid scheme maps
    distance 0 to weight 1 and is non-increasing over the distances it
    specifies (the classical schemes list even distances only, since L1
    between permutations is always even).
    """

    name: str
    mapping: Mapping[int, float] = field(repr=False, hash=False)  # hashed by name alone

    def __post_init__(self) -> None:
        for d in self.mapping:
            if not isinstance(d, Integral) or d < 0:
                raise ValueError(f"distances must be non-negative integers, got {d!r}")
        items = sorted(self.mapping.items())
        if not items or items[0] != (0, 1.0):
            raise ValueError("weight scheme must map distance 0 to weight 1")
        for d, w in items:
            if not 0 <= w <= 1:  # NaN included
                raise ValueError(f"weights must lie in [0, 1], got {w} at distance {d}")
        weights = [w for _, w in items]
        if any(b > a for a, b in zip(weights, weights[1:])):
            raise ValueError("weights must be non-increasing in distance")

    def weight(self, distance: int) -> float:
        """Score for a single non-negative integer distance."""
        return float(self.weights_for(distance))

    @cached_property
    def _padded(self) -> np.ndarray:
        """Weight by distance 0..max+1, the last one 0; built once per scheme and read-only."""
        table = np.zeros(max(self.mapping) + 2)
        for d, w in self.mapping.items():
            table[d] = w
        table.flags.writeable = False
        return table

    def weights_for(self, distances: np.ndarray) -> np.ndarray:
        """Vectorized weight of a non-negative integer distance array."""
        distances = np.asarray(distances)
        if distances.dtype.kind not in "biu":
            whole = np.isfinite(distances) & (distances == np.round(distances))
            if not whole.all():
                bad = distances[~whole].ravel()[0]
                raise ValueError(f"distance must be an integer, got {bad}")
        distances = distances.astype(np.int64, copy=False)
        if distances.min(initial=0) < 0:
            raise ValueError("distance must be non-negative")
        # distances past the table score 0, the weight appended at its end
        table = self._padded
        return table[np.minimum(distances, table.shape[0] - 1)]


GENERALIZED_SHORT = WeightScheme("generalized-short", {0: 1.0, 1: 0.5})
GENERALIZED_LONG = WeightScheme("generalized-long", {0: 1.0, 1: 0.75, 2: 0.5, 3: 0.25})
CLASSICAL_SHORT = WeightScheme("classical-short", {0: 1.0, 2: 0.5})
CLASSICAL_LONG = WeightScheme("classical-long", {0: 1.0, 2: 0.75, 4: 0.5, 6: 0.25})
EXACT = WeightScheme("exact", {0: 1.0})

SCHEMES: dict[str, WeightScheme] = {
    s.name: s
    for s in (GENERALIZED_SHORT, GENERALIZED_LONG, CLASSICAL_SHORT, CLASSICAL_LONG, EXACT)
}


def get_scheme(name: str) -> WeightScheme:
    """Look up a named scheme."""
    try:
        return SCHEMES[name]
    except KeyError:
        raise ValueError(f"unknown weight scheme {name!r}; known: {sorted(SCHEMES)}") from None


def scheme_for_length(n: int, classical: bool = False) -> WeightScheme:
    """Default scheme for a pattern length.

    Generalized schemes switch from the short to the long step table at
    n = 6. Classical baselines are only defined for n = 4 and n = 6.
    """
    if classical:
        if n == 4:
            return CLASSICAL_SHORT
        if n == 6:
            return CLASSICAL_LONG
        raise ValueError(f"classical weight schemes exist only for n in (4, 6), got n={n}")
    return GENERALIZED_SHORT if n < 6 else GENERALIZED_LONG


def score(t: Sequence[int], u: Sequence[int], scheme: WeightScheme) -> float:
    """Similarity score of two patterns: scheme weight of their distance."""
    return scheme.weight(pattern_distance(t, u))
