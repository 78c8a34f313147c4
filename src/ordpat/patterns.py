"""Ordinal pattern encodings and the pattern space.

A window of n values is encoded by its dense ranks: equal values share a
rank and the ranks of the m distinct values run 1..m, so ties survive the
encoding. The pattern space of length n therefore has Fubini(n) elements
(rankings of n competitors with ties allowed) instead of the n! of
classical tie-free patterns.

Classical permutation encodings under the three legacy tie treatments
(skip the window, randomize with noise, first-appearance rule) are kept as
baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Optional, Sequence

import numpy as np

from . import _kernels

MAX_ENUM_LENGTH = 8

Pattern = tuple[int, ...]


def encode_pattern(window: Sequence[float]) -> Pattern:
    """Encode a window as its tie-aware rank codes.

    Each value is replaced by the rank of its value among the sorted
    distinct values of the window (smallest -> 1). Equal values get equal
    codes, so e.g. (5, 5, 5, 4) -> (2, 2, 2, 1).

    Raises ValueError on an empty window.
    """
    arr = np.asarray(window)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise ValueError("empty window")
    check_finite(arr, "window")
    return tuple(int(c) for c in _kernels.rank_codes(arr))


def check_finite(values: np.ndarray, what: str = "series") -> None:
    """Raise ValueError naming the first NaN or infinite entry of ``values``."""
    if values.dtype.kind in "fc":
        bad = ~np.isfinite(values)
        if bad.any():
            index = int(np.argmax(bad))
            raise ValueError(f"{what} value at index {index} is not finite ({values[index]})")


def is_valid_pattern(codes: Sequence[int]) -> bool:
    """True if ``codes`` is a dense rank vector: values exactly {1..m}."""
    if len(codes) == 0:
        return False
    seen = set(codes)
    return seen == set(range(1, len(seen) + 1))


@dataclass(frozen=True)
class TiePolicy:
    """Legacy tie treatment for classical permutation patterns.

    kind is one of "skip" (drop windows containing ties), "randomize"
    (break ties with seeded noise; requires a seed for reproducibility) or
    "first_appearance" (equal values ordered by descending position).
    """

    kind: str
    seed: Optional[int] = None

    _KINDS = ("skip", "randomize", "first_appearance")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown tie policy {self.kind!r}; expected one of {self._KINDS}")
        if self.kind == "randomize" and self.seed is None:
            raise ValueError("randomize tie policy requires an explicit seed")

    @classmethod
    def skip(cls) -> "TiePolicy":
        return cls("skip")

    @classmethod
    def randomize(cls, seed: int) -> "TiePolicy":
        return cls("randomize", seed)

    @classmethod
    def first_appearance(cls) -> "TiePolicy":
        return cls("first_appearance")


def smallest_gap(values: np.ndarray) -> float:
    """Smallest nonzero gap between distinct values; 1.0 if all equal."""
    distinct = np.unique(values)
    if distinct.shape[0] < 2:
        return 1.0
    return float(np.min(np.diff(distinct)))


def randomize_values(values: np.ndarray, seed) -> np.ndarray:
    """Add seeded uniform noise on (0, g/2), g the smallest nonzero gap.

    The noise is too small to reorder distinct values, so it only breaks
    ties. Same seed, same values -> same output. ``seed`` is anything
    ``numpy.random.default_rng`` accepts.
    """
    values = np.asarray(values, dtype=np.float64)
    rng = np.random.default_rng(seed)
    gap = smallest_gap(values)
    return values + rng.uniform(0.0, gap / 2.0, size=values.shape)


def encode_permutation(window: Sequence[float], policy: TiePolicy) -> Optional[Pattern]:
    """Classical pattern: positions ordered by descending value.

    Returns the permutation pi of 1..n with window[pi_1] >= ... >= window[pi_n],
    or None when the policy is "skip" and the window contains a tie. Under
    "first_appearance", equal values are listed with the larger position
    first, so a constant window maps to (n, ..., 1). Under "randomize",
    seeded noise below the smallest gap is added before encoding.
    """
    arr = np.asarray(window, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise ValueError("empty window")
    if policy.kind == "skip":
        if np.unique(arr).shape[0] < arr.shape[0]:
            return None
    elif policy.kind == "randomize":
        arr = randomize_values(arr, policy.seed)
    # stable sort on (-value, -position): descending values, ties by
    # descending position (the first-appearance rule; vacuous otherwise)
    order = np.lexsort((-np.arange(arr.shape[0]), -arr))
    return tuple(int(i) + 1 for i in order)


@lru_cache(maxsize=None)
def fubini(n: int) -> int:
    """n-th Fubini (ordered Bell) number: patterns of length n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1
    return sum(comb(n, k) * fubini(n - k) for k in range(1, n + 1))


def _generate_patterns(n: int) -> list[Pattern]:
    # DFS trying smaller codes first yields lexicographic order. A partial
    # prefix is extendable iff the remaining slots can still fill every
    # gap below the current maximum.
    out: list[Pattern] = []
    prefix = [0] * n

    def rec(pos: int, used_mask: int, max_used: int, missing: int) -> None:
        if pos == n:
            if missing == 0:
                out.append(tuple(prefix))
            return
        remaining = n - pos
        for v in range(1, n + 1):
            bit = 1 << v
            if used_mask & bit:
                new_missing = missing
                new_max = max_used
            elif v > max_used:
                new_missing = missing + (v - max_used - 1)
                new_max = v
            else:
                new_missing = missing - 1
                new_max = max_used
            if new_missing > remaining - 1:
                continue
            prefix[pos] = v
            rec(pos + 1, used_mask | bit, new_max, new_missing)

    rec(0, 0, 0, 0)
    return out


@dataclass(frozen=True)
class PatternTable:
    """All patterns of one length, in lexicographic order, with an index."""

    n: int
    entries: tuple[Pattern, ...]
    codes: np.ndarray  # (len(entries), n) int64, same order as entries
    _index: dict[Pattern, int]

    def __len__(self) -> int:
        return len(self.entries)

    def index_of(self, pattern: Sequence[int]) -> int:
        """Position of a pattern in the enumeration order."""
        key = tuple(int(c) for c in pattern)
        if len(key) != self.n or not is_valid_pattern(key):
            raise ValueError(f"not a valid pattern of length {self.n}: {key}")
        return self._index[key]

    def __contains__(self, pattern: Sequence[int]) -> bool:
        return tuple(int(c) for c in pattern) in self._index


@lru_cache(maxsize=None)
def enumerate_patterns(n: int) -> PatternTable:
    """Enumerate the full pattern space of length n (n <= 8).

    The table has exactly fubini(n) entries in lexicographic order on the
    code vectors; every window of length n encodes to one of them.
    """
    if not 1 <= n <= MAX_ENUM_LENGTH:
        raise ValueError(f"pattern length for enumeration must be in 1..{MAX_ENUM_LENGTH}, got {n}")
    entries = _generate_patterns(n)
    codes = np.array(entries, dtype=np.int64)
    index = {p: i for i, p in enumerate(entries)}
    return PatternTable(n=n, entries=tuple(entries), codes=codes, _index=index)


def pattern_keys(codes: np.ndarray) -> np.ndarray:
    """Collapse rank-code rows (last axis) to scalar int64 keys (base n+1 digits).

    Keys preserve lexicographic order and are unique for fixed n, so they
    can stand in for patterns in counting and grouping.
    """
    codes = np.asarray(codes, dtype=np.int64)
    n = codes.shape[-1]
    _kernels.check_pattern_length(n)
    weights = (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return codes @ weights

