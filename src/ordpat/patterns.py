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


def valid_rows(codes: np.ndarray) -> np.ndarray:
    """Per row of a (..., n) code array: True if its values are exactly {1..m}."""
    ordered = np.sort(np.asarray(codes, dtype=np.int64), axis=-1)
    return (ordered[..., 0] == 1) & np.all(np.diff(ordered, axis=-1) <= 1, axis=-1)


def is_valid_pattern(codes: Sequence[int]) -> bool:
    """True if ``codes`` is a dense rank vector: values exactly {1..m}."""
    return len(codes) > 0 and bool(valid_rows(np.asarray(codes, dtype=np.int64)))


def check_patterns(codes: Sequence[int], n: int) -> np.ndarray:
    """One pattern of length n, or a (rows, n) array of them, as (rows, n) int64 codes.

    Raises ValueError naming the first row that is not a pattern of length n.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim not in (1, 2) or codes.shape[-1] != n:
        raise ValueError(f"not a valid pattern of length {n}: array of shape {codes.shape}")
    rows = codes.reshape(-1, n)
    bad = ~valid_rows(rows)
    if bad.any():
        raise ValueError(f"not a valid pattern of length {n}: {rows[np.argmax(bad)].tolist()}")
    return rows


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
    return tuple(int(i) for i in descending_permutations(arr[None])[0])


def descending_permutations(windows: np.ndarray) -> np.ndarray:
    """One-based positions of each (rows, n) window row by descending value.

    Equal values are listed with the larger position first (the
    first-appearance rule; vacuous without ties).
    """
    # a stable sort of the reversed rows keeps ties in descending position order
    return windows.shape[1] - np.argsort(-windows[:, ::-1], axis=1, kind="stable")


@lru_cache(maxsize=None)
def fubini(n: int) -> int:
    """n-th Fubini (ordered Bell) number: patterns of length n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1
    return sum(comb(n, k) * fubini(n - k) for k in range(1, n + 1))


@dataclass(frozen=True)
class PatternTable:
    """All patterns of one length as (rows, n) codes, sorted by pattern key.

    Pattern keys order exactly as the code rows do lexicographically, so
    a pattern's position is a search on ``keys``.
    """

    n: int
    codes: np.ndarray  # (fubini(n), n) int64, read-only
    keys: np.ndarray  # pattern_keys(codes), strictly increasing

    def __len__(self) -> int:
        return self.codes.shape[0]

    def index_of(self, pattern: Sequence[int]) -> int | np.ndarray:
        """Position of a pattern, or of each row of a (rows, n) array of them."""
        positions = np.searchsorted(self.keys, pattern_keys(check_patterns(pattern, self.n)))
        return int(positions[0]) if np.ndim(pattern) == 1 else positions

    def __contains__(self, pattern: Sequence[int]) -> bool:
        # the table holds every valid pattern of its length
        return len(pattern) == self.n and is_valid_pattern(pattern)


@lru_cache(maxsize=None)
def enumerate_patterns(n: int) -> PatternTable:
    """Enumerate the full pattern space of length n (n <= 8).

    The table has exactly fubini(n) rows in lexicographic order on the
    code vectors; every window of length n encodes to one of them. It is
    built from the table of length n-1: a pattern with m levels takes a
    last code that either joins a level v <= m, or opens a new level
    v <= m+1 and lifts the codes >= v by one.
    """
    if not 1 <= n <= MAX_ENUM_LENGTH:
        raise ValueError(f"pattern length for enumeration must be in 1..{MAX_ENUM_LENGTH}, got {n}")
    # the length-0 table holds the empty pattern, with 0 levels
    prev = enumerate_patterns(n - 1).codes if n > 1 else np.empty((1, 0), dtype=np.int64)
    levels = prev.max(axis=1, initial=0)
    parts = []
    for v in range(1, n + 1):
        joins = prev[levels >= v]
        opens = prev[levels >= v - 1]
        parts.append(np.column_stack([joins, np.full(joins.shape[0], v)]))
        parts.append(np.column_stack([opens + (opens >= v), np.full(opens.shape[0], v)]))
    codes = np.concatenate(parts)
    keys = pattern_keys(codes)
    order = np.argsort(keys)
    codes, keys = codes[order], keys[order]
    codes.flags.writeable = keys.flags.writeable = False
    return PatternTable(n=n, codes=codes, keys=keys)


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

