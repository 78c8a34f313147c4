"""Ordinal pattern encodings and the pattern space.

A window of n values is encoded by its dense ranks: equal values share a
rank and the ranks of the m distinct values run 1..m, so ties survive the
encoding. The pattern space of length n therefore has Fubini(n) elements
(rankings of n competitors with ties allowed) instead of the n! of
classical tie-free patterns.

Classical permutation encodings under the three legacy tie treatments
(skip the window, randomize with noise, first-appearance rule) are kept as
baselines. ``descending_permutations`` defines them; ``permutation_table``
lists them by Lehmer index for the batched callers.

Pattern numbering lives here: ``pattern_keys`` packs code rows into
order-preserving int64 keys, ``pattern_codes`` unpacks them, and
``pattern_index`` numbers patterns 0..m-1 in key order for every counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
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

    Raises ValueError on an empty window or one of more than 127 values,
    the largest code an int8 holds.
    """
    arr = np.asarray(window)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise ValueError("empty window")
    if arr.shape[0] > 127:
        raise ValueError(f"window of {arr.shape[0]} values exceeds the limit of 127 (int8 rank codes)")
    check_real(arr, "window")
    return tuple(int(c) for c in _kernels.rank_codes(arr))


def _first(bad: np.ndarray) -> tuple[tuple[int, ...], int | tuple[int, ...]]:
    """The index tuple of the first True entry of ``bad``, and how a message names it (an int if 1-d)."""
    index = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
    return index, index[0] if len(index) == 1 else index


def check_finite(values: np.ndarray, what: str = "series") -> None:
    """Raise ValueError naming the first NaN or infinite entry of ``values`` (an index tuple if N-d)."""
    if values.dtype.kind in "fc":
        bad = ~np.isfinite(values)
        if bad.any():
            index, where = _first(bad)
            raise ValueError(f"{what} value at index {where} is not finite ({values[index]})")


def check_real(values: np.ndarray, what: str = "series") -> None:
    """Raise ValueError naming the dtype unless ``values`` are boolean, integer or real; then ``check_finite``."""
    if values.dtype.kind not in "biuf":
        raise ValueError(f"{what} values must be boolean, integer or real numbers, got dtype {values.dtype}")
    check_finite(values, what)


def whole_numbers(values, what: str) -> np.ndarray:
    """``values`` as int64 if they are boolean or integer, or real floats that are finite and whole.

    Any other dtype, or a float that is not a finite whole number, is a
    ValueError naming the dtype, or the first such value and its index (an
    index tuple if N-d, whose first entry is the row).
    """
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise ValueError(f"{what} values must be boolean, integer or whole real numbers, got dtype {values.dtype}")
    if values.dtype.kind == "f":
        bad = ~(np.isfinite(values) & (values == np.round(values)))
        if bad.any():
            index, where = _first(bad)
            at = f" at index {where}" if index else ""  # a 0-d array has no index
            raise ValueError(f"{what} must be an integer, got {values[index]}{at}")
    return values.astype(np.int64, copy=False)


def check_integer(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer (a Python or numpy one, not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def valid_rows(codes: np.ndarray) -> np.ndarray:
    """Per row of a (..., n) code array: True if its values are exactly {1..m}."""
    ordered = np.sort(np.asarray(codes, dtype=np.int64), axis=-1)
    return (ordered[..., 0] == 1) & np.all(np.diff(ordered, axis=-1) <= 1, axis=-1)


def check_patterns(codes: Sequence[int], n: int) -> np.ndarray:
    """One pattern of length n, or a (rows, n) array of them, as (rows, n) int64 codes.

    Codes follow ``whole_numbers``. Raises ValueError naming the first row
    that is not a pattern of length n.
    """
    codes = whole_numbers(codes, "pattern code")
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

    KINDS = ("skip", "randomize", "first_appearance")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown tie policy {self.kind!r}; expected one of {self.KINDS}")
        if self.kind == "randomize":
            if self.seed is None:
                raise ValueError("randomize tie policy requires an explicit seed")
            check_integer("randomize seed", self.seed)
            if self.seed < 0:
                raise ValueError(f"randomize seed must be non-negative, got {self.seed}")

    @classmethod
    def skip(cls) -> "TiePolicy":
        return cls("skip")

    @classmethod
    def randomize(cls, seed: int) -> "TiePolicy":
        return cls("randomize", seed)

    @classmethod
    def first_appearance(cls) -> "TiePolicy":
        return cls("first_appearance")


def smallest_gap(values: np.ndarray) -> float | np.ndarray:
    """Smallest nonzero gap between distinct values along the last axis; 1.0 if all equal.

    A 1-d series gives a float, a stack of series one gap per series.
    """
    steps = np.diff(np.sort(values, axis=-1), axis=-1).astype(np.float64)
    gaps = np.min(steps, axis=-1, where=steps > 0, initial=np.inf)
    gaps = np.where(gaps == np.inf, 1.0, gaps)
    return float(gaps) if gaps.ndim == 0 else gaps


def randomize_values(values: np.ndarray, seed, gap: Optional[float] = None) -> np.ndarray:
    """Add seeded uniform noise on (0, g/2), g the smallest nonzero gap.

    The noise is too small to reorder distinct values, so it only breaks
    ties. Same seed, same values -> same output. ``seed`` is anything
    ``numpy.random.default_rng`` accepts; ``gap`` is ``smallest_gap(values)``
    when not given.
    """
    values = np.asarray(values, dtype=np.float64)
    rng = np.random.default_rng(seed)
    if gap is None:
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
    arr = np.asarray(window)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise ValueError("empty window")
    check_real(arr, "window")
    arr = arr.astype(np.float64)
    if policy.kind == "skip":
        # a plain np.unique would import numpy.ma
        if (np.diff(np.sort(arr)) == 0).any():
            return None
    elif policy.kind == "randomize":
        arr = randomize_values(arr, policy.seed)
    return tuple(int(i) for i in descending_permutations(arr[None])[0])


def descending_permutations(windows: np.ndarray) -> np.ndarray:
    """One-based positions of each (..., n) window by descending value.

    Equal values are listed with the larger position first (the
    first-appearance rule; vacuous without ties).
    """
    # a stable sort of the reversed rows keeps ties in descending position order
    return windows.shape[-1] - np.argsort(-windows[..., ::-1], axis=-1, kind="stable")


@lru_cache(maxsize=None)
def permutation_table(n: int) -> np.ndarray:
    """(n!, n) int8 descending permutations by Lehmer index (n <= 8), read-only.

    Row k is ``descending_permutations`` of the tie-free windows whose
    Lehmer index (``_kernels.window_permutation_index``) is k, so
    ``permutation_table(n)[index]`` encodes windows with or without ties
    under the first-appearance rule. Those windows are the permutations of
    0..n-1 in lexicographic order, negated: digit i of a negated
    permutation's index counts the later positions with a smaller value in
    the permutation, which is digit i of its lexicographic rank.
    """
    if not 1 <= n <= MAX_ENUM_LENGTH:
        raise ValueError(f"pattern length for enumeration must be in 1..{MAX_ENUM_LENGTH}, got {n}")
    windows = -np.array(list(permutations(range(n))), dtype=np.int64)
    table = descending_permutations(windows).astype(np.int8)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def fubini(n: int) -> int:
    """n-th Fubini (ordered Bell) number: patterns of length n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    # levels[k]: patterns of length m with k levels. Position m joins one
    # of the k levels, or is alone at one of k ranks among them.
    levels = [1]
    for m in range(1, n + 1):
        levels.append(0)
        for k in range(m, 0, -1):
            levels[k] = k * (levels[k] + levels[k - 1])
        levels[0] = 0
    return sum(levels)


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


def pattern_keys(codes: np.ndarray, *, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Collapse rank-code rows (last axis) to scalar int64 keys (base n+1 digits).

    Keys preserve lexicographic order and are unique for fixed n, so they
    can stand in for patterns in counting and grouping. They are built by
    Horner's rule one code column at a time, into ``out`` when given (an
    int64 array of the result's shape). Each column is cast as numpy adds
    it, a buffer at a time, so no code column is widened as a whole array.
    """
    codes = np.asarray(codes)
    n = codes.shape[-1]
    _kernels.check_pattern_length(n)
    keys = np.empty(codes.shape[:-1], dtype=np.int64) if out is None else out
    keys.fill(0)
    for j in range(n):
        keys *= n + 1
        np.add(keys, codes[..., j], out=keys, dtype=np.int64, casting="unsafe")
    return keys


def pattern_codes(keys: np.ndarray, n: int) -> np.ndarray:
    """Rank-code rows of length n of pattern keys: the inverse of ``pattern_keys``."""
    _kernels.check_pattern_length(n)
    weights = (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return np.asarray(keys, dtype=np.int64)[..., None] // weights % (n + 1)


def pattern_index(*codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number the patterns of equally long (rows, n) code arrays 0..m-1 in key order, shared by all.

    The keys of every array are written into one (arrays, rows) int64
    buffer and renumbered in place. Keys whose range (the largest key
    plus one) is at most twice their number are numbered through a lookup
    table over that range, sparser ones through a sort, so the temporaries
    stay within a fixed multiple of the buffer. Returns that buffer as the
    (arrays, rows) ids, the (arrays, m) histograms over the m ids, and the
    (m, n) codes of the numbered patterns. Arrays of unequal lengths or
    of no rows are a ValueError.
    """
    rows = codes[0].shape[0]
    for array in codes[1:]:
        if array.shape[0] != rows:
            raise ValueError(f"code arrays of unequal lengths: {rows} vs {array.shape[0]} rows")
    if rows == 0:
        raise ValueError("no code rows to number: the code arrays are empty")
    ids = np.empty((len(codes), rows), dtype=np.int64)
    for array, keys in zip(codes, ids):
        pattern_keys(array, out=keys)
    keys = ids.reshape(-1)
    size = int(keys.max()) + 1
    if size <= 2 * keys.shape[0]:
        seen = np.zeros(size, dtype=bool)
        seen[keys] = True
        distinct = np.flatnonzero(seen)
        relabel = np.cumsum(seen)
        relabel -= 1
        # mode="clip" writes in place; the default "raise" buffers a copy
        np.take(relabel, keys, out=keys, mode="clip")
    else:
        distinct, keys[:] = np.unique(keys, return_inverse=True)
    hists = np.empty((len(codes), distinct.shape[0]), dtype=np.int64)
    for hist, array_ids in zip(hists, ids):
        hist[:] = np.bincount(array_ids, minlength=distinct.shape[0])
    return ids, hists, pattern_codes(distinct, codes[0].shape[-1])
