"""Hot inner loops: window rank-encoding and pattern distances.

All kernels are exact integer computations in numpy. Encoding works on
windows of shape ``(..., n)``, so one call encodes a single series or a
stack of equally long series. Each series is encoded once: the block
bootstrap resamples the encoded window sequence, not the values.

Both encoders count vectorized column comparisons and sort nothing:
``rank_codes`` gives the tie-aware dense ranks, ``permutation_index`` the
Lehmer index of the classical descending permutation, which
``patterns.permutation_table`` turns into codes.

Pattern codes lie in 1..n with n <= 15, so both pipelines keep them as
int8 from the encoder to the distance: one byte per code.

One kernel per pattern metric, ``df_rows`` (shift-minimized L1) and
``l1_rows`` (plain L1), serves aligned windows and all-pairs tables alike:
both broadcast their (..., n) operands over the leading axes and
subtract them as given, in numpy's result dtype: int8 codes in int8 (the
difference of two codes in 1..n, and the gap between two differences,
fit in an int8), int64 codes in int64. The distances are int64.

Every temporary that grows with the input is built in slices under one
budget of ``CELL_BUDGET`` cells. A cell is 8 bytes, one float64 or int64
value; a slice is charged the real bytes of its temporaries, so an int8
code or a bool is 1/8 of a cell and a float32 half of one. The budget
thus bounds each slice by 1 MiB. Each chunked loop states its cost per
item and iterates ``chunks``; a loop over a grid of rows by windows (the
pairs of a long series pair) iterates ``blocks``, which keeps whole rows
together while one fits and cuts a longer row into window slices.
Sliced by window: the rank codes of ``encode_windows`` and the
coincidences and per-window scores of ``dependence``. Two loops pass
the budget within a fixed multiple of a series' ids: ``pattern_index``
numbers the keys it writes into its ids by a lookup table or a sort,
and the bootstrap builds at least one whole replicate per chunk.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Pattern keys pack n codes as base-(n+1) digits in an int64; (n+1)^n
# stays below 2^63 up to n = 15.
MAX_PATTERN_LENGTH = 15

CELL_BUDGET = 1 << 17


def chunks(count: int, cells_per_item: float) -> Iterator[slice]:
    """Consecutive slices of range(count): each at least one item, at most CELL_BUDGET cells.

    An item costs at least one byte (1/8 of a cell).
    """
    step = max(1, int(CELL_BUDGET // max(cells_per_item, 1 / 8)))
    return (slice(lo, min(lo + step, count)) for lo in range(0, count, step))


def blocks(rows: int, width: int, cells_per_cell: float) -> Iterator[tuple[slice, slice]]:
    """(row slice, column slice) blocks of a rows x width grid, row-major, each under CELL_BUDGET.

    A row costs ``width * cells_per_cell`` cells. Whole rows go together
    while one row fits the budget; a longer row goes alone, cut into
    column slices.
    """
    row_cells = width * cells_per_cell
    if row_cells <= CELL_BUDGET:
        return ((part, slice(0, width)) for part in chunks(rows, row_cells))
    return ((slice(r, r + 1), part) for r in range(rows) for part in chunks(width, cells_per_cell))


def check_pattern_length(n: int) -> None:
    """Reject pattern lengths whose keys would overflow an int64."""
    if n > MAX_PATTERN_LENGTH:
        raise ValueError(
            f"pattern length {n} exceeds {MAX_PATTERN_LENGTH}: "
            f"its pattern keys (base {n + 1}, {n} digits) overflow int64"
        )


def window_count(length: int, n: int, stride: int) -> int:
    """Number of windows of length ``n`` advanced by ``stride`` in a series."""
    if length < n:
        return 0
    return (length - n) // stride + 1


def rank_codes(windows: np.ndarray) -> np.ndarray:
    """Dense rank codes of windows along the last axis, as int8.

    The code of x_j is 1 plus the number of distinct window values below
    x_j, each value counted once, at its first position. Equal values
    share a code and the codes of m distinct values run 1..m. Values must
    be comparable and not NaN.
    """
    windows = np.asarray(windows)
    n = windows.shape[-1]
    cols = [windows[..., j] for j in range(n)]
    counts = [np.ones(windows.shape[:-1], dtype=np.int8) for _ in range(n)]
    for k in range(n):
        # x_k raises the code of every larger value, unless an earlier
        # position already holds the same value
        first = None
        for i in range(k):
            differs = cols[i] != cols[k]
            first = differs if first is None else first & differs
        for j in range(n):
            if j != k:
                below = cols[k] < cols[j]
                if first is not None:
                    below &= first
                counts[j] += below
    codes = np.empty(windows.shape, dtype=np.int8)
    for j in range(n):
        codes[..., j] = counts[j]
    return codes


def permutation_index(windows: np.ndarray) -> np.ndarray:
    """Lehmer index in [0, n!) of each window's descending permutation, along the last axis.

    The permutation lists positions by descending value, equal values with
    the larger position first (the first-appearance rule). Position i < j
    comes after j exactly when x_j >= x_i, so the index is
    sum over i < j of [x_j >= x_i] * (n-1-i)!: the factorial-base number
    whose digit i counts the later positions listed before i.
    """
    windows = np.asarray(windows)
    n = windows.shape[-1]
    cols = [windows[..., j] for j in range(n)]
    index = np.zeros(windows.shape[:-1], dtype=np.int64)
    for i in range(n - 1):
        # Horner's rule in the factorial base: digit i has radix n - i
        index *= n - i
        for j in range(i + 1, n):
            index += cols[j] >= cols[i]
    return index


def encode_windows(
    values: np.ndarray, n: int, stride: int = 1, *, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Dense-rank every sliding window of ``values`` along its last axis.

    For a 1-d series the result is an int8 array of shape (num_windows, n);
    row w holds the rank codes of ``values[w*stride : w*stride + n]``.
    Leading axes of ``values`` (a stack of equally long series) are kept.
    The codes are built a slice of windows at a time, into ``out`` when
    given (an int8 array of the result's shape).
    """
    check_pattern_length(n)
    values = np.asarray(values)
    num = window_count(values.shape[-1], n, stride)
    codes = np.empty((*values.shape[:-1], num, n), dtype=np.int8) if out is None else out
    if num == 0:
        return codes
    windows = sliding_windows(values, n, stride)
    # per window and series: n counts and n codes (int8), three bool masks
    for part in chunks(num, math.prod(values.shape[:-1]) * (2 * n + 3) / 8):
        codes[..., part, :] = rank_codes(windows[..., part, :])
    return codes


def sliding_windows(values: np.ndarray, n: int, stride: int = 1) -> np.ndarray:
    """Read-only view of the windows of ``values`` (at least n long) along its last axis."""
    return sliding_window_view(values, n, axis=-1)[..., ::stride, :]


@lru_cache(maxsize=None)
def _sorting_network(n: int) -> tuple[tuple[int, int], ...]:
    """Compare-exchange pairs (i < j) of Batcher's odd-even merge sort on n inputs."""
    pairs = []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(min(k, n - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return tuple(pairs)


def df_rows(t_codes: np.ndarray, u_codes: np.ndarray) -> np.ndarray:
    """Shift-minimized L1 distance of two (..., n) code arrays, broadcast over leading axes, as int64."""
    n = t_codes.shape[-1]
    # minimize sum |t - u + k| over integer k: a median of the integer
    # differences minimizes it, which leaves the top n//2 differences
    # minus the bottom n//2. The differences are sorted column by column
    # through a sorting network of elementwise minima and maxima.
    diffs = [t_codes[..., j] - u_codes[..., j] for j in range(n)]
    for i, j in _sorting_network(n):
        diffs[i], diffs[j] = np.minimum(diffs[i], diffs[j]), np.maximum(diffs[i], diffs[j])
    distance = np.zeros(diffs[0].shape, dtype=np.int64)
    for low, high in zip(diffs[: n // 2], diffs[n - n // 2 :]):
        distance += high - low
    return distance


def l1_rows(t_codes: np.ndarray, u_codes: np.ndarray) -> np.ndarray:
    """Plain L1 distance of two (..., n) code arrays, broadcast over leading axes, as int64."""
    return np.abs(t_codes - u_codes).sum(axis=-1)
