"""Hot inner loops: window rank-encoding and pattern distances.

All kernels are exact integer computations in numpy. The encoders take
the sliding windows of a series, or of a stack of equally long series,
along the last axis; each series is encoded once (the block bootstrap
resamples encoded windows, not values). Neither encoder sorts:
``encode_windows`` gives the tie-aware dense ranks,
``window_permutation_index`` the Lehmer index of the classical descending
permutation (``patterns.permutation_table`` turns it into codes). Both
read each pair of window positions (i, i + d) from one comparison per lag
d over the series where windows overlap at that lag, and compare the two
window columns directly where they do not. ``rank_codes`` ranks windows
given as (..., n) rows, the one-window case of the same code.

Pattern codes lie in 1..n with n <= 15, so both pipelines keep them as
int8 from the encoder to the distance. One kernel per pattern metric,
``df_rows`` (shift-minimized L1) and ``l1_rows`` (plain L1), serves
aligned windows and all-pairs tables alike: both broadcast their (..., n)
operands over the leading axes, subtract them as given, in numpy's
result dtype (int8 codes in int8: the difference of two codes in 1..n,
and the gap between two differences, fit in an int8), and add the
distance up column by column in int64.

Every temporary that grows with the input is built in slices under one
budget of ``CELL_BUDGET`` cells. A cell is 8 bytes, one float64 or int64
value; a slice is charged the real bytes of its temporaries, so an int8
code or a bool is 1/8 of a cell and a float32 half of one. The budget
thus bounds each slice by 1 MiB. Each chunked loop states its cost per
item and iterates ``chunks``; a loop over a grid of rows by windows (the
pairs of a long series pair) iterates ``blocks``, which keeps whole rows
together while one fits and cuts a longer row into window slices. Two
loops pass the budget within a fixed multiple of a series' ids:
``pattern_index`` numbers the keys it writes into its ids by a lookup
table or a sort, and the bootstrap builds at least one whole replicate
per chunk.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

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


def encode_windows(
    values: np.ndarray, n: int, stride: int = 1, *, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Dense-rank every sliding window of ``values`` along its last axis.

    For a 1-d series the result is an int8 array of shape (num_windows, n);
    row w holds the rank codes of ``values[w*stride : w*stride + n]``.
    Leading axes of ``values`` (a stack of equally long series) are kept.
    The code of x_j is 1 plus the number of distinct window values below
    x_j, each value counted once, at its first position. Equal values
    share a code and the codes of m distinct values run 1..m. Values must
    be comparable and not NaN. The codes are built a slice of windows at a
    time, into ``out`` when given (an int8 array of the result's shape).
    """
    check_pattern_length(n)
    values = np.asarray(values)
    num = window_count(values.shape[-1], n, stride)
    codes = np.empty((*values.shape[:-1], num, n), dtype=np.int8) if out is None else out
    # per window and series: n first-position flags, n codes, a comparison and its masked copy
    return _by_window(_rank_block, values, n, stride, codes, n / 2)


def rank_codes(windows: np.ndarray) -> np.ndarray:
    """``encode_windows`` codes of (..., n) windows, one window per row: a single window is its own position view."""
    windows = np.asarray(windows)
    n = windows.shape[-1]
    codes = np.empty(windows.shape, dtype=np.int8)
    if windows.ndim == 1:
        _rank_block(windows, None, n, codes)
        return codes
    rows, flat = windows.reshape(-1, n), codes.reshape(-1, n)
    # a slice of rows is its (n, rows) position view, copied (and charged) where the rows lie apart
    for part in chunks(rows.shape[0], n / 2 + n * windows.itemsize / 8):
        cols = rows[part].T
        _rank_block(cols if cols.strides[-1] == cols.itemsize else cols.copy(), None, n, flat[part])
    return codes


def window_permutation_index(values: np.ndarray, n: int, stride: int = 1) -> np.ndarray:
    """Lehmer index in [0, n!) of each window's descending permutation, as (..., num_windows) int64.

    Windows are those of ``encode_windows``. The permutation lists
    positions by descending value, equal values with the larger position
    first (the first-appearance rule). Position i < j comes after j exactly
    when x_j >= x_i, so the index is sum over i < j of [x_j >= x_i] *
    (n-1-i)!: the factorial-base number whose digit i counts the later
    positions listed before i.
    """
    values = np.asarray(values)
    index = np.empty((*values.shape[:-1], window_count(values.shape[-1], n, stride)), dtype=np.int64)
    return _by_window(_lehmer_block, values, n, stride, index, n / 4)  # n - 1 digits, a comparison


def _by_window(block, values: np.ndarray, n: int, stride: int, out: np.ndarray, cells: float) -> np.ndarray:
    """Fill ``out`` by ``block(cols, span, stride, out_part)`` per slice of windows, ``cells`` a window.

    ``cols`` is the (n, ..., num) position view [i, ..., w] = span[..., w * stride + i].
    """
    lead = values.ndim - 1
    for part in chunks(out.shape[lead], math.prod(values.shape[:-1]) * cells):
        span = values[..., part.start * stride : (part.stop - 1) * stride + n]
        *steps, step = span.strides
        cols = as_strided(span, (n, *span.shape[:-1], part.stop - part.start), (step, *steps, stride * step))
        block(cols, span, stride, out[(slice(None),) * lead + (part,)])
    return out


def _pairs(op, cols: np.ndarray, d: int, values: Optional[np.ndarray], stride: int) -> np.ndarray:
    """op(x_i, x_{i+d}) of every window for i < n - d, as (n - d, ..., num).

    Where windows overlap at lag d (stride < n - d), each pair of series
    values at lag d is compared once: the pairs whose first value lies at
    offset i0 modulo the stride form one contiguous lag row, which window
    position i = i0 + k * stride reads from k on. Otherwise the window
    columns are compared directly, the window axis innermost.
    """
    n, num = cols.shape[0], cols.shape[-1]
    if stride >= n - d:
        return op(cols[: n - d], cols[d:]) if cols.flags.c_contiguous else op(cols[: n - d], cols[d:], order="C")
    pairs = np.empty(cols[: n - d].shape, dtype=bool)
    for i0 in range(stride):
        rows = (n - d - 1 - i0) // stride + 1
        end = i0 + (num + rows - 1) * stride
        lag = op(values[..., i0:end:stride], values[..., i0 + d : end + d : stride], order="C")
        *steps, step = lag.strides
        pairs[i0::stride] = np.ndarray((rows, *lag.shape[:-1], num), lag.dtype, lag, 0, (step, *steps, step))
    return pairs


def _rank_block(cols: np.ndarray, values: Optional[np.ndarray], stride: int, out: np.ndarray) -> None:
    """Rank codes of the windows at (n, ..., num) positions ``cols`` into ``out`` (..., num, n)."""
    n = cols.shape[0]
    # first[k]: x_k is the first position of its value in the window
    first = np.ones(cols.shape, dtype=bool)
    for d in range(1, n):
        np.logical_and(first[d:], _pairs(np.not_equal, cols, d, values, stride), out=first[d:])
    # x_k raises the code of every larger value from its first position
    codes = np.ones(cols.shape, dtype=np.int8)
    for d in range(1, n):
        codes[d:] += _pairs(np.less, cols, d, values, stride) & first[:-d]
        codes[:-d] += _pairs(np.greater, cols, d, values, stride) & first[d:]
    for j in range(n):
        out[..., j] = codes[j]


def _lehmer_block(cols: np.ndarray, values: Optional[np.ndarray], stride: int, out: np.ndarray) -> None:
    """Lehmer indices of the windows at (n, ..., num) positions ``cols`` into ``out`` (..., num)."""
    n = cols.shape[0]
    # digit i counts the x_j >= x_i with j > i: lag d adds the pairs (i, i + d)
    digits = _pairs(np.less_equal, cols, 1, values, stride).view(np.int8)
    for d in range(2, n):
        digits[: n - d] += _pairs(np.less_equal, cols, d, values, stride)
    out[...] = digits[0] if n > 1 else 0
    for i in range(1, n - 1):  # Horner's rule in the factorial base: digit i has radix n - i
        out *= n - i
        out += digits[i]


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
    # the gaps of all columns in one position-major array, added up column by column
    ndim = max(t_codes.ndim, u_codes.ndim)
    t, u = (a.reshape((1,) * (ndim - a.ndim) + a.shape).transpose(-1, *range(ndim - 1)) for a in (t_codes, u_codes))
    gaps = np.subtract(t, u, order="C")
    return np.add.reduce(np.abs(gaps, out=gaps), axis=0, dtype=np.int64)
