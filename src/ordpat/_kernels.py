"""Hot inner loops: window rank-encoding and pattern distances.

All kernels are exact integer computations in numpy. Encoding works on
windows of shape ``(..., n)``, so one call encodes a single series or a
stack of equally long series. Each series is encoded once: the block
bootstrap resamples the encoded window sequence, not the values.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Pattern keys pack n codes as base-(n+1) digits in an int64; (n+1)^n
# stays below 2^63 up to n = 15.
MAX_PATTERN_LENGTH = 15


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
    """Dense rank codes of windows along the last axis.

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
    codes = np.empty(windows.shape, dtype=np.int64)
    for j in range(n):
        codes[..., j] = counts[j]
    return codes


def encode_windows(values: np.ndarray, n: int, stride: int = 1) -> np.ndarray:
    """Dense-rank every sliding window of ``values`` along its last axis.

    For a 1-d series the result has shape (num_windows, n); row w holds
    the rank codes of ``values[w*stride : w*stride + n]``. Leading axes of
    ``values`` (a stack of equally long series) are kept.
    """
    check_pattern_length(n)
    values = np.asarray(values)
    num = window_count(values.shape[-1], n, stride)
    if num == 0:
        return np.empty((*values.shape[:-1], 0, n), dtype=np.int64)
    return rank_codes(sliding_windows(values, n, stride))


def sliding_windows(values: np.ndarray, n: int, stride: int = 1) -> np.ndarray:
    """Read-only view of the windows of ``values`` (at least n long) along its last axis."""
    return sliding_window_view(values, n, axis=-1)[..., ::stride, :]


def _shift_min_l1(diff: np.ndarray, n: int) -> np.ndarray:
    # diff: (..., n) integer differences t - u; minimize sum |diff + k| over
    # integer k. A median of diff minimizes it (diff is integer, so an
    # integer median exists), which leaves the top n//2 values minus the
    # bottom n//2.
    ordered = np.sort(diff, axis=-1)
    half = n // 2
    return ordered[..., n - half :].sum(axis=-1) - ordered[..., :half].sum(axis=-1)


def df_rows(t_codes: np.ndarray, u_codes: np.ndarray) -> np.ndarray:
    """Row-wise shift-minimized L1 distance between two code matrices."""
    t_codes = np.asarray(t_codes, dtype=np.int64)
    u_codes = np.asarray(u_codes, dtype=np.int64)
    n = t_codes.shape[1]
    return _shift_min_l1(t_codes - u_codes, n)


def df_cross(a_codes: np.ndarray, b_codes: np.ndarray) -> np.ndarray:
    """All-pairs shift-minimized L1 distances, shape (len(a), len(b))."""
    a_codes = np.asarray(a_codes, dtype=np.int64)
    b_codes = np.asarray(b_codes, dtype=np.int64)
    n = a_codes.shape[1]
    diff = a_codes[:, None, :] - b_codes[None, :, :]
    return _shift_min_l1(diff, n)


def l1_rows(t_codes: np.ndarray, u_codes: np.ndarray) -> np.ndarray:
    """Row-wise plain L1 distance between two code matrices."""
    t_codes = np.asarray(t_codes, dtype=np.int64)
    u_codes = np.asarray(u_codes, dtype=np.int64)
    return np.abs(t_codes - u_codes).sum(axis=1)


def l1_cross(a_codes: np.ndarray, b_codes: np.ndarray) -> np.ndarray:
    """All-pairs plain L1 distances, shape (len(a), len(b))."""
    a_codes = np.asarray(a_codes, dtype=np.int64)
    b_codes = np.asarray(b_codes, dtype=np.int64)
    diff = a_codes[:, None, :] - b_codes[None, :, :]
    return np.abs(diff).sum(axis=-1)
