"""The numpy kernels against the pure-Python oracles."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from oracles import oracle_encode, oracle_first_appearance, oracle_l1, oracle_shift_min_l1, oracle_windows
from ordpat import _kernels
from ordpat.dependence import _negated_codes
from ordpat.patterns import descending_permutations, pattern_keys, permutation_table


def oracle_codes(values, n, stride=1):
    return np.array(
        [oracle_encode(w) for w in oracle_windows(list(values), n, stride)], dtype=np.int64
    ).reshape(-1, n)


def test_window_count():
    assert _kernels.window_count(10, 4) == 7
    assert _kernels.encode_windows(np.arange(10), 4)[::4].shape == (2, 4)  # a step of 4
    assert _kernels.window_count(4, 4) == 1
    assert _kernels.window_count(3, 4) == 0


def test_encode_windows_numpy_known_values():
    codes = _kernels.encode_windows(np.array([5, 5, 5, 4]), 4)
    assert codes.tolist() == [[2, 2, 2, 1]]
    codes = _kernels.encode_windows(np.array([1, 2, 4, 3, 3]), 4)
    assert codes.tolist() == [[1, 2, 4, 3], [1, 3, 2, 2]]


def test_encode_windows_stride():
    values = np.array([3, 1, 4, 1, 5, 9, 2, 6])
    by_stride = _kernels.encode_windows(values, 2)[::3]
    assert by_stride.shape == (3, 2)
    assert by_stride.tolist() == [[2, 1], [1, 2], [1, 2]]


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("n,stride", [(1, 1), (2, 1), (4, 1), (4, 4), (6, 2), (8, 1)])
def test_encode_windows_matches_oracle(dtype, n, stride):
    rng = np.random.default_rng(101)
    values = rng.integers(-3, 4, size=500).astype(dtype)
    np.testing.assert_array_equal(
        _kernels.encode_windows(values, n)[::stride], oracle_codes(values.tolist(), n, stride)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_distances_match_oracle(n):
    rng = np.random.default_rng(7)
    a = _kernels.encode_windows(rng.integers(0, n + 1, size=300), n)
    b = _kernels.encode_windows(rng.integers(0, n + 1, size=300), n)
    rows = list(zip(a.tolist(), b.tolist()))
    np.testing.assert_array_equal(_kernels.df_rows(a, b), [oracle_shift_min_l1(t, u) for t, u in rows])
    np.testing.assert_array_equal(
        _kernels.l1_rows(a, b), [sum(abs(p - q) for p, q in zip(t, u)) for t, u in rows]
    )
    # broadcast over leading axes: every row of a[:40] against every row of b[:50]
    sa, sb = a[:40].tolist(), b[:50].tolist()
    np.testing.assert_array_equal(
        _kernels.df_rows(a[:40, None], b[None, :50]),
        [[oracle_shift_min_l1(t, u) for u in sb] for t in sa],
    )
    np.testing.assert_array_equal(
        _kernels.l1_rows(a[:40, None], b[None, :50]),
        [[sum(abs(p - q) for p, q in zip(t, u)) for u in sb] for t in sa],
    )


@pytest.mark.parametrize("n", range(1, 16))
def test_sorting_network_distance_matches_oracle(n):
    # random rows of every length the keys allow, the widest network included
    rng = np.random.default_rng(300 + n)
    a = _kernels.encode_windows(rng.integers(0, n + 2, size=200), n)
    b = _kernels.encode_windows(rng.integers(0, n + 2, size=200), n)
    expected = [oracle_shift_min_l1(t, u) for t, u in zip(a.tolist(), b.tolist())]
    got = _kernels.df_rows(a, b)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)


def _kernel_inputs(kind, size, rng):
    if kind == "int":
        return rng.integers(-50, 50, size=size)
    if kind == "float":
        return rng.normal(size=size)
    if kind == "ties":
        return rng.integers(0, 3, size=size).astype(np.float64)
    return np.repeat(rng.integers(0, 4, size=size // 3 + 1), 3)[:size]  # plateaus


def _strides(n):
    """Strides where windows overlap at every lag, at some, at one, and not at all."""
    return sorted({1, 2, max(n - 1, 1), n, n + 2})


def oracle_permutation_codes(values, n, stride=1):
    return np.array(
        [oracle_first_appearance(w) for w in oracle_windows(list(values), n, stride)], dtype=np.int64
    ).reshape(-1, n)


@pytest.mark.parametrize("kind", ["int", "float", "ties", "plateaus"])
@pytest.mark.parametrize("n", range(1, 9))
def test_rank_kernel_matches_oracle(kind, n):
    values = _kernel_inputs(kind, 400, np.random.default_rng(n))
    for stride in _strides(n):
        np.testing.assert_array_equal(
            _kernels.encode_windows(values, n)[::stride], oracle_codes(values.tolist(), n, stride)
        )


@pytest.mark.parametrize("kind", ["int", "float", "ties", "plateaus"])
@pytest.mark.parametrize("n", range(1, 9))
def test_lehmer_index_matches_oracle(kind, n):
    values = _kernel_inputs(kind, 400, np.random.default_rng(50 + n))
    table = permutation_table(n)
    for stride in _strides(n):
        index = _kernels.window_permutation_index(values, n)[::stride]
        assert index.dtype == np.int64
        windows = sliding_window_view(values, n)[::stride]
        np.testing.assert_array_equal(table[index], descending_permutations(windows))
        np.testing.assert_array_equal(table[index], oracle_permutation_codes(values.tolist(), n, stride))


@pytest.mark.parametrize("kind", ["int", "float", "ties", "plateaus"])
@pytest.mark.parametrize("n", range(1, 9))
def test_one_window_rows_match_the_series_encoders(kind, n):
    # rows are the one-window case: C- and F-ordered stacks, a single 1-d window
    values = _kernel_inputs(kind, 120, np.random.default_rng(70 + n))
    rows = np.ascontiguousarray(sliding_window_view(values, n)[::2])
    codes = oracle_codes(values.tolist(), n, 2)
    every, strided = slice(None), slice(0, 30, 2)
    stacks = [(rows, every), (np.asfortranarray(rows), every), (rows[:30].reshape(3, 10, n)[:, ::2], strided)]
    for stack, picked in stacks:
        np.testing.assert_array_equal(_kernels.rank_codes(stack).reshape(-1, n), codes[picked])
    assert _kernels.rank_codes(rows[0]).tolist() == codes[0].tolist()


@pytest.mark.parametrize("budget", [1, 40, 1 << 30])
@pytest.mark.parametrize("n", [3, 6])
def test_encoders_straddle_window_slices(budget, n, monkeypatch):
    # a small budget cuts the windows into slices that share series values
    rng = np.random.default_rng(90 + n)
    stack = rng.integers(0, 4, size=(3, 70))
    monkeypatch.setattr(_kernels, "CELL_BUDGET", budget)
    for stride in _strides(n):
        codes = _kernels.encode_windows(stack, n)[:, ::stride]
        index = _kernels.window_permutation_index(stack, n)[:, ::stride]
        for row, row_codes, row_index in zip(stack.tolist(), codes, index):
            np.testing.assert_array_equal(row_codes, oracle_codes(row, n, stride))
            np.testing.assert_array_equal(
                permutation_table(n)[row_index], oracle_permutation_codes(row, n, stride)
            )
    rows = stack.reshape(-1, n * 5)[:, :n]
    np.testing.assert_array_equal(_kernels.rank_codes(rows), [oracle_encode(r) for r in rows.tolist()])


def test_l1_rows_broadcast_into_int64():
    rng = np.random.default_rng(8)
    a = rng.integers(1, 6, size=(40, 1, 5)).astype(np.int8)
    b = rng.integers(1, 6, size=(1, 50, 5)).astype(np.int8)
    got = _kernels.l1_rows(a, b)
    assert got.dtype == np.int64 and got.shape == (40, 50)
    expected = [[oracle_l1(t, u) for u in b[0].tolist()] for t in a[:, 0].tolist()]
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(_kernels.l1_rows(a.astype(np.int64), b), expected)
    # operands of different rank broadcast over the leading axes too
    np.testing.assert_array_equal(_kernels.l1_rows(a[0, 0], b[0]), expected[0])


def test_stacked_series_encode_row_by_row():
    rng = np.random.default_rng(3)
    stack = rng.integers(0, 4, size=(5, 60))
    codes = _kernels.encode_windows(stack, 4)
    assert codes.shape == (5, 57, 4)
    for row, row_codes in zip(stack, codes):
        np.testing.assert_array_equal(row_codes, _kernels.encode_windows(row, 4))


@pytest.mark.parametrize("budget", [1, 16, 1 << 30])
def test_encode_in_window_slices_into_out(budget, monkeypatch):
    rng = np.random.default_rng(5)
    stack = rng.integers(0, 4, size=(3, 80))
    expected = _kernels.encode_windows(stack, 5)
    monkeypatch.setattr(_kernels, "CELL_BUDGET", budget)
    np.testing.assert_array_equal(_kernels.encode_windows(stack, 5), expected)
    out = np.zeros((3, 76, 5), dtype=np.int8)
    assert _kernels.encode_windows(stack, 5, out=out) is out
    np.testing.assert_array_equal(out, expected)


def test_too_short_series_has_no_windows():
    assert _kernels.encode_windows(np.arange(3), 4).shape == (0, 4)


def test_codes_are_int8_for_series_stacks_and_empty_input():
    rng = np.random.default_rng(4)
    assert _kernels.encode_windows(rng.integers(0, 5, size=50), 4).dtype == np.int8
    assert _kernels.encode_windows(rng.normal(size=(3, 50)), 6).dtype == np.int8
    assert _kernels.encode_windows(np.arange(3), 4).dtype == np.int8
    assert _kernels.encode_windows(np.zeros((2, 3)), 4).dtype == np.int8


def _extreme_and_random_rows(n, rng):
    """Ascending, descending, all-1 and all-n code rows, then random ones, all in 1..n."""
    fixed = [np.arange(1, n + 1), np.arange(n, 0, -1), np.ones(n), np.full(n, n)]
    return np.concatenate([np.array(fixed), rng.integers(1, n + 1, size=(60, n))]).astype(np.int8)


@pytest.mark.parametrize("kernel", [_kernels.df_rows, _kernels.l1_rows])
@pytest.mark.parametrize("n", range(1, 16))
def test_int8_distances_equal_the_int64_path(kernel, n):
    rows = _extreme_and_random_rows(n, np.random.default_rng(500 + n))
    wide = rows.astype(np.int64)
    got = kernel(rows[:, None], rows[None])
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, kernel(wide[:, None], wide[None]))
    # one int8 operand is not enough for the int8 path; the distances agree either way
    np.testing.assert_array_equal(kernel(rows[:, None], wide[None]), got)


@pytest.mark.parametrize("n", range(1, 16))
def test_negated_codes_stay_int8(n):
    rng = np.random.default_rng(600 + n)
    codes = _kernels.encode_windows(rng.integers(0, n + 2, size=(2, 120)), n)
    negated = _negated_codes(codes)
    assert negated.dtype == np.int8
    wide = codes.astype(np.int64)
    reference = wide.max(axis=-1, keepdims=True) + 1 - wide
    np.testing.assert_array_equal(negated, reference)
    np.testing.assert_array_equal(_negated_codes(wide), reference)


def test_pattern_length_limit_guards_key_overflow():
    # (n+1)^n exceeds 2^63 from n = 16 on; the largest allowed key is still exact
    top = np.arange(15, 0, -1)[None, :]
    assert pattern_keys(top)[0] == sum(int(c) * 16 ** (14 - j) for j, c in enumerate(top[0]))
    with pytest.raises(ValueError, match="overflow"):
        _kernels.encode_windows(np.arange(40.0), 16)
    with pytest.raises(ValueError, match="overflow"):
        pattern_keys(np.arange(16, 0, -1)[None, :])


@pytest.mark.parametrize("count,cost", [(0, 5), (1, 5), (10, 1), (10, 3), (10, 4), (10, 40)])
def test_chunks_cover_the_range_under_the_budget(count, cost, monkeypatch):
    monkeypatch.setattr(_kernels, "CELL_BUDGET", 12)  # read at call time
    parts = list(_kernels.chunks(count, cost))
    assert [i for part in parts for i in range(count)[part]] == list(range(count))
    for part in parts:
        items = part.stop - part.start
        assert items >= 1 and (items == 1 or items * cost <= 12)
    assert len(parts) == (-(-count // max(1, 12 // cost)))


@pytest.mark.parametrize("rows,width,cost", [
    (0, 10, 1), (5, 0, 1), (5, 2, 1), (4, 7, 1.5), (3, 40, 1), (3, 40, 0.125), (2, 9, 13),
])
def test_blocks_cover_the_grid_in_row_major_order(rows, width, cost, monkeypatch):
    monkeypatch.setattr(_kernels, "CELL_BUDGET", 12)
    cells = [
        (r, c)
        for row_part, column_part in _kernels.blocks(rows, width, cost)
        for r in range(rows)[row_part]
        for c in range(width)[column_part]
    ]
    assert cells == [(r, c) for r in range(rows) for c in range(width)]
    for row_part, column_part in _kernels.blocks(rows, width, cost):
        count = row_part.stop - row_part.start
        span = column_part.stop - column_part.start
        if count > 1:  # whole rows together
            assert span == width and count * width * cost <= 12
        elif span < width:  # one long row in window slices
            assert width * cost > 12 and (span == 1 or span * cost <= 12)

