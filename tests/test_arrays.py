import numpy as np
import pytest

import commonshock as cs
from commonshock.arrays import ArrayLayout, ClaimCollection, diagonal_of, future_cells


def test_stack_log_single_cell_e():
    lay = ArrayLayout.full(1, 1, 1)
    coll = ClaimCollection(lay, np.array([[[np.e]]]))
    np.testing.assert_allclose(cs.stack_log(coll), [1.0])


def test_stack_log_block_order_two_arrays():
    lay = ArrayLayout.full(2, 1, 1)
    coll = ClaimCollection(lay, np.array([[[1.0]], [[np.e**2]]]))
    np.testing.assert_allclose(cs.stack_log(coll), [0.0, 2.0])


def test_stack_log_bundled_first_cell(bundled):
    y = cs.stack_log(bundled)
    assert y[0] == pytest.approx(np.log(298.0), rel=1e-12)
    assert y[0] == pytest.approx(5.6971, abs=5e-5)


def test_stack_order_row_major_and_array_outermost():
    lay = ArrayLayout.full(2, 2, 2)
    vals = np.array(
        [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]]
    )
    y = cs.stack_log(ClaimCollection(lay, vals))
    np.testing.assert_allclose(np.exp(y), [1, 2, 3, 4, 5, 6, 7, 8])


def test_non_positive_value_names_cell():
    lay = ArrayLayout.full(2, 2, 2)
    vals = np.ones((2, 2, 2))
    vals[1, 0, 1] = -3.0
    with pytest.raises(cs.DataError, match=r"array 2, i=1, j=2"):
        ClaimCollection(lay, vals)


def test_unstack_roundtrip(bundled):
    y = cs.stack_log(bundled)
    grid = cs.unstack(y, bundled.layout)
    mask = bundled.layout.mask
    np.testing.assert_allclose(
        np.exp(grid[:, mask]), bundled.values[:, mask], rtol=1e-12
    )


def test_unstack_zero_vector():
    lay = ArrayLayout.triangle(2, 3)
    grid = cs.unstack(np.zeros(lay.n_observations), lay)
    assert np.all(grid[:, lay.mask] == 0.0)
    assert np.all(np.isnan(grid[:, ~lay.mask]))


def test_unstack_respects_stacking_order():
    # against direct index arithmetic on a 2x2 mask with one cell missing
    mask = np.array([[True, False], [True, True]])
    lay = ArrayLayout(1, 2, 2, mask)
    assert lay.stacking_order == ((1, 1), (2, 1), (2, 2))
    grid = cs.unstack(np.array([10.0, 20.0, 30.0]), lay)
    assert grid[0, 0, 0] == 10.0
    assert grid[0, 1, 0] == 20.0
    assert grid[0, 1, 1] == 30.0
    assert np.isnan(grid[0, 0, 1])


def test_unstack_length_mismatch():
    lay = ArrayLayout.full(1, 2, 2)
    with pytest.raises(cs.DataError, match="length"):
        cs.unstack(np.zeros(5), lay)


def test_diagonal_of():
    assert diagonal_of(1, 1) == 1
    assert diagonal_of(3, 5) == 7
    assert diagonal_of(15, 15) == 29


def test_future_cells_full_rectangle_none():
    lay = ArrayLayout.full(2, 15, 15)
    assert future_cells(lay, 29) == []


def test_future_cells_triangle_lower_region():
    lay = ArrayLayout.triangle(2, 15)
    region = future_cells(lay, 15)
    # enumeration: cells with i + j - 1 > 15 in a 15 x 15 grid
    assert len(region) == 105
    assert all(i + j - 1 > 15 for (i, j) in region)
    assert not any(lay.contains(i, j) for (i, j) in region)


def test_future_cells_two_by_two():
    lay = ArrayLayout.full(1, 2, 2)
    assert future_cells(lay, 2) == [(2, 2)]


def test_future_cells_disjoint_from_diagonal_mask():
    lay = ArrayLayout.triangle(1, 7)
    region = set(future_cells(lay, 7))
    observed = set(lay.stacking_order)
    assert region.isdisjoint(observed)
    # together they tile the grid when the mask is exactly {t <= t_max}
    assert len(region) + len(observed) == 49


def test_cell_lists_are_the_row_major_scan_of_random_masks():
    # the stacking order and the forecast region list the True cells of a
    # mask row by row, 1-based, as Python ints
    rng = np.random.default_rng(4)
    for _ in range(200):
        rows, cols = rng.integers(1, 9, size=2)
        mask = rng.random((rows, cols)) < rng.choice([0.1, 0.5, 0.9, 1.0])
        mask[rng.integers(rows), rng.integers(cols)] = True
        lay = ArrayLayout(int(rng.integers(1, 4)), int(rows), int(cols), mask)
        scan = [(i + 1, j + 1) for i in range(rows) for j in range(cols) if mask[i, j]]
        assert lay.stacking_order == tuple(scan)
        t_max = int(rng.integers(1, rows + cols))
        region = future_cells(lay, t_max)
        assert region == [
            (i, j) for i in range(1, rows + 1) for j in range(1, cols + 1) if i + j - 1 > t_max
        ]
        cells = [v for cell in (*lay.stacking_order, *region) for v in cell]
        assert all(type(v) is int for v in cells)


def test_restrict_to_diagonals(bundled):
    tri = bundled.restrict_to_diagonals(15)
    assert tri.layout.cells_per_array == 120
    assert tri.value(1, 1, 15) == bundled.value(1, 1, 15)
    with pytest.raises(cs.DataError):
        tri.value(1, 15, 15)


def test_from_arrays_infers_mask():
    a = np.array([[1.0, 2.0], [3.0, np.nan]])
    b = np.array([[4.0, 5.0], [6.0, np.nan]])
    coll = ClaimCollection.from_arrays([a, b])
    assert coll.layout.cells_per_array == 3
    with pytest.raises(cs.DataError, match="missing"):
        ClaimCollection.from_arrays([a, np.array([[4.0, np.nan], [6.0, 7.0]])])


def test_layout_immutable(bundled):
    with pytest.raises(Exception):
        bundled.layout.mask[0, 0] = False
    with pytest.raises(Exception):
        bundled.values[0, 0, 0] = 5.0
