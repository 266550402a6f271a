"""Claim-array collections, cell masks, and the stacking map.

A collection holds N congruent two-dimensional claim arrays. Cells are
addressed by 1-based (i, j) = (accident period, development period); the
common mask marks which cells carry observations. Vectors are stacked with
array index n outermost and a fixed row-major cell order inside each array,
the same order for every n, so all matrix layouts downstream are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


def diagonal_of(i: int, j: int) -> int:
    """Calendar diagonal t = i + j - 1 of cell (i, j)."""
    return i + j - 1


def _grid_diagonals(n_rows: int, n_cols: int) -> np.ndarray:
    """Calendar diagonal of every cell of an n_rows x n_cols grid."""
    return diagonal_of(*np.indices((n_rows, n_cols)) + 1)


def _cells_of(mask: np.ndarray) -> list:
    """1-based (i, j) of the True cells of a mask, in row-major order.

    This is the stacking order: the order of ``np.nonzero`` and of
    ``values[:, mask]``.
    """
    return [tuple(ij) for ij in (np.argwhere(mask) + 1).tolist()]


def _first_cell(layout: "ArrayLayout", flags: np.ndarray) -> tuple:
    """1-based (array, i, j) of the first True of an (N, cells) array, in stacking order."""
    n, k = divmod(int(np.argmax(flags)), flags.shape[1])
    return (n + 1, *layout.stacking_order[k])


@dataclass(frozen=True)
class ArrayLayout:
    """Shared shape of the arrays in a collection.

    Parameters
    ----------
    n_arrays : int
        Number of congruent arrays N.
    n_rows, n_cols : int
        Grid dimensions (accident by development periods).
    mask : ndarray of bool, shape (n_rows, n_cols)
        True where a cell carries an observation; identical for all arrays.
    """

    n_arrays: int
    n_rows: int
    n_cols: int
    mask: np.ndarray
    stacking_order: tuple = field(init=False)

    def __post_init__(self):
        if self.n_arrays < 1 or self.n_rows < 1 or self.n_cols < 1:
            raise DataError("layout dimensions must be positive")
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != (self.n_rows, self.n_cols):
            raise DataError(
                f"mask shape {mask.shape} does not match grid "
                f"({self.n_rows}, {self.n_cols})"
            )
        if not mask.any():
            raise DataError("mask excludes every cell")
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "stacking_order", tuple(_cells_of(mask)))

    @classmethod
    def full(cls, n_arrays: int, n_rows: int, n_cols: int) -> "ArrayLayout":
        """Layout with every cell observed."""
        return cls(n_arrays, n_rows, n_cols, np.ones((n_rows, n_cols), dtype=bool))

    @classmethod
    def triangle(cls, n_arrays: int, size: int) -> "ArrayLayout":
        """Conventional triangle: cells with i + j - 1 <= size on a size x size grid."""
        return cls(n_arrays, size, size, _grid_diagonals(size, size) <= size)

    @property
    def cells_per_array(self) -> int:
        """Number of masked-in cells per array."""
        return len(self.stacking_order)

    @property
    def n_observations(self) -> int:
        return self.n_arrays * self.cells_per_array

    def position(self, i: int, j: int) -> int:
        """0-based position of cell (i, j) within one array's stacked vector."""
        if not self.contains(i, j):
            raise DataError(f"cell ({i}, {j}) is not masked in")
        return int(np.count_nonzero(self.mask.ravel()[: (i - 1) * self.n_cols + j - 1]))

    def contains(self, i: int, j: int) -> bool:
        return (
            1 <= i <= self.n_rows
            and 1 <= j <= self.n_cols
            and bool(self.mask[i - 1, j - 1])
        )

    def restrict_to_diagonals(self, t_max: int) -> "ArrayLayout":
        """Sub-layout keeping only masked cells with i + j - 1 <= t_max."""
        keep = self.mask & (_grid_diagonals(self.n_rows, self.n_cols) <= t_max)
        return ArrayLayout(self.n_arrays, self.n_rows, self.n_cols, keep)


def future_cells(layout: ArrayLayout, t_max: int) -> list:
    """Forecast region: grid cells beyond diagonal t_max, in stacking order.

    The region is constructed from the full grid (not the mask) by the same
    row-major rule as the stacking order, and is identical for every array.
    """
    if t_max < 1:
        raise DataError("t_max must be at least 1")
    return _cells_of(_grid_diagonals(layout.n_rows, layout.n_cols) > t_max)


@dataclass(frozen=True)
class ClaimCollection:
    """N congruent arrays of strictly positive claim amounts.

    ``values`` has shape (n_arrays, n_rows, n_cols) with NaN outside the mask.
    """

    layout: ArrayLayout
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        expected = (self.layout.n_arrays, self.layout.n_rows, self.layout.n_cols)
        if vals.shape != expected:
            raise DataError(f"values shape {vals.shape} does not match layout {expected}")
        observed = vals[:, self.layout.mask]
        bad = ~(np.isfinite(observed) & (observed > 0.0))
        if bad.any():
            n, i, j = _first_cell(self.layout, bad)
            raise DataError(
                f"claim value at (array {n}, i={i}, j={j}) "
                f"must be a positive number, got {vals[n - 1, i - 1, j - 1]!r}"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_arrays(cls, arrays, mask=None) -> "ClaimCollection":
        """Build a collection from a sequence of 2-d arrays.

        When ``mask`` is omitted it is inferred from the finite entries of the
        first array; all arrays must be finite on exactly the same cells.
        """
        stacked = np.stack([np.asarray(a, dtype=float) for a in arrays])
        n, rows, cols = stacked.shape
        finite = np.isfinite(stacked)
        if mask is None:
            mask = finite[0]
        mask = np.asarray(mask, dtype=bool)
        for k in range(n):
            if not np.array_equal(finite[k] & mask, mask):
                raise DataError(f"array {k + 1} is missing values on masked-in cells")
        layout = ArrayLayout(n, rows, cols, mask)
        vals = np.where(mask, stacked, np.nan)
        return cls(layout, vals)

    def value(self, n: int, i: int, j: int) -> float:
        """Claim amount in array n (1-based) at cell (i, j)."""
        if not self.layout.contains(i, j):
            raise DataError(f"cell ({i}, {j}) is not masked in")
        return float(self.values[n - 1, i - 1, j - 1])

    def restrict_to_diagonals(self, t_max: int) -> "ClaimCollection":
        sub = self.layout.restrict_to_diagonals(t_max)
        vals = np.where(sub.mask, self.values, np.nan)
        return ClaimCollection(sub, vals)


def stack_log(collection: ClaimCollection) -> np.ndarray:
    """Stack the logs of all claim values into one vector.

    Component order: array n = 1..N outermost, the layout's stacking order
    within each array. Entry k is ln of the claim value at that cell.
    """
    observed = collection.values[:, collection.layout.mask]
    bad = ~(observed > 0.0)
    if bad.any():
        n, i, j = _first_cell(collection.layout, bad)
        raise DataError(
            f"cannot take log of non-positive value at "
            f"(array {n}, i={i}, j={j})"
        )
    return np.log(observed).ravel()


def unstack(vec: np.ndarray, layout: ArrayLayout) -> np.ndarray:
    """Inverse of the stacking map.

    Returns an array of shape (n_arrays, n_rows, n_cols) with NaN outside the
    mask; exact round trip with the stacking order.
    """
    vec = np.asarray(vec, dtype=float).ravel()
    if vec.size != layout.n_observations:
        raise DataError(
            f"vector length {vec.size} does not match "
            f"N*|cells| = {layout.n_observations}"
        )
    out = np.full((layout.n_arrays, layout.n_rows, layout.n_cols), np.nan)
    out[:, layout.mask] = vec.reshape(layout.n_arrays, -1)
    return out
