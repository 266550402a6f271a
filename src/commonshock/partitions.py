"""Partitions of a claim array into dependence subsets.

Each dependence type maps every masked-in cell (i, j) to a subset index p.
The same partition applies to every array in a collection. Subsets that end
up empty after masking (a triangle has no cells in some diagonals of the
full grid, for instance) are dropped and the labels relabelled contiguously.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arrays import ArrayLayout, diagonal_of
from .errors import ConfigError

PARTITION_KINDS = ("array", "cell", "row", "column", "diagonal")


def subset_key(kind: str, i, j) -> np.ndarray:
    """Key of the subset of each cell (i, j), one row per cell.

    The key is the subset's own identity (its row, column, diagonal or cell
    coordinates), independent of masking and of the relabelling to 0..P-1.
    """
    if kind not in PARTITION_KINDS:
        raise ConfigError(
            f"unknown partition kind {kind!r}; valid kinds: {', '.join(PARTITION_KINDS)}"
        )
    keys = {"array": [0 * i], "cell": [i, j], "row": [i], "column": [j], "diagonal": [diagonal_of(i, j)]}
    return np.stack(keys[kind], axis=-1)


@dataclass(frozen=True)
class Partition:
    """Map from masked-in cells to subset indices 0..P-1."""

    kind: str
    layout: ArrayLayout
    labels: np.ndarray = field(init=False)  # per stacking position
    n_subsets: int = field(init=False)
    # per grid cell, -1 where the subset has no masked-in member
    _grid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mask = self.layout.mask
        i, j = np.indices(mask.shape) + 1
        raw = subset_key(self.kind, i.ravel(), j.ravel())
        key = np.ravel_multi_index(raw.T, raw.max(axis=0) + 1).reshape(mask.shape)
        # subsets are numbered in the order of their first cell in the stacking order
        seen, first = np.unique(key[mask], return_index=True)
        p_of_key = np.full(key.max() + 1, -1)
        p_of_key[seen[np.argsort(first)]] = np.arange(seen.size)
        grid = p_of_key[key]
        labels = grid[mask]
        for a in (grid, labels):
            a.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n_subsets", int(seen.size))
        object.__setattr__(self, "_grid", grid)

    def p_of(self, i: int, j: int) -> int:
        """Subset index of masked-in cell (i, j)."""
        return int(self.labels[self.layout.position(i, j)])

    def label_for_grid_cell(self, i: int, j: int):
        """Subset index for any grid cell, or None when its subset has no
        masked-in member (the subset's shock never appears in the data)."""
        rows, cols = self._grid.shape
        p = int(self._grid[i - 1, j - 1]) if 1 <= i <= rows and 1 <= j <= cols else -1
        return None if p < 0 else p


def build_partition(kind: str, layout: ArrayLayout) -> Partition:
    """Construct the partition of the given dependence type.

    Kinds: "array" (one subset covering the array), "cell" (one subset per
    cell, equal to the stacking position), "row", "column", and "diagonal"
    (t = i + j - 1).
    """
    return Partition(kind, layout)
