"""Synthetic claim generation under the multiplicative shock model.

Cells are drawn as X = U^alpha * Z with ln U normal per partition subset
(shared across arrays) and ln Z normal per cell around the log of the
row-times-column effect surface. Every draw comes from its own
counter-based Philox stream keyed by the seed and the draw's identity
(shock subset, or array and cell), so the output is reproducible and
independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayLayout, ClaimCollection
from .errors import ConfigError
from .partitions import PARTITION_KINDS, Partition, subset_key

ROUNDING_MODES = ("none", "integer")

_SHOCK_STREAM = 0
_IDIO_STREAM = 1


@dataclass(frozen=True)
class SimSpec:
    """Data-generating parameters.

    ``row_effects`` and ``col_effects`` are per-array tables on the raw
    (exponentiated) scale; ``shock_mean_log`` is the mean of ln U itself.
    """

    layout: ArrayLayout
    row_effects: np.ndarray  # (n_arrays, n_rows), exp scale
    col_effects: np.ndarray  # (n_arrays, n_cols), exp scale
    shock_mean_log: float
    shock_sd: float
    idio_sd: float
    seed: int
    partition_kind: str = "cell"
    rounding: str = "none"

    def __post_init__(self):
        rows = np.asarray(self.row_effects, dtype=float)
        cols = np.asarray(self.col_effects, dtype=float)
        lay = self.layout
        if rows.shape != (lay.n_arrays, lay.n_rows):
            raise ConfigError("row_effects must have shape (n_arrays, n_rows)")
        if cols.shape != (lay.n_arrays, lay.n_cols):
            raise ConfigError("col_effects must have shape (n_arrays, n_cols)")
        if np.any(rows <= 0) or np.any(cols <= 0):
            raise ConfigError("effect tables must be strictly positive")
        if self.shock_sd < 0 or self.idio_sd < 0:
            raise ConfigError("standard deviations must be non-negative")
        if self.rounding not in ROUNDING_MODES:
            raise ConfigError(
                f"unknown rounding mode {self.rounding!r}; valid: {', '.join(ROUNDING_MODES)}"
            )
        if self.partition_kind not in PARTITION_KINDS:
            raise ConfigError(
                f"unknown partition kind {self.partition_kind!r}; "
                f"valid kinds: {', '.join(PARTITION_KINDS)}"
            )
        object.__setattr__(self, "row_effects", rows)
        object.__setattr__(self, "col_effects", cols)


def simulate(spec: SimSpec) -> ClaimCollection:
    """Generate one collection from the spec, bit-reproducible from the seed.

    Each subset's shock is drawn once, keyed by the subset's own identity
    (``partitions.subset_key``: its row, column, diagonal, or cell
    coordinates), not its position, so a cell receives the same draws in
    any layout that contains it. Integer rounding floors at 1 to keep every
    cell positive.
    """
    lay = spec.layout
    kind_id = PARTITION_KINDS.index(spec.partition_kind)
    rows, cols = np.nonzero(lay.mask)
    keys, subset = np.unique(
        subset_key(spec.partition_kind, rows + 1, cols + 1), axis=0, return_inverse=True
    )
    # one bit generator serves every draw: each draw resets it to the fresh
    # state at the draw's own counter
    bits = np.random.Philox(key=np.uint64(spec.seed))
    gen, state = np.random.Generator(bits), bits.state

    def draw(stream: int, a: int, b: int = 0, c: int = 0) -> float:
        state["state"]["counter"] = np.array([stream, a, b, c], dtype=np.uint64)
        bits.state = state
        return float(gen.standard_normal())

    shock_log = [
        spec.shock_mean_log + spec.shock_sd * draw(_SHOCK_STREAM, kind_id, *map(int, key))
        for key in keys
    ]
    values = np.full((lay.n_arrays, lay.n_rows, lay.n_cols), np.nan)
    for n in range(lay.n_arrays):
        for p, (i, j) in zip(subset.ravel(), lay.stacking_order):
            z_log = (
                np.log(spec.row_effects[n, i - 1])
                + np.log(spec.col_effects[n, j - 1])
                + spec.idio_sd * draw(_IDIO_STREAM, n + 1, i, j)
            )
            x = np.exp(shock_log[p] + z_log)
            if spec.rounding == "integer":
                x = max(1.0, float(np.rint(x)))
            values[n, i - 1, j - 1] = x
    return ClaimCollection(lay, values)


@dataclass(frozen=True)
class BalanceDiagnostic:
    """Per-cell shock multipliers under the two constructions.

    ``multiplicative`` holds U_p^alpha_p per cell (constant within each
    subset by construction); ``additive`` holds alpha_p W_p / Z per cell,
    which varies with the idiosyncratic values. The ratio tables give
    max/min of the multiplier over each subset (1 means perfectly balanced).
    """

    multiplicative: np.ndarray
    additive: np.ndarray
    mult_ratio: np.ndarray
    add_ratio: np.ndarray


def balance_diagnostic(partition: Partition, shock_values, z_values, alpha=None) -> BalanceDiagnostic:
    """Compare shock balance of the multiplicative and additive constructions.

    ``shock_values`` has one positive draw per subset (used as U in the
    multiplicative model and W in the additive one), ``z_values`` one
    positive idiosyncratic value per masked-in cell (grid or stacked), and
    ``alpha`` one coefficient per subset (1 by default, uniform over each
    subset as balance requires).
    """
    lay = partition.layout
    shocks = np.asarray(shock_values, dtype=float).ravel()
    if shocks.size != partition.n_subsets:
        raise ConfigError("need one shock draw per partition subset")
    if np.any(shocks <= 0):
        raise ConfigError("shock draws must be positive")
    z = np.asarray(z_values, dtype=float)
    if z.shape == (lay.n_rows, lay.n_cols):
        z = z[lay.mask]
    z = z.ravel()
    if z.size != lay.cells_per_array:
        raise ConfigError("need one idiosyncratic value per masked-in cell")
    if np.any(z <= 0):
        raise ConfigError("idiosyncratic values must be positive")
    if alpha is None:
        alpha = np.ones(partition.n_subsets)
    alpha = np.asarray(alpha, dtype=float).ravel()
    if alpha.size != partition.n_subsets or np.any(alpha < 0):
        raise ConfigError("alpha must hold one non-negative coefficient per subset")

    labels = partition.labels
    mult = shocks[labels] ** alpha[labels]
    add = alpha[labels] * shocks[labels] / z

    mult_ratio = np.empty(partition.n_subsets)
    add_ratio = np.empty(partition.n_subsets)
    for p in range(partition.n_subsets):
        members = labels == p
        m = mult[members]
        a = add[members]
        mult_ratio[p] = 1.0 if m.max() == m.min() else m.max() / m.min()
        add_ratio[p] = 1.0 if a.max() == a.min() else a.max() / a.min()
    return BalanceDiagnostic(mult, add, mult_ratio, add_ratio)
