"""Assembly of the regression design for the log-scale model.

The stacked log observations have mean M kappa with kappa = (xi, eta, zeta):
shock means across arrays, shock means within arrays, and the idiosyncratic
parameters. M is the column concatenation [A B C] where A carries the
across-array shock coefficients, B the block-diagonal within-array ones, and
C the per-array idiosyncratic design. The covariance uses L = [A B I].

Redundant columns (a tied shock mean is absorbed by the column effects, for
instance) are detected by a rank-revealing sweep and removed; the kept
parameterization follows the corner-constraint convention with the first row
effect fixed at zero, so reported effects are directly interpretable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arrays import ArrayLayout
from .errors import ConfigError, DesignError
from .partitions import Partition, build_partition

IDIO_VARIANTS = ("chain_ladder", "hoerl")


@dataclass(frozen=True)
class ShockSpec:
    """Which shocks enter the model and with what coefficients.

    ``alpha`` and ``beta`` are coefficient tables of shape
    (n_arrays, n_rows, n_cols); None means 1 everywhere (uniform
    multiplicative shocks). ``shared_across_mean`` ties the across-array
    shock means of all subsets to a single value, which collapses the xi
    block of M to one column.
    """

    partition: Partition
    include_across: bool = True
    include_within: bool = False
    alpha: np.ndarray = None
    beta: np.ndarray = None
    shared_across_mean: bool = False

    def __post_init__(self):
        for name in ("alpha", "beta"):
            coeff = getattr(self, name)
            if coeff is None:
                continue
            coeff = np.asarray(coeff, dtype=float)
            lay = self.partition.layout
            if coeff.shape != (lay.n_arrays, lay.n_rows, lay.n_cols):
                raise ConfigError(
                    f"{name} table must have shape (n_arrays, n_rows, n_cols)"
                )
            if np.any(coeff[:, lay.mask] < 0):
                raise ConfigError(f"{name} coefficients must be non-negative")
            object.__setattr__(self, name, coeff)

    def alpha_value(self, n: int, i: int, j: int) -> float:
        if self.alpha is None:
            return 1.0
        return float(self.alpha[n - 1, i - 1, j - 1])

    def beta_value(self, n: int, i: int, j: int) -> float:
        if self.beta is None:
            return 1.0
        return float(self.beta[n - 1, i - 1, j - 1])


def build_A(partition: Partition, layout: ArrayLayout, alpha=None) -> np.ndarray:
    """Across-array shock coefficient matrix, shape (N*|cells|, P).

    The row for cell (n, i, j) carries the cell's alpha coefficient in the
    column of its subset; the per-array blocks are stacked vertically.
    """
    ncell = layout.cells_per_array
    A = np.zeros((layout.n_arrays * ncell, partition.n_subsets))
    for n in range(layout.n_arrays):
        for k, (i, j) in enumerate(layout.stacking_order):
            a = 1.0 if alpha is None else float(alpha[n, i - 1, j - 1])
            A[n * ncell + k, partition.labels[k]] = a
    return A


def build_B(partition: Partition, layout: ArrayLayout, beta=None) -> np.ndarray:
    """Within-array shock coefficient matrix, block diagonal, shape (N*|cells|, N*P)."""
    ncell = layout.cells_per_array
    P = partition.n_subsets
    B = np.zeros((layout.n_arrays * ncell, layout.n_arrays * P))
    for n in range(layout.n_arrays):
        for k, (i, j) in enumerate(layout.stacking_order):
            b = 1.0 if beta is None else float(beta[n, i - 1, j - 1])
            B[n * ncell + k, n * P + partition.labels[k]] = b
    return B


def _chain_ladder_row(i: int, j: int, n_rows: int, n_cols: int) -> list:
    # (column offset, value) pairs; chi_1 is constrained to zero and carries
    # no column, so the column effects absorb the overall level
    entries = []
    if i >= 2:
        entries.append((i - 2, 1.0))
    entries.append((n_rows - 1 + (j - 1), 1.0))
    return entries


def _hoerl_row(i: int, j: int, n_rows: int, n_cols: int) -> list:
    return [(i - 1, 1.0), (n_rows, np.log(j)), (n_rows + 1, -float(j))]


def build_C_chain_ladder(layout: ArrayLayout):
    """Per-array cross-classified block and its column labels.

    Columns: row effects chi_i for i = 2..n_rows (chi_1 = 0), then column
    effects for j = 1..n_cols; q = (n_rows - 1) + n_cols.
    """
    q = (layout.n_rows - 1) + layout.n_cols
    block = np.zeros((layout.cells_per_array, q))
    for k, (i, j) in enumerate(layout.stacking_order):
        for col, val in _chain_ladder_row(i, j, layout.n_rows, layout.n_cols):
            block[k, col] = val
    labels = [("chi", i) for i in range(2, layout.n_rows + 1)]
    labels += [("col", j) for j in range(1, layout.n_cols + 1)]
    return block, labels


def build_C_hoerl(layout: ArrayLayout):
    """Per-array block for the development-curve form level_i + chi*ln j - rho*j.

    Columns: one level per row, then the log-development slope and the decay
    rate; q = n_rows + 2. The implied raw-scale shape in j is j^chi e^(-rho j).
    """
    q = layout.n_rows + 2
    block = np.zeros((layout.cells_per_array, q))
    for k, (i, j) in enumerate(layout.stacking_order):
        for col, val in _hoerl_row(i, j, layout.n_rows, layout.n_cols):
            block[k, col] = val
    labels = [("level", i) for i in range(1, layout.n_rows + 1)]
    labels += [("logdev",), ("decay",)]
    return block, labels


def reduce_columns(M: np.ndarray, keep_priority=None, tol_factor: float = 1e-10):
    """Rank-revealing column selection.

    Sweeps columns in ``keep_priority`` order (default: left to right),
    keeping a column only if its residual against the span of already-kept
    columns exceeds tol_factor times the largest singular value of M.
    Returns (kept indices sorted, dropped indices, coef, reasons) where
    ``coef`` expresses each dropped column as a combination of kept ones and
    ``reasons`` maps dropped index to "aliased" or "unobserved" (zero column).
    """
    M = np.asarray(M, dtype=float)
    n, m = M.shape
    if keep_priority is None:
        keep_priority = list(range(m))
    smax = np.linalg.norm(M, 2) if m else 0.0
    tol = tol_factor * smax
    basis = np.empty((min(n, m), n))  # orthonormal basis of the kept span, by rows
    kept, dropped, reasons = [], [], {}
    for idx in keep_priority:
        c = M[:, idx]
        Qt = basis[: len(kept)]
        r = c - Qt.T @ (Qt @ c)
        r = r - Qt.T @ (Qt @ r)  # one re-orthogonalization pass
        nr = np.linalg.norm(r)
        if nr > tol:
            basis[len(kept)] = r / nr
            kept.append(idx)
        else:
            dropped.append(idx)
            reasons[idx] = "unobserved" if np.linalg.norm(c) <= tol else "aliased"
    kept.sort()
    dropped.sort()
    if dropped:
        coef, *_ = np.linalg.lstsq(M[:, kept], M[:, dropped], rcond=None)
    else:
        coef = np.zeros((len(kept), 0))
    return kept, dropped, coef, reasons


@dataclass(frozen=True)
class ModelDesign:
    """Assembled design: full blocks, reduced mean design, and bookkeeping."""

    layout: ArrayLayout
    shock: ShockSpec
    idio_variant: str
    A: np.ndarray  # (N|cells|, P)      across-array shock block
    B: np.ndarray  # (N|cells|, N P)    within-array shock block (0 cols if absent)
    C: np.ndarray  # (N|cells|, N q)    idiosyncratic block
    M_full: np.ndarray
    full_labels: tuple
    kept: tuple
    dropped: tuple  # ((label, reason), ...)
    coef: np.ndarray  # kept -> dropped alias coefficients
    M: np.ndarray = field(init=False)
    labels: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "M", self.M_full[:, list(self.kept)])
        object.__setattr__(
            self, "labels", tuple(self.full_labels[k] for k in self.kept)
        )

    @property
    def n_obs(self) -> int:
        return self.M_full.shape[0]

    @property
    def n_params(self) -> int:
        return self.M.shape[1]

    def _full_row(self, n: int, i: int, j: int) -> np.ndarray:
        lay = self.layout
        part = self.shock.partition
        row = np.zeros(len(self.full_labels))
        offset = 0
        if self.shock.include_across:
            a = self.shock.alpha_value(n, i, j)
            if self.shock.shared_across_mean:
                row[0] = a
                offset = 1
            else:
                p = part.label_for_grid_cell(i, j)
                if p is None:
                    raise DesignError(
                        f"cell (i={i}, j={j}) needs an across-array shock mean for a "
                        "subset never observed; supply the future values by hand "
                        "(an AR(1) extrapolation plus forecast offsets)"
                    )
                row[p] = a
                offset = part.n_subsets
        if self.shock.include_within:
            p = part.label_for_grid_cell(i, j)
            if p is None:
                raise DesignError(
                    f"cell (i={i}, j={j}) needs a within-array shock mean for a "
                    "subset never observed; supply the future values by hand "
                    "(an AR(1) extrapolation plus forecast offsets)"
                )
            row[offset + (n - 1) * part.n_subsets + p] = self.shock.beta_value(n, i, j)
            offset += lay.n_arrays * part.n_subsets
        q = self.C.shape[1] // lay.n_arrays
        row_builder = _chain_ladder_row if self.idio_variant == "chain_ladder" else _hoerl_row
        for col, val in row_builder(i, j, lay.n_rows, lay.n_cols):
            row[offset + (n - 1) * q + col] = val
        return row

    def full_rows_for_cells(self, cells) -> np.ndarray:
        """Unreduced design rows for arbitrary grid cells, array index outermost."""
        rows = []
        for n in range(1, self.layout.n_arrays + 1):
            for (i, j) in cells:
                if not (1 <= i <= self.layout.n_rows and 1 <= j <= self.layout.n_cols):
                    raise DesignError(f"cell (i={i}, j={j}) lies outside the grid")
                rows.append(self._full_row(n, i, j))
        return np.array(rows) if rows else np.zeros((0, len(self.full_labels)))

    def rows_for_cells(self, cells) -> np.ndarray:
        """Reduced-design rows for arbitrary grid cells, array index outermost.

        Rows are checked for estimability: any weight a row places on a
        dropped column must be reproduced by the kept columns through the
        alias relation observed in the data, otherwise the cell's mean is not
        identified and a DesignError is raised.
        """
        kept = list(self.kept)
        drop_idx = [k for k, _ in enumerate(self.full_labels) if k not in set(kept)]
        full = self.full_rows_for_cells(cells)
        if drop_idx and full.shape[0]:
            mismatch = full[:, drop_idx] - full[:, kept] @ self.coef
            worst = int(np.argmax(np.abs(mismatch).max(axis=1)))
            if np.abs(mismatch).max() > 1e-8:
                n_cells = len(tuple(cells))
                n = worst // n_cells + 1
                i, j = tuple(cells)[worst % n_cells]
                bad_col = drop_idx[int(np.argmax(np.abs(mismatch[worst])))]
                raise DesignError(
                    f"cell (array {n}, i={i}, j={j}) requires parameter "
                    f"{self.full_labels[bad_col]} that is not identified by the "
                    "observed data; supply the future values by hand (an AR(1) "
                    "extrapolation plus forecast offsets)"
                )
        return full[:, kept] if full.shape[0] else np.zeros((0, self.n_params))

    def shock_blocks_for_cells(self, cells):
        """(A*, B*) coefficient blocks over a future region.

        The region is treated as a collection of its own: subsets of the same
        dependence type are rebuilt over the future cells (future shocks are
        fresh draws, shared within a subset and, for the A* block, across
        arrays).
        """
        lay = self.layout
        if not cells:
            zero = np.zeros((0, 0))
            return zero, zero
        mask = np.zeros((lay.n_rows, lay.n_cols), dtype=bool)
        for (i, j) in cells:
            mask[i - 1, j - 1] = True
        future_layout = ArrayLayout(lay.n_arrays, lay.n_rows, lay.n_cols, mask)
        part = build_partition(self.shock.partition.kind, future_layout)
        a_star = (
            build_A(part, future_layout, self.shock.alpha)
            if self.shock.include_across
            else np.zeros((future_layout.n_observations, 0))
        )
        b_star = (
            build_B(part, future_layout, self.shock.beta)
            if self.shock.include_within
            else np.zeros((future_layout.n_observations, 0))
        )
        return a_star, b_star


def assemble(
    layout: ArrayLayout,
    shock: ShockSpec,
    idio_variant: str = "chain_ladder",
    tol_factor: float = 1e-10,
) -> ModelDesign:
    """Build all design blocks and remove redundant mean columns.

    The reduction sweep keeps idiosyncratic columns in preference to shock
    means (and within-array means in preference to across-array ones), which
    reproduces the usual convention: aliased shock means are absorbed into
    the idiosyncratic effects.
    """
    if idio_variant not in IDIO_VARIANTS:
        raise ConfigError(
            f"unknown design variant {idio_variant!r}; "
            f"valid variants: {', '.join(IDIO_VARIANTS)}"
        )
    lay = layout
    part = shock.partition
    if part.layout is not lay and part.layout.stacking_order != lay.stacking_order:
        raise ConfigError("partition was built for a different layout")

    A = build_A(part, lay, shock.alpha) if shock.include_across else np.zeros((lay.n_observations, 0))
    B = build_B(part, lay, shock.beta) if shock.include_within else np.zeros((lay.n_observations, 0))

    if idio_variant == "chain_ladder":
        block, block_labels = build_C_chain_ladder(lay)
    else:
        block, block_labels = build_C_hoerl(lay)
    q = block.shape[1]
    C = np.zeros((lay.n_observations, lay.n_arrays * q))
    for n in range(lay.n_arrays):
        C[n * lay.cells_per_array : (n + 1) * lay.cells_per_array, n * q : (n + 1) * q] = block

    mean_blocks, labels = [], []
    if shock.include_across:
        if shock.shared_across_mean:
            mean_blocks.append(A @ np.ones((A.shape[1], 1)))
            labels.append(("xi_shared",))
        else:
            mean_blocks.append(A)
            labels.extend(("xi", p) for p in range(part.n_subsets))
    if shock.include_within:
        mean_blocks.append(B)
        labels.extend(
            ("eta", n, p)
            for n in range(1, lay.n_arrays + 1)
            for p in range(part.n_subsets)
        )
    mean_blocks.append(C)
    labels.extend(
        (lbl[0], n) + lbl[1:]
        for n in range(1, lay.n_arrays + 1)
        for lbl in block_labels
    )
    M_full = np.hstack(mean_blocks)

    # keep priority: zeta block first, then eta, then xi
    n_xi = 1 if (shock.include_across and shock.shared_across_mean) else (
        part.n_subsets if shock.include_across else 0
    )
    n_eta = lay.n_arrays * part.n_subsets if shock.include_within else 0
    priority = (
        list(range(n_xi + n_eta, M_full.shape[1]))
        + list(range(n_xi, n_xi + n_eta))
        + list(range(n_xi))
    )
    kept, dropped, coef, reasons = reduce_columns(M_full, priority, tol_factor)
    if not kept:
        raise DesignError("design reduced to zero columns")
    return ModelDesign(
        layout=lay,
        shock=shock,
        idio_variant=idio_variant,
        A=A,
        B=B,
        C=C,
        M_full=M_full,
        full_labels=tuple(labels),
        kept=tuple(kept),
        dropped=tuple((labels[d], reasons[d]) for d in dropped),
        coef=coef,
    )
