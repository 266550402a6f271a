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


def _grid_cells(layout: ArrayLayout, cells):
    """1-based row and column index arrays of a cell list, checked against the grid."""
    cells = tuple(cells)
    i, j = np.array(cells, dtype=int).reshape(-1, 2).T
    outside = (i < 1) | (i > layout.n_rows) | (j < 1) | (j > layout.n_cols)
    if outside.any():
        i, j = cells[int(np.argmax(outside))]
        raise DesignError(f"cell (i={i}, j={j}) lies outside the grid")
    return i, j


class _CellRows:
    """Design rows of the cells (i[c], j[c]) in every array, arrays outermost.

    Row n * k + c of a block belongs to array n + 1 and cell c of the k
    cells, so the row-major ``np.nonzero`` order of a mask gives the stacking
    order. ``labels[c]`` is the cell's subset, 0 to ``n_subsets`` - 1, or -1
    for a subset with no observed member, which gets no shock entry. Fitted
    and future rows come from this one rule.
    """

    def __init__(self, layout: ArrayLayout, i, j, labels=None, n_subsets: int = 0):
        self.layout, self.i, self.j = layout, i, j
        self.labels, self.n_subsets = labels, n_subsets

    @classmethod
    def stacked(cls, layout: ArrayLayout, partition: Partition = None) -> "_CellRows":
        """The rows of a layout's stacking order, labelled by ``partition``."""
        i, j = np.nonzero(layout.mask)
        if partition is None:
            return cls(layout, i + 1, j + 1)
        return cls(layout, i + 1, j + 1, partition.labels, partition.n_subsets)

    def _coefficients(self, table) -> np.ndarray:
        """table[n, i, j] per array and cell, shape (N, k); 1 where table is None."""
        if table is None:
            return np.ones((self.layout.n_arrays, self.i.size))
        return np.asarray(table, dtype=float)[:, self.i - 1, self.j - 1]

    def _one_per_row(self, table, column, width: int) -> np.ndarray:
        # row n * k + c holds the cell's coefficient in column[n, c]
        N, k = self.layout.n_arrays, self.i.size
        n, c = np.nonzero(np.broadcast_to(self.labels >= 0, (N, k)))
        out = np.zeros((N, k, width))
        out[n, c, np.broadcast_to(column, (N, k))[n, c]] = self._coefficients(table)[n, c]
        return out.reshape(N * k, width)

    def across(self, alpha=None) -> np.ndarray:
        """Across-array shock columns, (N k, P): alpha in the cell's subset."""
        return self._one_per_row(alpha, self.labels, self.n_subsets)

    def within(self, beta=None) -> np.ndarray:
        """Within-array shock columns, (N k, N P): beta in the array's own block."""
        N, P = self.layout.n_arrays, self.n_subsets
        return self._one_per_row(beta, np.arange(N)[:, None] * P + self.labels, N * P)

    def idiosyncratic(self, variant: str):
        """One array's idiosyncratic block, (k, q), and its column labels
        (see ``build_C_chain_ladder`` and ``build_C_hoerl``)."""
        lay, i, j = self.layout, self.i, self.j
        c = np.arange(i.size)
        if variant == "chain_ladder":
            # chi_1 is constrained to zero and carries no column, so the
            # column effects absorb the overall level
            block = np.zeros((i.size, lay.n_rows - 1 + lay.n_cols))
            block[c[i >= 2], i[i >= 2] - 2] = 1.0
            block[c, lay.n_rows - 2 + j] = 1.0
            labels = [("chi", r) for r in range(2, lay.n_rows + 1)]
            return block, labels + [("col", s) for s in range(1, lay.n_cols + 1)]
        block = np.zeros((i.size, lay.n_rows + 2))
        block[c, i - 1] = 1.0
        block[:, lay.n_rows] = np.log(j)
        block[:, lay.n_rows + 1] = -j
        return block, [("level", r) for r in range(1, lay.n_rows + 1)] + [("logdev",), ("decay",)]

    def shock_blocks(self, shock: ShockSpec):
        """(A, B), each with no columns when its shock is left out."""
        n = self.layout.n_arrays * self.i.size
        A = self.across(shock.alpha) if shock.include_across else np.zeros((n, 0))
        B = self.within(shock.beta) if shock.include_within else np.zeros((n, 0))
        return A, B

    def design(self, shock: ShockSpec, variant: str, A=None, B=None):
        """(C, M_full, labels) with M_full = [xi | eta | zeta].

        The xi block is A, or the one column of alpha when the across-array
        shock means are tied; C is block diagonal with one block per array.
        A and B, when not given, are built only if M_full holds them.
        """
        N, P = self.layout.n_arrays, self.n_subsets
        block, block_labels = self.idiosyncratic(variant)
        k, q = block.shape
        C = np.zeros((N, k, N, q))
        C[np.arange(N), :, np.arange(N), :] = block
        C = C.reshape(N * k, N * q)
        mean_blocks, labels = [], []
        if shock.include_across:
            if shock.shared_across_mean:
                mean_blocks.append(self._coefficients(shock.alpha).reshape(-1, 1))
                labels.append(("xi_shared",))
            else:
                mean_blocks.append(self.across(shock.alpha) if A is None else A)
                labels.extend(("xi", p) for p in range(P))
        if shock.include_within:
            mean_blocks.append(self.within(shock.beta) if B is None else B)
            labels.extend(("eta", n, p) for n in range(1, N + 1) for p in range(P))
        mean_blocks.append(C)
        labels.extend((lbl[0], n) + lbl[1:] for n in range(1, N + 1) for lbl in block_labels)
        return C, np.hstack(mean_blocks), labels


def build_A(partition: Partition, layout: ArrayLayout, alpha=None) -> np.ndarray:
    """Across-array shock coefficient matrix, shape (N*|cells|, P).

    The row for cell (n, i, j) carries the cell's alpha coefficient in the
    column of its subset; the per-array blocks are stacked vertically.
    """
    return _CellRows.stacked(layout, partition).across(alpha)


def build_B(partition: Partition, layout: ArrayLayout, beta=None) -> np.ndarray:
    """Within-array shock coefficient matrix, block diagonal, shape (N*|cells|, N*P)."""
    return _CellRows.stacked(layout, partition).within(beta)


def build_C_chain_ladder(layout: ArrayLayout):
    """Per-array cross-classified block and its column labels.

    Columns: row effects chi_i for i = 2..n_rows (chi_1 = 0), then column
    effects for j = 1..n_cols; q = (n_rows - 1) + n_cols.
    """
    return _CellRows.stacked(layout).idiosyncratic("chain_ladder")


def build_C_hoerl(layout: ArrayLayout):
    """Per-array block for the development-curve form level_i + chi*ln j - rho*j.

    Columns: one level per row, then the log-development slope and the decay
    rate; q = n_rows + 2. The implied raw-scale shape in j is j^chi e^(-rho j).
    """
    return _CellRows.stacked(layout).idiosyncratic("hoerl")


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

    def full_rows_for_cells(self, cells) -> np.ndarray:
        """Unreduced design rows for arbitrary grid cells, array index outermost."""
        i, j = _grid_cells(self.layout, cells)
        shock, part = self.shock, self.shock.partition
        labels = part._grid[i - 1, j - 1]
        across = shock.include_across and not shock.shared_across_mean
        if (across or shock.include_within) and np.any(labels < 0):
            c = int(np.argmax(labels < 0))
            raise DesignError(
                f"cell (i={i[c]}, j={j[c]}) needs {'an across' if across else 'a within'}"
                "-array shock mean for a subset never observed; supply the future "
                "values by hand (an AR(1) extrapolation plus forecast offsets)"
            )
        rows = _CellRows(self.layout, i, j, labels, part.n_subsets)
        return rows.design(shock, self.idio_variant)[1]

    def rows_for_cells(self, cells) -> np.ndarray:
        """Reduced-design rows for arbitrary grid cells, array index outermost.

        Rows are checked for estimability: any weight a row places on a
        dropped column must be reproduced by the kept columns through the
        alias relation observed in the data, otherwise the cell's mean is not
        identified and a DesignError is raised.
        """
        cells = tuple(cells)
        kept = list(self.kept)
        kept_set = set(kept)
        drop_idx = [k for k in range(len(self.full_labels)) if k not in kept_set]
        full = self.full_rows_for_cells(cells)
        if drop_idx and full.shape[0]:
            mismatch = full[:, drop_idx] - full[:, kept] @ self.coef
            worst = int(np.argmax(np.abs(mismatch).max(axis=1)))
            if np.abs(mismatch).max() > 1e-8:
                n = worst // len(cells) + 1
                i, j = cells[worst % len(cells)]
                bad_col = drop_idx[int(np.argmax(np.abs(mismatch[worst])))]
                raise DesignError(
                    f"cell (array {n}, i={i}, j={j}) requires parameter "
                    f"{self.full_labels[bad_col]} that is not identified by the "
                    "observed data; supply the future values by hand (an AR(1) "
                    "extrapolation plus forecast offsets)"
                )
        return full[:, kept]

    def shock_blocks_for_cells(self, cells):
        """(A*, B*) coefficient blocks over a future region.

        The region is treated as a collection of its own: subsets of the same
        dependence type are rebuilt over the future cells (future shocks are
        fresh draws, shared within a subset and, for the A* block, across
        arrays).
        """
        lay = self.layout
        i, j = _grid_cells(lay, cells)
        if not i.size:
            zero = np.zeros((0, 0))
            return zero, zero
        mask = np.zeros((lay.n_rows, lay.n_cols), dtype=bool)
        mask[i - 1, j - 1] = True
        future_layout = ArrayLayout(lay.n_arrays, lay.n_rows, lay.n_cols, mask)
        part = build_partition(self.shock.partition.kind, future_layout)
        return _CellRows.stacked(future_layout, part).shock_blocks(self.shock)


def assemble(
    layout: ArrayLayout,
    shock: ShockSpec,
    idio_variant: str = "chain_ladder",
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

    rows = _CellRows.stacked(lay, part)
    A, B = rows.shock_blocks(shock)
    C, M_full, labels = rows.design(shock, idio_variant, A, B)

    # keep priority: zeta block first, then eta, then xi
    rank = {"xi": 2, "xi_shared": 2, "eta": 1}
    priority = sorted(range(M_full.shape[1]), key=lambda k: (rank.get(labels[k][0], 0), k))
    kept, dropped, coef, reasons = reduce_columns(M_full, priority)
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
