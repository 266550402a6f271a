"""Assembly of the regression design for the log-scale model.

The stacked log observations have mean M kappa with kappa = (xi, eta, zeta):
shock means across arrays, shock means within arrays, and the idiosyncratic
parameters. M is the column concatenation [A B C] where A carries the
across-array shock coefficients, B the block-diagonal within-array ones, and
C the per-array idiosyncratic design. The covariance uses L = [A B I].

Redundant columns (a tied shock mean is absorbed by the column effects, for
instance) are detected by a rank-revealing sweep and removed; the kept
parameterization follows the corner-constraint convention with the first row
effect fixed at zero, so reported effects are directly interpretable. The
sweep orthogonalises one array's idiosyncratic block C0 once, then the
shock-mean columns against it, by panels of columns projected by
matrix-matrix products. Its basis of the kept columns is the only
orthogonalisation of M: it gives the alias coefficients, and it is the
least-squares factor of the reduced M (``LeastSquaresFactor``), formed on
first read of ``ModelDesign.factor``, from which every fit on the design
starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .arrays import ArrayLayout
from .covariance import _tril_inverse
from .errors import ConfigError, DesignError
from .kron import array_frame
from .partitions import Partition, build_partition

IDIO_VARIANTS = ("chain_ladder", "hoerl")
# a column is dropped when its residual against the kept columns is at most
# this times M's largest column norm
REDUCE_TOL = 1e-10
# columns per panel of the reduction sweep (``_sweep``): each panel reads
# the kept basis four times, and each column of it is projected against the
# panel's kept vectors one product at a time
SWEEP_PANEL = 16


@dataclass(frozen=True)
class ShockSpec:
    """Which shocks enter the model and with what coefficients.

    ``alpha`` and ``beta`` are coefficient tables of shape
    (n_arrays, n_rows, n_cols); None means 1 everywhere (uniform
    multiplicative shocks). ``shared_across_mean``, the default as in the
    CLI, ties the across-array shock means of all subsets to a single value,
    which collapses the xi block of M to one column. ConfigError rejects a
    table of another shape, and one with an entry on a cell of the layout
    that is negative or not finite.
    """

    partition: Partition
    include_across: bool = True
    include_within: bool = False
    alpha: np.ndarray = None
    beta: np.ndarray = None
    shared_across_mean: bool = True

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
            masked_in = coeff[:, lay.mask]
            if not np.all(np.isfinite(masked_in) & (masked_in >= 0)):
                raise ConfigError(f"{name} coefficients must be finite and non-negative")
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

    def _coefficients(self, table, name: str) -> np.ndarray:
        """table[n, i, j] per array and cell, shape (N, k); 1 where table is None.
        ConfigError names the table ``name`` and its first entry, arrays
        outermost, that is not finite: ``ShockSpec`` checks the layout's
        cells only, and these may be forecast cells."""
        if table is None:
            return np.ones((self.layout.n_arrays, self.i.size))
        out = np.asarray(table, dtype=float)[:, self.i - 1, self.j - 1]
        bad = ~np.isfinite(out)
        if bad.any():
            n, c = divmod(int(np.argmax(bad)), self.i.size)
            raise ConfigError(
                f"{name} coefficient of cell (array {n + 1}, i={self.i[c]}, j={self.j[c]}) "
                "is not finite"
            )
        return out

    def _one_per_row(self, table, name: str, column, width: int) -> np.ndarray:
        # row n * k + c holds the cell's coefficient in column[n, c]
        N, k = self.layout.n_arrays, self.i.size
        n, c = np.nonzero(np.broadcast_to(self.labels >= 0, (N, k)))
        out = np.zeros((N, k, width))
        out[n, c, np.broadcast_to(column, (N, k))[n, c]] = self._coefficients(table, name)[n, c]
        return out.reshape(N * k, width)

    def across(self, alpha=None) -> np.ndarray:
        """Across-array shock columns, (N k, P): alpha in the cell's subset."""
        return self._one_per_row(alpha, "alpha", self.labels, self.n_subsets)

    def within(self, beta=None) -> np.ndarray:
        """Within-array shock columns, (N k, N P): beta in the array's own block."""
        N, P = self.layout.n_arrays, self.n_subsets
        return self._one_per_row(beta, "beta", np.arange(N)[:, None] * P + self.labels, N * P)

    def idiosyncratic(self, variant: str):
        """One array's idiosyncratic block, (k, q), and its column labels.

        "chain_ladder": row effects chi_i for i = 2..n_rows (chi_1 = 0),
        then column effects for j = 1..n_cols; q = (n_rows - 1) + n_cols.
        "hoerl": the development curve level_i + chi ln j - rho j, one level
        per row, then the log-development slope and the decay rate;
        q = n_rows + 2, and the raw-scale shape in j is j^chi e^(-rho j).
        """
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

    def design(self, shock: ShockSpec, variant: str):
        """(X, C0, labels) of the unreduced design [X | I_N (x) C0] = [xi | eta | zeta].

        X holds the shock-mean columns: A, or the one column of alpha when
        the across-array shock means are tied, then B. C0 is one array's
        idiosyncratic block, and C = I_N (x) C0. A and B are built only
        where X holds them.
        """
        N, P = self.layout.n_arrays, self.n_subsets
        C0, block_labels = self.idiosyncratic(variant)
        mean_blocks, labels = [], []
        if shock.include_across:
            if shock.shared_across_mean:
                mean_blocks.append(self._coefficients(shock.alpha, "alpha").reshape(-1, 1))
                labels.append(("xi_shared",))
            else:
                mean_blocks.append(self.across(shock.alpha))
                labels.extend(("xi", p) for p in range(P))
        if shock.include_within:
            mean_blocks.append(self.within(shock.beta))
            labels.extend(("eta", n, p) for n in range(1, N + 1) for p in range(P))
        X = np.hstack(mean_blocks) if mean_blocks else np.zeros((N * self.i.size, 0))
        labels.extend((lbl[0], n) + lbl[1:] for n in range(1, N + 1) for lbl in block_labels)
        return X, C0, labels


def _sweep(columns: np.ndarray, order, tol: float, prior=lambda P: 0.0):
    """Classical Gram-Schmidt with one re-orthogonalisation pass (CGS2), by panels.

    Visits ``columns[:, idx]`` for idx in ``order`` and keeps a column when
    its residual against the kept ones, and against the span that ``prior``
    projects onto, exceeds ``tol``; a column past the rows, once the kept
    ones span them, is dropped. Returns the kept and dropped indices in
    sweep order, the kept columns' orthonormal basis Q^T, one row each, and
    their coefficients on it, the upper-triangular R: with no ``prior``,
    columns[:, kept] = Q R. ``prior`` maps an n x b block to its projection.

    The columns are taken ``SWEEP_PANEL`` at a time (BCGS2, Barlow and
    Smoktunowicz 2013, Numer. Math. 123): a panel P is projected twice off
    the kept basis Q by matrix-matrix products, H = Q^T P, P -= Q H +
    prior(P), then G likewise, and its columns are then swept by CGS2
    against the panel's own kept vectors only. Column t of R is H + G on
    the earlier panels' rows, the in-panel coefficients on the panel's, and
    the residual norm on the diagonal. Twice is enough: the basis is
    orthonormal to working precision where the kept columns are numerically
    nonsingular (Giraud, Langou, Rozloznik and van den Eshof 2005, Numer.
    Math. 101). The work is O(n len(order)^2), nearly all of it in the
    panels' matrix-matrix products.
    """
    n, order = columns.shape[0], list(order)
    basis = np.empty((min(n, len(order)), n))
    R = np.zeros((len(basis),) * 2)
    kept, dropped = [], []
    for start in range(0, len(order), SWEEP_PANEL):
        panel, t0 = order[start : start + SWEEP_PANEL], len(kept)
        Qt = basis[:t0]
        P = columns[:, panel]
        H = Qt @ P
        P = P - Qt.T @ H - prior(P)
        G = Qt @ P  # one re-orthogonalisation pass
        P = P - Qt.T @ G - prior(P)
        H += G
        for j, (idx, c) in enumerate(zip(panel, P.T.copy())):
            t = len(kept)
            if t == n:
                dropped.append(idx)
                continue
            Qp = basis[t0:t]
            h = Qp @ c
            r = c - h @ Qp
            g = Qp @ r
            r -= g @ Qp
            nr = np.sqrt(r @ r)
            if nr > tol:
                basis[t] = r / nr
                R[:t0, t], R[t0:t, t], R[t, t] = H[:, j], h + g, nr
                kept.append(idx)
            else:
                dropped.append(idx)
    r0 = len(kept)
    if r0 < len(basis):  # copies: a design keeps the basis, and a view would pin every row
        basis, R = basis[:r0].copy(), R[:r0, :r0].copy()
    return kept, dropped, basis, R


def _sweep_blocks(X, x_order, C0, c0_order, n_blocks: int, tol: float):
    """``_sweep`` of C0 in ``c0_order``, then of X in ``x_order`` against
    I_N (x) Q0, N = ``n_blocks``: the two sweeps of M = [X | I_N (x) C0]."""
    c0 = _sweep(C0, c0_order, tol)
    Q0, N = c0[2], n_blocks
    return c0, _sweep(X, x_order, tol, lambda P: _by_block(Q0.T, _by_block(Q0, P, N), N))


def _reduce_blocks(X, x_order, C0, c0_order, n_blocks: int):
    """Rank-revealing column selection on M = [X | I_N (x) C0], by blocks.

    X holds the shock-mean columns, (N k, s), and C0 one array's idiosyncratic
    block, (k, q); column s + n q + j of M is C0's column j in array n + 1.
    The drop threshold is ``REDUCE_TOL`` times M's largest column norm, the
    first pivot of column-pivoted QR (Businger and Golub 1965), which is
    the largest over X's and C0's columns. C0 is swept once in
    ``c0_order``, and its kept set and basis Q0 serve every array, because
    array n's columns meet no other array's rows; X is then swept in
    ``x_order`` against I_N (x) Q0 (``_sweep_blocks``). Returns what
    ``reduce_columns`` returns, indexed into M, and the sweeps' basis, the
    least-squares factor's (``LeastSquaresFactor.of``): (order, Q^T, R) for
    C0, then X, with the kept columns' indices into the reduced block in
    sweep order, and R upper-triangular in that order.
    """
    N, (k, q), s = n_blocks, C0.shape, X.shape[1]
    x_norms, c0_norms = (np.linalg.norm(cols, axis=0) for cols in (X, C0))
    tol = REDUCE_TOL * max(x_norms.max(initial=0.0), c0_norms.max(initial=0.0))

    sweeps = _sweep_blocks(X, x_order, C0, c0_order, N, tol)
    (kept0, dropped0, Q0, R0), (keptx, droppedx, Qx, Rx) = sweeps
    reasons = {}
    for norms, dropped, offsets in (
        (x_norms, droppedx, [0]), (c0_norms, dropped0, s + q * np.arange(N))
    ):
        for j in dropped:
            reason = "unobserved" if norms[j] <= tol else "aliased"
            reasons.update((int(o + j), reason) for o in offsets)
    k0, d0, kx, dx = (sorted(ids) for ids in (kept0, dropped0, keptx, droppedx))
    block_ids = s + q * np.arange(N)[:, None]
    kept = kx + (block_ids + k0).ravel().tolist()
    dropped = dx + (block_ids + d0).ravel().tolist()

    coef = np.zeros((len(kept), len(dropped)))
    if dropped:
        # a dropped shock column d = Xk a + (I (x) C0k) b: a solves against
        # Xk with C0 projected out (Qx spans it, orthogonal to I (x) Q0), b
        # is least squares on C0k of what a leaves, array by array. A
        # dropped C0 column has a = 0, and b is its least squares on C0k.
        # With C0k = Q0 R0 in sweep order, b solves R0 b = Q0^T [...], its
        # rows then put in k0's order
        Xk, Xd, r0 = X[:, kx], X[:, dx], len(k0)
        a = np.linalg.solve(Qx @ Xk, Qx @ Xd)
        left = (Xd - Xk @ a).reshape(N, k, len(dx)).transpose(1, 0, 2).reshape(k, N * len(dx))
        b = np.linalg.solve(R0, Q0 @ np.hstack([C0[:, d0], left]))[np.argsort(kept0)]
        coef[: len(kx), : len(dx)] = a
        b_shock = b[:, len(d0):].reshape(r0, N, len(dx)).transpose(1, 0, 2)
        coef[len(kx):, : len(dx)] = b_shock.reshape(N * r0, len(dx))
        coef[len(kx):, len(dx):] = np.kron(np.eye(N), b[:, : len(d0)])
    basis = [(np.searchsorted(k0, kept0), Q0, R0), (np.searchsorted(kx, keptx), Qx, Rx)]
    return kept, dropped, coef, reasons, basis


def reduce_columns(M: np.ndarray, keep_priority=None):
    """Rank-revealing column selection.

    Sweeps columns in ``keep_priority`` order (default: left to right),
    keeping a column only if its residual against the span of already-kept
    columns exceeds ``REDUCE_TOL`` times M's largest column norm. Returns
    (kept indices sorted, dropped indices, coef, reasons) where ``coef``
    expresses each dropped column as the least squares combination of kept
    ones and ``reasons`` maps dropped index to "aliased" or "unobserved"
    (zero column). This is the one-block case of the reduction ``assemble``
    runs: N = 1 and no shock-mean columns. ConfigError unless
    ``keep_priority`` is a permutation of M's columns. No fit calls it:
    outside the tests, perfbench/tracer.py is its only reader.
    """
    M = np.asarray(M, dtype=float)
    n, m = M.shape
    order = list(range(m)) if keep_priority is None else list(keep_priority)
    if sorted(order) != list(range(m)):
        raise ConfigError(f"keep_priority must order each of M's {m} columns once")
    return _reduce_blocks(np.zeros((n, 0)), [], M, order, 1)[:4]


def _by_block(a: np.ndarray, v: np.ndarray, n_blocks: int) -> np.ndarray:
    """(I_N (x) a) v with N = ``n_blocks``, for v of N a.shape[1] rows."""
    cols = v.shape[1]
    return np.matmul(a, v.reshape(n_blocks, a.shape[1], cols)).reshape(n_blocks * a.shape[0], cols)


def frame_times(X: np.ndarray, C0: np.ndarray, v: np.ndarray, n_blocks: int) -> np.ndarray:
    """[X | I_N (x) C0] v with N = ``n_blocks``, by blocks: X v_x + (I_N (x) C0) v_0
    for a vector or a matrix v of s + N q rows, X of s columns."""
    s = X.shape[1]
    v0 = v[s:] if v.ndim == 2 else v[s:, None]
    return X @ v[:s] + _by_block(C0, v0, n_blocks).reshape(X.shape[0], *v.shape[1:])


@dataclass(frozen=True)
class LeastSquaresFactor:
    """M = [Qx | I_N (x) Q0] T, the least-squares factor of M = [X | I_N (x) C0].

    It is the reduction's two sweeps (``_sweep_blocks``): C0 = Q0 R0 for
    every array, and X - (I_N (x) Q0) Z = Qx Rx with Z = (I_N (x) Q0)^T X,
    so T = [[Rx, 0], [Z, I_N (x) R0]] in M's column order. T^-1 is held by
    these blocks only and applied by them (``t_inv_times``). A bare matrix
    is the one-block case, C0 = M with no X, swept at tolerance 0 (``of``).
    """

    q0: np.ndarray  # (cells, r0)
    qx: np.ndarray  # (n, s)
    z: np.ndarray  # (N r0, s)
    # R0^-1 and Rx^-1, rows in M's order, inverted through R^T, in the memory
    # order that kappa's block products read (another order rounds them differently)
    r0_inv: np.ndarray
    rx_inv: np.ndarray

    @classmethod
    def of(
        cls, X: np.ndarray, C0: np.ndarray, n_blocks: int, labels, basis=None
    ) -> "LeastSquaresFactor":
        """The factor of [X | I_N (x) C0], N = ``n_blocks``.

        ``basis`` is the sweeps' basis of C0 and X as ``_reduce_blocks``
        leaves it; without it C0 and then X are swept here at tolerance 0,
        which drops only a column past the rows or one whose residual is
        exactly zero. A column whose sweep's diagonal entry is at most 1e-12
        times the largest (or 1) is aliased, and so is a column the sweep
        dropped, which has none; DesignError names every such column.
        """
        r0, s, N = C0.shape[1], X.shape[1], n_blocks
        if basis is None:
            sweeps = _sweep_blocks(X, range(s), C0, range(r0), N, 0.0)
            basis = [(kept, Qt, R) for kept, _, Qt, R in sweeps]
        (order0, q0t, R0), (orderx, qxt, Rx) = basis
        pivots0, pivotsx = np.zeros(r0), np.zeros(s)
        pivots0[order0], pivotsx[orderx] = np.diagonal(R0), np.diagonal(Rx)
        rdiag = np.concatenate([pivotsx, np.tile(pivots0, N)])
        aliased = rdiag <= 1e-12 * rdiag.max(initial=1.0)
        if aliased.any():
            bad = [labels[j] for j in np.where(aliased)[0]]
            raise DesignError(f"normal equations are singular; aliased columns: {bad}")
        # R^-1 with its rows in M's order, (R P)^-1 = P^T R^-1
        r0_inv, rx_inv = (_tril_inverse(R.T).take(np.argsort(o), axis=1).T for o, _, R in basis)
        return cls(q0t.T, qxt.T, _by_block(q0t, X, N), r0_inv, rx_inv)

    def t_inv_times(self, v: np.ndarray) -> np.ndarray:
        """T^-1[:, :k] v for a matrix v of s <= k <= m rows, by blocks:
        [Rx^-1 v_x; (I_N (x) R0^-1)(v_0 - Z Rx^-1 v_x)], v_0 padded with
        zeros, so that arrays with the same data get the same bits."""
        s = self.qx.shape[1]
        x = self.rx_inv @ v[:s]
        rest = -(self.z @ x)
        rest[: len(v) - s] += v[s:]
        return np.concatenate([x, _by_block(self.r0_inv, rest, len(self.qx) // len(self.q0))])

    def least_squares(self, y: np.ndarray) -> np.ndarray:
        """kappa = T^-1 Q^T y (``t_inv_times``)."""
        N = y.size // self.q0.shape[0]
        qty = np.concatenate([self.qx.T @ y, _by_block(self.q0.T, y[:, None], N).ravel()])
        return self.t_inv_times(qty[:, None]).ravel()


@dataclass(frozen=True)
class ModelDesign:
    """Assembled design: the reduced mean design M and its bookkeeping.

    M = [X | I_N (x) C0] (see ``array_frame``): X holds the kept shock-mean
    columns, (N|cells|, s_x), and C0 the kept columns of one array's
    idiosyncratic block, (|cells|, r0). Fits and forecasts apply M by these
    two blocks (``times``, ``blocks_for_cells``). The least-squares factor
    (``factor``) and the shock blocks A and B, which only the
    diagonal-scalar structure and an unshared across-array mean need, are
    formed on first read.
    """

    layout: ArrayLayout
    shock: ShockSpec
    idio_variant: str
    X: np.ndarray  # (N|cells|, s_x)   kept shock-mean columns
    C0: np.ndarray  # (|cells|, r0)    kept idiosyncratic columns of one array
    full_labels: tuple
    kept: tuple
    dropped: tuple  # ((label, reason), ...)
    coef: np.ndarray  # kept -> dropped alias coefficients
    labels: tuple = field(init=False)
    # the reduction sweeps' basis of C0 and X, the factor's: ``assemble``
    # sets it on the design it builds, and it is no field, so a copy
    # (``dataclasses.replace``) sweeps its own (``LeastSquaresFactor.of``)
    _basis = None

    def __post_init__(self):
        object.__setattr__(
            self, "labels", tuple(self.full_labels[k] for k in self.kept)
        )

    @cached_property
    def M(self) -> np.ndarray:
        """The dense reduced design [X | I_N (x) C0], (n_obs, n_params).
        No fit or forecast reads it: perfbench/tracer.py is its only reader."""
        return array_frame(self.X, self.C0, self.layout.n_arrays)

    def times(self, kappa: np.ndarray) -> np.ndarray:
        """M kappa, by blocks (``frame_times``)."""
        return frame_times(self.X, self.C0, kappa, self.layout.n_arrays)

    @cached_property
    def factor(self) -> LeastSquaresFactor:
        """M = [Qx | I_N (x) Q0] T; DesignError names M's aliased columns."""
        N = self.layout.n_arrays
        return LeastSquaresFactor.of(self.X, self.C0, N, self.labels, self._basis)

    @cached_property
    def _rows(self) -> _CellRows:
        return _CellRows.stacked(self.layout, self.shock.partition)

    @cached_property
    def _shock_blocks(self) -> tuple:
        return self._rows.shock_blocks(self.shock)

    @property
    def A(self) -> np.ndarray:
        """(N|cells|, P) across-array shock block, no columns when absent."""
        return self._shock_blocks[0]

    @property
    def B(self) -> np.ndarray:
        """(N|cells|, N P) within-array shock block, no columns when absent."""
        return self._shock_blocks[1]

    @property
    def n_obs(self) -> int:
        return self.X.shape[0]

    @property
    def n_params(self) -> int:
        return self.X.shape[1] + self.layout.n_arrays * self.C0.shape[1]

    def _cell_blocks(self, cells):
        """The unreduced (X, C0) of arbitrary grid cells (see ``_CellRows.design``)."""
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
        X, C0, _ = _CellRows(self.layout, i, j, labels, part.n_subsets).design(
            shock, self.idio_variant
        )
        return X, C0

    def blocks_for_cells(self, cells):
        """(X*, C0*): the kept shock-mean columns and one array's kept
        idiosyncratic columns over arbitrary grid cells, so that the reduced
        rows are [X* | I_N (x) C0*], array index outermost.

        The cells are checked for estimability: any weight a row places on
        a dropped column must be reproduced by the kept columns through the
        alias relation observed in the data, otherwise the cell's mean is
        not identified and a DesignError names the array, the cell and the
        parameter. A dropped shock mean d = X_k a + (I_N (x) C0_k) b is
        checked array by array, X*_d - X*_k a - C0*_k b_n, and a dropped
        idiosyncratic column, C0*_d - C0*_k b0, once for every array: its
        copy in array n meets array n's rows only. The worst entry is found
        as it would be in the dense mismatch M*_dropped - M*_kept coef, and
        neither that nor M* is formed.
        """
        cells = tuple(cells)
        X, C0 = self._cell_blocks(cells)
        s, q, N = X.shape[1], C0.shape[1], self.layout.n_arrays
        kx = [k for k in self.kept if k < s]
        k0 = [k - s for k in self.kept if s <= k < s + q]
        kept_set = set(self.kept)
        dx = [k for k in range(s) if k not in kept_set]
        d0 = [j for j in range(q) if s + j not in kept_set]
        Xk, C0k = X[:, kx], C0[:, k0]
        if (dx or d0) and cells:
            # coef's rows are kept (kx, then array n's k0 at len(kx) + n r0),
            # its columns dropped (dx, then array n's d0): a, b_n and b0 as
            # assemble's reduction wrote them
            a, b = self.coef[: len(kx), : len(dx)], self.coef[len(kx):, : len(dx)]
            b0 = self.coef[len(kx) : len(kx) + len(k0), len(dx) : len(dx) + len(d0)]
            shock = np.abs(X[:, dx] - Xk @ a - _by_block(C0k, b, N))
            own = np.abs(C0[:, d0] - C0k @ b0)
            row_max = np.maximum(
                shock.max(axis=1, initial=0.0), np.tile(own.max(axis=1, initial=0.0), N)
            )
            worst = int(np.argmax(row_max))
            if row_max[worst] > 1e-8:
                n, c = divmod(worst, len(cells))
                # the worst row's first largest entry: dx, then array n's d0
                if shock[worst].max(initial=0.0) >= own[c].max(initial=0.0):
                    bad_col = dx[int(np.argmax(shock[worst]))]
                else:
                    bad_col = s + q * n + d0[int(np.argmax(own[c]))]
                i, j = cells[c]
                raise DesignError(
                    f"cell (array {n + 1}, i={i}, j={j}) requires parameter "
                    f"{self.full_labels[bad_col]} that is not identified by the "
                    "observed data; supply the future values by hand (an AR(1) "
                    "extrapolation plus forecast offsets)"
                )
        return Xk, C0k

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
    """Build the shock-mean columns and one array's idiosyncratic block, and
    remove redundant mean columns.

    The reduction sweep keeps idiosyncratic columns in preference to shock
    means (and within-array means in preference to across-array ones), which
    reproduces the usual convention: aliased shock means are absorbed into
    the idiosyncratic effects. C = I_N (x) C0 for congruent arrays, so the
    sweep visits one array's block C0 once and reuses its kept columns for
    every array, then sweeps the shock means against that span; the result
    is ``reduce_columns`` of the dense unreduced design with the same
    priority, which is never formed.
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

    X, C0, labels = _CellRows.stacked(lay, part).design(shock, idio_variant)
    # keep priority: zeta block first, then eta, then xi; the unreduced
    # design is [xi | eta | I_N (x) C0], and the reduction works on those blocks
    s, q, N = X.shape[1], C0.shape[1], lay.n_arrays
    rank = {"xi": 1, "xi_shared": 1, "eta": 0}
    x_order = sorted(range(s), key=lambda k: (rank[labels[k][0]], k))
    kept, dropped, coef, reasons, basis = _reduce_blocks(X, x_order, C0, range(q), N)
    if not kept:
        raise DesignError("design reduced to zero columns")
    design = ModelDesign(
        layout=lay,
        shock=shock,
        idio_variant=idio_variant,
        X=X[:, [k for k in kept if k < s]],
        C0=C0[:, [k - s for k in kept if s <= k < s + q]],
        full_labels=tuple(labels),
        kept=tuple(kept),
        dropped=tuple((labels[d], reasons[d]) for d in dropped),
        coef=coef,
    )
    object.__setattr__(design, "_basis", basis)
    return design
