"""Parametric covariance structures for the stacked log observations.

Every structure is one list of terms, linear in its variance components:

    Sigma(omega) = sum_k omega_k D_k,   D_k = (g_k g_k^T) kron (F_k F_k^T),

with an array-side loading g_k (N x r_k) and a cell-side loading F_k, where
None stands for the identity in F_k. The analytic derivatives are the D_k
themselves. The terms are the model's Sigma = L Gamma L^T written term by
term, L = [g_1 kron F_1, ...] and Gamma = diag(omega_k I), the covariance of
the stacked shock and idiosyncratic vectors; neither L nor Gamma is formed.
A model whose Gamma has a non-scalar block R (``Example48``) folds R's
square root into the loading. ``CellwiseTwoLevel``, ``DiagonalScalar`` and
``Example48`` are constructors of this one form, and every covariance is
built from a structure's terms. ``GammaStructure.loading_form`` writes
Sigma as C kron I plus G_k kron F_k F_k^T for each term with a cell side,
G_k = omega_k g_k g_k^T: the form the forecast writes Sigma* in.

``SigmaModel(structure, omega)`` factors Sigma in the structure's subset
frame (``GammaStructure.subset_frame``) where it has one: when every F_k
has at most one nonzero per row and the terms' columns are parallel within
each subset of cells, the cell sides F_k F_k^T commute and

    Sigma(omega) = sum_j C_j(omega) kron Pi_j,

with one N x N array side C_j = sum_k omega_k lam_kj g_k g_k^T per group j
of subsets whose eigenvalues lam_kj agree, Pi_j the projection onto the
group's normalised subset vectors, and Pi_0 = I - sum_j Pi_j, on which only
the identity cell sides act (Szatrowski 1980; Searle, Casella and McCulloch
1992). Only the C_j are factored. When there is one group, Pi = I and
Sigma = C kron I_cells (``identity_cell_side``): every cell side the
identity, or every subset one cell with the same eigenvalues. A
structure outside that form is factored as the dense Sigma. Everything
the ML solver needs of a term, tr(Sigma^-1 D_k),
tr(Sigma^-1 D_k Sigma^-1 D_l) and d^T Sigma^-1 D_k Sigma^-1 d, comes from
its whitened loadings (L_j^-1 g_k per group, L^-1 (g_k kron F_k) against
the dense Sigma), so no D_k is formed on the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError
from .kron import array_frame, kron

# the structures ``structure_for`` builds by name
STRUCTURE_KINDS = ("cellwise_two_level", "diagonal_scalar", "example48")
# blocks of at most this order are inverted whole by ``_tril_inverse``
TRIL_LEAF = 64
# two terms' entries over a subset count as parallel when their ratios
# spread by at most this, relative: exact multiples spread by a few ulp
PARALLEL_TOL = 1e-14


class Term(NamedTuple):
    """One variance component: omega_k (g g^T) kron (F F^T)."""

    name: str
    zero_allowed: bool  # Sigma stays positive definite with this component at 0
    g: np.ndarray  # array-side loading, N x r
    F: np.ndarray | None = None  # cell-side loading, cells x p; None for I


class SubsetFrame(NamedTuple):
    """The groups j of Sigma(omega) = sum_j C_j(omega) kron Pi_j.

    The cells that share a column in some F_k form subsets S, each with a
    unit vector u_S (its first term's entries, normalised) on which every
    term's F_k F_k^T acts as lam_k(S) u_S u_S^T. Subsets with the same
    eigenvalues form a group, Pi_j = sum_S u_S u_S^T; the complement
    Pi_0 = I - sum_S u_S u_S^T takes eigenvalue 1 from the identity cell
    sides and 0 from the others. Subsets are numbered group by group.
    """

    lam: np.ndarray  # (groups, terms): term k's eigenvalue on Pi_j
    rank: np.ndarray  # (groups,): rank of Pi_j
    spans: tuple  # per group, its subsets as a slice; None for the complement
    members: np.ndarray  # the cells of the subsets, subset by subset
    owner: np.ndarray  # the subset of each member
    weights: np.ndarray  # u_S at each member
    starts: np.ndarray  # where each subset's members start

    def coordinates(self, X: np.ndarray) -> np.ndarray:
        """X U for X of shape (N, cells, m): (N, subsets, m), U = [u_S ...]."""
        return np.add.reduceat(X[:, self.members] * self.weights[:, None], self.starts, axis=1)

    def add_back(self, out: np.ndarray, Y: np.ndarray) -> None:
        """out += Y U^T, for Y of shape (N, subsets, m)."""
        out[:, self.members] += Y[:, self.owner] * self.weights[:, None]


def _subset_frame(terms, cells: int):
    """The ``SubsetFrame`` of ``terms`` over ``cells`` cells, or None where
    some F_k has two nonzeros in a row, a column of F_k reaches two
    subsets, or two terms' entries over a subset are not parallel."""
    eye = np.array([t.F is None for t in terms], dtype=float)
    shocks = [t.F for t in terms if t.F is not None]
    key, val = np.full((cells, len(shocks)), -1), np.zeros((cells, len(shocks)))
    for k, F in enumerate(shocks):
        rows, cols = np.nonzero(F)
        if np.unique(rows).size < rows.size:
            return None
        key[rows, k], val[rows, k] = cols, F[rows, cols]
    touched = np.flatnonzero((key >= 0).any(axis=1))
    if not touched.size:
        none = np.zeros(0, dtype=int)
        return SubsetFrame(eye[None, :], np.array([cells]), (None,), none, none, np.zeros(0), none)
    # a subset is the cells with the same column in every term, and no
    # column may reach two subsets
    subset = np.unique(key[touched], axis=0, return_inverse=True)[1].ravel()
    for col in key[touched].T:
        on = col >= 0
        if np.unique(col[on]).size < np.unique(np.stack([col[on], subset[on]]), axis=1).shape[1]:
            return None
    members = touched[np.argsort(subset, kind="stable")]
    owner = np.sort(subset, kind="stable")
    starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    V = val[members]
    ref = V[np.arange(len(V)), (V != 0).argmax(axis=1)]  # the first term on each cell
    ratio = V / ref[:, None]
    lo, hi = np.minimum.reduceat(ratio, starts), np.maximum.reduceat(ratio, starts)
    if np.any(hi - lo > PARALLEL_TOL * np.maximum(np.abs(lo), np.abs(hi))):
        return None
    lam = np.repeat(eye[None, :], starts.size, axis=0)
    lam[:, eye == 0] = np.add.reduceat(V * V, starts, axis=0)
    weights = ref / np.sqrt(np.add.reduceat(ref * ref, starts))[owner]
    # renumber the subsets group by group
    patterns, group = np.unique(lam, axis=0, return_inverse=True)
    group = group.ravel()
    renumber = np.empty(starts.size, dtype=int)
    renumber[np.argsort(group, kind="stable")] = np.arange(starts.size)
    order = np.argsort(renumber[owner], kind="stable")
    members, owner, weights = members[order], renumber[owner][order], weights[order]
    starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    bounds = np.r_[0, np.cumsum(np.bincount(group))]
    spans = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    ranks = list(np.diff(bounds))
    if cells > starts.size:
        patterns = np.vstack([patterns, eye])
        spans.append(None)
        ranks.append(cells - starts.size)
    for a in (patterns, members, owner, weights, starts):
        a.setflags(write=False)
    return SubsetFrame(patterns, np.array(ranks), tuple(spans), members, owner, weights, starts)


@dataclass(frozen=True)
class GammaStructure:
    """A covariance structure Sigma(omega) = sum_k omega_k (g_k g_k^T) kron (F_k F_k^T).

    This is L Gamma(omega) L^T with Gamma(omega) = diag(omega_k I). ``cells``
    is the cell-side dimension, the rows of every F_k. ``kind`` names the
    constructor that rebuilds the structure over another region of cells
    (see ``structure_for``); it is None where no such rule exists. A
    structure has at least one term, every g_k is N x r_k with one N and
    every F_k is cells x p_k; ConfigError names a term that is not.
    """

    terms: tuple
    cells: int
    kind: str | None = None

    def __post_init__(self):
        if not self.terms:
            raise ConfigError("a covariance structure needs at least one term")
        n_arrays = (np.shape(self.terms[0].g) or (None,))[0]
        for t in self.terms:
            if np.ndim(t.g) != 2 or len(t.g) != n_arrays:
                raise ConfigError(f"term {t.name!r}: g is {np.shape(t.g)}, not {n_arrays} x r")
            if t.F is not None and (np.ndim(t.F) != 2 or len(t.F) != self.cells):
                raise ConfigError(f"term {t.name!r}: F is {np.shape(t.F)}, not {self.cells} x p")

    @property
    def n_arrays(self) -> int:
        return self.terms[0].g.shape[0]

    @property
    def omega_names(self) -> tuple:
        return tuple(t.name for t in self.terms)

    @property
    def zero_allowed(self) -> tuple:
        return tuple(t.zero_allowed for t in self.terms)

    @property
    def n_params(self) -> int:
        return len(self.terms)

    @cached_property
    def subset_frame(self) -> SubsetFrame | None:
        """The groups of Sigma = sum_j C_j kron Pi_j (see ``SubsetFrame``),
        or None where the cell sides do not take that form."""
        return _subset_frame(self.terms, self.cells)

    @property
    def identity_cell_side(self) -> bool:
        """Sigma(omega) = C(omega) kron I_cells: the subset frame has one
        group, because every term's cell side is the identity or every
        subset is one cell with the same eigenvalues."""
        return self.subset_frame is not None and len(self.subset_frame.rank) == 1

    def _check(self, omega) -> np.ndarray:
        omega = np.asarray(omega, dtype=float).ravel()
        if omega.size != self.n_params:
            raise ConfigError(
                f"expected {self.n_params} variance components "
                f"{self.omega_names}, got {omega.size}"
            )
        if not np.all(np.isfinite(omega) & (omega >= 0)):
            raise ConfigError(
                f"variance components must be finite and non-negative, got {omega.tolist()}"
            )
        return omega

    @cached_property
    def _array_sides(self) -> tuple:
        """g g^T of every term, formed once per structure and kept read-only."""
        out = []
        for term in self.terms:
            G = term.g @ term.g.T
            G.setflags(write=False)
            out.append(G)
        return tuple(out)

    @cached_property
    def _cell_sides(self) -> tuple:
        """F F^T of every term, None for the identity; cells x cells each.

        Neither depends on omega, so they are formed once per structure and
        kept read-only, for ``sigma`` and ``dsigma_domega``. BLAS forms
        F F^T as a symmetric rank-k update, so every D_k and Sigma come out
        exactly symmetric.
        """
        out = []
        for term in self.terms:
            K = None
            if term.F is not None:
                K = term.F @ term.F.T
                K.setflags(write=False)
            out.append(K)
        return tuple(out)

    def sigma(self, omega) -> np.ndarray:
        """The dense n x n Sigma(omega), added term by term and block by block.

        Block (a, b) of term k is omega_k G_k[a, b] K_k, from the cached
        ``_array_sides`` and ``_cell_sides``; an identity cell side adds
        omega_k G_k[a, b] on the block's diagonal.
        """
        omega = self._check(omega)
        c = self.cells
        out = np.zeros((self.n_arrays * c,) * 2)
        diag = np.arange(c)
        for w, G, K in zip(omega, self._array_sides, self._cell_sides):
            for a, b in zip(*np.nonzero(G)):
                block = out[a * c : (a + 1) * c, b * c : (b + 1) * c]
                if K is None:
                    block[diag, diag] += w * G[a, b]
                else:
                    block += (w * G[a, b]) * K
        return out

    def loading(self, k: int) -> np.ndarray:
        """L_k = g_k kron F_k, so that D_k = L_k L_k^T, for a term whose F is not None.

        A unit 1 x 1 array side gives F_k itself.
        """
        t = self.terms[k]
        return t.F if np.array_equal(t.g, [[1.0]]) else kron(t.g, t.F)

    def loading_form(self, omega):
        """(C, ((G_k, F_k), ...)) with Sigma(omega) = C kron I + sum_k G_k kron F_k F_k^T.

        C is the N x N array side of the terms whose cell side is the
        identity, sum omega_k g_k g_k^T; every other term gives its array
        side G_k = omega_k g_k g_k^T and its cell-side loading F_k.
        """
        omega = self._check(omega)
        eye = [t.F is None for t in self.terms]
        C = np.zeros((self.n_arrays,) * 2)
        C = sum((w * G for w, G, e in zip(omega, self._array_sides, eye) if e), C)
        return C, tuple(
            (w * G, t.F) for w, G, t in zip(omega, self._array_sides, self.terms) if t.F is not None
        )

    def group_sides(self, omega) -> list:
        """The N x N C_j = sum_k omega_k lam_kj g_k g_k^T of every group of
        the subset frame, in its order."""
        omega = self._check(omega)
        zero = np.zeros((self.n_arrays,) * 2)
        return [
            sum(((w * l) * G for w, l, G in zip(omega, lam, self._array_sides) if l), zero)
            for lam in self.subset_frame.lam
        ]

    def term_product(self, k: int, X) -> np.ndarray:
        """D_k X for X with n rows in stacking order, from term k's loadings.

        With X reshaped to N x cells x m, V = L_k^T X is g_k^T along the
        arrays and F_k^T along the cells, L_k = g_k kron F_k; then
        D_k X = L_k V, so neither D_k nor L_k is formed.
        """
        t = self.terms[k]
        X = np.asarray(X, dtype=float)
        r, c, m = t.g.shape[1], self.cells, X.shape[1]
        V = (t.g.T @ X.reshape(self.n_arrays, c * m)).reshape(r, c, m)
        if t.F is not None:
            V = np.matmul(t.F, np.matmul(t.F.T, V))
        return (t.g @ V.reshape(r, c * m)).reshape(X.shape)


def CellwiseTwoLevel(n_arrays: int, cells: int) -> GammaStructure:
    """Across-array shock shared cell by cell plus a white idiosyncratic term.

    Sigma = sigma2 (1_N 1_N^T kron I_cells) + v2 I. omega = (sigma2, v2).
    """
    terms = (
        Term("sigma2", True, np.ones((n_arrays, 1))),
        Term("v2", False, np.eye(n_arrays)),
    )
    return GammaStructure(terms, cells, "cellwise_two_level")


def DiagonalScalar(A, B=None, n_arrays: int = 1) -> GammaStructure:
    """Scalar-block Gamma: sigma2 I_P, optionally tau2 I_NP, and v2 I.

    Built from the design's shock coefficient blocks A (and B when within
    shocks are present): Sigma = sigma2 A A^T [+ tau2 B B^T] + v2 I.
    omega = (sigma2[, tau2], v2). When the rows of A are ``n_arrays`` = N
    equal blocks A0 and B = I_N kron B0, as for N congruent arrays whose
    alpha and beta are the same in every array, the terms are
    (sigma2, 1_N, A0), (tau2, I_N, B0) and (v2, I_N, None): with shocks
    shared within subsets, they reach the subset frame (see ``SigmaModel``)
    with N x N array sides. Otherwise, and when N is not given, every term
    has a 1 x 1 array side and A and B span all arrays. ConfigError rejects
    an A whose rows are not N equal-sized blocks.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float) if B is not None and np.asarray(B).size else None
    if B is not None and B.shape[0] != A.shape[0]:
        raise ConfigError("A and B must have the same number of rows")
    if A.shape[0] % n_arrays:
        raise ConfigError(f"A has {A.shape[0]} rows, not {n_arrays} blocks of equal size")
    blocks = _array_blocks(A, B, n_arrays)
    N, (A0, B0) = (n_arrays, blocks) if blocks else (1, (A, B))
    terms = [Term("sigma2", True, np.ones((N, 1)), A0)]
    if B0 is not None:
        terms.append(Term("tau2", True, np.eye(N), B0))
    terms.append(Term("v2", False, np.eye(N)))
    return GammaStructure(tuple(terms), A.shape[0] // N, "diagonal_scalar")


def _array_blocks(A, B, n_arrays: int):
    """(A0, B0) with A = 1_N kron A0 and B = I_N kron B0 (B0 None without
    B), or None where the arrays' blocks differ."""
    N, cells = n_arrays, A.shape[0] // n_arrays
    A0 = A[:cells].copy()
    if not np.array_equal(A.reshape(N, cells, -1), np.broadcast_to(A0, (N, *A0.shape))):
        return None
    if B is None:
        return A0, None
    if B.shape[1] % N:
        return None
    # the same block on B's diagonal, and nothing off it
    diagonal = B.reshape(N, cells, N, -1)[np.arange(N), :, np.arange(N)]
    B0 = diagonal[0]
    if not np.array_equal(diagonal, np.broadcast_to(B0, diagonal.shape)):
        return None
    return (A0, B0) if np.count_nonzero(diagonal) == np.count_nonzero(B) else None


def Example48(n_arrays: int, A0, R) -> GammaStructure:
    """Shared development operator with per-array shock and noise scales.

    Sigma = (sigma2 1_N 1_N^T + Phi) kron (A0 R A0^T) + Psi kron I_cells with
    Phi = diag(tau2_1..tau2_N) and Psi = diag(v2_1..v2_N).
    omega = (sigma2, tau2_1..tau2_N, v2_1..v2_N), in that order. The
    covariance block R enters through its square root, as the shocks'
    loading F = A0 V Lambda^(1/2) with V Lambda V^T = (R + R^T) / 2; Lambda
    is clipped at 0, and below -1e-12 max |lambda| it raises ConfigError.
    Only the identity operator (A0 = R = I) keeps F None and has a rule for
    the future region, so any other gives a structure of kind None.
    """
    A0 = np.asarray(A0, dtype=float)
    R = np.asarray(R, dtype=float)
    if A0.ndim != 2 or A0.shape[0] != A0.shape[1]:
        raise ConfigError("A0 must be square")
    if R.shape != A0.shape:
        raise ConfigError("R must match the shape of A0")
    eye = np.eye(A0.shape[0])
    identity = np.array_equal(A0, eye) and np.array_equal(R, eye)
    F = None
    if not identity:
        lam, V = np.linalg.eigh(0.5 * (R + R.T))
        if not np.all(lam >= -1e-12 * np.abs(lam).max(initial=0.0)):
            raise ConfigError(f"R must be positive semidefinite, its eigenvalues are {lam}")
        F = A0 @ (V * np.sqrt(np.clip(lam, 0.0, None)))
    arrays = np.eye(n_arrays)
    terms = (
        (Term("sigma2", True, np.ones((n_arrays, 1)), F),)
        + tuple(Term(f"tau2_{n + 1}", True, arrays[:, [n]], F) for n in range(n_arrays))
        + tuple(Term(f"v2_{n + 1}", False, arrays[:, [n]]) for n in range(n_arrays))
    )
    return GammaStructure(terms, A0.shape[0], "example48" if identity else None)


def structure_for(kind: str, n_arrays: int, cells: int, A, B) -> GammaStructure:
    """The structure named ``kind`` for N arrays of ``cells`` cells each.

    A and B are the design's shock coefficient blocks over those cells, or
    functions of no arguments that return them; only ``diagonal_scalar``
    reads them (an empty B means no within shocks), so only it calls a
    function. ``diagonal_scalar`` is given the N arrays, so blocks that
    are the same in every array give it N x N array sides. ``example48``
    gets the identity development operator.
    """
    if kind not in STRUCTURE_KINDS:
        raise ConfigError(f"unknown covariance structure {kind!r}")
    if kind == "cellwise_two_level":
        return CellwiseTwoLevel(n_arrays, cells)
    if kind == "diagonal_scalar":
        A, B = (block() if callable(block) else block for block in (A, B))
        return DiagonalScalar(A, B, n_arrays)
    eye = np.eye(cells)
    return Example48(n_arrays, eye, eye)


def sigma_inverse_cellwise(sigma2: float, v2: float, cells: int, n_arrays: int = 2) -> np.ndarray:
    """Closed-form inverse of the cell-matched structure on N arrays.

    Sigma = (sigma2 J_N + v2 I_N) kron I_cells inverts to
    ((I_N - sigma2 / (v2 + N sigma2) J_N) / v2) kron I_cells. A negative or
    non-finite sigma2 raises ConfigError, a v2 at or below 0 NumericalError.
    """
    if not (np.isfinite(sigma2) and sigma2 >= 0):
        raise ConfigError(f"sigma2 must be finite and non-negative, got {sigma2!r}")
    if v2 <= 0:
        raise NumericalError("v2 must be positive, the structure is singular at v2 = 0")
    return kron((np.eye(n_arrays) - sigma2 / (v2 + n_arrays * sigma2)) / v2, np.eye(cells))


def dsigma_domega(structure: GammaStructure, k: int) -> np.ndarray:
    """Analytic derivative of Sigma with respect to component k of omega.

    This is the dense n x n D_k, built on each call; the solver never needs it.
    """
    if not 0 <= k < structure.n_params:
        raise ConfigError(
            f"component index {k} out of range for {structure.omega_names}"
        )
    K = structure._cell_sides[k]
    return kron(structure._array_sides[k], np.eye(structure.cells) if K is None else K)


def _tril_inverse(L: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The inverse of the nonsingular lower-triangular L, with an exactly zero upper triangle.

    By 2 x 2 block recursion: for L = [[A, 0], [B, D]] the inverse is
    [[A^-1, 0], [-D^-1 B A^-1, D^-1]], so the work beyond the two diagonal
    blocks is two matrix products. Blocks of order ``TRIL_LEAF`` or less are
    inverted whole, keeping their lower triangle. Each block is written in
    place into one output, ``out`` when given. The upper-triangular R of a
    QR factor inverts through its transpose: R^-1 = _tril_inverse(R.T).T.
    """
    if out is None:
        out = np.zeros(L.shape)
    n = L.shape[0]
    if n <= TRIL_LEAF:
        out[...] = np.tril(np.linalg.inv(L))
        return out
    h = n // 2
    _tril_inverse(L[:h, :h], out[:h, :h])
    _tril_inverse(L[h:, h:], out[h:, h:])
    lower = out[h:, :h]
    np.matmul(out[h:, h:], L[h:, :h] @ out[:h, :h], out=lower)
    np.negative(lower, out=lower)
    return out


def _times_array_side(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """x (g kron I_c) for x whose columns are stacked with arrays outermost.

    A unit 1 x 1 array side returns x itself, so that ``information``'s
    product of a whitened identity loading with itself is one W^T W.
    """
    if np.array_equal(g, [[1.0]]):
        return x
    blocks = x.reshape(x.shape[0], g.shape[0], -1).transpose(0, 2, 1)
    return (blocks @ g).transpose(0, 2, 1).reshape(x.shape[0], -1)


class _Group(NamedTuple):
    """One group of ``SigmaModel``'s frame: C kron Pi, C = L L^T."""

    C: np.ndarray  # the N x N array side (the dense Sigma in the dense frame)
    L: np.ndarray  # C's lower Cholesky factor
    rank: int  # the rank of Pi: the cells with one group, 1 in the dense frame
    lam: np.ndarray  # every term's eigenvalue on Pi
    span: slice | None  # its subsets; None for the complement or all cells


class SigmaModel:
    """A covariance structure evaluated at a parameter vector.

    Sigma = sum_j C_j kron Pi_j over the groups of the structure's subset
    frame is held through a Cholesky factor L_j of each C_j alone. A vector
    reshaped to N x cells (arrays are outermost) is projected onto each
    group along the cells, its coordinates on the subsets or its part on
    the complement, and multiplied by L_j^-1 along the arrays (``_parts``);
    ``whiten`` puts the parts back. log det Sigma = sum_j rank(Pi_j)
    log det C_j. With one group, Pi = I and the one part is L^-1 x; a
    structure without a subset frame is one group of the dense Sigma
    (C = Sigma, one cell). Each L_j^-1 is formed once, on first use, and
    the dense Sigma only when ``sigma`` is read.

    ``term_traces``, ``information`` and ``term_forms`` are sums over the
    groups, weighted by the ranks and the terms' eigenvalues lam_kj, of
    products of the whitened loadings W_kj = L_j^-1 g_k (L^-1 (g_k kron F_k)
    against the dense Sigma, where an identity cell side goes through L^-1
    itself), each built once, on first use.
    """

    def __init__(self, structure: GammaStructure, omega):
        self.structure = structure
        self.omega = np.asarray(omega, dtype=float).ravel()
        frame = structure.subset_frame
        if frame is None:
            sides = [(structure.sigma(self.omega), 1, np.ones(structure.n_params), None)]
        else:
            sides = zip(structure.group_sides(self.omega), frame.rank, frame.lam, frame.spans)
        self._groups = []
        for C, rank, lam, span in sides:
            try:
                L = np.linalg.cholesky(C)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"covariance is not positive definite at omega = {self.omega.tolist()}"
                ) from exc
            self._groups.append(_Group(C, L, int(rank), lam, span))
        self._inverses = [None] * len(self._groups)
        self._whitened_terms = {}

    @property
    def sigma(self) -> np.ndarray:
        """The dense n x n Sigma, built on each read outside the dense frame."""
        if self.structure.subset_frame is None:
            return self._groups[0].C
        return self.structure.sigma(self.omega)

    @property
    def n(self) -> int:
        return self.structure.n_arrays * self.structure.cells

    def _parts(self, x) -> list:
        """L_j^-1 X_j of every group j, X_j shaped to C_j's rows: with one
        group, x itself (N x cells m, or n x m against the dense Sigma);
        otherwise, with X = x as N x cells x m, X u_S over the group's
        subsets or X Pi_0 on the complement, each shaped (N, -, m)."""
        x = np.asarray(x, dtype=float)
        if len(self._groups) == 1:
            return [self._factor_inverse(0) @ x.reshape(len(self._groups[0].C), -1)]
        frame = self.structure.subset_frame
        X = x.reshape(self.structure.n_arrays, self.structure.cells, -1)
        Y = frame.coordinates(X)
        out = []
        for j, g in enumerate(self._groups):
            if g.span is None:
                part = X.copy()
                frame.add_back(part, -Y)
            else:
                part = Y[:, g.span]
            inv = self._factor_inverse(j)
            out.append((inv @ part.reshape(len(part), -1)).reshape(part.shape))
        return out

    def logdet(self) -> float:
        return sum(g.rank * 2.0 * float(np.sum(np.log(np.diagonal(g.L)))) for g in self._groups)

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """Multiply by sum_j L_j^-1 kron Pi_j: the groups' ``_parts`` put back."""
        x = np.asarray(x, dtype=float)
        parts = self._parts(x)
        if len(parts) == 1:
            return parts[0].reshape(x.shape)
        frame = self.structure.subset_frame
        out = np.zeros((self.structure.n_arrays, self.structure.cells, parts[0].shape[-1]))
        Y = np.empty((len(out), len(frame.starts), out.shape[-1]))
        for g, part in zip(self._groups, parts):
            if g.span is None:
                out += part
            else:
                Y[:, g.span] = part
        frame.add_back(out, Y)
        return out.reshape(x.shape)

    def _factor_inverse(self, j: int) -> np.ndarray:
        """L_j^-1, the inverse of group j's lower Cholesky factor (computed once)."""
        if self._inverses[j] is None:
            self._inverses[j] = _tril_inverse(self._groups[j].L)
        return self._inverses[j]

    def _whitened(self, k: int, j: int) -> np.ndarray:
        """W_kj = L_j^-1 (loading of term k), formed once."""
        if (k, j) not in self._whitened_terms:
            t = self.structure.terms[k]
            inv = self._factor_inverse(j)
            if self.structure.subset_frame is not None:
                W = inv @ t.g
            elif t.F is None:
                W = _times_array_side(inv, t.g)
            else:
                W = inv @ self.structure.loading(k)
            self._whitened_terms[k, j] = W
        return self._whitened_terms[k, j]

    def whitened_rows(self, X: np.ndarray, q0: np.ndarray) -> np.ndarray:
        """B with B^T B = [X | I_N kron q0]^T Sigma^-1 [X | I_N kron q0].

        X is n x t and ``q0`` one array's block (cells x r0). This alone
        decides B's rows. In a subset frame of several groups over q0's
        arrays they are few: the rows of sum_j L_j^-1 kron Pi_j applied to
        those columns, in an orthonormal basis of their span. Group j's
        rows are L_j^-1 times the coordinates on its subsets, N x subsets.
        The complement's rows come from one QR,
        Pi_0 [q0 | X_1 ... X_N] = Q_K R_K over one array's cells: every
        column's part in array b lies in span(Q_K), so its rows are
        L_0^-1 times the columns of R_K, N x rank. The rows come array by
        array, and no n-row matrix is formed beyond X's own coordinates.
        Otherwise B is the n whitened rows of [X | I_N kron q0]: against
        the dense Sigma, in a frame whose arrays are not q0's, and with one
        group, where compressing would cost about cells (N t)^2 and loses at
        large t.
        """
        frame = self.structure.subset_frame
        N, cells = self.structure.n_arrays, self.structure.cells
        if frame is None or len(self._groups) == 1 or cells != len(q0):
            return self.whiten(array_frame(X, q0, len(X) // len(q0)))
        t, r0 = X.shape[1], q0.shape[1]
        Xa = np.asarray(X, dtype=float).reshape(N, cells, t)
        Yx = frame.coordinates(Xa)
        Y0 = frame.coordinates(q0[None])[0]
        blocks = []
        for j, g in enumerate(self._groups):
            inv = self._factor_inverse(j)
            if g.span is None:
                K = np.hstack([q0, *Xa])[None]
                frame.add_back(K, -frame.coordinates(K))
                R = np.linalg.qr(K[0], mode="r")
                x_part, q_part = R[:, r0:].reshape(len(R), N, t).transpose(1, 0, 2), R[:, :r0]
            else:
                x_part, q_part = Yx[:, g.span], Y0[g.span]
            x_rows = (inv @ x_part.reshape(N, -1)).reshape(N, -1, t)
            # L^-1 kron q_part, as rows (a, p) and columns (b, i)
            q_rows = np.multiply.outer(inv, q_part).transpose(0, 2, 1, 3).reshape(N, -1, N * r0)
            blocks.append(np.concatenate([x_rows, q_rows], axis=2))
        # array by array: a QR then keeps columns of different arrays apart
        # to the bit wherever Sigma does not couple them
        return np.concatenate(blocks, axis=1).reshape(-1, t + N * r0)

    def term_traces(self) -> np.ndarray:
        """tr(Sigma^-1 D_k) = sum_j rank_j lam_kj ||W_kj||_F^2 for every term k."""
        out = np.zeros(self.structure.n_params)
        for j, g in enumerate(self._groups):
            for k in np.flatnonzero(g.lam):
                W = self._whitened(k, j)
                out[k] += (g.rank * g.lam[k]) * _inner(W, W)
        return out

    def information(self, idx=None) -> np.ndarray:
        """tr(Sigma^-1 D_k Sigma^-1 D_l) over the terms ``idx`` (default all).

        Each entry is sum_j rank_j lam_kj lam_lj ||W_kj^T W_lj||_F^2. On the
        diagonal the product is one W_kj^T W_kj, which BLAS forms as a
        symmetric rank-k update; where the loading is the identity, W = L^-1
        and the entry is ||L^-T L^-1||_F^2.
        """
        idx = range(self.structure.n_params) if idx is None else list(idx)
        out = np.zeros((len(idx), len(idx)))
        for j, g in enumerate(self._groups):
            for a, k in enumerate(idx):
                for b in range(a, len(idx)) if g.lam[k] else ():
                    l = idx[b]
                    if g.lam[l]:
                        P = self._whitened(k, j).T @ self._whitened(l, j)
                        out[a, b] += (g.rank * g.lam[k] * g.lam[l]) * _inner(P, P)
        return out + np.triu(out, 1).T

    def term_forms(self, d) -> np.ndarray:
        """d^T Sigma^-1 D_k Sigma^-1 d = sum_j lam_kj ||W_kj^T z_j||_F^2 for every term k.

        z_j is d's part on group j, whitened (``_parts``): with one group,
        L^-1 d reshaped to C's rows (N x cells in the array frame, n x 1
        against the dense Sigma); otherwise L_j^-1 times d's coordinates on
        the group's subsets (N x subsets), or on the complement (N x cells).
        """
        out = np.zeros(self.structure.n_params)
        for j, (g, z) in enumerate(zip(self._groups, self._parts(d))):
            z = z.reshape(len(z), -1)
            for k in np.flatnonzero(g.lam):
                U = self._whitened(k, j).T @ z
                out[k] += g.lam[k] * _inner(U, U)
        return out


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """The Frobenius inner product sum(a * b), without copies of either."""
    return float(np.einsum("ij,ij->", a, b))
