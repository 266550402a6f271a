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
Sigma as C kron I plus omega_k L_k L_k^T for each term with a cell side,
L_k = g_k kron F_k: the form the forecast writes Sigma* in.

``SigmaModel(structure, omega)`` factors Sigma as C kron I_c
(``GammaStructure.kron_form``): when every cell side is the identity, C is
the N x N array side G(omega) = sum_k omega_k g_k g_k^T and c = cells, so no
n x n matrix is formed or factored; otherwise C is the dense Sigma and
c = 1. Everything the ML solver needs of a term, tr(Sigma^-1 D_k),
tr(Sigma^-1 D_k Sigma^-1 D_l) and d^T Sigma^-1 D_k Sigma^-1 d, comes from
its whitened loading in that frame (L^-1 g_k on the array side,
L^-1 (g_k kron F_k) against the dense Sigma), so no D_k is formed on the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError
from .kron import kron

# the structures ``structure_for`` builds by name
STRUCTURE_KINDS = ("cellwise_two_level", "diagonal_scalar", "example48")
# blocks of at most this order are inverted whole by ``_tril_inverse``
TRIL_LEAF = 64


class Term(NamedTuple):
    """One variance component: omega_k (g g^T) kron (F F^T)."""

    name: str
    zero_allowed: bool  # Sigma stays positive definite with this component at 0
    g: np.ndarray  # array-side loading, N x r
    F: np.ndarray | None = None  # cell-side loading, cells x p; None for I


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

    @property
    def identity_cell_side(self) -> bool:
        """Every term's cell side is the identity, so Sigma = G(omega) kron I_cells."""
        return all(t.F is None for t in self.terms)

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
        """(C, ((omega_k, L_k), ...)) with Sigma(omega) = C kron I + sum_k omega_k L_k L_k^T.

        C is the N x N array side of the terms whose cell side is the
        identity, sum omega_k g_k g_k^T; every other term gives its ``loading``.
        """
        omega = self._check(omega)
        eye = [t.F is None for t in self.terms]
        C = np.zeros((self.n_arrays,) * 2)
        C = sum((w * G for w, G, e in zip(omega, self._array_sides, eye) if e), C)
        return C, tuple((w, self.loading(k)) for k, w in enumerate(omega) if not eye[k])

    def kron_form(self, omega):
        """(C, c) with Sigma(omega) = C kron I_c.

        C is the array side sum_k omega_k g_k g_k^T and c = ``cells`` when
        every term's cell side is the identity (F None); otherwise C is
        the dense Sigma and c = 1.
        """
        if not self.identity_cell_side:
            return self.sigma(omega), 1
        return self.loading_form(omega)[0], self.cells

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


def DiagonalScalar(A, B=None) -> GammaStructure:
    """Scalar-block Gamma: sigma2 I_P, optionally tau2 I_NP, and v2 I.

    Built from the design's shock coefficient blocks A (and B when within
    shocks are present): Sigma = sigma2 A A^T [+ tau2 B B^T] + v2 I.
    omega = (sigma2[, tau2], v2). A and B already span all arrays, so the
    array side of every term is 1 x 1.
    """
    A = np.asarray(A, dtype=float)
    one = np.ones((1, 1))
    terms = [Term("sigma2", True, one, A)]
    if B is not None and np.asarray(B).size:
        B = np.asarray(B, dtype=float)
        if B.shape[0] != A.shape[0]:
            raise ConfigError("A and B must have the same number of rows")
        terms.append(Term("tau2", True, one, B))
    terms.append(Term("v2", False, one))
    return GammaStructure(tuple(terms), A.shape[0], "diagonal_scalar")


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
    function. ``example48`` gets the identity development operator.
    """
    if kind not in STRUCTURE_KINDS:
        raise ConfigError(f"unknown covariance structure {kind!r}")
    if kind == "cellwise_two_level":
        return CellwiseTwoLevel(n_arrays, cells)
    if kind == "diagonal_scalar":
        return DiagonalScalar(*(block() if callable(block) else block for block in (A, B)))
    eye = np.eye(cells)
    return Example48(n_arrays, eye, eye)


def sigma_inverse_cellwise(sigma2: float, v2: float, cells: int, n_arrays: int = 2) -> np.ndarray:
    """Closed-form inverse of the cell-matched structure on N arrays.

    Sigma = (sigma2 J_N + v2 I_N) kron I_cells inverts to
    ((I_N - sigma2 / (v2 + N sigma2) J_N) / v2) kron I_cells.
    """
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


class SigmaModel:
    """A covariance structure evaluated at a parameter vector.

    Sigma = C kron I_c (see ``GammaStructure.kron_form``) is held through a
    Cholesky factor L of C alone: stacking puts the arrays outermost, so
    reshaping a vector to C.shape[0] rows applies L^-1 kron I_c as one
    product with L^-1. That inverse is formed once per model, on first use,
    and solves and whitening are products with it; the log-determinant
    reads L's diagonal. The dense Sigma is built only when ``sigma`` is
    read. ``identity`` records whether the factored matrix is the identity,
    in which case whitening returns its input.

    ``term_traces``, ``information`` and ``term_forms`` work in the same
    frame. Each term's loading there is g_k when C is the array side and
    g_k kron F_k when C is the dense Sigma, and its whitened loading
    W_k = L^-1 (loading) is built once, on first use, and is all three read
    of the term. A loading with an identity cell side goes through L^-1
    itself.
    """

    def __init__(self, structure: GammaStructure, omega):
        self.structure = structure
        self.omega = np.asarray(omega, dtype=float).ravel()
        self._C, self._c = structure.kron_form(self.omega)
        # Sigma = I: a unit diagonal and nothing off it
        C = self._C
        self.identity = bool(np.all(np.diagonal(C) == 1.0)) and np.count_nonzero(C) == len(C)
        try:
            self._L = np.linalg.cholesky(C)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"covariance is not positive definite at omega = {self.omega.tolist()}"
            ) from exc
        self._whitened_terms = [None] * structure.n_params
        self._l_inv = None

    @property
    def sigma(self) -> np.ndarray:
        """The dense n x n Sigma, built on each read when c > 1."""
        return self._C if self._c == 1 else self.structure.sigma(self.omega)

    @property
    def n(self) -> int:
        return self._C.shape[0] * self._c

    def _by_array(self, apply, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return apply(x.reshape(self._C.shape[0], -1)).reshape(x.shape)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Sigma^-1 rhs = L^-T (L^-1 rhs)."""
        inv = self._factor_inverse()
        return self._by_array(lambda b: inv.T @ (inv @ b), rhs)

    def logdet(self) -> float:
        return self._c * 2.0 * float(np.sum(np.log(np.diagonal(self._L))))

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """Multiply by Sigma^(-1/2) = L^-1 kron I_c; at Sigma = I, x itself."""
        if self.identity:
            return np.asarray(x, dtype=float)
        return self._by_array(self._factor_inverse().__matmul__, x)

    def _factor_inverse(self) -> np.ndarray:
        """L^-1, the inverse of the lower Cholesky factor (computed once)."""
        if self._l_inv is None:
            self._l_inv = _tril_inverse(self._L)
        return self._l_inv

    def _whitened(self, k: int) -> np.ndarray:
        """W_k = L^-1 (loading of term k), formed once."""
        if self._whitened_terms[k] is None:
            t = self.structure.terms[k]
            if self.structure.identity_cell_side:
                W = self._factor_inverse() @ t.g
            elif t.F is None:
                W = _times_array_side(self._factor_inverse(), t.g)
            else:
                W = self._factor_inverse() @ self.structure.loading(k)
            self._whitened_terms[k] = W
        return self._whitened_terms[k]

    def term_traces(self) -> np.ndarray:
        """tr(Sigma^-1 D_k) = c ||W_k||_F^2 for every term k."""
        W = [self._whitened(k) for k in range(self.structure.n_params)]
        return np.array([self._c * _inner(w, w) for w in W])

    def information(self, idx=None) -> np.ndarray:
        """tr(Sigma^-1 D_k Sigma^-1 D_l) over the terms ``idx`` (default all).

        Each entry is c ||W_k^T W_l||_F^2. On the diagonal the product is one
        W_k^T W_k, which BLAS forms as a symmetric rank-k update; where the
        loading is the identity, W_k = L^-1 and the entry is ||L^-T L^-1||_F^2.
        """
        idx = range(self.structure.n_params) if idx is None else list(idx)
        W = [self._whitened(k) for k in idx]
        out = np.empty((len(W), len(W)))
        for a in range(len(W)):
            for b in range(a, len(W)):
                P = W[a].T @ W[b]
                out[a, b] = out[b, a] = self._c * _inner(P, P)
        return out

    def term_forms(self, d) -> np.ndarray:
        """d^T Sigma^-1 D_k Sigma^-1 d = ||W_k^T L^-1 d||_F^2 for every term k.

        L^-1 d is d whitened and reshaped to C's rows (N x cells in the array
        frame, n x 1 against the dense Sigma).
        """
        z = self.whiten(d).reshape(self._C.shape[0], -1)
        U = [self._whitened(k).T @ z for k in range(self.structure.n_params)]
        return np.array([_inner(u, u) for u in U])


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """The Frobenius inner product sum(a * b), without copies of either."""
    return float(np.einsum("ij,ij->", a, b))
