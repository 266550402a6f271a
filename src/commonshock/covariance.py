"""Parametric covariance structures for the stacked log observations.

Every structure is one list of terms, linear in its variance components:

    Sigma(omega) = sum_k omega_k D_k,   D_k = (g_k g_k^T) kron (F_k R_k F_k^T),

with an array-side loading g_k (N x r_k), a cell-side loading F_k and a
Gamma block R_k, where None stands for the identity in F_k and R_k. The
analytic derivatives are the D_k themselves, and the same terms give the
Gamma-and-L factorization Sigma = L Gamma L^T: L = [g_1 kron F_1, ...] and
Gamma block diagonal with blocks omega_k (I_{r_k} kron R_k), the covariance
of the stacked shock and idiosyncratic vectors. ``CellwiseTwoLevel``,
``DiagonalScalar`` and ``Example48`` are constructors of this one form.

``SigmaModel`` factors Sigma as C kron I_c (``GammaStructure.kron_form``):
when every cell side is the identity, C is the N x N array side
G(omega) = sum_k omega_k g_k g_k^T and c = cells, so no n x n matrix is
formed or factored; otherwise C is the dense Sigma and c = 1. The traces the
ML solver needs, tr(Sigma^-1 D_k) and tr(Sigma^-1 D_k Sigma^-1 D_l), come
from each term's loading in that frame (g_k on the array side, g_k kron F_k
against the dense Sigma), so no D_k is formed on the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import block_diag, cho_factor, cho_solve, lapack, solve_triangular

from .errors import ConfigError, NumericalError
from .kron import kron

# the structures ``structure_for`` builds by name
STRUCTURE_KINDS = ("cellwise_two_level", "diagonal_scalar", "example48")


class Term(NamedTuple):
    """One variance component: omega_k (g g^T) kron (F R F^T)."""

    name: str
    zero_allowed: bool  # Sigma stays positive definite with this component at 0
    g: np.ndarray  # array-side loading, N x r
    F: np.ndarray | None = None  # cell-side loading, cells x p; None for I
    R: np.ndarray | None = None  # Gamma block, p x p; None for I


@dataclass(frozen=True)
class GammaStructure:
    """A covariance structure Sigma(omega) = sum_k omega_k (g_k g_k^T) kron (F_k R_k F_k^T).

    ``cells`` is the cell-side dimension, the rows of every F_k. ``kind``
    names the constructor that rebuilds the structure over another region
    of cells (see ``structure_for``); it is None where no such rule exists.
    """

    terms: tuple
    cells: int
    kind: str | None = None

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
        return all(t.F is None and t.R is None for t in self.terms)

    def _check(self, omega) -> np.ndarray:
        omega = np.asarray(omega, dtype=float).ravel()
        if omega.size != self.n_params:
            raise ConfigError(
                f"expected {self.n_params} variance components "
                f"{self.omega_names}, got {omega.size}"
            )
        if np.any(omega < 0):
            raise ConfigError("variance components must be non-negative")
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
        """F R F^T of every term, None for the identity; cells x cells each.

        Neither depends on omega, so they are formed once per structure and
        kept read-only, for the all-rows ``sigma_rows`` call only. The cell
        side is symmetrized here, on the small factor, so that every D_k and
        Sigma come out exactly symmetric.
        """
        out = []
        for term in self.terms:
            K = None
            if term.F is not None or term.R is not None:
                F = np.eye(self.cells) if term.F is None else term.F
                K = F @ F.T if term.R is None else _sym(F @ term.R @ F.T)
                K.setflags(write=False)
            out.append(K)
        return tuple(out)

    def _cell_side_rows(self, k: int, p0: int, p1: int) -> np.ndarray:
        """Rows p0:p1 of term k's cell side F R F^T, formed from its loadings."""
        t = self.terms[k]
        if t.F is None:
            return 0.5 * (t.R[p0:p1] + t.R[:, p0:p1].T)
        right = t.F.T if t.R is None else _sym(t.R) @ t.F.T
        return t.F[p0:p1] @ right

    def sigma_rows(self, omega, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Rows start:stop of Sigma(omega), all n columns; every row by default.

        Row a * cells + p is sum_k omega_k G_k[a] kron K_k[p], added term by
        term. An identity cell side puts omega_k G_k[a, b] at column
        b * cells + p. Any other cell side adds K_k's rows p: the cached
        ``_cell_sides`` when every row is asked for, and otherwise rows formed
        from the loadings, so that a few rows cost no cells x cells matrix.
        ``sigma`` is the all-rows call.
        """
        omega = self._check(omega)
        c = self.cells
        n = self.n_arrays * c
        stop = n if stop is None else stop
        every = start == 0 and stop == n
        out = np.zeros((stop - start, n))
        for k, (w, G) in enumerate(zip(omega, self._array_sides)):
            identity = self.terms[k].F is None and self.terms[k].R is None
            for a in range(self.n_arrays):
                # the rows of array a inside start:stop are its cells p0:p1
                p0, p1 = max(start - a * c, 0), min(stop - a * c, c)
                if p0 >= p1 or not G[a].any():
                    continue
                rows = slice(a * c + p0 - start, a * c + p1 - start)
                if identity:
                    diag = np.arange(p0, p1)
                    for b in np.flatnonzero(G[a]):
                        out[diag + (a * c - start), b * c + diag] += w * G[a, b]
                    continue
                K = self._cell_sides[k][p0:p1] if every else self._cell_side_rows(k, p0, p1)
                for b in np.flatnonzero(G[a]):
                    out[rows, b * c : (b + 1) * c] += (w * G[a, b]) * K
        return out

    def sigma(self, omega) -> np.ndarray:
        """The dense n x n Sigma(omega): ``sigma_rows`` over every row."""
        return self.sigma_rows(omega)

    def kron_form(self, omega):
        """(C, c) with Sigma(omega) = C kron I_c.

        C is the array side sum_k omega_k g_k g_k^T and c = ``cells`` when
        every term's cell side is the identity (F and R None); otherwise C is
        the dense Sigma and c = 1.
        """
        if not self.identity_cell_side:
            return self.sigma(omega), 1
        omega = self._check(omega)
        C = sum(w * (t.g @ t.g.T) for w, t in zip(omega, self.terms))
        return C, self.cells

    def quadratic_forms(self, x) -> np.ndarray:
        """x^T D_k x for every term k, from the loadings.

        With X the stacked vector reshaped to N x cells, L_k^T x is
        U = g_k^T X F_k, and x^T D_k x = tr(U R_k U^T).
        """
        X = np.asarray(x, dtype=float).reshape(self.n_arrays, self.cells)
        out = np.empty(self.n_params)
        for k, t in enumerate(self.terms):
            U = t.g.T @ X if t.F is None else t.g.T @ X @ t.F
            out[k] = _inner(U, U if t.R is None else U @ _sym(t.R))
        return out

    @cached_property
    def identity_terms(self) -> tuple:
        """Whether each term's D_k is the n x n identity (g g^T = I, no cell side)."""
        return tuple(
            t.F is None and t.R is None and np.array_equal(t.g @ t.g.T, np.eye(t.g.shape[0]))
            for t in self.terms
        )

    def term_images(self, k: int, X):
        """(D_k X, X^T D_k X) for X with n rows in stacking order, from term k's loadings.

        With X reshaped to N x cells x m, V = L_k^T X is g_k^T along the
        arrays and F_k^T along the cells; then D_k X = L_k R_k V and
        X^T D_k X = V^T R_k V, so neither D_k nor L_k is formed.
        """
        t = self.terms[k]
        X = np.asarray(X, dtype=float)
        r, c, m = t.g.shape[1], self.cells, X.shape[1]
        V = (t.g.T @ X.reshape(self.n_arrays, c * m)).reshape(r, c, m)
        if t.F is not None:
            V = np.matmul(t.F.T, V)
        RV = V if t.R is None else np.matmul(_sym(t.R), V)
        rows = r * V.shape[1]
        gram = V.reshape(rows, m).T @ RV.reshape(rows, m)
        Y = RV if t.F is None else np.matmul(t.F, RV)
        return (t.g @ Y.reshape(r, c * m)).reshape(X.shape), gram

    def gamma_matrix(self, omega) -> np.ndarray:
        omega = self._check(omega)
        blocks = []
        for w, t in zip(omega, self.terms):
            p = self.cells if t.F is None else t.F.shape[1]
            blocks.append(w * kron(np.eye(t.g.shape[1]), np.eye(p) if t.R is None else t.R))
        return block_diag(*blocks)

    def l_matrix(self) -> np.ndarray:
        return np.hstack(
            [kron(t.g, np.eye(self.cells) if t.F is None else t.F) for t in self.terms]
        )


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
    omega = (sigma2, tau2_1..tau2_N, v2_1..v2_N), in that order. Only the
    identity operator (A0 = R = I) has a rule for the future region, so any
    other operator gives a structure of kind None.
    """
    A0 = np.asarray(A0, dtype=float)
    R = np.asarray(R, dtype=float)
    if A0.ndim != 2 or A0.shape[0] != A0.shape[1]:
        raise ConfigError("A0 must be square")
    if R.shape != A0.shape:
        raise ConfigError("R must match the shape of A0")
    eye = np.eye(A0.shape[0])
    identity = np.array_equal(A0, eye) and np.array_equal(R, eye)
    F, Rk = (None, None) if identity else (A0, R)
    arrays = np.eye(n_arrays)
    terms = (
        (Term("sigma2", True, np.ones((n_arrays, 1)), F, Rk),)
        + tuple(Term(f"tau2_{n + 1}", True, arrays[:, [n]], F, Rk) for n in range(n_arrays))
        + tuple(Term(f"v2_{n + 1}", False, arrays[:, [n]]) for n in range(n_arrays))
    )
    return GammaStructure(terms, A0.shape[0], "example48" if identity else None)


def structure_for(kind: str, n_arrays: int, cells: int, A, B) -> GammaStructure:
    """The structure named ``kind`` for N arrays of ``cells`` cells each.

    A and B are the design's shock coefficient blocks over those cells; only
    ``diagonal_scalar`` reads them (an empty B means no within shocks).
    ``example48`` gets the identity development operator.
    """
    if kind not in STRUCTURE_KINDS:
        raise ConfigError(f"unknown covariance structure {kind!r}")
    if kind == "cellwise_two_level":
        return CellwiseTwoLevel(n_arrays, cells)
    if kind == "diagonal_scalar":
        return DiagonalScalar(A, B)
    eye = np.eye(cells)
    return Example48(n_arrays, eye, eye)


def sigma_example48(n_arrays, sigma2, tau2, v2, A0, R) -> "SigmaModel":
    """Materialize the shared-operator structure directly from its pieces.

    tau2 and v2 are per-array vectors (length n_arrays).
    """
    structure = Example48(n_arrays, A0, R)
    omega = np.concatenate([[sigma2], np.asarray(tau2, float).ravel(), np.asarray(v2, float).ravel()])
    return SigmaModel(structure, omega)


def sigma_inverse_cellwise(sigma2: float, v2: float, cells: int, n_arrays: int = 2) -> np.ndarray:
    """Closed-form inverse of the cell-matched structure on N arrays.

    Sigma = (sigma2 J_N + v2 I_N) kron I_cells inverts to
    ((I_N - sigma2 / (v2 + N sigma2) J_N) / v2) kron I_cells.
    """
    if v2 <= 0:
        raise NumericalError("v2 must be positive, the structure is singular at v2 = 0")
    return kron((np.eye(n_arrays) - sigma2 / (v2 + n_arrays * sigma2)) / v2, np.eye(cells))


def sigma_from_gamma(L: np.ndarray, structure: GammaStructure, omega) -> "SigmaModel":
    """Sigma = L Gamma(omega) L^T, symmetrized to machine precision."""
    L = np.asarray(L, dtype=float)
    gamma = structure.gamma_matrix(omega)
    if L.shape[1] != gamma.shape[0]:
        raise ConfigError(
            f"L has {L.shape[1]} columns but Gamma is {gamma.shape[0]} x {gamma.shape[0]}"
        )
    sig = L @ gamma @ L.T
    return SigmaModel(structure, omega, sigma=0.5 * (sig + sig.T))


def dsigma_domega(structure: GammaStructure, k: int) -> np.ndarray:
    """Analytic derivative of Sigma with respect to component k of omega.

    This is the dense n x n D_k, built on each call; the solver never needs it.
    """
    if not 0 <= k < structure.n_params:
        raise ConfigError(
            f"component index {k} out of range for {structure.omega_names}"
        )
    G, K = structure._array_sides[k], structure._cell_sides[k]
    K = np.eye(structure.cells) if K is None else K
    # a unit 1 x 1 array side leaves the cell side as it is
    return K.copy() if np.array_equal(G, [[1.0]]) else kron(G, K)


def _sym(R: np.ndarray) -> np.ndarray:
    return 0.5 * (R + R.T)


def _times_array_side(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """x (g kron I_c) for x whose columns are stacked with arrays outermost.

    A unit 1 x 1 array side returns x itself, so that ``information`` can
    recognise a whitened identity loading as L^-1.
    """
    if np.array_equal(g, [[1.0]]):
        return x
    blocks = x.reshape(x.shape[0], g.shape[0], -1).transpose(0, 2, 1)
    return (blocks @ g).transpose(0, 2, 1).reshape(x.shape[0], -1)


class SigmaModel:
    """A covariance structure evaluated at a parameter vector.

    Sigma = C kron I_c (see ``GammaStructure.kron_form``) is held through a
    Cholesky factor L of C alone: stacking puts the arrays outermost, so
    reshaping a vector to C.shape[0] rows applies L^-1 kron I_c with one
    triangular solve. Solves and log-determinants go through the factor
    rather than an explicit inverse; the dense Sigma is built only when
    ``sigma`` is read. ``identity`` records whether the factored matrix is
    the identity, in which case whitening returns its input.

    ``term_traces`` and ``information`` work in the same frame. Each term's
    loading there is g_k when C is the array side and g_k kron F_k when C is
    the dense Sigma, and its whitened loading W_k = L^-1 (loading) is built
    once, on first use, and shared by both. A loading with an identity cell
    side goes through L^-1 itself, formed once per model.
    """

    def __init__(self, structure: GammaStructure, omega, sigma: np.ndarray | None = None):
        self.structure = structure
        self.omega = np.asarray(omega, dtype=float).ravel()
        if sigma is None:
            self._C, self._c = structure.kron_form(self.omega)
        else:
            self._C, self._c = np.asarray(sigma, float), 1
        self._array_side = sigma is None and structure.identity_cell_side
        # Sigma = I: a unit diagonal and nothing off it
        C = self._C
        self.identity = bool(np.all(np.diagonal(C) == 1.0)) and np.count_nonzero(C) == len(C)
        try:
            self._cho = cho_factor(self._C, lower=True)
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
        return self._by_array(lambda b: cho_solve(self._cho, b), rhs)

    def logdet(self) -> float:
        return self._c * 2.0 * float(np.sum(np.log(np.diag(self._cho[0]))))

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """Multiply by Sigma^(-1/2) (via the lower Cholesky factor); at Sigma = I, x itself."""
        if self.identity:
            return np.asarray(x, dtype=float)
        return self._by_array(lambda b: solve_triangular(self._cho[0], b, lower=True), x)

    def _factor_inverse(self) -> np.ndarray:
        """L^-1, the inverse of the lower Cholesky factor (computed once)."""
        if self._l_inv is None:
            # invert the upper factor L^T in place: np.tril gives a C-ordered
            # copy, whose transpose LAPACK takes without another copy
            inv, info = lapack.dtrtri(np.tril(self._cho[0]).T, lower=0, overwrite_c=1)
            if info != 0:
                raise NumericalError("the Cholesky factor of the covariance is singular")
            self._l_inv = inv.T
        return self._l_inv

    def _whitened(self, k: int):
        """(W_k, Y_k) with W_k = L^-1 (loading of term k) and Y_k = W_k (I kron R_k)."""
        if self._whitened_terms[k] is None:
            t = self.structure.terms[k]
            if self._array_side:
                W = solve_triangular(self._cho[0], t.g, lower=True)
            elif t.F is None:
                W = _times_array_side(self._factor_inverse(), t.g)
            else:
                W = solve_triangular(self._cho[0], kron(t.g, t.F), lower=True)
            if t.R is None:
                Y = W
            else:
                blocks = W.reshape(W.shape[0], -1, t.R.shape[0])
                Y = (blocks @ _sym(t.R)).reshape(W.shape)
            self._whitened_terms[k] = W, Y
        return self._whitened_terms[k]

    def term_traces(self) -> np.ndarray:
        """tr(Sigma^-1 D_k) = c tr(W_k^T W_k R_k) for every term k."""
        return np.array(
            [self._c * _inner(*self._whitened(k)) for k in range(self.structure.n_params)]
        )

    def information(self, idx=None) -> np.ndarray:
        """tr(Sigma^-1 D_k Sigma^-1 D_l) over the terms ``idx`` (default all).

        With P = W_k^T W_l this is c tr(R_k P R_l P^T), summed as the
        elementwise product of W_k^T W_l and Y_k^T Y_l.
        """
        idx = range(self.structure.n_params) if idx is None else list(idx)
        terms = [self._whitened(k) for k in idx]
        out = np.empty((len(terms), len(terms)))
        for a, (Wa, Ya) in enumerate(terms):
            for b in range(a, len(terms)):
                Wb, Yb = terms[b]
                if Wa is Wb is Ya is Yb is self._l_inv:
                    # both loadings are I: ||L^-T L^-1||^2 from one triangle
                    # of Sigma^-1, which LAPACK's lauum forms in a third of
                    # the flops of the full product (L^-1 is held transposed)
                    P = lapack.dlauum(Wa.T, lower=0)[0]
                    d = np.diag(P)
                    value = 2.0 * _inner(P, P) - float(d @ d)
                else:
                    P = Wa.T @ Wb
                    value = _inner(P, P if (Ya is Wa and Yb is Wb) else Ya.T @ Yb)
                out[a, b] = out[b, a] = self._c * value
        return out


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """The Frobenius inner product sum(a * b), without copies of either."""
    return float(np.einsum("ij,ij->", a, b))
