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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import block_diag, cho_factor, cho_solve, solve_triangular

from .errors import ConfigError, NumericalError
from .kron import kron


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

    def _factors(self, term: Term):
        """(g g^T, F R F^T) of one term, the cell side None for the identity.

        The cell side is symmetrized here, on the small factor, so that every
        D_k and Sigma come out exactly symmetric.
        """
        G = term.g @ term.g.T
        if term.F is None and term.R is None:
            return G, None
        F = np.eye(self.cells) if term.F is None else term.F
        if term.R is None:
            return G, F @ F.T
        K = F @ term.R @ F.T
        return G, 0.5 * (K + K.T)

    def sigma(self, omega) -> np.ndarray:
        omega = self._check(omega)
        c = self.cells
        out = np.zeros((self.n_arrays * c,) * 2)
        diag = np.arange(c)
        for w, term in zip(omega, self.terms):
            G, K = self._factors(term)
            # add w (G kron K) block by block, without forming the product
            for a, b in zip(*np.nonzero(G)):
                if K is None:
                    out[a * c + diag, b * c + diag] += w * G[a, b]
                else:
                    out[a * c : (a + 1) * c, b * c : (b + 1) * c] += (w * G[a, b]) * K
        return out

    def dsigma_matrices(self) -> list:
        mats = []
        for term in self.terms:
            G, K = self._factors(term)
            K = np.eye(self.cells) if K is None else K
            # a unit 1 x 1 array side leaves the cell side as it is; skip the copy
            mats.append(K if np.array_equal(G, [[1.0]]) else kron(G, K))
        return mats

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
    if kind == "cellwise_two_level":
        return CellwiseTwoLevel(n_arrays, cells)
    if kind == "diagonal_scalar":
        return DiagonalScalar(A, B)
    if kind == "example48":
        eye = np.eye(cells)
        return Example48(n_arrays, eye, eye)
    raise ConfigError(f"unknown covariance structure {kind!r}")


def sigma_example48(n_arrays, sigma2, tau2, v2, A0, R) -> "SigmaModel":
    """Materialize the shared-operator structure directly from its pieces.

    tau2 and v2 are per-array vectors (length n_arrays).
    """
    structure = Example48(n_arrays, A0, R)
    omega = np.concatenate([[sigma2], np.asarray(tau2, float).ravel(), np.asarray(v2, float).ravel()])
    return SigmaModel(structure, omega)


def sigma_inverse_cellwise(sigma2: float, v2: float, cells: int, n_arrays: int = 2) -> np.ndarray:
    """Closed-form inverse of the two-array cell-matched structure.

    For N = 2, Sigma = sigma2 (1 1^T kron I) + v2 I inverts to
    (1 / (v2 (2 sigma2 + v2))) [[(sigma2+v2) I, -sigma2 I], [-sigma2 I, (sigma2+v2) I]].
    """
    if n_arrays != 2:
        raise ConfigError("the closed-form inverse is for exactly two arrays")
    if v2 <= 0:
        raise NumericalError("v2 must be positive, the structure is singular at v2 = 0")
    eye = np.eye(cells)
    scale = 1.0 / (v2 * (2.0 * sigma2 + v2))
    top = np.hstack([(sigma2 + v2) * eye, -sigma2 * eye])
    bottom = np.hstack([-sigma2 * eye, (sigma2 + v2) * eye])
    return scale * np.vstack([top, bottom])


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
    """Analytic derivative of Sigma with respect to component k of omega."""
    mats = structure.dsigma_matrices()
    if not 0 <= k < len(mats):
        raise ConfigError(
            f"component index {k} out of range for {structure.omega_names}"
        )
    return mats[k]


class SigmaModel:
    """A covariance structure evaluated at a parameter vector.

    Holds the dense matrix and a Cholesky factor; solves and log-determinants
    go through the factor rather than an explicit inverse.
    """

    def __init__(self, structure: GammaStructure, omega, sigma: np.ndarray | None = None):
        self.structure = structure
        self.omega = np.asarray(omega, dtype=float).ravel()
        self.sigma = structure.sigma(self.omega) if sigma is None else np.asarray(sigma, float)
        try:
            self._cho = cho_factor(self.sigma, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"covariance is not positive definite at omega = {self.omega.tolist()}"
            ) from exc

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return cho_solve(self._cho, rhs)

    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self._cho[0]))))

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """Multiply by Sigma^(-1/2) (via the lower Cholesky factor)."""
        return solve_triangular(self._cho[0], x, lower=True)
