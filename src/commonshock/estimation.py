"""Location fitting by generalized least squares and ML dispersion estimation.

With the covariance known, the location estimate is the usual GLS solution,
computed through Cholesky whitening and least squares: neither Sigma^-1 nor
(M^T Sigma^-1 M)^-1 is formed, only the inverses of triangular factors.
Where Sigma = C (x) I over M's own arrays, the whitened design keeps M's
array frame, and a fit costs one QR of one array's idiosyncratic block and
one of the whitened shock-mean columns (``gls_fit``). With the covariance
unknown up to variance components omega, the profile score (the derivative
of the log-likelihood in omega after concentrating out the location
parameters) is driven to zero by projected Fisher scoring on the profile
likelihood.

When span(M) is invariant under every term D_k = dSigma/domega_k, GLS equals
ordinary least squares at every omega (Kruskal 1968): the location and its
residual d are fitted once, from the factor of M in its array frame (one QR
of one array's idiosyncratic block, one of the projected shock-mean
columns), and a trial point costs one factor of Sigma. For the cell-matched structure on N >= 2 arrays
the dispersion is then in closed form (Szatrowski 1980): the ML variances
are means over the array pairs of d's cross products and squared
differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covariance import CellwiseTwoLevel, GammaStructure, SigmaModel, _tril_inverse
from .design import ModelDesign, array_frame
from .errors import ConfigError, DesignError, NumericalError

LOG_2PI = float(np.log(2.0 * np.pi))
# a relative invariance residual at or below this counts as invariant (see
# _fixed_location): on the bundled data the 57 invariant configurations give
# at most 4e-15, the other three 0.28 or more
INVARIANCE_TOL = 1e-8
# the generic solver stops once every free score is below this
SCORE_TOL = 1e-9
MAX_ITER = 200  # and raises after this many iterations


@dataclass
class FitResult:
    """Outcome of a location (and optionally dispersion) fit.

    ``M`` is the reduced mean design the fit used. ``r_inv`` is a matrix B
    with Var[kappa] = B B^T, with rows in M's column order; it is not always
    triangular. After a GLS fit in the array frame (Sigma = C (x) I over M's
    arrays, or Sigma = I) it is T^-1 of the factor
    [L^-1 X | I_N (x) C0] = [Qx | I_N (x) Q0] T (see ``_least_squares``)
    with its idiosyncratic rows mapped by L (x) I_r0, C = L L^T (see
    ``gls_fit``); after a GLS fit at any other Sigma, R^-1 of the QR factor
    of the dense whitened design; after a fixed-location fit,
    T^-1 chol(Q^T Sigma Q). ``var_kappa`` (B B^T) and ``omega_fit``, the
    covariance matrix of the fitted mean vector (M Var[kappa] M^T), are
    formed on first read. ``omega_hat`` is the vector of estimated variance
    components, None when the covariance was supplied as known.

    ``frame`` is (C, R0^-1), C the N x N array side of Sigma = C (x) I over
    M's own arrays and R0 the triangular factor of C0 (see
    ``_least_squares``): B's idiosyncratic columns are then
    [0; L (x) R0^-1], so they add C (x) R0^-1 R0^-T to Var[kappa]. Every
    fit at such a Sigma keeps it, whichever path made the fit: GLS, the
    fixed location with ``variance`` (see ``_FixedLocation.fit``), and so
    the generic solver and the closed form. The forecast then writes its
    parameter error in the array frame. A fit whose Sigma has a cell side
    other than the identity has None, and the forecast writes it through
    r_inv.
    """

    kappa_hat: np.ndarray
    y_hat: np.ndarray
    M: np.ndarray
    residual: np.ndarray
    loglik: float
    sigma: SigmaModel
    design: ModelDesign = None
    labels: tuple = ()
    omega_hat: np.ndarray = None
    n_iter: int = 0
    score: np.ndarray = None
    r_inv: np.ndarray = None
    frame: tuple = None  # (C, R0^-1), see above
    # (Q0, Qx), the orthonormal factor of M in its array frame, kept only by
    # a least-squares fit (see gls_fit); no n x m matrix
    _q: tuple = field(default=None, init=False, repr=False)
    _var_kappa: np.ndarray = field(default=None, init=False, repr=False)
    _omega_fit: np.ndarray = field(default=None, init=False, repr=False)

    @property
    def var_kappa(self) -> np.ndarray:
        """Var[kappa] = r_inv r_inv^T, None where the fit holds no r_inv."""
        if self._var_kappa is None and self.r_inv is not None:
            self._var_kappa = self.r_inv @ self.r_inv.T
        return self._var_kappa

    @property
    def omega_fit(self) -> np.ndarray:
        if self._omega_fit is None:
            self._omega_fit = self.M @ self.var_kappa @ self.M.T
        return self._omega_fit


def _loglik(n: int, logdet: float, quad: float) -> float:
    return -0.5 * (n * LOG_2PI + logdet + quad)


def _design_parts(y, design):
    """(y, M, labels, design or None, (X, C0)) of a ModelDesign or a bare matrix M.

    (X, C0) is M's array frame, M = [X | I_N (x) C0] (see ``_least_squares``);
    a bare matrix is its one-block case, C0 = M with no X.
    """
    y = np.asarray(y, dtype=float).ravel()
    if isinstance(design, np.ndarray):
        M = design
        labels = tuple(f"column_{k}" for k in range(M.shape[1]))
        design_ref = None
        frame = (np.zeros((M.shape[0], 0)), M)
    else:
        M = design.M
        labels = design.labels
        design_ref = design
        frame = (design.X, design.C0)
    if y.size != M.shape[0]:
        raise DesignError(f"y has length {y.size}, design has {M.shape[0]} rows")
    return y, M, labels, design_ref, frame


def gls_fit(y: np.ndarray, design: ModelDesign, sigma: SigmaModel) -> FitResult:
    """Generalized least squares for the reduced design.

    kappa = (M^T Sigma^-1 M)^-1 M^T Sigma^-1 y with variance
    (M^T Sigma^-1 M)^-1 = B B^T, computed from a Cholesky factor of Sigma
    and a QR factor of the whitened design. Where Sigma = C (x) I over M's
    own arrays (``_array_side_only``), and at Sigma = I for any structure,
    the whitened design is factored in its array frame: with C = L L^T,

        Sigma^-1/2 M = [L^-1 X | I_N (x) C0] (I (+) L^-1 (x) I_r0),

    so ``_least_squares`` fits the whitened y on [L^-1 X | I_N (x) C0], one
    QR of C0 and one of the projected whitened shock block, and the
    idiosyncratic rows of kappa and of B are mapped back by L (x) I_r0. At
    Sigma = I the map is skipped and the fit keeps the factor of M for the
    fixed-location test. Every such fit on M's arrays keeps ``frame`` =
    (C, R0^-1). Any other Sigma (a cell side that is not the identity)
    whitens M into a dense matrix, factored by one QR.
    """
    y, M, labels, design_ref, (X, C0) = _design_parts(y, design)
    if sigma.n != y.size:
        raise DesignError("covariance dimension does not match the data")

    wy = sigma.whiten(y)
    on_arrays = _array_side_only(sigma.structure, C0)
    q = frame = None
    if on_arrays or sigma.identity:
        scale = None if sigma.identity else _pivot_scale(sigma)
        q, r_inv, kappa = _least_squares(wy, sigma.whiten(X), C0, labels, scale)
        s, r0 = X.shape[1], C0.shape[1]
        if on_arrays:
            frame = (sigma._C, r_inv[s : s + r0, s : s + r0].copy())
        if not sigma.identity:
            q = None  # a factor of the whitened design, not of M
            kappa[s:] = _times_l(sigma._L, kappa[s:])
            r_inv[s:] = _times_l(sigma._L, r_inv[s:])
        y_hat = M @ kappa
        d = y - y_hat
        wd = sigma.whiten(d)
    else:
        W = sigma.whiten(M)
        _, r_inv, kappa = _least_squares(wy, np.zeros((W.shape[0], 0)), W, labels)
        y_hat = M @ kappa
        d = y - y_hat
        wd = wy - W @ kappa
    fit = FitResult(
        kappa_hat=kappa,
        r_inv=r_inv,
        frame=frame,
        y_hat=y_hat,
        M=M,
        residual=d,
        loglik=_loglik(y.size, sigma.logdet(), float(wd @ wd)),
        sigma=sigma,
        design=design_ref,
        labels=labels,
    )
    fit._q = q
    return fit


def _times_l(L: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(L (x) I) a, for a whose rows are stacked with the len(L) arrays outermost."""
    return (L @ a.reshape(len(L), -1)).reshape(a.shape)


def _pivot_scale(sigma: SigmaModel) -> np.ndarray:
    """|diag R_L| for L^-1 = Q_L R_L, L the Cholesky factor of Sigma's array side C.

    L^-1 (x) C0 = (Q_L (x) Q0)(R_L (x) R0), so the pivots of the whitened
    idiosyncratic columns, factored before the shock block, are R_L[a, a]
    times R0's. R_L^T R_L = C^-1, so R_L^T is the Cholesky factor of C^-1
    and no QR is needed.
    """
    inv = sigma._factor_inverse()
    return np.diagonal(np.linalg.cholesky(inv.T @ inv))


@dataclass(frozen=True)
class _FixedLocation:
    """The location fit of every omega, for a design whose span is Sigma-invariant.

    The least-squares fit, M = Q T with Q = [Qx | I_N (x) Q0] (see
    ``_least_squares``), gives kappa and the residual d, which are the GLS
    ones at every omega. Only the factor is kept: ``q`` = (Q0, Qx) and
    ``r_inv`` = T^-1. Invariance makes Q^T Sigma^-1 Q the inverse of
    Q^T Sigma Q, so Var[kappa] = (T^T Q^T Sigma^-1 Q T)^-1
    = T^-1 (Q^T Sigma Q) T^-T, formed at the omega asked for
    (``fit``).
    """

    M: np.ndarray
    labels: tuple
    design: ModelDesign
    kappa: np.ndarray
    y_hat: np.ndarray
    residual: np.ndarray
    r_inv: np.ndarray  # T^-1
    q: tuple  # (Q0, Qx)

    def fit(self, sigma: SigmaModel, variance: bool = False) -> FitResult:
        """The fit at ``sigma``'s omega; r_inv, and so Var[kappa], only with ``variance``.

        Where Sigma = C (x) I over M's own arrays (``_array_side_only``),
        Q^T Sigma Q = blockdiag(Qx^T Sigma Qx, C (x) I_r0): the cross block
        (I_N (x) Q0)^T Sigma Qx = (C (x) I_r0)(I_N (x) Q0)^T Qx vanishes with
        (I_N (x) Q0)^T Qx. With C = L L^T, r_inv is then
        [T^-1[:, :s] chol(Qx^T Sigma Qx) | (L (x) I_r0) T^-1[:, s:]], the
        map of ``gls_fit``, and the fit keeps ``frame`` = (C, R0^-1).
        Otherwise r_inv is T^-1 chol(Q^T Sigma Q) with the dense Q.
        """
        d = self.residual
        wd = sigma.whiten(d)
        r_inv = frame = None
        if variance:
            q0, qx = self.q
            if _array_side_only(sigma.structure, q0):
                s, r0 = qx.shape[1], q0.shape[1]
                r_inv = self.r_inv.copy()
                sx = _q_sigma_q((q0[:, :0], qx), sigma)  # Qx^T Sigma Qx
                r_inv[:, :s] = r_inv[:, :s] @ np.linalg.cholesky(sx)
                r_inv[s:, s:] = _times_l(sigma._L, r_inv[s:, s:])
                frame = (sigma._C, self.r_inv[s : s + r0, s : s + r0])
            else:
                r_inv = self.r_inv @ np.linalg.cholesky(_q_sigma_q(self.q, sigma))
        return FitResult(
            kappa_hat=self.kappa,
            r_inv=r_inv,
            frame=frame,
            y_hat=self.y_hat,
            M=self.M,
            residual=d,
            loglik=_loglik(d.size, sigma.logdet(), float(wd @ wd)),
            sigma=sigma,
            design=self.design,
            labels=self.labels,
        )


def _q_sigma_q(q: tuple, sigma: SigmaModel) -> np.ndarray:
    """Q^T Sigma Q in M's column order, for Q = [Qx | I_N (x) Q0] and q = (Q0, Qx).

    Q is formed from its blocks, and Sigma Q is sum_k omega_k D_k Q, each
    D_k Q from term k's loadings. A Q0 with no columns gives Qx^T Sigma Qx.
    """
    structure = sigma.structure
    q0, qx = q
    Q = array_frame(qx, q0, qx.shape[0] // q0.shape[0])
    return Q.T @ sum(w * structure.term_product(k, Q) for k, w in enumerate(sigma.omega))


def _array_side_only(structure: GammaStructure, c0: np.ndarray) -> bool:
    """Whether Sigma = C (x) I_cells over M's own arrays: every cell side is
    the identity and the structure's cells are one array's rows, those of
    C0 (or of its factor Q0)."""
    return structure.identity_cell_side and structure.cells == c0.shape[0]


def _fixed_location(y, design, structure: GammaStructure, ols: FitResult = None):
    """The fixed location of (design, structure), or None where span(M) is not invariant.

    span(M) = span(Q), Q = [Qx | I_N (x) Q0] the least-squares factor, is
    invariant under D_k when D_k Q = Q Q^T D_k Q. Every term is tested by
    the same check on four fixed Gaussian directions Z (Freivalds' check):
    with u = Q Z, formed from Q's blocks, and D_k u from the term's
    loadings (``GammaStructure.term_product``), ||D_k u - Q Q^T D_k u|| is
    at most ``INVARIANCE_TOL`` ||D_k u||. That costs O(n m) per term where
    the full residual (I - Q Q^T) D_k Q costs O(n m^2), and a residual that
    is not zero vanishes on Z only for a set of directions of probability
    zero. Where Sigma = C (x) I over M's own arrays (``_array_side_only``),
    D_k (I_N (x) Q0) = (I_N (x) Q0)(G_k (x) I_r0) lies in span(Q) exactly,
    so only u = Qx Z is tested, and nothing when there are no Qx columns.
    ``ols`` is a gls_fit at Sigma = I, whose factor is reused; without it
    M is factored here.
    """
    y, M, labels, design_ref, frame = _design_parts(y, design)
    if ols is not None and ols._q is not None:
        q, kappa, r_inv = ols._q, ols.kappa_hat, ols.r_inv
    else:
        q, r_inv, kappa = _least_squares(y, *frame, labels)
    q0, qx = q
    s, n_blocks = qx.shape[1], y.size // q0.shape[0]
    Z = np.random.default_rng(0).standard_normal((M.shape[1], 4))
    on_arrays = _array_side_only(structure, q0)
    u = qx @ Z[:s]
    if not on_arrays:
        u += _by_block(q0, Z[s:], n_blocks)
    for k in range(0 if on_arrays and not s else structure.n_params):
        du = structure.term_product(k, u)
        image = qx @ (qx.T @ du) + _by_block(q0, _by_block(q0.T, du, n_blocks), n_blocks)
        if np.linalg.norm(du - image) > INVARIANCE_TOL * np.linalg.norm(du):
            return None
    y_hat = M @ kappa
    return _FixedLocation(M, labels, design_ref, kappa, y_hat, y - y_hat, r_inv, q)


def _by_block(a: np.ndarray, v: np.ndarray, n_blocks: int) -> np.ndarray:
    """(I_N (x) a) v with N = ``n_blocks``, for v of N a.shape[1] rows."""
    cols = v.shape[1]
    return np.matmul(a, v.reshape(n_blocks, a.shape[1], cols)).reshape(n_blocks * a.shape[0], cols)


def _least_squares(y, X, C0, labels, scale=None) -> tuple:
    """((Q0, Qx), T^-1, kappa) of the least-squares fit of y on M = [X | I_N (x) C0].

    M is factored in its array frame, N = len(y) / rows of C0. One QR,
    C0 = Q0 R0, serves every array. The shock-mean columns X are projected
    off I_N (x) Q0, with one re-orthogonalisation pass, and what is left is
    factored by one QR: X - (I_N (x) Q0) Z = Qx Rx, Z = (I_N (x) Q0)^T X.
    So M = [Qx | I_N (x) Q0] T with T = [[Rx, 0], [Z, I_N (x) R0]] in M's
    column order, and
    T^-1 = [[Rx^-1, 0], [-(I_N (x) R0^-1) Z Rx^-1, I_N (x) R0^-1]]
    gives kappa = T^-1 Q^T y, formed block by block, and Var[kappa] =
    T^-1 T^-T. A bare matrix is the one-block case, C0 = M with no X: one
    QR of M. A column whose diagonal entry of T is at most 1e-12 times the
    largest (or 1) is aliased, and so is a column past a factor's rows,
    which has no diagonal entry; DesignError names every such column.
    ``scale`` (N entries, by default ones) multiplies array n's entries of
    I_N (x) R0 in that test: ``gls_fit`` passes the pivot scale of its
    whitening (``_pivot_scale``), so that the test reads the pivots of the
    whitened design, on one scale with the whitened shock block's.
    """
    (k, r0), s = C0.shape, X.shape[1]
    n_blocks = y.size // k
    q0, R0 = np.linalg.qr(C0)
    Z = _by_block(q0.T, X, n_blocks)
    left = X - _by_block(q0, Z, n_blocks)
    again = _by_block(q0.T, left, n_blocks)  # one re-orthogonalisation pass
    left -= _by_block(q0, again, n_blocks)
    Z += again
    qx, Rx = np.linalg.qr(left) if s else (left, np.zeros((0, 0)))
    scale = np.ones(n_blocks) if scale is None else scale
    rdiag = np.abs(np.concatenate([_pivots(Rx), np.outer(scale, _pivots(R0)).ravel()]))
    aliased = rdiag <= 1e-12 * rdiag.max(initial=1.0)
    if aliased.any():
        bad = [labels[j] for j in np.where(aliased)[0]]
        raise DesignError(f"normal equations are singular; aliased columns: {bad}")
    R0_inv = _tril_inverse(R0.T).T
    Rx_inv = _tril_inverse(Rx.T).T
    r_inv = np.zeros((s + n_blocks * r0,) * 2)
    r_inv[:s, :s] = Rx_inv
    r_inv[s:] = array_frame(-_by_block(R0_inv, Z @ Rx_inv, n_blocks), R0_inv, n_blocks)
    # kappa by blocks, so that arrays with the same data get the same bits
    kappa_x = Rx_inv @ (qx.T @ y)
    qy = _by_block(q0.T, y[:, None], n_blocks)
    kappa_c = _by_block(R0_inv, qy - Z @ kappa_x[:, None], n_blocks)
    return (q0, qx), r_inv, np.concatenate([kappa_x, kappa_c.ravel()])


def _pivots(R: np.ndarray) -> np.ndarray:
    """R's diagonal, one entry per column: 0 for a column past R's last row."""
    return np.pad(np.diagonal(R), (0, R.shape[1] - min(R.shape)))


def _fit_at(y, design, sigma: SigmaModel, location: _FixedLocation = None) -> FitResult:
    """The fit at ``sigma``: from the fixed location where there is one, else by GLS."""
    return gls_fit(y, design, sigma) if location is None else location.fit(sigma)


def profile_score(
    y, design: ModelDesign, structure: GammaStructure, omega, *, fit: FitResult = None
) -> np.ndarray:
    """Score in the variance components with the location profiled out.

    Component k is -tr(Sigma^-1 dSigma_k)/2 + (Sigma^-1 d)^T dSigma_k
    (Sigma^-1 d)/2 evaluated at d = y - M kappa(omega). ``fit``, when given,
    is the fit at ``omega``, and its factor of Sigma is used instead of a
    new one; a fit at another point raises DesignError.

    Without it the location is the GLS fit at ``omega``, so the score does
    not rest on the solvers' invariance test. Where the least-squares
    residual gives the same score to within 1e-10 of each trace term, as it
    does when span(M) is invariant under every D_k, that score is returned
    instead: it is the score a solver on the fixed location stops on, to the
    last bit.
    """
    if fit is None:
        fit = gls_fit(y, design, SigmaModel(structure, omega))
        traces = fit.sigma.term_traces()
        score = _score(fit.sigma, traces, fit.residual)
        y, M, labels, _, frame = _design_parts(y, design)
        kappa = _least_squares(y, *frame, labels)[2]
        ls = _score(fit.sigma, traces, y - M @ kappa)
        return ls if np.all(np.abs(ls - score) <= 1e-10 * np.abs(traces)) else score
    if not np.array_equal(fit.sigma.omega, np.ravel(omega)):
        raise DesignError(
            f"the given fit is at omega = {fit.sigma.omega.tolist()}, "
            f"not at {np.ravel(omega).tolist()}"
        )
    return _score(fit.sigma, fit.sigma.term_traces(), fit.residual)


def _score(sigma: SigmaModel, traces: np.ndarray, d: np.ndarray) -> np.ndarray:
    """-tr(Sigma^-1 D_k)/2 + (Sigma^-1 d)^T D_k (Sigma^-1 d)/2 for every k."""
    return -0.5 * traces + 0.5 * sigma.term_forms(d)


def check_solver_settings(structure: GammaStructure, init_omega, tol, max_iter) -> np.ndarray:
    """``init_omega`` as a new float vector, once the solver settings pass.

    ConfigError rejects a ``tol`` that is not a finite positive number, a
    ``max_iter`` that is not a non-negative integer, and an ``init_omega``
    without one value per component of ``structure``.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol must be a positive number, got {tol!r}")
    if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 0):
        raise ConfigError(f"max_iter must be a non-negative integer, got {max_iter!r}")
    omega = np.array(init_omega, dtype=float).ravel()
    if omega.size != structure.n_params:
        raise ConfigError(
            f"init_omega needs {structure.n_params} values for {structure.omega_names}"
        )
    return omega


def ml_dispersion_generic(
    y,
    design: ModelDesign,
    structure: GammaStructure,
    init_omega,
    tol: float = SCORE_TOL,
    max_iter: int = MAX_ITER,
    free_mask=None,
) -> FitResult:
    """Maximum likelihood for the variance components by projected Fisher scoring.

    Each iteration solves I step = score in the least-squares sense, with the
    expected information I_kl = tr(Sigma^-1 D_k Sigma^-1 D_l)/2, over the free
    components that are not held; a component is held when it sits on its
    lower bound (0 where the structure stays positive definite there, else
    1e-14 var(y)) and its score points outward. The trial point is projected
    onto the bounds and the step halved until the profile log-likelihood does
    not drop by more than its rounding. Iteration stops once every free
    component has a score below ``tol`` in absolute value, or sits at zero
    with a negative score. ``free_mask`` fixes selected components at their
    initial values. ConfigError rejects the settings
    ``check_solver_settings`` rejects, and a start at or below zero on a
    component that must stay positive.

    When span(M) is invariant under every D_k the location is fitted once
    and a trial point costs one factor of Sigma, with no QR; otherwise each
    trial point is a GLS fit. A start that needs no step is returned as its
    GLS fit either way, which on an invariant design is a second factor of
    M: in the array frame where Sigma = C (x) I over M's arrays, else a QR
    of the dense whitened M.
    """
    omega = check_solver_settings(structure, init_omega, tol, max_iter)
    if np.any(omega[~np.asarray(structure.zero_allowed, dtype=bool)] <= 0):
        raise ConfigError(
            "initial values must be strictly positive for "
            f"{[n for n, z in zip(structure.omega_names, structure.zero_allowed) if not z]}"
        )
    location = _fixed_location(y, design, structure)
    return _scoring(y, design, structure, omega, location, tol, max_iter, free_mask)


def _scoring(y, design, structure, omega, location, tol, max_iter, free_mask) -> FitResult:
    """The projected Fisher scoring of ml_dispersion_generic from ``omega``,
    on the fixed ``location`` where there is one."""
    y = np.asarray(y, dtype=float).ravel()
    free = np.ones(omega.size, dtype=bool) if free_mask is None else np.asarray(free_mask, bool)
    zero_allowed = np.asarray(structure.zero_allowed, dtype=bool)
    lower = np.where(zero_allowed, 0.0, 1e-14 * max(float(np.var(y)), 1e-12))

    def fail(message):
        return NumericalError(
            message, last_omega=omega.copy(), score_norm=float(np.max(np.abs(score[free])))
        )

    fit = _fit_at(y, design, SigmaModel(structure, omega), location)
    score = profile_score(y, design, structure, omega, fit=fit)
    n_iter = 0
    # interior components need a vanishing score; components sitting on the
    # zero boundary only need the score pointing outward
    while not np.all(~free | (np.abs(score) < tol) | ((omega == 0.0) & (score < 0.0))):
        if n_iter == max_iter:
            raise fail(f"dispersion estimation did not converge in {max_iter} iterations")
        active = free & ~((omega <= lower) & (score < 0.0))
        if np.all(np.abs(score[active]) < tol):
            # what is left unconverged is held on a positive floor
            k = np.where(free & ~active & (omega > 0.0))[0][0]
            raise fail(
                f"component {structure.omega_names[k]} collapses below the positivity floor"
            )
        idx = np.where(active)[0]
        info = 0.5 * fit.sigma.information(idx)
        step = np.zeros_like(omega)
        step[idx] = np.linalg.lstsq(info, score[idx], rcond=None)[0]
        # a drop within the rounding of the log-likelihood is not a drop: near
        # the root the gain of a step is far below it
        min_loglik = fit.loglik - 1e-12 * (1.0 + abs(fit.loglik))
        for _ in range(60):
            trial = np.where(active, np.maximum(omega + step, lower), omega)
            trial_fit = _fit_at(y, design, SigmaModel(structure, trial), location)
            if trial_fit.loglik >= min_loglik:
                break
            step *= 0.5
        else:
            raise fail("step halving found no increase of the log-likelihood")
        omega, fit = trial, trial_fit
        score = profile_score(y, design, structure, omega, fit=fit)
        n_iter += 1

    if location is not None:
        # a start that needs no step is returned as its GLS fit: the solver
        # then reports the log-likelihood gls_fit gives there, to the last bit
        fit = location.fit(fit.sigma, variance=True) if n_iter else gls_fit(y, design, fit.sigma)
    fit.omega_hat = omega
    fit.n_iter = n_iter
    fit.score = score
    return fit


def ml_dispersion_cellwise_closed_form(*residuals):
    """Closed-form ML variance components from N >= 2 arrays' residuals.

    In each cell the N residuals have covariance sigma2 J + v2 I: variance
    N sigma2 + v2 along the sum direction and v2 across its complement. With
    k cells per array the likelihood is maximised by the means over the
    array pairs (a, b) of <d_a, d_b> / k for sigma2 and of |d_a - d_b|^2 / (2k)
    for v2 when the cross products sum to a positive value. Otherwise the
    maximum sits on the no-shock boundary sigma2 = 0, with
    v2 = sum_a |d_a|^2 / (N k). With one array, sigma2 and v2 have the same
    derivative and only their sum is identified: ConfigError.

    Returns (sigma2, v2, r) with r = sigma2 / v2.
    """
    ds = [np.asarray(d, dtype=float).ravel() for d in residuals]
    if len(ds) < 2:
        raise ConfigError("sigma2 and v2 have the same derivative with one array")
    if len({d.size for d in ds}) > 1:
        raise NumericalError("residual vectors must have equal length")
    n, k = len(ds), ds[0].size
    pairs = [(a, b) for i, a in enumerate(ds) for b in ds[i + 1:]]
    diff2 = sum(float((a - b) @ (a - b)) for a, b in pairs)
    cross = sum(float(a @ b) for a, b in pairs)
    total = sum(ds)
    norm2 = float(sum(d @ d for d in ds))
    if diff2 == 0.0:
        raise NumericalError(
            "residual vectors are identical; the idiosyncratic variance would be "
            "zero and the likelihood unbounded (perfectly correlated residuals)"
        )
    # |sum_a d_a| within 1e-10 of the residual norm is zero up to rounding: a
    # design that gives each cell its own shock mean leaves residuals that
    # cancel to the last bits, and v2 would come out as rounding noise
    if float(total @ total) <= 1e-20 * norm2:
        raise NumericalError(
            f"residual vectors {'are exact negatives' if n == 2 else 'sum to zero'}; "
            "the shared-shock structure is degenerate"
        )
    if cross <= 0.0:
        return 0.0, norm2 / (n * k), 0.0
    sigma2, v2 = cross / (len(pairs) * k), diff2 / (len(pairs) * 2.0 * k)
    return sigma2, v2, sigma2 / v2


def ml_dispersion_cellwise(y, design: ModelDesign) -> FitResult:
    """Closed-form dispersion path for N >= 2 arrays with cell-matched shocks.

    The least-squares fit (the GLS fit at the identity start omega = (0, 1))
    gives the residual d, and the closed form on d's N arrays is the exact
    ML point, the no-shock boundary included: when span(M) is invariant
    under both terms of Sigma, as it is for designs whose shock
    coefficients are uniform across arrays, d is the GLS residual at every
    omega. A design without that invariance, reachable through non-uniform
    alpha or beta tables, goes to the scoring of ``ml_dispersion_generic``,
    with no second invariance test, started at the closed-form point. One
    array raises ConfigError (see the closed form).
    """
    lay = design.layout
    structure = CellwiseTwoLevel(lay.n_arrays, lay.cells_per_array)
    ols = gls_fit(y, design, SigmaModel(structure, [0.0, 1.0]))
    d = ols.residual.reshape(lay.n_arrays, -1)
    omega = np.array(ml_dispersion_cellwise_closed_form(*d)[:2])
    location = _fixed_location(y, design, structure, ols)
    if location is None:
        return _scoring(y, design, structure, omega, None, SCORE_TOL, MAX_ITER, None)
    fit = location.fit(SigmaModel(structure, omega), variance=True)
    fit.omega_hat = omega
    fit.n_iter = 1
    return fit


def chain_ladder_effect_table(fit: FitResult) -> dict:
    """Exponentiated row and column effects per array from a chain-ladder fit.

    Row effect 1 is the fixed corner (reported as 1.0); column effects carry
    any absorbed shock mean. Entries whose columns were dropped in the
    design reduction come back as None.
    """
    lay = fit.design.layout
    by_label = {lbl: k for k, lbl in enumerate(fit.labels)}

    def lookup(label):
        k = by_label.get(label)
        return float(np.exp(fit.kappa_hat[k])) if k is not None else None

    table = {}
    for n in range(1, lay.n_arrays + 1):
        rows = [1.0] + [lookup(("chi", n, i)) for i in range(2, lay.n_rows + 1)]
        cols = [lookup(("col", n, j)) for j in range(1, lay.n_cols + 1)]
        table[f"array_{n}"] = {"row_effects": rows, "column_effects": cols}
    return table


def dependence_stats(d1, d2):
    """Pearson correlation and sign-agreement count of two residual vectors.

    A residual of at most 1e-10 times its vector's largest magnitude counts
    as zero: exactly fitted cells leave residuals that are zero up to
    rounding, and their signs would otherwise follow the last bits of the
    estimate.
    """
    d1 = np.asarray(d1, dtype=float).ravel()
    d2 = np.asarray(d2, dtype=float).ravel()
    if d1.size != d2.size:
        raise NumericalError("residual vectors must have equal length")
    if np.std(d1) == 0.0 or np.std(d2) == 0.0:
        raise NumericalError("a residual vector has zero variance")
    corr = float(np.corrcoef(d1, d2)[0, 1])

    def signs(d):
        return np.where(np.abs(d) <= 1e-10 * np.max(np.abs(d)), 0.0, np.sign(d))

    agree = int(np.sum(signs(d1) == signs(d2)))
    return corr, agree
