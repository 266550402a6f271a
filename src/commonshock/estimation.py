"""Location fitting by generalized least squares and ML dispersion estimation.

With the covariance known, the location estimate is the usual GLS solution,
computed through Cholesky whitening and least squares: neither Sigma^-1 nor
(M^T Sigma^-1 M)^-1 is formed, only the inverses of triangular factors. With the covariance unknown up to variance components omega, the
profile score (the derivative of the log-likelihood in omega after
concentrating out the location parameters) is driven to zero by projected
Fisher scoring on the profile likelihood.

When span(M) is invariant under every term D_k = dSigma/domega_k, GLS equals
ordinary least squares at every omega (Kruskal 1968): the location and its
residual d are fitted once, from one QR factor M = Q R, and a trial point
costs one factor of Sigma. For the cell-matched structure on N >= 2 arrays
the dispersion is then in closed form (Szatrowski 1980): the ML variances
are means over the array pairs of d's cross products and squared
differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covariance import CellwiseTwoLevel, GammaStructure, SigmaModel, _tril_inverse
from .design import ModelDesign
from .errors import ConfigError, DesignError, NumericalError

LOG_2PI = float(np.log(2.0 * np.pi))
# a relative invariance residual at or below this counts as invariant (see
# _fixed_location): on the bundled data the 57 invariant configurations give
# at most 5e-15, the other three 0.27 or more
INVARIANCE_TOL = 1e-8
# the generic solver stops once every free score is below this
SCORE_TOL = 1e-9
MAX_ITER = 200  # and raises after this many iterations


@dataclass
class FitResult:
    """Outcome of a location (and optionally dispersion) fit.

    ``M`` is the reduced mean design the fit used. ``r_inv`` is a matrix B
    with Var[kappa] = B B^T, the forecast writes its parameter error through
    it: the inverse of the triangular factor of the whitened design after a
    GLS fit, R^-1 chol(Q^T Sigma Q) after a fixed-location fit, so not
    always triangular. ``var_kappa`` (B B^T) and ``omega_fit``, the
    covariance matrix of the fitted mean vector (M Var[kappa] M^T), are
    formed on first read. ``omega_hat`` is the vector of estimated variance
    components, None when the covariance was supplied as known.
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
    # the orthonormal factor of M, kept only by a least-squares fit (see gls_fit)
    _q: np.ndarray = field(default=None, init=False, repr=False)
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
    """(y, M, labels, design or None) of a ModelDesign or a bare matrix M."""
    y = np.asarray(y, dtype=float).ravel()
    if isinstance(design, np.ndarray):
        M = design
        labels = tuple(f"column_{k}" for k in range(M.shape[1]))
        design_ref = None
    else:
        M = design.M
        labels = design.labels
        design_ref = design
    if y.size != M.shape[0]:
        raise DesignError(f"y has length {y.size}, design has {M.shape[0]} rows")
    return y, M, labels, design_ref


def _factor(W: np.ndarray, labels) -> tuple:
    """(q, r) of the thin QR of a design; aliased columns raise DesignError."""
    q, r = np.linalg.qr(W)
    rdiag = np.abs(np.diag(r))
    aliased = rdiag <= 1e-12 * rdiag.max(initial=1.0)
    if aliased.any():
        bad = [labels[k] for k in np.where(aliased)[0]]
        raise DesignError(f"normal equations are singular; aliased columns: {bad}")
    return q, r


def gls_fit(y: np.ndarray, design: ModelDesign, sigma: SigmaModel) -> FitResult:
    """Generalized least squares for the reduced design.

    kappa = (M^T Sigma^-1 M)^-1 M^T Sigma^-1 y with variance
    (M^T Sigma^-1 M)^-1 = R^-1 R^-T, computed from a Cholesky factor of
    Sigma and a QR factor Q R of the whitened design. At Sigma = I whitening leaves y and M as
    they are, so the fit is least squares, and it keeps the factor of M for
    the fixed-location test.
    """
    y, M, labels, design_ref = _design_parts(y, design)
    if sigma.n != y.size:
        raise DesignError("covariance dimension does not match the data")

    wy = sigma.whiten(y)
    W = sigma.whiten(M)
    q, rinv, kappa = _least_squares(wy, W, labels)
    y_hat = M @ kappa
    d = y - y_hat
    wd = wy - W @ kappa
    fit = FitResult(
        kappa_hat=kappa,
        r_inv=rinv,
        y_hat=y_hat,
        M=M,
        residual=d,
        loglik=_loglik(y.size, sigma.logdet(), float(wd @ wd)),
        sigma=sigma,
        design=design_ref,
        labels=labels,
    )
    if sigma.identity:
        fit._q = q
    return fit


@dataclass(frozen=True)
class _FixedLocation:
    """The location fit of every omega, for a design whose span is Sigma-invariant.

    The least-squares fit, M = Q R, gives kappa and the residual d, which
    are the GLS ones at every omega. ``blocks`` holds S_k = Q^T D_k Q, so
    that Q^T Sigma Q = S = sum_k omega_k S_k and
    Var[kappa] = (R^T S^-1 R)^-1 = R^-1 S R^-T.
    """

    M: np.ndarray
    labels: tuple
    design: ModelDesign
    kappa: np.ndarray
    y_hat: np.ndarray
    residual: np.ndarray
    r_inv: np.ndarray  # R^-1
    blocks: tuple

    def fit(self, sigma: SigmaModel, variance: bool = False) -> FitResult:
        """The fit at ``sigma``'s omega; r_inv, and so Var[kappa], only with ``variance``."""
        d = self.residual
        wd = sigma.whiten(d)
        r_inv = None
        if variance:
            S = sum(w * b for w, b in zip(sigma.omega, self.blocks))
            r_inv = self.r_inv @ np.linalg.cholesky(S)
        return FitResult(
            kappa_hat=self.kappa,
            r_inv=r_inv,
            y_hat=self.y_hat,
            M=self.M,
            residual=d,
            loglik=_loglik(d.size, sigma.logdet(), float(wd @ wd)),
            sigma=sigma,
            design=self.design,
            labels=self.labels,
        )


def _fixed_location(y, design, structure: GammaStructure, ols: FitResult = None):
    """The fixed location of (design, structure), or None where span(M) is not invariant.

    span(M) is invariant under D_k when D_k Q = Q S_k with S_k = Q^T D_k Q,
    both formed from the term's loadings; a term with D_k = I passes
    untested. The equation is checked on four fixed Gaussian directions Z
    (Freivalds' check): ||(D_k Q - Q S_k) Z|| at most ``INVARIANCE_TOL``
    ||D_k Q Z||. That costs O(n m) per term where the full residual
    (I - Q Q^T) D_k Q costs O(n m^2), more than the QR itself once a
    structure has a few terms, and a residual that is not zero vanishes on
    Z only for a set of directions of probability zero. ``ols`` is a gls_fit
    at Sigma = I, whose factor is reused; without it M is factored here.
    """
    y, M, labels, design_ref = _design_parts(y, design)
    m = M.shape[1]
    if ols is not None and ols._q is not None:
        q, kappa, r_inv = ols._q, ols.kappa_hat, ols.r_inv
    else:
        q, r_inv, kappa = _least_squares(y, M, labels)
    blocks = []
    Z = np.random.default_rng(0).standard_normal((m, 4))
    for k, identity in enumerate(structure.identity_terms):
        if identity:
            blocks.append(np.eye(m))
            continue
        dq, gram = structure.term_images(k, q)
        dqz = dq @ Z
        if np.linalg.norm(dqz - q @ (gram @ Z)) > INVARIANCE_TOL * np.linalg.norm(dqz):
            return None
        blocks.append(0.5 * (gram + gram.T))
    y_hat = M @ kappa
    return _FixedLocation(M, labels, design_ref, kappa, y_hat, y - y_hat, r_inv, tuple(blocks))


def _least_squares(y, M, labels) -> tuple:
    """(q, r^-1, kappa) of the least-squares fit of y on M, with M = q r."""
    q, r = _factor(M, labels)
    r_inv = _tril_inverse(r.T).T
    return q, r_inv, r_inv @ (q.T @ y)


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
        y, M, labels, _ = _design_parts(y, design)
        kappa = _least_squares(y, M, labels)[2]
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
    return -0.5 * traces + 0.5 * sigma.structure.quadratic_forms(sigma.solve(d))


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
    initial values.

    When span(M) is invariant under every D_k the location is fitted once
    and a trial point costs one factor of Sigma, with no QR; otherwise each
    trial point is a GLS fit. A start that needs no step is returned as its
    GLS fit either way, which on an invariant design is a second QR.
    """
    omega = np.asarray(init_omega, dtype=float).ravel().copy()
    if omega.size != structure.n_params:
        raise NumericalError(
            f"init_omega needs {structure.n_params} components {structure.omega_names}"
        )
    if np.any(omega[~np.asarray(structure.zero_allowed, dtype=bool)] <= 0):
        raise NumericalError("initial values must be strictly positive")
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
