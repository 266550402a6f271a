"""Location fitting by generalized least squares and ML dispersion estimation.

With the covariance known, the location estimate is the usual GLS solution,
computed through Cholesky whitening and least squares rather than explicit
inverses. With the covariance unknown up to variance components omega, the
profile score (the derivative of the log-likelihood in omega after
concentrating out the location parameters) is driven to zero either by
projected Fisher scoring on the profile likelihood or, for the two-array
cell-matched structure, by the closed-form solution of a quadratic in the
variance ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .covariance import CellwiseTwoLevel, GammaStructure, SigmaModel
from .design import ModelDesign
from .errors import DesignError, NumericalError

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class FitResult:
    """Outcome of a location (and optionally dispersion) fit.

    ``omega_fit`` is the covariance matrix of the fitted mean vector
    (M Var[kappa] M^T); ``omega_hat`` is the vector of estimated variance
    components, None when the covariance was supplied as known.
    """

    kappa_hat: np.ndarray
    var_kappa: np.ndarray
    y_hat: np.ndarray
    omega_fit: np.ndarray
    residual: np.ndarray
    loglik: float
    sigma: SigmaModel
    design: ModelDesign = None
    labels: tuple = ()
    omega_hat: np.ndarray = None
    n_iter: int = 0
    score: np.ndarray = None

    @property
    def residual_by_array(self) -> list:
        """Residual vector split into per-array pieces (stacking order)."""
        n = self.design.layout.n_arrays if self.design is not None else 1
        return list(self.residual.reshape(n, -1))


def _loglik(n: int, logdet: float, quad: float) -> float:
    return -0.5 * (n * LOG_2PI + logdet + quad)


def gls_fit(y: np.ndarray, design: ModelDesign, sigma: SigmaModel) -> FitResult:
    """Generalized least squares for the reduced design.

    kappa = (M^T Sigma^-1 M)^-1 M^T Sigma^-1 y, with variance
    (M^T Sigma^-1 M)^-1 and fitted-value covariance M Var[kappa] M^T, all
    computed from a Cholesky factor of Sigma and a QR factor of the whitened
    design.
    """
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
    if sigma.n != y.size:
        raise DesignError("covariance dimension does not match the data")

    wy = sigma.whiten(y)
    if M.shape[1] == 0:
        d = y
        quad = float(wy @ wy)
        return FitResult(
            kappa_hat=np.zeros(0),
            var_kappa=np.zeros((0, 0)),
            y_hat=np.zeros_like(y),
            omega_fit=np.zeros((y.size, y.size)),
            residual=d,
            loglik=_loglik(y.size, sigma.logdet(), quad),
            sigma=sigma,
            design=design_ref,
            labels=labels,
        )

    W = sigma.whiten(M)
    q, r = np.linalg.qr(W)
    rdiag = np.abs(np.diag(r))
    aliased = rdiag <= 1e-12 * max(rdiag.max(), 1.0)
    if aliased.any():
        bad = [labels[k] for k in np.where(aliased)[0]]
        raise DesignError(f"normal equations are singular; aliased columns: {bad}")
    kappa = solve_triangular(r, q.T @ wy)
    rinv = solve_triangular(r, np.eye(r.shape[0]))
    var_kappa = rinv @ rinv.T
    y_hat = M @ kappa
    omega_fit = M @ var_kappa @ M.T
    d = y - y_hat
    wd = wy - W @ kappa
    return FitResult(
        kappa_hat=kappa,
        var_kappa=var_kappa,
        y_hat=y_hat,
        omega_fit=omega_fit,
        residual=d,
        loglik=_loglik(y.size, sigma.logdet(), float(wd @ wd)),
        sigma=sigma,
        design=design_ref,
        labels=labels,
    )


def profile_score(y, design: ModelDesign, structure: GammaStructure, omega) -> np.ndarray:
    """Score in the variance components with the location profiled out.

    Component k is -tr(Sigma^-1 dSigma_k)/2 + (Sigma^-1 d)^T dSigma_k
    (Sigma^-1 d)/2 evaluated at d = y - M kappa(omega).
    """
    sigma = SigmaModel(structure, omega)
    fit = gls_fit(y, design, sigma)
    e = sigma.solve(fit.residual)
    out = np.empty(structure.n_params)
    for k, dmat in enumerate(structure.dsigma_matrices()):
        trace = float(np.trace(sigma.solve(dmat)))
        out[k] = -0.5 * trace + 0.5 * float(e @ dmat @ e)
    return out


def ml_dispersion_generic(
    y,
    design: ModelDesign,
    structure: GammaStructure,
    init_omega,
    tol: float = 1e-9,
    max_iter: int = 200,
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
    """
    y = np.asarray(y, dtype=float).ravel()
    omega = np.asarray(init_omega, dtype=float).ravel().copy()
    if omega.size != structure.n_params:
        raise NumericalError(
            f"init_omega needs {structure.n_params} components {structure.omega_names}"
        )
    zero_allowed = np.asarray(structure.zero_allowed, dtype=bool)
    if np.any(omega[~zero_allowed] <= 0):
        raise NumericalError("initial values must be strictly positive")
    free = np.ones(omega.size, dtype=bool) if free_mask is None else np.asarray(free_mask, bool)
    lower = np.where(zero_allowed, 0.0, 1e-14 * max(float(np.var(y)), 1e-12))
    dmats = structure.dsigma_matrices()

    def fail(message):
        return NumericalError(
            message, last_omega=omega.copy(), score_norm=float(np.max(np.abs(score[free])))
        )

    fit = gls_fit(y, design, SigmaModel(structure, omega))
    score = profile_score(y, design, structure, omega)
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
        prods = [fit.sigma.solve(dmats[k]) for k in idx]
        info = 0.5 * np.array([[np.sum(a * b.T) for b in prods] for a in prods])
        step = np.zeros_like(omega)
        step[idx] = np.linalg.lstsq(info, score[idx], rcond=None)[0]
        # a drop within the rounding of the log-likelihood is not a drop: near
        # the root the gain of a step is far below it
        min_loglik = fit.loglik - 1e-12 * (1.0 + abs(fit.loglik))
        for _ in range(60):
            trial = np.where(active, np.maximum(omega + step, lower), omega)
            trial_fit = gls_fit(y, design, SigmaModel(structure, trial))
            if trial_fit.loglik >= min_loglik:
                break
            step *= 0.5
        else:
            raise fail("step halving found no increase of the log-likelihood")
        omega, fit = trial, trial_fit
        score = profile_score(y, design, structure, omega)
        n_iter += 1

    fit.omega_hat = omega
    fit.n_iter = n_iter
    fit.score = score
    return fit


def ml_dispersion_cellwise_closed_form(d1, d2, cells: int = None):
    """Closed-form ML variance components from two arrays' residuals.

    With a = |d1 - d2|^2, s = |d1 + d2|^2 and c = <d1, d2>, the variance
    ratio r = sigma2/v2 solves 2 a r^2 - (s - 2a) r - 2c = 0; the positive
    root is taken (r = 0 when none exists, the no-shock boundary), then
    v2 = s / (2 cells (2r + 1)) and sigma2 = r v2. When both roots are
    positive the one with the higher profile log-likelihood wins.

    Returns (sigma2, v2, r).
    """
    d1 = np.asarray(d1, dtype=float).ravel()
    d2 = np.asarray(d2, dtype=float).ravel()
    if d1.size != d2.size:
        raise NumericalError("residual vectors must have equal length")
    if cells is None:
        cells = d1.size
    a = float((d1 - d2) @ (d1 - d2))
    s = float((d1 + d2) @ (d1 + d2))
    c = float(d1 @ d2)
    if a == 0.0:
        raise NumericalError(
            "residual vectors are identical; the idiosyncratic variance would be "
            "zero and the likelihood unbounded (perfectly correlated residuals)"
        )
    if s == 0.0:
        raise NumericalError(
            "residual vectors are exact negatives; the shared-shock structure is "
            "degenerate"
        )

    # stable quadratic roots for 2a r^2 - (s - 2a) r - 2c = 0
    qa, qb, qc = 2.0 * a, -(s - 2.0 * a), -2.0 * c
    disc = qb * qb - 4.0 * qa * qc
    roots = []
    if disc >= 0.0:
        sq = np.sqrt(disc)
        qq = -0.5 * (qb + np.copysign(sq, qb if qb != 0 else 1.0))
        if qq != 0.0:
            roots = [qq / qa, qc / qq]
        else:
            roots = [0.0]
    positive = sorted({r for r in roots if r > 0.0})

    def v2_of(r):
        return s / (2.0 * cells * (2.0 * r + 1.0))

    if not positive:
        r_hat = 0.0
    elif len(positive) == 1:
        r_hat = positive[0]
    else:
        norm2 = float(d1 @ d1 + d2 @ d2)

        def ll(r):
            v2 = v2_of(r)
            s2 = r * v2
            logdet = cells * (np.log(2.0 * s2 + v2) + np.log(v2))
            quad = ((s2 + v2) * norm2 - 2.0 * s2 * c) / (v2 * (2.0 * s2 + v2))
            return -0.5 * (logdet + quad)

        r_hat = max(positive, key=ll)

    v2_hat = v2_of(r_hat)
    return r_hat * v2_hat, v2_hat, r_hat


def ml_dispersion_cellwise(
    y, design: ModelDesign, tol: float = 1e-10, max_iter: int = 100
) -> FitResult:
    """Closed-form dispersion path for two arrays with cell-matched shocks.

    Alternates the GLS location fit with the closed-form variance components
    until the components are stable to ``tol`` relative. The location
    estimate does not depend on the components when the two arrays share one
    design block, so the alternation typically settles in two passes.
    """
    lay = design.layout
    if lay.n_arrays != 2:
        raise NumericalError("the closed-form path needs exactly two arrays")
    cells = lay.cells_per_array
    structure = CellwiseTwoLevel(2, cells)
    omega = np.array([0.0, 1.0])  # identity start: plain least squares
    fit = None
    for it in range(1, max_iter + 1):
        sigma = SigmaModel(structure, omega)
        fit = gls_fit(y, design, sigma)
        d1, d2 = fit.residual[:cells], fit.residual[cells:]
        s2, v2, _ = ml_dispersion_cellwise_closed_form(d1, d2, cells)
        new = np.array([s2, v2])
        if np.all(np.abs(new - omega) <= tol * np.maximum(np.abs(new), 1e-300)):
            omega = new
            break
        omega = new
    else:
        raise NumericalError(
            "closed-form dispersion alternation did not converge",
            last_omega=omega,
        )
    sigma = SigmaModel(structure, omega)
    fit = gls_fit(y, design, sigma)
    fit.omega_hat = omega
    fit.n_iter = it
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
