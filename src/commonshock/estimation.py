"""Location fitting by generalized least squares and ML dispersion estimation.

With the covariance known, the location estimate is the usual GLS solution.
M is factored once per design, by least squares in its array frame
(``ModelDesign.factor``: the reduction sweep's orthonormal basis of one
array's idiosyncratic block and of the shock-mean columns swept against
it), and that factor alone judges aliasing.
A GLS fit then takes one QR of the factor's columns that Sigma mixes, with
y, in the rows the covariance writes for them (``gls_fit``); neither
Sigma^-1 nor (M^T Sigma^-1 M)^-1 is formed, only the inverses of
triangular factors. With the covariance unknown up to
variance components omega, the profile score (the derivative of the
log-likelihood in omega after concentrating out the location parameters)
is driven to zero by projected Fisher scoring on the profile likelihood.

When span(M) is invariant under every term D_k = dSigma/domega_k, GLS equals
ordinary least squares at every omega (Kruskal 1968): the least-squares
kappa is fitted once, and a trial point costs one factor of Sigma. Either
way a point's fit is built in one place (``_fit``): M kappa by the design's
blocks, its residual d and the whitened log-likelihood.
For the cell-matched structure on N >= 2 arrays the dispersion is then in
closed form (Szatrowski 1980), means over the array pairs of d's cross
products and squared differences, and ``ml_dispersion_generic``, the one
ML entry, starts there when given no start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .covariance import CellwiseTwoLevel, GammaStructure, SigmaModel, _tril_inverse
from .design import LeastSquaresFactor, ModelDesign, _by_block
from .errors import ConfigError, DesignError, NumericalError

LOG_2PI = float(np.log(2.0 * np.pi))
# a relative invariance residual at or below this counts as invariant (see
# _invariant): on the bundled data the 57 invariant configurations give
# at most 4e-15, the other three 0.28 or more
INVARIANCE_TOL = 1e-8
# the generic solver stops once every free score is below this
SCORE_TOL = 1e-9
MAX_ITER = 200  # and raises after this many iterations
# every component's start where none is given and there is no closed form
START = 0.01


@dataclass
class FitResult:
    """Outcome of a location (and optionally dispersion) fit.

    M is the reduced mean design the fit used: ``design``'s, applied by its
    blocks, or ``matrix``, the bare matrix of a fit made on one (None on a
    ModelDesign). With M = [Qx | I_N (x) Q0] T the design's
    least-squares factor and Sigma^-1/2 Q_m = U S the one QR of the k
    columns Q_m of Q that Sigma mixes (see ``gls_fit``), ``r_inv`` is the
    m x k matrix T^-1 [S^-1; 0], rows in M's column order.

    ``frame`` is (C, R0^-1), C the N x N array side of Sigma = C (x) I over
    M's own arrays and R0 the triangular factor of C0. Every fit at such a
    Sigma keeps it (``_array_side_only``): Q_m is then Qx alone, k = s_x,
    and the idiosyncratic columns add C (x) R0^-1 R0^-T to Var[kappa]. A fit
    at any other Sigma, several subset groups or the dense frame, has None
    and k = m. So Var[kappa] = r_inv r_inv^T, plus the frame's term on the
    idiosyncratic block. ``var_kappa`` and ``omega_fit``, the covariance
    matrix of the fitted mean vector, M Var[kappa] M^T with M applied twice
    as the fitted values apply it (``_fitted``), are formed on first read.
    ``omega_hat`` is the ML entry's omega, held components included, and
    None from ``gls_fit``.
    """

    kappa_hat: np.ndarray
    y_hat: np.ndarray
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
    matrix: np.ndarray = None  # the bare design matrix, see above
    _var_kappa: np.ndarray = field(default=None, init=False, repr=False)
    _omega_fit: np.ndarray = field(default=None, init=False, repr=False)

    @property
    def var_kappa(self) -> np.ndarray:
        """Var[kappa] = r_inv r_inv^T + C (x) R0^-1 R0^-T on the idiosyncratic
        block of a fit with a ``frame``; None where the fit holds no r_inv."""
        if self._var_kappa is None and self.r_inv is not None:
            var = self.r_inv @ self.r_inv.T
            if self.frame is not None:
                C, r0_inv = self.frame
                idio = slice(len(var) - len(C) * len(r0_inv), None)
                var[idio, idio] += np.kron(C, r0_inv @ r0_inv.T)
            self._var_kappa = var
        return self._var_kappa

    @property
    def omega_fit(self) -> np.ndarray:
        if self._omega_fit is None:
            half = _fitted(self.matrix, self.design, self.var_kappa)  # M Var[kappa]
            # (M Var[kappa]) M^T, the transpose of M (M Var[kappa])^T
            upper = np.triu(_fitted(self.matrix, self.design, half.T).T)
            self._omega_fit = upper + np.triu(upper, 1).T  # exactly symmetric
        return self._omega_fit


def _loglik(n: int, logdet: float, quad: float) -> float:
    return -0.5 * (n * LOG_2PI + logdet + quad)


class _Parts(NamedTuple):
    """A ModelDesign or a bare matrix M with its y, as ``_design_parts`` reads them."""

    y: np.ndarray
    matrix: np.ndarray | None  # the bare design matrix, None on a ModelDesign
    labels: tuple
    design: ModelDesign | None  # None on a bare matrix
    factor: LeastSquaresFactor  # M's least-squares factor


def _design_parts(y, design) -> _Parts:
    """The ``_Parts`` of a ModelDesign or a bare matrix M.

    A ModelDesign's factor is formed once (``ModelDesign.factor``); a bare
    matrix is factored on each call, as the one-block case C0 = M with no X,
    by the reduction's sweep at tolerance 0.
    """
    y = np.asarray(y, dtype=float).ravel()
    if isinstance(design, np.ndarray):
        M = design
        labels = tuple(f"column_{k}" for k in range(M.shape[1]))
        if y.size != M.shape[0]:
            raise DesignError(f"y has length {y.size}, design has {M.shape[0]} rows")
        factor = LeastSquaresFactor.of(np.zeros((M.shape[0], 0)), M, 1, labels)
        return _Parts(y, M, labels, None, factor)
    if y.size != design.n_obs:
        raise DesignError(f"y has length {y.size}, design has {design.n_obs} rows")
    return _Parts(y, None, design.labels, design, design.factor)


def _fitted(matrix, design, kappa) -> np.ndarray:
    """M kappa: the bare ``matrix``'s product, or by the design's blocks."""
    return design.times(kappa) if matrix is None else matrix @ kappa


def _fit(parts: _Parts, kappa, sigma: SigmaModel, **gls) -> FitResult:
    """The fit of ``kappa`` at ``sigma``: y_hat = M kappa by the design's
    blocks, its residual d and the log-likelihood from d whitened.
    ``gls`` holds ``gls_fit``'s r_inv and frame; without them the fit has
    no Var[kappa]."""
    y_hat = _fitted(parts.matrix, parts.design, kappa)
    d = parts.y - y_hat
    wd = sigma.whiten(d)
    return FitResult(
        kappa_hat=kappa, y_hat=y_hat, residual=d, sigma=sigma,
        loglik=_loglik(d.size, sigma.logdet(), float(wd @ wd)),
        design=parts.design, labels=parts.labels, matrix=parts.matrix, **gls,
    )


def gls_fit(y: np.ndarray, design: ModelDesign, sigma: SigmaModel) -> FitResult:
    """Generalized least squares for the reduced design.

    kappa = (M^T Sigma^-1 M)^-1 M^T Sigma^-1 y with variance
    (M^T Sigma^-1 M)^-1, from the design's least-squares factor
    M = Q T, Q = [Qx | I_N (x) Q0]. Only the k columns Q_m of Q that Sigma
    mixes are whitened: Qx where Sigma = C (x) I over M's own arrays
    (``_array_side_only``), since Sigma^-1 (I_N (x) Q0) =
    (I_N (x) Q0)(C^-1 (x) I_r0) and (I_N (x) Q0)^T Qx = 0; every column of
    Q under any other Sigma. Where k > 0, one R-only QR of the rows
    ``SigmaModel.whitened_rows`` writes for Sigma^-1/2 [Q_m | y] (it picks
    few rows in a subset frame of several groups over M's arrays, so no
    n x m matrix is formed), y last, gives R = [[S, z], [0, *]] with
    Sigma^-1/2 Q_m = U S and z = U^T Sigma^-1/2 y (Golub and Van Loan,
    Matrix Computations, 5.3), so

        kappa = kappa_LS + T^-1[:, :k] (S^-1 z - Q_m^T y),

    and r_inv = T^-1[:, :k] S^-1, both by T^-1's blocks (``t_inv_times``);
    with k = 0 there is no QR. Every fit on M's arrays keeps ``frame`` =
    (C, R0^-1), the rest of Var[kappa] (see ``FitResult``). Aliasing is
    judged on M alone, by its factor, so it does not depend on Sigma.
    """
    parts = _design_parts(y, design)
    y, factor = parts.y, parts.factor
    if sigma.n != y.size:
        raise DesignError("covariance dimension does not match the data")

    kappa = factor.least_squares(y)
    q0, qx = factor.q0, factor.qx
    n_blocks = y.size // len(q0)
    on_arrays = _array_side_only(sigma.structure, q0)
    s = qx.shape[1]
    # the columns Sigma mixes: Qx alone at C (x) I over M's arrays, else all
    mixed_q0 = q0[:, :0] if on_arrays else q0
    k = s + n_blocks * mixed_q0.shape[1]
    S_inv = np.zeros((0, 0))  # no mixed column: no QR
    if k:
        rows = sigma.whitened_rows(np.column_stack([qx, y]), mixed_q0)
        # [Q_m | y], y last: R = [[S, z], [0, *]] with z = U^T Sigma^-1/2 y
        R = np.linalg.qr(np.column_stack([rows[:, :s], rows[:, s + 1 :], rows[:, s]]), mode="r")
        S_inv = _tril_inverse(R[:k, :k].T).T
        qty = np.concatenate([qx.T @ y, _by_block(mixed_q0.T, y[:, None], n_blocks).ravel()])
        kappa += factor.t_inv_times((S_inv @ R[:k, k] - qty)[:, None]).ravel()
    # R0^-1 in C order, the order the forecast's products take
    frame = (sigma._groups[0].C, np.ascontiguousarray(factor.r0_inv)) if on_arrays else None
    return _fit(parts, kappa, sigma, r_inv=factor.t_inv_times(S_inv), frame=frame)


def _array_side_only(structure: GammaStructure, c0: np.ndarray) -> bool:
    """Whether Sigma = C (x) I_cells over M's own arrays: the structure's
    subset frame has one group (``GammaStructure.identity_cell_side``) and
    its cells are one array's rows, those of C0 (or of its factor Q0)."""
    return structure.identity_cell_side and structure.cells == c0.shape[0]


def _invariant(factor: LeastSquaresFactor, structure: GammaStructure) -> bool:
    """Whether span(M) is invariant under every term of ``structure``, from
    M's least-squares ``factor`` alone.

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
    """
    q0, qx = factor.q0, factor.qx
    s, n_blocks = qx.shape[1], qx.shape[0] // q0.shape[0]
    Z = np.random.default_rng(0).standard_normal((s + n_blocks * q0.shape[1], 4))
    on_arrays = _array_side_only(structure, q0)
    u = qx @ Z[:s]
    if not on_arrays:
        u += _by_block(q0, Z[s:], n_blocks)
    for k in range(0 if on_arrays and not s else structure.n_params):
        du = structure.term_product(k, u)
        image = qx @ (qx.T @ du) + _by_block(q0, _by_block(q0.T, du, n_blocks), n_blocks)
        if np.linalg.norm(du - image) > INVARIANCE_TOL * np.linalg.norm(du):
            return False
    return True


def _cell_matched(structure: GammaStructure, c0: np.ndarray) -> bool:
    """Whether Sigma(omega) = omega_1 (J_N (x) I) + omega_2 I over M's own
    arrays (``_array_side_only``), read from the terms, not the ``kind``."""
    if structure.n_params != 2 or not _array_side_only(structure, c0):
        return False
    shock, noise = (structure.group_sides(e)[0] for e in np.eye(2))
    return np.array_equal(shock, np.ones_like(shock)) and np.array_equal(noise, np.eye(len(noise)))


def profile_score(
    y, design: ModelDesign, structure: GammaStructure, omega, *, fit: FitResult = None
) -> np.ndarray:
    """Score in the variance components with the location profiled out.

    Component k is -tr(Sigma^-1 dSigma_k)/2 + (Sigma^-1 d)^T dSigma_k
    (Sigma^-1 d)/2 evaluated at d = y - M kappa(omega). ``fit``, when given,
    is the fit at ``omega``, and its factor of Sigma is used instead of a
    new one; a fit at another point raises DesignError. Without it the
    location is the GLS fit at ``omega``, so the score does not rest on the
    solvers' invariance test.
    """
    if fit is None:
        fit = gls_fit(y, design, SigmaModel(structure, omega))
    elif not np.array_equal(fit.sigma.omega, np.ravel(omega)):
        raise DesignError(
            f"the given fit is at omega = {fit.sigma.omega.tolist()}, "
            f"not at {np.ravel(omega).tolist()}"
        )
    return -0.5 * fit.sigma.term_traces() + 0.5 * fit.sigma.term_forms(fit.residual)


def ml_dispersion_generic(
    y,
    design: ModelDesign,
    structure: GammaStructure,
    init_omega=None,
    tol: float = SCORE_TOL,
    max_iter: int = MAX_ITER,
    free_mask=None,
) -> FitResult:
    """Maximum likelihood for the variance components: the one ML entry.

    Projected Fisher scoring: each iteration solves I step = score in the
    least-squares sense, I_kl = tr(Sigma^-1 D_k Sigma^-1 D_l)/2, over the
    free components not held on their lower bound (0 where Sigma stays
    positive definite there, else 1e-14 var(y)) by an outward score. The
    trial point is projected onto the bounds and the step halved until the
    profile log-likelihood does not drop by more than its rounding. It
    stops once every free score is below ``tol`` in absolute value, or
    points outward at zero. ``free_mask`` holds components at their
    ``init_omega`` values; with none free the fit is ``gls_fit`` there,
    with its score. ConfigError rejects a ``tol`` that is not finite and
    positive, a ``max_iter`` that is not a non-negative integer, an
    ``init_omega`` or a ``free_mask`` without one value per component, a
    held component with no ``init_omega`` value, and a start at or below
    zero on a free component that must stay positive.

    A given start is always scored from; a free component with no value
    starts at ``START``. With no start and every component free, the
    cell-matched model over M's own arrays (``_cell_matched``:
    ``cellwise_two_level``, ``diagonal_scalar`` on the cell partition)
    starts at the closed form of the least-squares residual, the ML point on
    an invariant design (Szatrowski 1980), returned as its ``gls_fit`` with
    n_iter = 1 and no score. On an invariant design the least-squares kappa
    is fitted once and a point costs one factor of Sigma; otherwise each
    point is a GLS fit. The fit returned is ``gls_fit`` at the last point.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol must be a positive number, got {tol!r}")
    if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 0):
        raise ConfigError(f"max_iter must be a non-negative integer, got {max_iter!r}")
    start = np.ravel([None] * structure.n_params if init_omega is None else init_omega)
    unset = np.array([w is None for w in start], dtype=bool)
    omega = np.where(unset, START, start).astype(float)
    free = np.ones(omega.size, dtype=bool) if free_mask is None else np.asarray(free_mask, bool)
    for name, value in (("init_omega", omega), ("free_mask", free)):
        if value.shape != (structure.n_params,):
            raise ConfigError(
                f"{name} needs {structure.n_params} values for {structure.omega_names}"
            )
    if np.any(unset & ~free):
        held = [n for n, h in zip(structure.omega_names, unset & ~free) if h]
        raise ConfigError(f"init_omega gives no value for the held components {held}")
    positive = free & ~np.asarray(structure.zero_allowed, dtype=bool)
    if np.any(omega[positive] <= 0):
        raise ConfigError(
            "initial values must be strictly positive for "
            f"{[n for n, p in zip(structure.omega_names, positive) if p]}"
        )
    if not free.any():  # one GLS fit and its score
        return _scoring(y, design, structure, omega, None, tol, max_iter, free)
    parts = _design_parts(y, design)
    invariant = _invariant(parts.factor, structure)
    closed = unset.all() and free.all() and _cell_matched(structure, parts.factor.q0)
    location = (parts, parts.factor.least_squares(parts.y)) if invariant or closed else None
    if closed:
        d = parts.y - _fitted(parts.matrix, parts.design, location[1])
        omega = np.array(ml_dispersion_cellwise_closed_form(*d.reshape(structure.n_arrays, -1))[:2])
        if invariant:
            fit = gls_fit(y, design, SigmaModel(structure, omega))
            fit.omega_hat, fit.n_iter = omega, 1
            return fit
        location = None  # least squares is not the location of another point
    return _scoring(y, design, structure, omega, location, tol, max_iter, free)


def _scoring(y, design, structure, omega, location, tol, max_iter, free) -> FitResult:
    """The projected Fisher scoring of ml_dispersion_generic from ``omega``,
    on the fixed ``location`` (``_design_parts``' output and the
    least-squares kappa) where there is one, else by a GLS fit per point."""
    y = np.asarray(y, dtype=float).ravel()
    zero_allowed = np.asarray(structure.zero_allowed, dtype=bool)
    lower = np.where(zero_allowed, 0.0, 1e-14 * max(float(np.var(y)), 1e-12))

    def fail(message):
        return NumericalError(
            message, last_omega=omega.copy(), score_norm=float(np.max(np.abs(score[free])))
        )

    def fit_at(omega):
        sigma = SigmaModel(structure, omega)
        return gls_fit(y, design, sigma) if location is None else _fit(*location, sigma)

    fit = fit_at(omega)
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
            trial_fit = fit_at(trial)
            if trial_fit.loglik >= min_loglik:
                break
            step *= 0.5
        else:
            raise fail("step halving found no increase of the log-likelihood")
        omega, fit = trial, trial_fit
        score = profile_score(y, design, structure, omega, fit=fit)
        n_iter += 1

    if location is not None:
        # with r_inv, from the design's factor; its residual, and so its
        # score, may differ from the fixed location's in the last bits
        fit = gls_fit(y, design, fit.sigma)
        score = profile_score(y, design, structure, omega, fit=fit)
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
    derivative and only their sum is identified: ConfigError, as where the
    design's shock means absorb the shared shock (residuals summing to 0).

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
        raise ConfigError(
            f"residual vectors {'are exact negatives' if n == 2 else 'sum to zero'}: "
            "the design's shock means absorb the shared shock, so sigma2 is not "
            "identified (for example partition = cell with shared_shock_mean = false)"
        )
    if cross <= 0.0:
        return 0.0, norm2 / (n * k), 0.0
    sigma2, v2 = cross / (len(pairs) * k), diff2 / (len(pairs) * 2.0 * k)
    return sigma2, v2, sigma2 / v2


def ml_dispersion_cellwise(y, design: ModelDesign) -> FitResult:
    """ML dispersion for N >= 2 arrays with cell-matched shocks: the one ML
    entry under ``CellwiseTwoLevel`` with no start, so the closed form of
    the least-squares residual, scored from only where span(M) is not
    invariant (non-uniform alpha or beta tables). One array raises
    ConfigError (see the closed form).
    """
    lay = design.layout
    return ml_dispersion_generic(y, design, CellwiseTwoLevel(lay.n_arrays, lay.cells_per_array))


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
