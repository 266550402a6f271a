"""Forecasting future cells and aggregating loss reserves.

The forecast mean is M* kappa with M* built by the same design rules as the
fitted rows. Its covariance adds parameter error, M* Var[kappa] M*^T, and
process error Sigma*, the same shock structure evaluated over the forecast
region (future shocks are fresh draws, shared within subsets of the region
and across arrays for the across-array shock; covariances between observed
and future cells are not carried). Raw-scale forecasts and reserve moments
then follow from the log-normal moment maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covariance import structure_for
from .errors import DesignError, NumericalError
from .estimation import FitResult
from .lognormal import LogNormalSummary, raw_cov, raw_mean


@dataclass(frozen=True)
class ForecastDesign:
    """Forecast rows and the process-error pieces over the future region."""

    m_star: np.ndarray  # (N * n_future, n_params) reduced-design rows
    cells: tuple  # future cells, one array's worth, stacking order
    a_star: np.ndarray  # across-array shock block over the region
    b_star: np.ndarray  # within-array shock block over the region
    n_arrays: int


@dataclass(frozen=True)
class ForecastResult:
    """Forecast means, covariances, and reserve aggregates.

    ``x_star`` has shape (n_arrays, n_rows, n_cols) with NaN outside the
    forecast region; vectors follow the forecast stacking order (array index
    outermost).
    """

    y_star: np.ndarray
    omega_star: np.ndarray
    x_star_vector: np.ndarray
    xi_star: np.ndarray
    x_star: np.ndarray
    cells: tuple
    reserves: np.ndarray  # per-array
    reserve_total: float
    std_errors: np.ndarray  # per-array
    std_error_total: float
    covs: np.ndarray = field(init=False)  # per-array CoV
    cov_total: float = field(init=False)

    def __post_init__(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            covs = np.where(self.reserves > 0, self.std_errors / self.reserves, 0.0)
            total = self.std_error_total / self.reserve_total if self.reserve_total > 0 else 0.0
        object.__setattr__(self, "covs", covs)
        object.__setattr__(self, "cov_total", float(total))


def build_forecast_design(design, cells) -> ForecastDesign:
    """Rows and shock blocks for the given future cells.

    Raises DesignError when some cell's mean involves a parameter the
    observed data never identified (a shock mean of an unobserved subset,
    for instance); such effects must be supplied by hand as forecast
    offsets, with an AR(1) extrapolation where a calendar pattern is wanted.
    """
    cells = tuple(cells)
    m_star = design.rows_for_cells(cells)
    a_star, b_star = design.shock_blocks_for_cells(cells)
    return ForecastDesign(
        m_star=m_star,
        cells=cells,
        a_star=a_star,
        b_star=b_star,
        n_arrays=design.layout.n_arrays,
    )


def _process_error(fit: FitResult, fd: ForecastDesign) -> np.ndarray:
    """Sigma* over the forecast region, from the fitted structure and omega."""
    structure = fit.sigma.structure
    omega = fit.omega_hat if fit.omega_hat is not None else fit.sigma.omega
    if structure.kind is None:
        raise NumericalError(
            "forecasting under a non-identity development operator needs an "
            "explicit operator for the future region; none is defined"
        )
    future = structure_for(structure.kind, fd.n_arrays, len(fd.cells), fd.a_star, fd.b_star)
    if future.omega_names != structure.omega_names:
        raise NumericalError("future shock blocks do not match the fitted covariance structure")
    return future.sigma(omega)


def predict(
    fit: FitResult,
    fd: ForecastDesign,
    extra_offsets=None,
    extra_offset_var=None,
) -> ForecastResult:
    """Forecast the future cells and aggregate reserves.

    ``extra_offsets`` (length N * n_future) is added to the log-scale
    forecast means, the hook for hand-supplied future effects such as an
    AR(1) calendar extrapolation; ``extra_offset_var`` adds to the
    process-error diagonal.
    """
    lay = fit.design.layout
    n_fut = len(fd.cells)
    n = fd.n_arrays * n_fut
    if n == 0:
        empty = np.zeros(0)
        grid = np.full((lay.n_arrays, lay.n_rows, lay.n_cols), np.nan)
        return ForecastResult(
            y_star=empty,
            omega_star=np.zeros((0, 0)),
            x_star_vector=empty,
            xi_star=np.zeros((0, 0)),
            x_star=grid,
            cells=fd.cells,
            reserves=np.zeros(fd.n_arrays),
            reserve_total=0.0,
            std_errors=np.zeros(fd.n_arrays),
            std_error_total=0.0,
        )

    y_star = fd.m_star @ fit.kappa_hat
    if extra_offsets is not None:
        offs = np.asarray(extra_offsets, dtype=float).ravel()
        if offs.size != n:
            raise DesignError(f"extra offsets must have length {n}")
        y_star = y_star + offs

    sigma_star = _process_error(fit, fd)
    if extra_offset_var is not None:
        var = np.asarray(extra_offset_var, dtype=float).ravel()
        if var.size == 1:
            var = np.full(n, float(var[0]))
        if var.size != n or np.any(var < 0):
            raise DesignError("extra offset variances must be non-negative, length N * n_future")
        sigma_star = sigma_star + np.diag(var)

    omega_star = fd.m_star @ fit.var_kappa @ fd.m_star.T + sigma_star
    omega_star = 0.5 * (omega_star + omega_star.T)

    summary = LogNormalSummary(y_star, omega_star)
    x_vec = raw_mean(summary)
    xi_star = raw_cov(summary)

    reserves = np.array([x_vec[k * n_fut : (k + 1) * n_fut].sum() for k in range(fd.n_arrays)])
    variances = np.array(
        [
            xi_star[k * n_fut : (k + 1) * n_fut, k * n_fut : (k + 1) * n_fut].sum()
            for k in range(fd.n_arrays)
        ]
    )
    total_var = float(xi_star.sum())
    if total_var < -1e-9:
        raise NumericalError("total reserve variance is negative")

    grid = np.full((lay.n_arrays, lay.n_rows, lay.n_cols), np.nan)
    k = 0
    for m in range(fd.n_arrays):
        for (i, j) in fd.cells:
            grid[m, i - 1, j - 1] = x_vec[k]
            k += 1

    return ForecastResult(
        y_star=y_star,
        omega_star=omega_star,
        x_star_vector=x_vec,
        xi_star=xi_star,
        x_star=grid,
        cells=fd.cells,
        reserves=reserves,
        reserve_total=float(reserves.sum()),
        std_errors=np.sqrt(np.maximum(variances, 0.0)),
        std_error_total=float(np.sqrt(max(total_var, 0.0))),
    )


def reserve_correlation(result: ForecastResult) -> float:
    """Implied correlation between the two per-array reserves (N = 2 only)."""
    if result.reserves.size != 2:
        raise NumericalError("reserve correlation is defined for exactly two arrays")
    n_fut = len(result.cells)
    cov = float(result.xi_star[:n_fut, n_fut:].sum())
    se1, se2 = result.std_errors
    if se1 == 0.0 or se2 == 0.0:
        raise NumericalError("a reserve has zero standard error")
    return cov / (se1 * se2)


def independence_counterfactual_cov(result: ForecastResult) -> float:
    """Total-reserve CoV with the cross-array covariance blocks zeroed."""
    if result.reserve_total <= 0:
        return 0.0
    return float(np.sqrt(np.sum(result.std_errors**2)) / result.reserve_total)


def gamma_ar1(gamma_tmax: float, gamma_bar: float, rho: float, horizon: int, noise=None):
    """AR(1) continuation of a calendar effect beyond the last fitted diagonal.

    gamma_t = gamma_bar + rho (gamma_{t-1} - gamma_bar) + eps_t for ``horizon``
    steps, started at the fitted value ``gamma_tmax``. ``noise`` supplies the
    eps sequence (deterministic zeros when omitted).
    """
    if horizon < 1:
        raise DesignError("horizon must be at least 1")
    eps = np.zeros(horizon) if noise is None else np.asarray(noise, dtype=float).ravel()
    if eps.size != horizon:
        raise DesignError("noise must have one draw per forecast step")
    out = np.empty(horizon)
    prev = gamma_tmax
    for t in range(horizon):
        prev = gamma_bar + rho * (prev - gamma_bar) + eps[t]
        out[t] = prev
    return out
