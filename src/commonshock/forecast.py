"""Forecasting future cells and aggregating loss reserves.

The forecast mean is M* kappa with M* built by the same design rules as the
fitted rows. Its covariance Omega* adds parameter error, written B B^T with
B = M* r_inv, and process error Sigma*, the same shock structure evaluated
over the forecast region (future shocks are fresh draws, shared within
subsets of the region and across arrays for the across-array shock;
covariances between observed and future cells are not carried). Raw-scale
forecasts and reserve moments then follow from the log-normal moment maps.

``predict`` needs only per-array sums of the raw-scale covariance, so it
reads Omega* in row blocks (``lognormal.grouped_raw_moments``), with Sigma*'s
rows from ``GammaStructure.sigma_rows``, and forms no n_future x n_future
matrix. The dense Omega* and raw-scale covariance are formed only when
``ForecastResult.omega_star`` or ``xi_star`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covariance import structure_for
from .errors import DesignError, NumericalError
from .estimation import FitResult

# raw_mean is unused here but stays a module attribute: perfbench/tracer.py
# wraps this module's raw_mean and raw_cov
from .lognormal import LogNormalSummary, grouped_raw_moments, raw_cov, raw_mean  # noqa: F401


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
    outermost). ``reserve_cov`` is the N x N covariance of the per-array
    reserves, which the standard errors and ``reserve_correlation`` read.
    ``omega_star`` (log scale) and ``xi_star`` (raw scale), the n x n
    predictive covariances with n = N * n_future, are formed on first read.
    """

    y_star: np.ndarray
    x_star_vector: np.ndarray
    x_star: np.ndarray
    cells: tuple
    reserves: np.ndarray  # per-array
    reserve_total: float
    reserve_cov: np.ndarray  # per-array reserves, N x N
    _b: np.ndarray = field(repr=False)  # B = M* r_inv, the parameter error B B^T
    _sigma_star_rows: object = field(repr=False)  # rows of Sigma*, see _process_error
    std_errors: np.ndarray = field(init=False)  # per-array
    std_error_total: float = field(init=False)
    covs: np.ndarray = field(init=False)  # per-array CoV
    cov_total: float = field(init=False)
    _omega_star: np.ndarray = field(default=None, init=False, repr=False)
    _xi_star: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        std_errors = np.sqrt(np.maximum(np.diag(self.reserve_cov), 0.0))
        std_error_total = float(np.sqrt(max(float(self.reserve_cov.sum()), 0.0)))
        with np.errstate(divide="ignore", invalid="ignore"):
            covs = np.where(self.reserves > 0, std_errors / self.reserves, 0.0)
            total = std_error_total / self.reserve_total if self.reserve_total > 0 else 0.0
        object.__setattr__(self, "std_errors", std_errors)
        object.__setattr__(self, "std_error_total", std_error_total)
        object.__setattr__(self, "covs", covs)
        object.__setattr__(self, "cov_total", float(total))

    @property
    def omega_star(self) -> np.ndarray:
        """Omega* = B B^T + Sigma*, the log-scale predictive covariance.

        B B^T is a symmetric product, so Omega* needs no symmetrizing pass.
        """
        if self._omega_star is None:
            object.__setattr__(self, "_omega_star", self._b @ self._b.T + self._sigma_star_rows())
        return self._omega_star

    @property
    def xi_star(self) -> np.ndarray:
        """The raw-scale predictive covariance, ``raw_cov`` of (y_star, omega_star)."""
        if self._xi_star is None:
            summary = LogNormalSummary(self.y_star, self.omega_star)
            object.__setattr__(self, "_xi_star", raw_cov(summary))
        return self._xi_star


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


def _process_error(fit: FitResult, fd: ForecastDesign, extra_offset_var=None):
    """Rows of Sigma* over the forecast region, as ``rows(start=0, stop=n)``.

    Sigma* is the fitted structure rebuilt over the future cells at the
    fitted omega, with ``extra_offset_var`` added to its diagonal. Rows come
    from ``GammaStructure.sigma_rows``; ``rows()`` is the whole n x n Sigma*.
    """
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
    n = fd.n_arrays * len(fd.cells)
    var = None
    if extra_offset_var is not None:
        var = np.asarray(extra_offset_var, dtype=float).ravel()
        if var.size == 1:
            var = np.full(n, float(var[0]))
        if var.size != n or np.any(var < 0):
            raise DesignError("extra offset variances must be non-negative, length N * n_future")

    def rows(start: int = 0, stop: int = n) -> np.ndarray:
        out = future.sigma_rows(omega, start, stop)
        if var is not None:
            i = np.arange(start, stop)
            out[i - start, i] += var[start:stop]
        return out

    return rows


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
        return ForecastResult(
            y_star=empty,
            x_star_vector=empty,
            x_star=np.full((lay.n_arrays, lay.n_rows, lay.n_cols), np.nan),
            cells=fd.cells,
            reserves=np.zeros(fd.n_arrays),
            reserve_total=0.0,
            reserve_cov=np.zeros((fd.n_arrays, fd.n_arrays)),
            _b=np.zeros((0, 0)),
            _sigma_star_rows=lambda: np.zeros((0, 0)),
        )

    y_star = fd.m_star @ fit.kappa_hat
    if extra_offsets is not None:
        offs = np.asarray(extra_offsets, dtype=float).ravel()
        if offs.size != n:
            raise DesignError(f"extra offsets must have length {n}")
        y_star = y_star + offs

    sigma_star_rows = _process_error(fit, fd, extra_offset_var)
    b = fd.m_star @ fit.r_inv

    def omega_star_panel(start, stop):
        # rows start:stop of Omega* = B B^T + Sigma*, from column start on
        out = sigma_star_rows(start, stop)[:, start:]
        out += b[start:stop] @ b[start:].T
        return out

    x_vec, reserve_cov = grouped_raw_moments(
        y_star, omega_star_panel, np.repeat(np.arange(fd.n_arrays), n_fut), fd.n_arrays
    )
    if float(reserve_cov.sum()) < -1e-9:
        raise NumericalError("total reserve variance is negative")

    grid = np.full((lay.n_arrays, lay.n_rows, lay.n_cols), np.nan)
    i, j = np.array(fd.cells).T
    grid[:, i - 1, j - 1] = x_vec.reshape(fd.n_arrays, n_fut)
    reserves = x_vec.reshape(fd.n_arrays, n_fut).sum(axis=1)

    return ForecastResult(
        y_star=y_star,
        x_star_vector=x_vec,
        x_star=grid,
        cells=fd.cells,
        reserves=reserves,
        reserve_total=float(reserves.sum()),
        reserve_cov=reserve_cov,
        _b=b,
        _sigma_star_rows=sigma_star_rows,
    )


def reserve_correlation(result: ForecastResult) -> float:
    """Implied correlation between the two per-array reserves (N = 2 only)."""
    if result.reserves.size != 2:
        raise NumericalError("reserve correlation is defined for exactly two arrays")
    se1, se2 = result.std_errors
    if se1 == 0.0 or se2 == 0.0:
        raise NumericalError("a reserve has zero standard error")
    return float(result.reserve_cov[0, 1]) / (se1 * se2)


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
