"""Forecasting future cells and aggregating loss reserves.

The forecast mean is M* kappa with M* built by the same design rules as the
fitted rows. Its covariance Omega* adds parameter error M* Var[kappa] M*^T
and process error Sigma*, the same shock structure evaluated over the
forecast region (future shocks are fresh draws, shared within subsets of
the region and across arrays for the across-array shock; covariances
between observed and future cells are not carried). Raw-scale forecasts
and reserve moments then follow from the log-normal moment maps.

``predict`` needs only per-array sums of the raw-scale covariance, so it
reads Omega* in row panels (``lognormal.grouped_raw_moments``) and forms no
n x n matrix, n = N * n_future. Where the fit keeps its array frame
(``FitResult.frame``), both terms are Kronecker products there: the
parameter error is C (x) E E^T plus the rank-s_x part of the shock-mean
columns, Sigma* is C* (x) I, and a panel is written block by block from
E's rows (``_frame_panel``), with no n x m matrix and no row of Sigma*.
Every other fit writes the parameter error as B B^T with B = M* r_inv and
reads Sigma*'s rows from ``GammaStructure.sigma_rows`` (``_dense_panel``).
Either closure is the one source of Omega*'s panels: the dense Omega* is
its panel over every row, and it and the raw-scale covariance are formed
only when ``ForecastResult.omega_star`` or ``xi_star`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .covariance import structure_for
from .design import ModelDesign
from .errors import DesignError, NumericalError
from .estimation import FitResult

# raw_mean is unused here but stays a module attribute: perfbench/tracer.py
# wraps this module's raw_mean and raw_cov
from .lognormal import LogNormalSummary, grouped_raw_moments, raw_cov, raw_mean  # noqa: F401


@dataclass(frozen=True)
class ForecastDesign:
    """Forecast rows and the process-error pieces over the future region.

    The shock blocks A* and B* are formed on first read: only the
    diagonal-scalar structure's process error reads them.
    """

    m_star: np.ndarray  # (N * n_future, n_params) reduced-design rows
    cells: tuple  # future cells, one array's worth, stacking order
    n_arrays: int
    design: ModelDesign = field(repr=False)

    @cached_property
    def _shock_blocks(self) -> tuple:
        return self.design.shock_blocks_for_cells(self.cells)

    @property
    def a_star(self) -> np.ndarray:
        """The across-array shock block over the region."""
        return self._shock_blocks[0]

    @property
    def b_star(self) -> np.ndarray:
        """The within-array shock block over the region."""
        return self._shock_blocks[1]


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
    _omega_star_panel: object = field(repr=False)  # (start, stop) -> rows of Omega*, see predict
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
        """Omega* = M* Var[kappa] M*^T + Sigma*, the log-scale predictive covariance.

        It is ``predict``'s panel over every row. Over every row each
        product in the panel is a matrix times its own transpose (E E^T, or
        B B^T, and the rank-s_x part), which BLAS forms exactly symmetric,
        so Omega* needs no symmetrizing pass.
        """
        if self._omega_star is None:
            n = self.y_star.size
            object.__setattr__(self, "_omega_star", self._omega_star_panel(0, n))
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
    return ForecastDesign(
        m_star=design.rows_for_cells(cells),
        cells=cells,
        n_arrays=design.layout.n_arrays,
        design=design,
    )


def _process_error(fit: FitResult, fd: ForecastDesign, extra_offset_var=None):
    """(future, omega, var): Sigma* over the forecast region and its extra diagonal.

    Sigma* is the fitted structure rebuilt over the future cells, ``future``,
    at the fitted ``omega``, with ``extra_offset_var`` added to its diagonal:
    ``var``, one entry per future row, or None.
    """
    structure = fit.sigma.structure
    omega = fit.omega_hat if fit.omega_hat is not None else fit.sigma.omega
    if structure.kind is None:
        raise NumericalError(
            "forecasting under a non-identity development operator needs an "
            "explicit operator for the future region; none is defined"
        )
    future = structure_for(
        structure.kind, fd.n_arrays, len(fd.cells), lambda: fd.a_star, lambda: fd.b_star
    )
    if future.omega_names != structure.omega_names:
        raise NumericalError("future shock blocks do not match the fitted covariance structure")
    n = fd.n_arrays * len(fd.cells)
    var = None
    if extra_offset_var is not None:
        var = np.asarray(extra_offset_var, dtype=float).ravel()
        if var.size == 1:
            var = np.full(n, float(var[0]))
        if var.size != n or not np.all(np.isfinite(var) & (var >= 0)):
            raise DesignError(
                "extra offset variances must be finite and non-negative, length N * n_future"
            )
    return future, omega, var


def _add_diagonal(out: np.ndarray, var, start: int, stop: int) -> None:
    """Add var[start:stop] on the diagonal of rows start:stop, columns from start on."""
    if var is not None:
        i = np.arange(stop - start)
        out[i, i] += var[start:stop]


def _dense_panel(fit: FitResult, fd: ForecastDesign, future, omega, var):
    """Rows of Omega* = B B^T + Sigma*, with B = M* r_inv and Sigma*'s rows
    from ``GammaStructure.sigma_rows``."""
    b = fd.m_star @ fit.r_inv

    def panel(start, stop):
        out = future.sigma_rows(omega, start, stop)[:, start:]
        _add_diagonal(out, var, start, stop)
        out += b[start:stop] @ b[start:].T
        return out

    return panel


def _frame_panel(fit: FitResult, fd: ForecastDesign, c_star: np.ndarray, var):
    """Rows of Omega* in the array frame, for a fit that keeps ``frame``.

    With M* = [X* | I_N (x) C0*] and Var[kappa] = r_inv r_inv^T, whose
    idiosyncratic block is C (x) R0^-1 R0^-T (``FitResult.frame``),
    Omega* = (P Lx)(P Lx)^T + C (x) E E^T + C* (x) I, with E = C0* R0^-1,
    P Lx = M* r_inv[:, :s_x] and Sigma* = C* (x) I. A panel's block (a, b) is
    C[a, b] h + C*[a, b] I with h = E[p0:p1] E^T formed once per array, so
    neither B nor any row of Sigma* is formed.
    """
    C, r0_inv = fit.frame
    n_arrays, n_fut = fd.n_arrays, len(fd.cells)
    s = fd.m_star.shape[1] - n_arrays * r0_inv.shape[0]
    E = fd.m_star[:n_fut, s : s + r0_inv.shape[0]] @ r0_inv
    pl = fd.m_star @ fit.r_inv[:, :s] if s else None

    def panel(start, stop):
        out = np.empty((stop - start, n_arrays * n_fut - start))
        # every array but the last reads all of h's columns, the last its cells c0:
        c0 = max(start - (n_arrays - 1) * n_fut, 0)
        for a in range(start // n_fut, (stop - 1) // n_fut + 1):
            # the rows of array a inside start:stop are its cells p0:p1
            p0, p1 = max(start - a * n_fut, 0), min(stop - a * n_fut, n_fut)
            h = E[p0:p1] @ E[c0:].T
            rows = slice(a * n_fut + p0 - start, a * n_fut + p1 - start)
            for b in range(start // n_fut, n_arrays):
                # the columns of array b from start on are its cells q0:
                q0 = max(start - b * n_fut, 0)
                col = b * n_fut - start
                np.multiply(h[:, q0 - c0 :], C[a, b], out=out[rows, col + q0 : col + n_fut])
                diag = np.arange(max(p0, q0), p1)
                out[diag + (a * n_fut - start), diag + col] += c_star[a, b]
        _add_diagonal(out, var, start, stop)
        if pl is not None:
            out += pl[start:stop] @ pl[start:].T
        return out

    return panel


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
    process-error diagonal. DesignError rejects either when it has the
    wrong length or an entry that is not finite, and a negative variance.
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
            _omega_star_panel=lambda start, stop: np.zeros((0, 0)),
        )

    y_star = fd.m_star @ fit.kappa_hat
    if extra_offsets is not None:
        offs = np.asarray(extra_offsets, dtype=float).ravel()
        if offs.size != n or not np.all(np.isfinite(offs)):
            raise DesignError(f"extra offsets must be finite, length {n}")
        y_star = y_star + offs

    future, omega, var = _process_error(fit, fd, extra_offset_var)
    if fit.frame is not None and future.identity_cell_side:
        omega_star_panel = _frame_panel(fit, fd, future.kron_form(omega)[0], var)
    else:
        omega_star_panel = _dense_panel(fit, fd, future, omega, var)

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
        _omega_star_panel=omega_star_panel,
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
