"""Forecasting future cells and aggregating loss reserves.

The forecast mean is M* kappa with M* built by the same design rules as the
fitted rows. Its covariance Omega* adds parameter error M* Var[kappa] M*^T
and process error Sigma*, the same shock structure evaluated over the
forecast region (future shocks are fresh draws, shared within subsets of
the region and across arrays for the across-array shock; covariances
between observed and future cells are not carried). Raw-scale forecasts
and reserve moments then follow from the log-normal moment maps.

``predict`` needs only per-array sums of the raw-scale covariance. It hands
``lognormal.block_raw_moments`` Omega* in the loading form of ``_loading_form``,

    Omega* = B B^T + sum_t G_t (x) F_t F_t^T + C (x) I + diag(var),

which is read by array-pair blocks with no n x n matrix, n = N * n_future.
The dense Omega* (``lognormal.block_covariance`` of the same form) and the
raw-scale covariance are formed only when ``ForecastResult.omega_star`` or
``xi_star`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .covariance import structure_for
from .design import ModelDesign, frame_times
from .errors import DesignError, NumericalError
from .estimation import FitResult
from .kron import array_frame
from .lognormal import LogNormalSummary, block_covariance, block_raw_moments, raw_cov

# raw_mean is unused here but stays a module attribute: perfbench/tracer.py
# wraps this module's raw_mean and raw_cov
from .lognormal import raw_mean  # noqa: F401


@dataclass(frozen=True)
class ForecastDesign:
    """Forecast rows over the future region, M* = [X* | I_N (x) C0*].

    The forecast applies M* by its blocks (``times``) and never forms it.
    """

    x_star: np.ndarray  # (N * n_future, s_x) kept shock-mean columns
    c0_star: np.ndarray  # (n_future, r0) kept idiosyncratic columns of one array
    cells: tuple  # future cells, one array's worth, stacking order
    n_arrays: int

    @cached_property
    def m_star(self) -> np.ndarray:
        """The dense reduced-design rows M*, (N * n_future, n_params). No
        forecast reads it: perfbench/tracer.py is its only reader."""
        return array_frame(self.x_star, self.c0_star, self.n_arrays)

    @property
    def n_params(self) -> int:
        return self.x_star.shape[1] + self.n_arrays * self.c0_star.shape[1]

    def times(self, v: np.ndarray) -> np.ndarray:
        """M* v, by blocks (``design.frame_times``)."""
        return frame_times(self.x_star, self.c0_star, v, self.n_arrays)


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
    _omega_star_form: tuple = field(repr=False)  # (C, terms, B, var) of Omega*, see predict
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

        It is ``lognormal.block_covariance`` of ``predict``'s loading form,
        written from the blocks the reserve moments read and exactly
        symmetric.
        """
        if self._omega_star is None:
            object.__setattr__(self, "_omega_star", block_covariance(*self._omega_star_form))
        return self._omega_star

    @property
    def xi_star(self) -> np.ndarray:
        """The raw-scale predictive covariance, ``raw_cov`` of (y_star, omega_star)."""
        if self._xi_star is None:
            summary = LogNormalSummary(self.y_star, self.omega_star)
            object.__setattr__(self, "_xi_star", raw_cov(summary))
        return self._xi_star


def build_forecast_design(design, cells) -> ForecastDesign:
    """Reduced-design rows for the given future cells.

    Raises DesignError when some cell's mean involves a parameter the
    observed data never identified (a shock mean of an unobserved subset,
    for instance); such effects must be supplied by hand as forecast
    offsets, with an AR(1) extrapolation where a calendar pattern is wanted.
    """
    cells = tuple(cells)
    x_star, c0_star = design.blocks_for_cells(cells)
    return ForecastDesign(x_star, c0_star, cells, design.layout.n_arrays)


def _offset_variance(extra_offset_var, n: int):
    """``extra_offset_var`` as one entry per future row, or None.

    A single value is repeated over the n rows; DesignError rejects any
    other length and an entry that is not finite and non-negative.
    """
    if extra_offset_var is None:
        return None
    var = np.asarray(extra_offset_var, dtype=float).ravel()
    if var.size == 1:
        var = np.full(n, float(var[0]))
    if var.size != n or not np.all(np.isfinite(var) & (var >= 0)):
        raise DesignError(
            "extra offset variances must be finite and non-negative, length N * n_future"
        )
    return var


def _future_structure(fit: FitResult, fd: ForecastDesign):
    """The fitted structure rebuilt over the forecast region. The shock
    blocks over the region are formed once, and only where the structure
    reads them."""
    structure = fit.sigma.structure
    if structure.kind is None:
        raise NumericalError(
            "forecasting under a non-identity development operator needs an "
            "explicit operator for the future region; none is defined"
        )
    blocks = cache(lambda: fit.design.shock_blocks_for_cells(fd.cells))
    future = structure_for(
        structure.kind, fd.n_arrays, len(fd.cells), lambda: blocks()[0], lambda: blocks()[1]
    )
    if future.omega_names != structure.omega_names:
        raise NumericalError("future shock blocks do not match the fitted covariance structure")
    return future


def _loading_form(fit: FitResult, fd: ForecastDesign):
    """(C, terms, B) of Omega* for ``fit``: B = M* r_inv, Sigma* at the
    fitted omega and, for a fit that keeps ``FitResult.frame`` = (C, R0^-1),
    the term (C, E), E = C0* R0^-1.

    Sigma* is read off a structure over the region: the fit's own where no
    term has a cell side, since such a structure does not depend on the
    cells, and otherwise the fitted one rebuilt over the region
    (``_future_structure``). Where that structure has
    ``identity_cell_side``, Sigma* = C (x) I with C its one group side;
    otherwise it is the structure's ``loading_form``. A one-array side
    (the arrays' shock blocks differ) has F_t over every array, so each
    G_t F_t F_t^T joins B as sqrt(G_t) F_t and C becomes C I_N."""
    structure = fit.sigma.structure
    omega = fit.omega_hat if fit.omega_hat is not None else fit.sigma.omega
    if any(t.F is not None for t in structure.terms):
        structure = _future_structure(fit, fd)
    if structure.identity_cell_side:
        C, terms = structure.group_sides(omega)[0], ()
    else:
        C, terms = structure.loading_form(omega)
    B = fd.times(fit.r_inv)
    if len(C) != fd.n_arrays:
        B = np.column_stack([B, *(np.sqrt(G[0, 0]) * F for G, F in terms)])
        C, terms = C[0, 0] * np.eye(fd.n_arrays), ()
    if fit.frame is not None:
        terms = (*terms, (fit.frame[0], fd.c0_star @ fit.frame[1]))
    return C, terms, B


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
    It also rejects a fit made on anything but a ``ModelDesign`` (a bare
    matrix has no rule for the future cells) and forecast rows whose
    columns are not the fit's parameters.
    """
    if not isinstance(fit.design, ModelDesign):
        raise DesignError("forecasting needs a fit on a ModelDesign, not on a bare matrix")
    if fd.n_params != fit.kappa_hat.size:
        raise DesignError(
            f"forecast rows have {fd.n_params} columns, the fit has "
            f"{fit.kappa_hat.size} parameters: build them from the fit's design"
        )
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
            _omega_star_form=(np.zeros((fd.n_arrays,) * 2), (), np.zeros((0, 0)), None),
        )

    y_star = fd.times(fit.kappa_hat)
    if extra_offsets is not None:
        offs = np.asarray(extra_offsets, dtype=float).ravel()
        if offs.size != n or not np.all(np.isfinite(offs)):
            raise DesignError(f"extra offsets must be finite, length {n}")
        y_star = y_star + offs

    form = (*_loading_form(fit, fd), _offset_variance(extra_offset_var, n))
    x_vec, reserve_cov = block_raw_moments(y_star, *form)
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
        _omega_star_form=form,
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
    if not isinstance(horizon, (int, np.integer)) or horizon < 1:
        raise DesignError(f"horizon must be an integer of at least 1, not {horizon!r}")
    eps = np.zeros(horizon) if noise is None else np.asarray(noise, dtype=float).ravel()
    if eps.size != horizon:
        raise DesignError("noise must have one draw per forecast step")
    out = np.empty(horizon)
    prev = gamma_tmax
    for t in range(horizon):
        prev = gamma_bar + rho * (prev - gamma_bar) + eps[t]
        out[t] = prev
    return out
