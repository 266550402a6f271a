"""Tweedie family algebra and the log-Tweedie shock moment structure.

The additive-form family Tw*_p(theta, lambda) has cumulant function
b_p(theta) = ((alpha - 1) / alpha) (theta / (alpha - 1))^alpha with
alpha = (2 - p) / (1 - p), p = 1 handled as the exponential limit. Scaling
and convolution act on (theta, lambda) in closed form, which is what makes
the common-shock decomposition of logged observations tractable: each scaled
shock component stays in the family with the same theta as the idiosyncratic
term, so means, variances, and correlations of the logged cells reduce to
coefficient-of-variation ratios. The correlation of the stacked cells is a
covariance structure like the model's: the diagonal-scalar structure over
the design's shock blocks, scaled by those ratios, at unit components.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .covariance import DiagonalScalar
from .design import _CellRows
from .errors import ConfigError, NumericalError
from .partitions import Partition


@dataclass(frozen=True)
class TweedieParams:
    """Additive-form parameters (p, theta, lam).

    ``alpha_index`` is the exponent alpha = (2 - p) / (1 - p); the name
    avoids collision with the shock coefficients alpha_ij. Domain: p outside
    (0, 1); lam > 0; theta > 0 for p < 1 and theta < 0 for p > 1 (any theta
    at p = 1).
    """

    p: float
    theta: float
    lam: float

    def __post_init__(self):
        if 0.0 < self.p < 1.0:
            raise ConfigError(f"no Tweedie distribution exists for p = {self.p}")
        if not self.lam > 0.0:
            raise ConfigError("dispersion lam must be positive")
        if self.p < 1.0 and not self.theta > 0.0:
            raise ConfigError(f"theta must be positive for p = {self.p}")
        if self.p > 1.0 and not self.theta < 0.0:
            raise ConfigError(f"theta must be negative for p = {self.p}")

    @property
    def alpha_index(self) -> float:
        if self.p == 1.0:
            return np.inf
        return (2.0 - self.p) / (1.0 - self.p)


def tweedie_mean_var(params: TweedieParams):
    """Mean and variance: lam base^(alpha-1) and lam base^(alpha-2) with
    base = theta / (alpha - 1); the p = 1 limit gives mean = var = lam e^theta."""
    if params.p == 1.0:
        m = params.lam * np.exp(params.theta)
        return m, m
    alpha = params.alpha_index
    base = params.theta / (alpha - 1.0)
    return params.lam * base ** (alpha - 1.0), params.lam * base ** (alpha - 2.0)


def tweedie_from_moments(mean: float, variance: float, p: float) -> TweedieParams:
    """Invert the moment map: theta = (alpha - 1) mean / variance and
    lam = variance^(alpha-1) / mean^(alpha-2).

    For p = 1 the map is degenerate (mean and variance coincide); the
    returned params use lam = variance, theta = ln(mean / lam), valid when
    mean equals variance.
    """
    if not (mean > 0.0 and variance > 0.0):
        raise ConfigError("mean and variance must be positive")
    if p == 1.0:
        lam = variance
        return TweedieParams(p, float(np.log(mean / lam)), lam)
    alpha = (2.0 - p) / (1.0 - p)
    theta = (alpha - 1.0) * mean / variance
    lam = variance ** (alpha - 1.0) / mean ** (alpha - 2.0)
    return TweedieParams(p, float(theta), float(lam))


def tweedie_scale(params: TweedieParams, k: float) -> TweedieParams:
    """Distribution of k X for X ~ Tw*_p(theta, lam): Tw*_p(theta / k, lam k^alpha)."""
    if params.p == 1.0:
        raise ConfigError("scaling leaves the family at p = 1")
    if not k > 0.0:
        raise ConfigError("scale factor must be positive")
    alpha = params.alpha_index
    return TweedieParams(params.p, params.theta / k, params.lam * k**alpha)


def tweedie_add(p1: TweedieParams, p2: TweedieParams) -> TweedieParams:
    """Distribution of the sum of independent variates with equal theta and p."""
    if p1.p != p2.p:
        raise ConfigError("summands must share the power index p")
    if p1.theta != p2.theta:
        raise ConfigError(
            "summands must share theta; the family is not closed under "
            "convolution otherwise"
        )
    return TweedieParams(p1.p, p1.theta, p1.lam + p2.lam)


def tweedie_reproductive(params: TweedieParams) -> TweedieParams:
    """Parameters of X / lam, the reproductive representation:
    Tw*_p(lam theta, lam^(1 - alpha))."""
    return tweedie_scale(params, 1.0 / params.lam)


def shock_component_params(cell: TweedieParams, shock: TweedieParams):
    """Coefficient and distribution of a scaled shock component.

    The admissible coefficient tying a shock ln U ~ Tw*_p(theta_U, lam_U) to
    a cell with idiosyncratic theta is theta_U / theta; the scaled component
    (theta_U / theta) ln U then has parameters (theta, (theta_U / theta)^alpha
    lam_U), the same theta as the cell.
    """
    if cell.p != shock.p:
        raise ConfigError("cell and shock must share the power index p")
    if cell.theta == 0.0:
        raise ConfigError("cell theta must be non-zero")
    coeff = shock.theta / cell.theta
    alpha = cell.alpha_index
    return coeff, TweedieParams(cell.p, cell.theta, shock.lam * coeff**alpha)


@dataclass(frozen=True)
class ShockRatios:
    """CoV ratios u = CoV[ln Z]/CoV[ln U] and w = CoV[ln Z]/CoV[ln W].

    psi = 1 + u^2 + w^2 is the dispersion inflation of the logged cell.
    """

    u: float
    w: float

    def __post_init__(self):
        if self.u < 0 or self.w < 0:
            raise ConfigError("CoV ratios must be non-negative")

    @property
    def psi(self) -> float:
        return 1.0 + self.u**2 + self.w**2

    @classmethod
    def from_params(
        cls,
        cell: TweedieParams,
        shock_across: TweedieParams = None,
        shock_within: TweedieParams = None,
    ) -> "ShockRatios":
        def ratio(shock):
            if shock is None:
                return 0.0
            alpha = cell.alpha_index
            return float(
                np.sqrt((shock.lam / cell.lam) * (shock.theta / cell.theta) ** alpha)
            )

        return cls(ratio(shock_across), ratio(shock_within))


def log_tweedie_moments(cell: TweedieParams, ratios: ShockRatios):
    """Mean and variance of the logged observation: both are the idiosyncratic
    moments inflated by psi."""
    m, v = tweedie_mean_var(cell)
    return ratios.psi * m, ratios.psi * v


def scaled_observation_params(cell: TweedieParams, ratios: ShockRatios) -> TweedieParams:
    """Distribution of the psi-scaled observation Y / psi:
    Tw*_p(theta psi, lam psi^(1 - alpha))."""
    psi = ratios.psi
    alpha = cell.alpha_index
    return TweedieParams(cell.p, cell.theta * psi, cell.lam * psi ** (1.0 - alpha))


def log_tweedie_correlation(partition: Partition, ratios, n_arrays: int) -> np.ndarray:
    """Correlation matrix of the stacked logged observations.

    Entry for ((n, cell), (m, cell')) is
    (delta_subset u u' + delta_nm delta_subset w w' + delta_nm delta_cell)
    / sqrt(psi psi'), with the deltas over shared subset, shared array, and
    identical cell. ``ratios`` is a flat sequence of ShockRatios, array index
    outermost in stacking order. The numerator is the diagonal-scalar
    structure at unit components, with the across and within shock blocks
    of the ``n_arrays`` arrays scaled row by row by u and by w.
    """
    flat = list(ratios)
    n = n_arrays * partition.layout.cells_per_array
    if len(flat) != n:
        raise ConfigError(f"need one ShockRatios per (array, cell): {n}, got {len(flat)}")
    u, w = np.array([[r.u, r.w] for r in flat]).T
    psi = 1.0 + u**2 + w**2
    rows = _CellRows.stacked(replace(partition.layout, n_arrays=n_arrays), partition)
    shocks = DiagonalScalar(u[:, None] * rows.across(), w[:, None] * rows.within())
    return shocks.sigma([1.0, 1.0, 1.0]) / np.sqrt(np.outer(psi, psi))


def gee_weights(y, cell_params, ratios, partition: Partition, n_arrays: int):
    """Scaled observations, regression weights, and working correlation.

    Returns (y_check, weights, correlation): y_check = y / psi per cell has
    mean equal to the idiosyncratic linear predictor alone; the weights
    lam^(p-1) psi make unit-scale identity-link estimating equations carry
    the right cell variances; the correlation matrix couples the equations.
    """
    y = np.asarray(y, dtype=float).ravel()
    params = list(cell_params)
    flat = list(ratios)
    if not (y.size == len(params) == len(flat)):
        raise ConfigError("y, cell_params, and ratios must have equal lengths")
    p_values = {pr.p for pr in params}
    if len(p_values) != 1:
        raise ConfigError("all cells must share the power index p")
    p = p_values.pop()
    psi = np.array([r.psi for r in flat])
    if np.any(psi <= 0):
        raise NumericalError("psi must be positive")
    lam = np.array([pr.lam for pr in params])
    y_check = y / psi
    weights = lam ** (p - 1.0) * psi
    corr = log_tweedie_correlation(partition, flat, n_arrays)
    return y_check, weights, corr
