"""Multiplicative common-shock log-normal claim models.

Fit collections of claim arrays whose logged cells follow a linear model
with shared shock components, estimate the location parameters by GLS and
the variance components by maximum likelihood (closed form for the
cell-matched case on any number of arrays), and forecast loss reserves with
the full predictive covariance.
"""

from .arrays import (
    ArrayLayout,
    ClaimCollection,
    diagonal_of,
    future_cells,
    stack_log,
    unstack,
)
from .covariance import (
    CellwiseTwoLevel,
    DiagonalScalar,
    Example48,
    SigmaModel,
    dsigma_domega,
    sigma_inverse_cellwise,
)
from .design import (
    ModelDesign,
    ShockSpec,
    assemble,
    reduce_columns,
)
from .errors import (
    CommonShockError,
    ConfigError,
    DataError,
    DesignError,
    NumericalError,
)
from .estimation import (
    FitResult,
    chain_ladder_effect_table,
    dependence_stats,
    gls_fit,
    ml_dispersion_cellwise,
    ml_dispersion_cellwise_closed_form,
    ml_dispersion_generic,
    profile_score,
)
from .forecast import (
    ForecastResult,
    build_forecast_design,
    gamma_ar1,
    independence_counterfactual_cov,
    predict,
    reserve_correlation,
)
from .kron import kron
from .lognormal import LogNormalSummary, raw_cov, raw_mean
from .partitions import Partition, build_partition
from .simulate import BalanceDiagnostic, SimSpec, balance_diagnostic, simulate
from .tweedie import (
    ShockRatios,
    TweedieParams,
    gee_weights,
    log_tweedie_correlation,
    log_tweedie_moments,
    scaled_observation_params,
    shock_component_params,
    tweedie_add,
    tweedie_from_moments,
    tweedie_mean_var,
    tweedie_reproductive,
    tweedie_scale,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayLayout", "ClaimCollection", "diagonal_of", "future_cells", "stack_log", "unstack",
    "CellwiseTwoLevel", "DiagonalScalar", "Example48", "SigmaModel",
    "dsigma_domega", "sigma_inverse_cellwise",
    "ModelDesign", "ShockSpec", "assemble", "reduce_columns",
    "CommonShockError", "ConfigError", "DataError", "DesignError", "NumericalError",
    "FitResult", "chain_ladder_effect_table", "dependence_stats", "gls_fit",
    "ml_dispersion_cellwise", "ml_dispersion_cellwise_closed_form",
    "ml_dispersion_generic", "profile_score",
    "ForecastResult", "build_forecast_design", "gamma_ar1",
    "independence_counterfactual_cov", "predict", "reserve_correlation",
    "kron",
    "LogNormalSummary", "raw_cov", "raw_mean",
    "Partition", "build_partition",
    "BalanceDiagnostic", "SimSpec", "balance_diagnostic", "simulate",
    "ShockRatios", "TweedieParams", "gee_weights", "log_tweedie_correlation",
    "log_tweedie_moments", "scaled_observation_params", "shock_component_params",
    "tweedie_add", "tweedie_from_moments", "tweedie_mean_var",
    "tweedie_reproductive", "tweedie_scale",
]
