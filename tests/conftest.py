import numpy as np
import pytest

import commonshock as cs
from commonshock.datasets import load_bundled_rectangles


@pytest.fixture(scope="session")
def bundled():
    return load_bundled_rectangles()


@pytest.fixture(scope="session")
def ref_fit(bundled):
    """Reference fit of the bundled rectangles: triangle region (t <= 15),
    cell-matched shock, chain-ladder means, closed-form dispersion."""
    fit_coll = bundled.restrict_to_diagonals(15)
    lay = fit_coll.layout
    part = cs.build_partition("cell", lay)
    shock = cs.ShockSpec(partition=part, include_across=True, shared_across_mean=True)
    design = cs.assemble(lay, shock, "chain_ladder")
    y = cs.stack_log(fit_coll)
    fit = cs.ml_dispersion_cellwise(y, design)
    return {"fit": fit, "design": design, "y": y, "fit_coll": fit_coll, "full": bundled}


@pytest.fixture(scope="session")
def ref_forecast(ref_fit):
    design = ref_fit["design"]
    region = cs.future_cells(design.layout, 15)
    fd = cs.build_forecast_design(design, region)
    return cs.predict(ref_fit["fit"], fd)


def toy_design(layout, kind="cell", shared_mean=True, include_within=False, variant="chain_ladder"):
    part = cs.build_partition(kind, layout)
    shock = cs.ShockSpec(
        partition=part,
        include_across=True,
        include_within=include_within,
        shared_across_mean=shared_mean,
    )
    return cs.assemble(layout, shock, variant)


def simulate_two_level(layout, sigma, v, seed, rows=None, cols=None, mean_log=0.0):
    """Small-scale generator for estimation tests: cell-matched shocks."""
    rng = np.random.default_rng(seed)
    n, I, J = layout.n_arrays, layout.n_rows, layout.n_cols
    rows = np.ones((n, I)) if rows is None else rows
    cols = np.ones((n, J)) if cols is None else cols
    shock = rng.normal(mean_log, sigma, size=(I, J))
    vals = np.full((n, I, J), np.nan)
    for m in range(n):
        eps = rng.normal(0.0, v, size=(I, J))
        vals[m] = np.where(
            layout.mask,
            np.exp(shock + np.log(rows[m])[:, None] + np.log(cols[m])[None, :] + eps),
            np.nan,
        )
    return cs.ClaimCollection(layout, vals)


def fitted_raw(fit):
    """Raw-scale fitted values and covariance from a log-scale fit, the dense
    reference: (cells, covariance), ``cells`` of shape (n_arrays, n_rows,
    n_cols) with NaN outside the fitted region, ``covariance`` the full
    raw-scale covariance in stacking order."""
    summary = cs.LogNormalSummary(fit.y_hat, fit.omega_fit)
    return cs.unstack(cs.raw_mean(summary), fit.design.layout), cs.raw_cov(summary)
