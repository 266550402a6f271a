"""Moment maps between the log scale and the raw claim scale.

For ln X ~ N(theta, Sigma): E[X_k] = exp(theta_k + Sigma_kk / 2) and
Cov[X_k, X_l] = E[X_k] E[X_l] (exp(Sigma_kl) - 1). Applied to fitted values
and forecasts, with the fitted-mean covariance playing the role of Sigma.
``grouped_raw_moments`` sums that covariance over groups of components from
row blocks of Sigma, for aggregates such as per-array reserves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import unstack
from .errors import NumericalError

# exp saturates near 709 in double precision; reject rather than return inf
_EXP_GUARD = 700.0
# rows of the log-scale covariance that ``grouped_raw_moments`` forms at a time
ROW_BLOCK = 128


@dataclass(frozen=True)
class LogNormalSummary:
    """Location vector and log-scale covariance of a multivariate log-normal."""

    location: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.location, dtype=float).ravel()
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (loc.size, loc.size):
            raise NumericalError("covariance shape does not match the location vector")
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "covariance", cov)


def raw_mean(summary: LogNormalSummary, k: int = None):
    """E[X_k] = exp(theta_k + Sigma_kk / 2); all components when k is None."""
    means = _exp_guarded(summary.location + 0.5 * np.diag(summary.covariance))
    return means if k is None else float(means[k])


def _exp_guarded(exponent: np.ndarray) -> np.ndarray:
    """exp(exponent); NumericalError for an entry above ``_EXP_GUARD`` or NaN."""
    if not np.all(exponent <= _EXP_GUARD):
        raise NumericalError(
            "raw-scale mean would overflow or is undefined (log-scale mean plus "
            f"half variance exceeds {_EXP_GUARD} or is NaN)"
        )
    return np.exp(exponent)


def raw_cov(summary: LogNormalSummary, k: int = None, l: int = None):
    """Cov[X_k, X_l] = E[X_k] E[X_l] (exp(Sigma_kl) - 1); full matrix when unindexed."""
    means = raw_mean(summary)
    cov = np.outer(means, means) * np.expm1(summary.covariance)
    if k is None:
        return cov
    return float(cov[k, l])


def grouped_raw_moments(location, cov_panel, groups, n_groups: int):
    """Raw means and the raw covariance summed over groups of components.

    ``cov_panel(start, stop)`` returns rows start:stop of the log-scale
    covariance Sigma, from column ``start`` on. ``groups`` gives each
    component's group in 0..n_groups-1. Returns (means, S) with means the
    ``raw_mean`` vector and S[a, b] = sum over k in a, l in b of
    mu_k mu_l expm1(Sigma_kl), the n_groups x n_groups covariance of the group
    totals. Sigma is read ``ROW_BLOCK`` rows at a time, last block first, so
    that the means of every column a block reads are already known; a block's
    columns right of its diagonal square count for both S[a, b] and S[b, a],
    so no part below the diagonal is formed, and no n x n array at all.
    """
    loc = np.asarray(location, dtype=float).ravel()
    groups = np.asarray(groups).ravel()
    n = loc.size
    means = np.empty(n)
    weights = np.zeros((n, n_groups))  # mu_k in the column of k's group
    S = np.zeros((n_groups, n_groups))
    for start in range(ROW_BLOCK * ((n - 1) // ROW_BLOCK), -1, -ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n)
        r = stop - start
        panel = cov_panel(start, stop)
        means[start:stop] = _exp_guarded(loc[start:stop] + 0.5 * np.diagonal(panel))
        weights[np.arange(start, stop), groups[start:stop]] = means[start:stop]
        np.expm1(panel, out=panel)
        w = weights[start:stop]
        upper = w.T @ (panel[:, r:] @ weights[stop:])
        S += w.T @ (panel[:, :r] @ w) + upper + upper.T
        del panel  # the next block is formed without this one held
    return means, 0.5 * (S + S.T)


def fitted_raw(fit):
    """Raw-scale fitted values and covariance from a log-scale fit.

    Returns (cells, covariance): ``cells`` has shape (n_arrays, n_rows,
    n_cols) with NaN outside the fitted region, ``covariance`` is the full
    raw-scale covariance in stacking order.
    """
    summary = LogNormalSummary(fit.y_hat, fit.omega_fit)
    means = raw_mean(summary)
    cov = raw_cov(summary)
    return unstack(means, fit.design.layout), cov
