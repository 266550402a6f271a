import numpy as np
import pytest

import commonshock as cs
from commonshock.arrays import ArrayLayout
from commonshock.covariance import CellwiseTwoLevel
from commonshock.lognormal import LogNormalSummary, block_covariance, block_raw_moments
from conftest import fitted_raw, toy_design


def test_raw_mean_degenerate():
    s = LogNormalSummary([0.0], [[0.0]])
    assert cs.raw_mean(s, 0) == 1.0


def test_raw_mean_half_variance_term():
    s = LogNormalSummary([0.0], [[2.0 * np.log(2.0)]])
    assert cs.raw_mean(s, 0) == pytest.approx(2.0, rel=1e-14)


def test_raw_mean_monte_carlo():
    rng = np.random.default_rng(21)
    draws = np.exp(rng.normal(1.0, 0.5, size=200_000))
    s = LogNormalSummary([1.0], [[0.25]])
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - cs.raw_mean(s, 0)) < 3 * se


def test_raw_cov_independence_and_diagonal():
    s = LogNormalSummary([0.1, -0.2], [[0.04, 0.0], [0.0, 0.09]])
    assert cs.raw_cov(s, 0, 1) == 0.0
    m0 = cs.raw_mean(s, 0)
    assert cs.raw_cov(s, 0, 0) == pytest.approx(m0**2 * np.expm1(0.04), rel=1e-12)


def test_raw_cov_bivariate_monte_carlo():
    cov = np.array([[0.04, 0.01], [0.01, 0.09]])
    s = LogNormalSummary([0.0, 0.0], cov)
    rng = np.random.default_rng(33)
    z = rng.multivariate_normal([0.0, 0.0], cov, size=400_000)
    x = np.exp(z)
    prod = (x[:, 0] - x[:, 0].mean()) * (x[:, 1] - x[:, 1].mean())
    se = prod.std(ddof=1) / np.sqrt(x.shape[0])
    emp = prod.mean()
    assert abs(emp - cs.raw_cov(s, 0, 1)) < 3 * se


def test_raw_cov_symmetric_nonnegative_variance():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4))
    s = LogNormalSummary(rng.normal(size=4), a @ a.T)
    cov = cs.raw_cov(s)
    np.testing.assert_allclose(cov, cov.T, rtol=1e-12)
    assert np.all(np.diag(cov) >= 0.0)


def test_raw_mean_monotone_in_location_and_variance():
    base = LogNormalSummary([0.3], [[0.2]])
    up_loc = LogNormalSummary([0.4], [[0.2]])
    up_var = LogNormalSummary([0.3], [[0.3]])
    assert cs.raw_mean(up_loc, 0) > cs.raw_mean(base, 0)
    assert cs.raw_mean(up_var, 0) > cs.raw_mean(base, 0)


def test_constant_log_variance_means_constant_cov():
    # equal diagonal entries imply one coefficient of variation for all cells
    s2 = 0.17
    s = LogNormalSummary([0.0, 1.0, -2.0], s2 * np.eye(3))
    means = cs.raw_mean(s)
    sds = np.sqrt(np.diag(cs.raw_cov(s)))
    np.testing.assert_allclose(sds / means, np.sqrt(np.expm1(s2)), rtol=1e-12)


def test_overflow_guard():
    s = LogNormalSummary([800.0], [[1.0]])
    with pytest.raises(cs.NumericalError, match="overflow"):
        cs.raw_mean(s)


def test_fitted_raw_zero_variance_is_plain_exp():
    s = LogNormalSummary([0.5, 1.5], np.zeros((2, 2)))
    np.testing.assert_allclose(cs.raw_mean(s), np.exp([0.5, 1.5]), rtol=1e-14)


def test_fitted_raw_saturated_model():
    # a saturated fit reproduces the data inflated by exp(s2 / 2)
    lay = ArrayLayout.full(1, 2, 2)
    design = toy_design(lay, shared_mean=False)  # free cell means saturate
    rng = np.random.default_rng(8)
    vals = np.exp(rng.normal(size=(1, 2, 2)))
    coll = cs.ClaimCollection(lay, vals)
    y = cs.stack_log(coll)
    s2 = 0.09
    sigma = cs.SigmaModel(CellwiseTwoLevel(1, 4), [0.0, s2])
    fit = cs.gls_fit(y, design, sigma)
    np.testing.assert_allclose(fit.y_hat, y, atol=1e-10)
    cells, cov = fitted_raw(fit)
    np.testing.assert_allclose(cells[0], vals[0] * np.exp(0.5 * s2), rtol=1e-9)


def test_fitted_raw_reference_shapes(ref_fit):
    cells, cov = fitted_raw(ref_fit["fit"])
    lay = ref_fit["fit"].design.layout
    assert cells.shape == (2, 15, 15)
    assert np.isnan(cells[0, 14, 14])  # outside the fitted triangle
    assert cov.shape == (240, 240)
    assert np.isfinite(cells[0][lay.mask]).all()


def test_nan_exponent_guard():
    # NaN compares false with every bound, so the guard asks for <= on all
    s = LogNormalSummary([np.nan, 0.0], np.eye(2))
    with pytest.raises(cs.NumericalError, match="NaN"):
        cs.raw_mean(s)


@pytest.mark.parametrize("shared", [True, False], ids=["shared_blocks", "per_pair_blocks"])
def test_block_moments_match_the_dense_kronecker_form(shared):
    # three arrays of 300 cells (three chunks), Sigma in loading form written
    # densely with np.kron; without B columns and with an equal offset
    # variance per array the pairs share blocks, with them each is its own
    rng = np.random.default_rng(21)
    n_arrays, cells = 3, 300

    def psd(k, scale):
        g = rng.normal(size=(k, k))
        return scale * g @ g.T / k

    C = psd(n_arrays, 0.01) + 0.01 * np.eye(n_arrays)
    terms = (
        (psd(n_arrays, 0.01), rng.normal(size=(cells, 4)) / 2),
        (0.02 * np.eye(n_arrays), np.eye(cells)[:, :50]),
    )
    B = np.zeros((n_arrays * cells, 0)) if shared else rng.normal(size=(n_arrays * cells, 5)) / 10
    var = np.tile(rng.uniform(0, 0.05, cells), n_arrays)
    dense = B @ B.T + np.kron(C, np.eye(cells)) + np.diag(var)
    for G, F in terms:
        dense += np.kron(G, F @ F.T)
    location = rng.normal(size=n_arrays * cells)
    omega = block_covariance(C, terms, B, var)
    assert np.array_equal(omega, omega.T)
    assert np.max(np.abs(omega - dense)) <= 1e-14 * np.max(np.abs(dense))
    means, S = block_raw_moments(location, C, terms, B, var)
    summary = LogNormalSummary(location, dense)
    by_array = np.kron(np.eye(n_arrays), np.ones((cells, 1)))
    want = by_array.T @ cs.raw_cov(summary) @ by_array
    np.testing.assert_allclose(means, cs.raw_mean(summary), rtol=1e-12)
    assert np.max(np.abs(S - want)) <= 1e-12 * np.max(np.abs(want))
