import numpy as np
import pytest

import commonshock as cs
from commonshock.arrays import ArrayLayout
from commonshock.covariance import CellwiseTwoLevel, structure_for
from conftest import simulate_two_level, toy_design


def small_fit(sigma2=0.01, v2=0.04, seed=1, size=4):
    lay = ArrayLayout.triangle(2, size)
    coll = simulate_two_level(lay, np.sqrt(sigma2), np.sqrt(v2), seed)
    design = toy_design(lay)
    y = cs.stack_log(coll)
    fit = cs.gls_fit(y, design, cs.SigmaModel(CellwiseTwoLevel(2, lay.cells_per_array), [sigma2, v2]))
    return fit, design, lay


def test_empty_future_region_gives_zero_reserves():
    fit, design, lay = small_fit()
    fd = cs.build_forecast_design(design, [])
    res = cs.predict(fit, fd)
    assert res.reserve_total == 0.0
    assert res.std_error_total == 0.0
    assert np.all(res.reserves == 0.0)


def test_reference_forecast_region_dimensions(ref_fit):
    design = ref_fit["design"]
    region = cs.future_cells(design.layout, 15)
    fd = cs.build_forecast_design(design, region)
    assert fd.m_star.shape == (210, 58)  # both arrays' lower triangles
    assert fd.a_star.shape == (210, 105)


def test_future_rows_reuse_fitted_columns(ref_fit):
    design = ref_fit["design"]
    fd = cs.build_forecast_design(design, [(15, 2)])
    row = fd.m_star[0]  # array 1
    idx = dict(zip(design.labels, range(len(design.labels))))
    assert row[idx[("chi", 1, 15)]] == 1.0
    assert row[idx[("col", 1, 2)]] == 1.0
    assert np.count_nonzero(row) == 2


def test_predict_deterministic(ref_fit, ref_forecast):
    design = ref_fit["design"]
    region = cs.future_cells(design.layout, 15)
    fd = cs.build_forecast_design(design, region)
    again = cs.predict(ref_fit["fit"], fd)
    assert np.array_equal(again.x_star_vector, ref_forecast.x_star_vector)
    assert np.array_equal(again.xi_star, ref_forecast.xi_star)
    assert again.reserve_total == ref_forecast.reserve_total


def test_total_is_sum_of_parts(ref_forecast):
    assert ref_forecast.reserve_total == pytest.approx(
        float(ref_forecast.reserves.sum()), abs=1e-9
    )


def test_process_error_only_increases_variance(ref_fit):
    fit = ref_fit["fit"]
    design = ref_fit["design"]
    region = cs.future_cells(design.layout, 15)
    fd = cs.build_forecast_design(design, region)
    res = cs.predict(fit, fd)
    param_only = fd.m_star @ fit.var_kappa @ fd.m_star.T
    eigs = np.linalg.eigvalsh(0.5 * (param_only + param_only.T))
    assert eigs.min() > -1e-10  # parameter-error part alone is psd
    assert np.all(np.diag(res.omega_star) >= np.diag(param_only) - 1e-12)
    eigs_full = np.linalg.eigvalsh(res.omega_star)
    assert eigs_full.min() > -1e-10


def test_reserve_correlation_zero_without_shared_shock():
    fit, design, lay = small_fit(sigma2=0.0, v2=0.05, seed=4)
    region = cs.future_cells(lay, lay.n_rows)
    fd = cs.build_forecast_design(design, region)
    res = cs.predict(fit, fd)
    assert cs.reserve_correlation(res) == pytest.approx(0.0, abs=1e-10)


def test_reserve_correlation_duplicated_arrays(bundled):
    # both arrays carry identical data; with the shock variance dominating,
    # the implied reserve correlation approaches one
    vals = np.stack([bundled.values[0], bundled.values[0]])
    dup = cs.ClaimCollection(bundled.layout, vals).restrict_to_diagonals(15)
    design = toy_design(dup.layout)
    y = cs.stack_log(dup)
    sigma = cs.SigmaModel(CellwiseTwoLevel(2, 120), [0.05, 1e-4])
    fit = cs.gls_fit(y, design, sigma)
    fd = cs.build_forecast_design(design, cs.future_cells(dup.layout, 15))
    res = cs.predict(fit, fd)
    assert cs.reserve_correlation(res) > 0.95


def test_reserve_correlation_reference_value(ref_forecast):
    assert cs.reserve_correlation(ref_forecast) == pytest.approx(0.229, abs=0.01)


def test_independence_counterfactual(ref_forecast):
    icov = cs.independence_counterfactual_cov(ref_forecast)
    expected = np.sqrt(np.sum(ref_forecast.std_errors**2)) / ref_forecast.reserve_total
    assert icov == pytest.approx(expected, rel=1e-12)
    assert icov <= ref_forecast.cov_total  # positive dependence here


def test_forecasts_invariant_to_gauge(ref_fit):
    # refit in an alternative gauge (different aliased column dropped) and
    # compare the forecast means: identified quantities must not move
    from commonshock.design import reduce_columns

    design = ref_fit["design"]
    y = ref_fit["y"]
    fit = ref_fit["fit"]
    region = cs.future_cells(design.layout, 15)
    m_full = design.full_rows_for_cells(region)

    priority = [0] + list(range(1, design.M_full.shape[1]))  # keep the shock mean
    kept, *_ = reduce_columns(design.M_full, priority)
    alt_M = design.M_full[:, kept]
    sigma = fit.sigma
    q, r = np.linalg.qr(sigma.whiten(alt_M))
    kappa_alt = np.linalg.solve(r, q.T @ sigma.whiten(y))
    y_star_alt = m_full[:, kept] @ kappa_alt

    fd = cs.build_forecast_design(design, region)
    y_star = fd.m_star @ fit.kappa_hat
    np.testing.assert_allclose(y_star_alt, y_star, atol=1e-8)


def test_extra_offsets_shift_log_means(ref_fit):
    design = ref_fit["design"]
    fit = ref_fit["fit"]
    region = [(15, 2), (15, 3)]
    fd = cs.build_forecast_design(design, region)
    base = cs.predict(fit, fd)
    shifted = cs.predict(fit, fd, extra_offsets=np.full(4, 0.1))
    np.testing.assert_allclose(
        shifted.x_star_vector, base.x_star_vector * np.exp(0.1), rtol=1e-12
    )
    widened = cs.predict(fit, fd, extra_offset_var=0.05)
    assert np.all(np.diag(widened.omega_star) > np.diag(base.omega_star))


def test_identity_operator_per_array_process_error():
    # per-array noise scales propagate into the forecast process error
    lay = ArrayLayout.triangle(2, 4)
    coll = simulate_two_level(lay, 0.1, 0.15, seed=6)
    design = toy_design(lay)
    y = cs.stack_log(coll)
    eye = np.eye(lay.cells_per_array)
    structure = cs.Example48(2, eye, eye)
    omega = [0.01, 0.0, 0.0, 0.02, 0.05]
    fit = cs.gls_fit(y, design, cs.SigmaModel(structure, omega))
    fd = cs.build_forecast_design(design, cs.future_cells(lay, 4))
    res = cs.predict(fit, fd)
    n_fut = len(fd.cells)
    process = res.omega_star - fd.m_star @ fit.var_kappa @ fd.m_star.T
    np.testing.assert_allclose(np.diag(process)[:n_fut], 0.01 + 0.02, atol=1e-12)
    np.testing.assert_allclose(np.diag(process)[n_fut:], 0.01 + 0.05, atol=1e-12)


def process_error(fit, fd):
    """Sigma* as predict adds it: omega_star less the parameter error."""
    res = cs.predict(fit, fd)
    return res.omega_star - fd.m_star @ fit.var_kappa @ fd.m_star.T


def test_within_shock_process_error():
    # diagonal_scalar with within shocks on the row partition: the future
    # region gets its own A* and B* blocks
    lay = ArrayLayout.triangle(2, 5)
    coll = simulate_two_level(lay, 0.1, 0.15, seed=8)
    design = toy_design(lay, kind="row", include_within=True)
    s2, t2, v2 = 0.01, 0.02, 0.03
    structure = cs.DiagonalScalar(design.A, design.B)
    fit = cs.gls_fit(cs.stack_log(coll), design, cs.SigmaModel(structure, [s2, t2, v2]))
    fd = cs.build_forecast_design(design, cs.future_cells(lay, 5))
    assert fd.b_star.shape[1] > 0
    expected = (
        s2 * fd.a_star @ fd.a_star.T
        + t2 * fd.b_star @ fd.b_star.T
        + v2 * np.eye(fd.m_star.shape[0])
    )
    np.testing.assert_allclose(process_error(fit, fd), expected, atol=1e-12)


def test_three_array_cellwise_process_error():
    lay = ArrayLayout.triangle(3, 4)
    coll = simulate_two_level(lay, 0.1, 0.15, seed=9)
    design = toy_design(lay)
    s2, v2 = 0.01, 0.04
    fit = cs.gls_fit(
        cs.stack_log(coll), design,
        cs.SigmaModel(CellwiseTwoLevel(3, lay.cells_per_array), [s2, v2]),
    )
    fd = cs.build_forecast_design(design, cs.future_cells(lay, 4))
    n_fut = len(fd.cells)
    expected = s2 * np.kron(np.ones((3, 3)), np.eye(n_fut)) + v2 * np.eye(3 * n_fut)
    np.testing.assert_allclose(process_error(fit, fd), expected, atol=1e-12)
    assert cs.predict(fit, fd).reserves.shape == (3,)


def _non_identity_operator_fit():
    lay = ArrayLayout.triangle(2, 4)
    design = toy_design(lay)
    A0 = np.eye(lay.cells_per_array) + 0.5 * np.eye(lay.cells_per_array, k=-1)
    structure = cs.Example48(2, A0, np.eye(lay.cells_per_array))
    return lay, design, structure, [0.01, 0.0, 0.0, 0.02, 0.05]


def _within_shock_structure_without_within_design():
    lay = ArrayLayout.triangle(2, 4)
    design = toy_design(lay)  # no within shocks
    B = cs.build_B(design.shock.partition, lay)
    return lay, design, cs.DiagonalScalar(design.A, B), [0.01, 0.02, 0.03]


@pytest.mark.parametrize(
    "make,message",
    [
        (_non_identity_operator_fit, "non-identity development operator"),
        (_within_shock_structure_without_within_design, "do not match"),
    ],
    ids=["non_identity_operator", "within_shocks_not_in_design"],
)
def test_process_error_without_a_future_structure_raises(make, message):
    lay, design, structure, omega = make()
    coll = simulate_two_level(lay, 0.1, 0.15, seed=10)
    fit = cs.gls_fit(cs.stack_log(coll), design, cs.SigmaModel(structure, omega))
    fd = cs.build_forecast_design(design, cs.future_cells(lay, 4))
    with pytest.raises(cs.NumericalError, match=message):
        cs.predict(fit, fd)


def test_unidentified_future_cell_raises():
    lay = ArrayLayout.triangle(2, 5)
    coll = simulate_two_level(lay, 0.1, 0.1, seed=2)
    design = toy_design(lay, kind="diagonal", shared_mean=False)
    with pytest.raises(cs.DesignError, match="AR\\(1\\)"):
        cs.build_forecast_design(design, cs.future_cells(lay, 5))


class TestGammaAr1:
    def test_zero_persistence_jumps_to_mean(self):
        out = cs.gamma_ar1(2.0, 0.5, 0.0, 4)
        np.testing.assert_allclose(out, 0.5)

    def test_unit_persistence_holds_last_value(self):
        out = cs.gamma_ar1(2.0, 0.5, 1.0, 4)
        np.testing.assert_allclose(out, 2.0)

    def test_geometric_decay(self):
        out = cs.gamma_ar1(1.0, 0.0, 0.5, 3)
        np.testing.assert_allclose(out, [0.5, 0.25, 0.125])

    def test_noise_sequence_enters_linearly(self):
        eps = np.array([0.1, -0.2, 0.0])
        out = cs.gamma_ar1(1.0, 0.0, 0.5, 3, noise=eps)
        expected = []
        prev = 1.0
        for e in eps:
            prev = 0.5 * prev + e
            expected.append(prev)
        np.testing.assert_allclose(out, expected)

    def test_bad_horizon(self):
        with pytest.raises(cs.DesignError):
            cs.gamma_ar1(1.0, 0.0, 0.5, 0)


def _within_shock_forecast_inputs():
    lay = ArrayLayout.triangle(2, 5)
    coll = simulate_two_level(lay, 0.1, 0.15, seed=8)
    design = toy_design(lay, kind="row", include_within=True)
    structure = cs.DiagonalScalar(design.A, design.B)
    fit = cs.gls_fit(cs.stack_log(coll), design, cs.SigmaModel(structure, [0.01, 0.02, 0.03]))
    return fit, design, 5


@pytest.mark.parametrize("case", ["bundled_cellwise", "within_shock_diagonal_scalar"])
def test_predictive_covariance_is_symmetric_and_psd(ref_fit, case):
    # the parameter error is written as B B^T with B = M* r_inv, so Omega*
    # needs no symmetrizing pass to come out exactly symmetric
    if case == "bundled_cellwise":
        fit, design, t_max = ref_fit["fit"], ref_fit["design"], 15
    else:
        fit, design, t_max = _within_shock_forecast_inputs()
    fd = cs.build_forecast_design(design, cs.future_cells(design.layout, t_max))
    omega_star = cs.predict(fit, fd).omega_star
    assert np.array_equal(omega_star, omega_star.T)

    structure = fit.sigma.structure
    future = structure_for(structure.kind, fd.n_arrays, len(fd.cells), fd.a_star, fd.b_star)
    expected = fd.m_star @ fit.var_kappa @ fd.m_star.T + future.sigma(fit.sigma.omega)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(omega_star - expected)) <= 1e-12 * scale
    assert np.linalg.eigvalsh(omega_star).min() >= -1e-12 * scale
