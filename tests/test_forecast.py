import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import commonshock as cs
import commonshock.forecast as forecast_module
import commonshock.lognormal as lognormal_module
from commonshock.arrays import ArrayLayout
from commonshock.covariance import (
    STRUCTURE_KINDS,
    CellwiseTwoLevel,
    DiagonalScalar,
    GammaStructure,
    Term,
    structure_for,
)
from commonshock.lognormal import ROW_BLOCK, LogNormalSummary, raw_mean
from commonshock.partitions import PARTITION_KINDS
import dense
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
    assert (fd.n_arrays * len(fd.cells), fd.n_params) == (210, 58)  # both lower triangles
    assert design.shock_blocks_for_cells(fd.cells)[0].shape == (210, 105)


def test_future_rows_reuse_fitted_columns(ref_fit):
    design = ref_fit["design"]
    fd = cs.build_forecast_design(design, [(15, 2)])
    row = dense.M_star(fd)[0]  # array 1
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
    param_only = dense.parameter_error(fit, fd)
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
    m_full = dense.M_full(design, region)

    M_full = dense.M_full(design)
    priority = [0] + list(range(1, M_full.shape[1]))  # keep the shock mean
    kept, *_ = reduce_columns(M_full, priority)
    alt_M = M_full[:, kept]
    sigma = fit.sigma
    q, r = np.linalg.qr(sigma.whiten(alt_M))
    kappa_alt = np.linalg.solve(r, q.T @ sigma.whiten(y))
    y_star_alt = m_full[:, kept] @ kappa_alt

    fd = cs.build_forecast_design(design, region)
    y_star = dense.M_star(fd) @ fit.kappa_hat
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
    process = res.omega_star - dense.parameter_error(fit, fd)
    np.testing.assert_allclose(np.diag(process)[:n_fut], 0.01 + 0.02, atol=1e-12)
    np.testing.assert_allclose(np.diag(process)[n_fut:], 0.01 + 0.05, atol=1e-12)


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
    a_star, b_star = design.shock_blocks_for_cells(fd.cells)
    assert b_star.shape[1] > 0
    expected = s2 * a_star @ a_star.T + t2 * b_star @ b_star.T + v2 * np.eye(len(a_star))
    process = cs.predict(fit, fd).omega_star - dense.parameter_error(fit, fd)
    np.testing.assert_allclose(process, expected, atol=1e-12)


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
    res = cs.predict(fit, fd)
    np.testing.assert_allclose(res.omega_star - dense.parameter_error(fit, fd), expected, atol=1e-12)
    assert res.reserves.shape == (3,)


def _non_identity_operator_fit():
    lay = ArrayLayout.triangle(2, 4)
    design = toy_design(lay)
    A0 = np.eye(lay.cells_per_array) + 0.5 * np.eye(lay.cells_per_array, k=-1)
    structure = cs.Example48(2, A0, np.eye(lay.cells_per_array))
    return lay, design, structure, [0.01, 0.0, 0.0, 0.02, 0.05]


def _within_shock_structure_without_within_design():
    lay = ArrayLayout.triangle(2, 4)
    design = toy_design(lay)  # no within shocks
    B = toy_design(lay, include_within=True).B
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


def test_structure_without_cell_sides_forecasts_without_a_rule_for_the_region():
    # Sigma = v2 I over both arrays' cells at once: one 1 x 1 array side, so
    # no frame, and no constructor to rebuild it by. No term has a cell
    # side, so Sigma* is read off the fit's own structure; unchecked, this
    # raised the "non-identity development operator" error
    lay = ArrayLayout.triangle(2, 4)
    design = toy_design(lay)
    structure = GammaStructure((Term("v2", False, np.eye(1)),), 2 * lay.cells_per_array)
    coll = simulate_two_level(lay, 0.1, 0.15, seed=10)
    fit = cs.gls_fit(cs.stack_log(coll), design, cs.SigmaModel(structure, [0.04]))
    assert fit.frame is None
    fd = cs.build_forecast_design(design, cs.future_cells(lay, 4))
    res = cs.predict(fit, fd)
    want = dense.parameter_error(fit, fd) + 0.04 * np.eye(2 * len(fd.cells))
    np.testing.assert_allclose(res.omega_star, want, rtol=1e-12, atol=1e-15)


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

    @pytest.mark.parametrize("horizon", [2.5, 3.0])
    def test_non_integer_horizon(self, horizon):
        with pytest.raises(cs.DesignError, match="integer"):
            cs.gamma_ar1(0.1, 0.0, 0.5, horizon)


def _within_shock_forecast_inputs():
    lay = ArrayLayout.triangle(2, 5)
    coll = simulate_two_level(lay, 0.1, 0.15, seed=8)
    design = toy_design(lay, kind="row", include_within=True)
    structure = cs.DiagonalScalar(design.A, design.B)
    fit = cs.gls_fit(cs.stack_log(coll), design, cs.SigmaModel(structure, [0.01, 0.02, 0.03]))
    return fit, design, 5


def assert_predictive_covariance_is_symmetric_and_psd(fit, fd):
    # each diagonal block over every row adds matrices times their own
    # transposes (B_a B_a^T and each term's F_t F_t^T, E E^T among them), and
    # each block (a, b) is mirrored into (b, a), so Omega* needs no
    # symmetrizing pass to come out exactly symmetric
    omega_star = cs.predict(fit, fd).omega_star
    assert np.array_equal(omega_star, omega_star.T)

    expected = dense.omega_star(fit, fd)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(omega_star - expected)) <= 1e-12 * scale
    assert np.linalg.eigvalsh(omega_star).min() >= -1e-12 * scale


@pytest.mark.parametrize("case", ["bundled_cellwise", "within_shock_diagonal_scalar"])
def test_predictive_covariance_is_symmetric_and_psd(ref_fit, case):
    if case == "bundled_cellwise":
        fit, design, t_max = ref_fit["fit"], ref_fit["design"], 15
    else:
        fit, design, t_max = _within_shock_forecast_inputs()
    fd = cs.build_forecast_design(design, cs.future_cells(design.layout, t_max))
    assert_predictive_covariance_is_symmetric_and_psd(fit, fd)


def forecast_case(lay, region, kind, partition, seed, within=False, fixed=False):
    """A fit at a random omega and the forecast design of ``region``.

    The fit is the GLS fit, or with ``fixed`` the generic solver's fit with
    every component held at omega, which goes through the fixed location
    where the design has one. Raises DesignError where the region needs a
    parameter the data never identified.
    """
    design = toy_design(lay, partition, include_within=within)
    fd = cs.build_forecast_design(design, region)
    rng = np.random.default_rng(seed)
    structure = structure_for(kind, lay.n_arrays, lay.cells_per_array, design.A, design.B)
    omega = rng.uniform(0.005, 0.05, structure.n_params)
    y = rng.normal(5.0, 1.0, design.n_obs)
    if fixed:
        held = [False] * structure.n_params
        fit = cs.ml_dispersion_generic(y, design, structure, omega, free_mask=held)
    else:
        fit = cs.gls_fit(y, design, cs.SigmaModel(structure, omega))
    return fit, fd, rng


@st.composite
def forecast_inputs(draw):
    """A fit at a random omega and the forecast design of its unobserved cells.

    Layouts are triangles (forecast region: the lower triangle) or random
    masks whose first row and column are observed (region: every cell off
    the mask), for 1 to 4 arrays, every partition and the three structures
    the CLI builds. Grids are up to 6 x 6 or from 12 x 12 to 17 x 17, so
    that one array's future cells (up to 256) are sometimes fewer and
    sometimes more than one chunk, ``ROW_BLOCK`` cells, of the moment map.
    The fit is a
    GLS fit, or for the structures whose Sigma is C (x) I a fixed-location
    fit, which keeps the array frame wherever the design is invariant.
    """
    sides = st.one_of(st.integers(2, 6), st.integers(12, 17))
    n_arrays, rows = draw(st.integers(1, 4)), draw(sides)
    if draw(st.booleans()):
        lay = ArrayLayout.triangle(n_arrays, rows)
        region = cs.future_cells(lay, rows)
    else:
        cols = draw(sides)
        mask = np.array(draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols)))
        mask = mask.reshape(rows, cols)
        mask[0] = mask[:, 0] = True
        lay = ArrayLayout(n_arrays, rows, cols, mask)
        region = [(i + 1, j + 1) for i, j in zip(*np.nonzero(~mask))]
    kind = draw(st.sampled_from(STRUCTURE_KINDS))
    within = kind == "diagonal_scalar" and draw(st.booleans())
    partition = draw(st.sampled_from(PARTITION_KINDS))
    seed = draw(st.integers(0, 2**16))
    fixed = kind != "diagonal_scalar" and draw(st.booleans())
    try:
        return forecast_case(lay, region, kind, partition, seed, within, fixed)
    except cs.DesignError:
        assume(False)


def _triangle(n_arrays, size):
    """A size x size triangle layout, and its lower triangle as region."""
    lay = ArrayLayout.triangle(n_arrays, size)
    return lay, cs.future_cells(lay, size)


def _with_holes(n_arrays, size, holes):
    """A size x size layout observed everywhere but ``holes``, and the holes as region."""
    mask = np.ones((size, size), dtype=bool)
    for i, j in holes:
        mask[i - 1, j - 1] = False
    return ArrayLayout(n_arrays, size, size, mask), holes


# fixed-location fits that keep the array frame, pinned as examples of the
# random-layout tests: with no shock-mean column, with kept within-array
# calendar means (the holes lie on observed diagonals), and over a region of
# more than one chunk of one array's cells
FRAME_CASES = {
    "no_shock_means": forecast_case(
        *_triangle(2, 6), "cellwise_two_level", "cell", 1, fixed=True
    ),
    "kept_shock_means": forecast_case(
        *_with_holes(3, 6, [(3, 4), (4, 3), (4, 4), (2, 6)]),
        "example48", "diagonal", 2, within=True, fixed=True,
    ),
    "several_row_blocks": forecast_case(*_triangle(3, 17), "example48", "row", 3, fixed=True),
    # GLS fits at a given omega keep the frame too
    "gls_cellwise_two_level": forecast_case(*_triangle(2, 6), "cellwise_two_level", "cell", 4),
    "gls_example48": forecast_case(*_triangle(3, 6), "example48", "row", 5),
}


@pytest.mark.parametrize("name", FRAME_CASES)
def test_pinned_cases_keep_the_frame(name):
    fit, fd, _ = FRAME_CASES[name]
    assert fit.frame is not None
    s_x = fd.n_params - fd.n_arrays * fit.frame[1].shape[0]
    assert (s_x > 0) == (name == "kept_shock_means")
    assert (len(fd.cells) > ROW_BLOCK) == (name == "several_row_blocks")


def assert_reserve_moments_match_the_dense_covariance(fit, fd, var):
    n_arrays, n_fut = fd.n_arrays, len(fd.cells)
    res = cs.predict(fit, fd, extra_offset_var=var)
    # the block sums against the dense raw-scale covariance, formed on read
    sums = dense.array_sums(res.xi_star, n_arrays)
    scale = max(np.max(np.abs(sums)), np.finfo(float).tiny)
    assert np.max(np.abs(res.reserve_cov - sums)) <= 1e-12 * scale
    np.testing.assert_allclose(
        res.x_star_vector, raw_mean(LogNormalSummary(res.y_star, res.omega_star)), rtol=1e-12
    )
    np.testing.assert_array_equal(res.reserves, res.x_star_vector.reshape(n_arrays, n_fut).sum(axis=1))
    np.testing.assert_array_equal(res.std_errors, np.sqrt(np.maximum(np.diag(res.reserve_cov), 0)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(forecast_inputs(), st.sampled_from([None, "scalar", "per_cell"]))
@example(FRAME_CASES["no_shock_means"], "scalar")
@example(FRAME_CASES["kept_shock_means"], "per_cell")
@example(FRAME_CASES["several_row_blocks"], "per_cell")
def test_reserve_moments_match_the_dense_covariance(case, extra):
    fit, fd, rng = case
    n = fd.n_arrays * len(fd.cells)
    var = {None: None, "scalar": 0.03, "per_cell": rng.uniform(0.0, 0.05, n)}[extra]
    assert_reserve_moments_match_the_dense_covariance(fit, fd, var)


@pytest.mark.parametrize("kind, within", [
    ("cellwise_two_level", False),
    ("diagonal_scalar", False),
    ("diagonal_scalar", True),
    ("example48", False),
])
def test_reserve_moments_over_several_row_blocks(kind, within):
    # three arrays on a 17 x 17 triangle: 136 future cells per array, two chunks
    lay = ArrayLayout.triangle(3, 17)
    design = toy_design(lay, "row", include_within=within)
    structure = structure_for(kind, 3, lay.cells_per_array, design.A, design.B)
    rng = np.random.default_rng(11)
    omega = rng.uniform(0.005, 0.05, structure.n_params)
    fit = cs.gls_fit(rng.normal(5.0, 1.0, design.n_obs), design, cs.SigmaModel(structure, omega))
    fd = cs.build_forecast_design(design, cs.future_cells(lay, 17))
    assert len(fd.cells) > ROW_BLOCK
    assert_reserve_moments_match_the_dense_covariance(fit, fd, rng.uniform(0.0, 0.05, 408))


@pytest.mark.parametrize("kind, extra, sizes", [
    ("cellwise_two_level", None, [10, 90]),
    ("cellwise_two_level", "per_cell", [1] * 10 + [90]),
    ("example48", None, [1] * 10 + [90]),
    ("example48", "per_cell", [1] * 10 + [90]),
])
def test_shared_blocks_match_the_dense_covariance(kind, extra, sizes, monkeypatch):
    # ten arrays on a 17 x 17 triangle, 136 future cells each (two chunks),
    # and no shock-mean column: the pairs with equal array-side entries share
    # one block, the 90 off-diagonal ones of both structures and the 10
    # diagonal ones of cellwise_two_level; a per-cell offset variance, or
    # example48's per-array variances, give each diagonal pair its own
    fit, fd, rng = forecast_case(*_triangle(10, 17), kind, "cell", 7, fixed=True)
    assert fit.frame is not None and fd.n_params == 10 * fit.frame[1].shape[0]
    var = None if extra is None else rng.uniform(0.0, 0.05, 10 * len(fd.cells))
    counts = []

    def counted(*args):
        blocks = distinct_blocks(*args)
        counts.append([len(pairs) for pairs in blocks])
        return blocks

    distinct_blocks = lognormal_module._distinct_blocks
    monkeypatch.setattr(lognormal_module, "_distinct_blocks", counted)
    assert_reserve_moments_match_the_dense_covariance(fit, fd, var)
    assert counts == [sizes, sizes]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(forecast_inputs())
@example(FRAME_CASES["no_shock_means"])
@example(FRAME_CASES["kept_shock_means"])
@example(FRAME_CASES["several_row_blocks"])
def test_predictive_covariance_is_symmetric_and_psd_over_random_layouts(case):
    fit, fd, _ = case
    assume(len(fd.cells) > 0)  # a full mask leaves nothing to forecast
    assert_predictive_covariance_is_symmetric_and_psd(fit, fd)


def test_predict_forms_no_future_by_future_matrix():
    # N = 2 on a 30 x 30 triangle: 870 future rows, and one 870 x 870
    # float64 array would take 6.1 MB, more than all of predict may hold
    lay = ArrayLayout.triangle(2, 30)
    coll = simulate_two_level(lay, 0.1, 0.15, seed=3)
    design = toy_design(lay)
    fit = cs.ml_dispersion_cellwise(cs.stack_log(coll), design)
    fd = cs.build_forecast_design(design, cs.future_cells(lay, 30))
    n = fd.n_arrays * len(fd.cells)
    assert n == 870
    tracemalloc.start()
    try:
        res = cs.predict(fit, fd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
    assert res.reserve_cov.shape == (2, 2)


def test_predict_builds_neither_the_dense_process_error_nor_the_raw_covariance(
    ref_fit, ref_forecast, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("predict formed a dense n_future x n_future matrix")

    design = ref_fit["design"]
    fd = cs.build_forecast_design(design, cs.future_cells(design.layout, 15))
    with monkeypatch.context() as m:
        m.setattr(GammaStructure, "sigma", refuse)
        m.setattr(forecast_module, "raw_cov", refuse)
        res = cs.predict(ref_fit["fit"], fd)
    # both are formed on first read, by the formulas the reference used
    np.testing.assert_array_equal(res.omega_star, ref_forecast.omega_star)
    np.testing.assert_array_equal(res.xi_star, ref_forecast.xi_star)


def test_frame_fit_forecasts_without_the_rows_of_sigma_star(ref_fit, monkeypatch):
    # the reference fit is a fixed-location fit at Sigma = C (x) I: its
    # forecast reads Omega* from the array frame and never builds the
    # structure over the region
    def refuse(*args, **kwargs):
        raise AssertionError("predict built Sigma* over the region")

    fit, design = ref_fit["fit"], ref_fit["design"]
    assert fit.frame is not None
    fd = cs.build_forecast_design(design, cs.future_cells(design.layout, 15))
    with monkeypatch.context() as m:
        m.setattr(GammaStructure, "loading_form", refuse)
        m.setattr(GammaStructure, "sigma", refuse)
        res = cs.predict(fit, fd, extra_offset_var=0.01)
        omega_star = res.omega_star
    want, reserve_cov = dense.reserve_moments(fit, fd, 0.01)
    assert np.array_equal(omega_star, omega_star.T)
    assert np.max(np.abs(omega_star - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(res.reserve_cov - reserve_cov)) <= 1e-12 * np.max(np.abs(reserve_cov))


@pytest.mark.parametrize("case", [
    FRAME_CASES["gls_cellwise_two_level"],
    FRAME_CASES["gls_example48"],
    forecast_case(
        *_with_holes(3, 6, [(3, 4), (4, 3), (4, 4), (2, 6)]), "example48", "diagonal", 6,
        within=True,
    ),
], ids=["cellwise_two_level", "example48", "example48_kept_shock_means"])
def test_gls_fit_at_a_given_omega_forecasts_in_the_frame(case, monkeypatch):
    # a GLS fit at Sigma = C (x) I keeps the frame, whatever made it, and
    # its forecast never builds the structure over the region
    def refuse(*args, **kwargs):
        raise AssertionError("predict built Sigma* over the region")

    fit, fd, _ = case
    assert fit.omega_hat is None and fit.frame is not None
    with monkeypatch.context() as m:
        m.setattr(GammaStructure, "loading_form", refuse)
        m.setattr(GammaStructure, "sigma", refuse)
        res = cs.predict(fit, fd, extra_offset_var=0.01)
        omega_star = res.omega_star
    want, reserve_cov = dense.reserve_moments(fit, fd, 0.01)
    assert np.max(np.abs(omega_star - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(res.reserve_cov - reserve_cov)) <= 1e-12 * np.max(np.abs(reserve_cov))


def test_frame_forecast_holds_less_than_one_n_by_m_matrix():
    # N = 4 on a 30 x 30 triangle: n = 1740 future rows and m = 236, so
    # B = M* r_inv alone would take 3.3 MB; predict forms B's shock-mean
    # columns only, and blocks of one chunk of cells
    lay = ArrayLayout.triangle(4, 30)
    coll = simulate_two_level(lay, 0.1, 0.15, seed=3)
    design = toy_design(lay)
    fit = cs.ml_dispersion_cellwise(cs.stack_log(coll), design)
    assert fit.frame is not None
    fd = cs.build_forecast_design(design, cs.future_cells(lay, 30))
    n, m = fd.n_arrays * len(fd.cells), fd.n_params
    assert (n, m) == (1740, 236)
    tracemalloc.start()
    try:
        res = cs.predict(fit, fd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * m * 8
    assert res.reserve_cov.shape == (4, 4)


def test_one_group_fit_forecasts_the_region_s_own_subsets():
    # every observed diagonal holds one cell, so diagonal_scalar's fit has
    # one group, Sigma = C (x) I, and keeps its frame; but two future cells,
    # (3, 1) and (1, 3), share a diagonal, so Sigma* is not C (x) I and the
    # forecast writes it from the structure rebuilt over the region
    mask = np.zeros((3, 3), dtype=bool)
    mask[[0, 0, 1, 1, 2], [0, 1, 1, 2, 2]] = True
    lay = ArrayLayout(2, 3, 3, mask)
    design = toy_design(lay, "diagonal")
    structure = structure_for("diagonal_scalar", 2, lay.cells_per_array, design.A, design.B)
    assert structure.identity_cell_side
    rng = np.random.default_rng(4)
    fit = cs.gls_fit(rng.normal(size=design.n_obs), design, cs.SigmaModel(structure, [0.02, 0.01]))
    assert fit.frame is not None
    fd = cs.build_forecast_design(design, [(2, 1), (3, 1), (3, 2), (1, 3)])
    assert not dense.future_structure(fit, fd).identity_cell_side
    res = cs.predict(fit, fd)
    want, reserve_cov = dense.reserve_moments(fit, fd, 0.0)
    assert np.max(np.abs(res.omega_star - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(res.reserve_cov - reserve_cov)) <= 1e-12 * np.max(np.abs(reserve_cov))


def test_diagonal_scalar_fit_keeps_no_frame(ref_fit):
    # a fixed-location fit whose Sigma is not C (x) I over the arrays keeps
    # no frame, and its forecast writes the parameter error as B B^T
    design, y = ref_fit["design"], ref_fit["y"]
    structure = cs.DiagonalScalar(design.A)
    fit = cs.ml_dispersion_generic(y, design, structure, [0.01, 0.01])
    assert fit.n_iter >= 1 and fit.frame is None
    fd = cs.build_forecast_design(design, cs.future_cells(design.layout, 15))
    res = cs.predict(fit, fd)
    reserve_cov = dense.reserve_moments(fit, fd, 0.0)[1]
    assert np.max(np.abs(res.reserve_cov - reserve_cov)) <= 1e-12 * np.max(np.abs(reserve_cov))


@pytest.mark.parametrize("partition, within", [
    ("array", False), ("column", False), ("diagonal", False), ("row", True),
])
def test_diagonal_scalar_forecast_reads_no_row_of_sigma_star(partition, within, monkeypatch):
    # a fit that keeps no frame writes Omega* from Sigma*'s loadings: over
    # more than one chunk of one array's cells it forms neither the dense
    # Sigma* nor its rows
    def refuse(*args, **kwargs):
        raise AssertionError("predict formed rows of Sigma*")

    lay = ArrayLayout.triangle(2, 17)
    design = toy_design(lay, partition, include_within=within)
    structure = cs.DiagonalScalar(design.A, design.B)
    rng = np.random.default_rng(12)
    omega = rng.uniform(0.005, 0.05, structure.n_params)
    fit = cs.gls_fit(rng.normal(5.0, 1.0, design.n_obs), design, cs.SigmaModel(structure, omega))
    assert fit.frame is None
    fd = cs.build_forecast_design(design, cs.future_cells(lay, 17))
    assert len(fd.cells) > ROW_BLOCK
    with monkeypatch.context() as m:
        m.setattr(GammaStructure, "sigma", refuse)
        m.setattr(GammaStructure, "sigma_rows", refuse, raising=False)
        res = cs.predict(fit, fd, extra_offset_var=0.01)
        omega_star = res.omega_star
    want, reserve_cov = dense.reserve_moments(fit, fd, 0.01)
    assert np.array_equal(omega_star, omega_star.T)
    assert np.max(np.abs(omega_star - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(res.reserve_cov - reserve_cov)) <= 1e-12 * np.max(np.abs(reserve_cov))


@pytest.mark.parametrize("partition, within", [("diagonal", False), ("array", True)])
def test_diagonal_scalar_with_unequal_coefficients_forecasts_every_array(partition, within):
    # alpha (and beta) differ between the arrays, so the structure over the
    # region has a one-array side whose loadings span both arrays; the
    # forecast still gives the N x N reserve moments of the dense reference
    lay = ArrayLayout.triangle(2, 7)
    rng = np.random.default_rng(21)
    coeff = {n: rng.uniform(0.5, 1.5, (2, 7, 7)) for n in ("alpha", "beta")}
    shock = cs.ShockSpec(
        cs.build_partition(partition, lay), True, within, shared_across_mean=True, **coeff
    )
    design = cs.assemble(lay, shock, "chain_ladder")
    structure = structure_for("diagonal_scalar", 2, lay.cells_per_array, design.A, design.B)
    omega = rng.uniform(0.005, 0.05, structure.n_params)
    fit = cs.gls_fit(rng.normal(5.0, 1.0, design.n_obs), design, cs.SigmaModel(structure, omega))
    fd = cs.build_forecast_design(design, cs.future_cells(lay, 7))
    assert len(dense.future_structure(fit, fd).loading_form(omega)[0]) == 1
    res = cs.predict(fit, fd, extra_offset_var=0.01)
    want, reserve_cov = dense.reserve_moments(fit, fd, 0.01)
    assert res.reserve_cov.shape == (2, 2) and res.std_errors.shape == (2,)
    assert np.array_equal(res.omega_star, res.omega_star.T)
    assert np.max(np.abs(res.omega_star - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(res.reserve_cov - reserve_cov)) <= 1e-12 * np.max(np.abs(reserve_cov))
    assert -1.0 <= cs.reserve_correlation(res) <= 1.0


@pytest.mark.parametrize("partition, within, bound", [
    ("cell", False, 6.59e6), ("row", True, 4.15e6), ("diagonal", False, 3.74e6),
])
def test_dense_frame_forecast_memory(partition, within, bound):
    # N = 2 on a 30 x 30 triangle, 870 future rows: a row panel built from
    # rows of the dense Sigma* held up to ``bound`` bytes on these inputs,
    # and the blocks from Sigma*'s loadings hold no more
    lay = ArrayLayout.triangle(2, 30)
    coll = simulate_two_level(lay, 0.1, 0.15, seed=3)
    design = toy_design(lay, partition, include_within=within)
    structure = cs.DiagonalScalar(design.A, design.B)
    omega = [{"sigma2": 0.01, "tau2": 0.02, "v2": 0.03}[k] for k in structure.omega_names]
    fit = cs.gls_fit(cs.stack_log(coll), design, cs.SigmaModel(structure, omega))
    fd = cs.build_forecast_design(design, cs.future_cells(lay, 30))
    assert fit.frame is None and fd.n_arrays * len(fd.cells) == 870
    tracemalloc.start()
    try:
        res = cs.predict(fit, fd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound
    assert res.reserve_cov.shape == (2, 2)


def test_predict_needs_a_model_design():
    # a fit on a bare matrix has no rule for the future cells
    fit, design, lay = small_fit()
    bare = cs.gls_fit(fit.y_hat + fit.residual, dense.M(design), fit.sigma)
    fd = cs.build_forecast_design(design, cs.future_cells(lay, 4))
    with pytest.raises(cs.DesignError, match="ModelDesign"):
        cs.predict(bare, fd)


def test_forecast_rows_of_another_design_are_rejected():
    fit, design, lay = small_fit(size=5)
    other = toy_design(lay, variant="hoerl")
    fd = cs.build_forecast_design(other, cs.future_cells(lay, 5))
    assert fd.n_params != fit.kappa_hat.size
    with pytest.raises(cs.DesignError, match="columns"):
        cs.predict(fit, fd)


@pytest.mark.parametrize(
    "extra",
    [
        {"extra_offset_var": np.nan},
        {"extra_offset_var": np.inf},
        {"extra_offset_var": [0.01, np.nan] * 15},
        {"extra_offsets": [0.0, np.nan] * 15},
        {"extra_offsets": [0.0, np.inf] * 15},
    ],
    ids=["nan_variance", "inf_variance", "nan_variance_per_cell", "nan_offset", "inf_offset"],
)
def test_non_finite_forecast_inputs_are_design_errors(extra):
    lay = ArrayLayout.triangle(2, 6)
    coll = simulate_two_level(lay, 0.1, 0.15, seed=5)
    design = toy_design(lay)
    fit = cs.ml_dispersion_cellwise(cs.stack_log(coll), design)
    fd = cs.build_forecast_design(design, cs.future_cells(lay, 6))
    assert fd.n_arrays * len(fd.cells) == 30
    with pytest.raises(cs.DesignError, match="finite"):
        cs.predict(fit, fd, **extra)


@pytest.mark.parametrize("table", ["alpha", "beta"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_coefficients_on_forecast_cells_are_config_errors(table, value):
    # ShockSpec checks the fitted cells only: a coefficient that is not
    # finite on a forecast cell let the fit succeed, and then predict
    # raised NumericalError ("raw-scale mean would overflow", alpha) or the
    # estimability check a DesignError naming a parameter (beta), where the
    # input is at fault
    lay = ArrayLayout.triangle(2, 6)
    coll = simulate_two_level(lay, 0.1, 0.15, seed=5)
    coeff = np.ones((2, 6, 6))
    coeff[1, 5, 4] = value  # array 2, cell (6, 5): past the triangle
    within = table == "beta"
    shock = cs.ShockSpec(cs.build_partition("row", lay), include_within=within, **{table: coeff})
    design = cs.assemble(lay, shock)
    structure = DiagonalScalar(design.A, design.B)
    fit = cs.ml_dispersion_generic(cs.stack_log(coll), design, structure, [0.01] * (2 + within))
    message = rf"{table} coefficient of cell \(array 2, i=6, j=5\) is not finite"
    with pytest.raises(cs.ConfigError, match=message):
        cs.predict(fit, cs.build_forecast_design(design, cs.future_cells(lay, 6)))
