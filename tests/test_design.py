import numpy as np
import pytest

import commonshock as cs
from commonshock.arrays import ArrayLayout
import commonshock.design as design_module
from commonshock.design import reduce_columns
from commonshock.kron import array_frame
from conftest import toy_design


def test_build_A_cellwise_is_stacked_identity():
    lay = ArrayLayout.full(2, 3, 2)
    part = cs.build_partition("cell", lay)
    A = cs.build_A(part, lay)
    np.testing.assert_array_equal(A, np.kron(np.ones((2, 1)), np.eye(6)))


def test_build_A_arraywide_is_ones_column():
    lay = ArrayLayout.triangle(3, 4)
    part = cs.build_partition("array", lay)
    A = cs.build_A(part, lay)
    np.testing.assert_array_equal(A, np.ones((lay.n_observations, 1)))


def test_build_A_rowwise_coefficient_placement():
    lay = ArrayLayout.full(1, 4, 3)
    part = cs.build_partition("row", lay)
    alpha = np.zeros((1, 4, 3))
    for i in range(4):
        alpha[0, i, :] = i + 1.0
    A = cs.build_A(part, lay, alpha)
    k = lay.position(3, 2)
    row = A[k]
    assert row[part.p_of(3, 2)] == 3.0
    assert np.count_nonzero(row) == 1


def test_build_B_block_diagonal_cellwise():
    lay = ArrayLayout.full(2, 2, 2)
    part = cs.build_partition("cell", lay)
    B = cs.build_B(part, lay)
    np.testing.assert_array_equal(B, np.kron(np.eye(2), np.eye(4)))


def test_build_B_single_array_equals_A_style_block():
    lay = ArrayLayout.triangle(1, 3)
    part = cs.build_partition("row", lay)
    np.testing.assert_array_equal(
        cs.build_B(part, lay), cs.build_A(part, lay)
    )


def test_within_shock_omitted_gives_zero_columns():
    lay = ArrayLayout.full(2, 3, 3)
    design = toy_design(lay, include_within=False)
    assert design.B.shape == (lay.n_observations, 0)


def test_chain_ladder_block_shape_and_rows():
    lay = ArrayLayout.full(1, 15, 15)
    block, labels = cs.build_C_chain_ladder(lay)
    assert block.shape == (225, 29)  # (15 - 1) + 15
    assert labels[0] == ("chi", 2) and labels[-1] == ("col", 15)
    # first-row cells carry only the column-effect entry
    k = lay.position(1, 4)
    assert block[k].sum() == 1.0
    # later rows carry the row and the column entry
    k = lay.position(7, 4)
    assert block[k].sum() == 2.0
    assert block[k, 7 - 2] == 1.0
    assert block[k, 14 + 3] == 1.0


def test_chain_ladder_row_sums_after_reduction():
    lay = ArrayLayout.triangle(1, 6)
    block, _ = cs.build_C_chain_ladder(lay)
    sums = block.sum(axis=1)
    expected = [2.0 if i >= 2 else 1.0 for (i, j) in lay.stacking_order]
    np.testing.assert_array_equal(sums, expected)


def test_hoerl_block_entries():
    lay = ArrayLayout.full(1, 3, 4)
    block, labels = cs.build_C_hoerl(lay)
    assert block.shape == (12, 5)  # 3 levels + slope + decay
    k = lay.position(2, 1)
    np.testing.assert_allclose(block[k], [0, 1, 0, 0.0, -1.0])  # ln 1 = 0
    k = lay.position(2, 2)
    np.testing.assert_allclose(block[k], [0, 1, 0, np.log(2.0), -2.0])


def test_hoerl_mean_shape_is_development_curve():
    # fitted mean in j at fixed i follows chi ln j - rho j, a j^chi e^(-rho j) shape
    lay = ArrayLayout.full(1, 1, 6)
    block, _ = cs.build_C_hoerl(lay)
    zeta = np.array([0.7, 1.3, 0.4])  # level, slope, decay
    mean = block @ zeta
    j = np.arange(1, 7)
    np.testing.assert_allclose(mean, 0.7 + 1.3 * np.log(j) - 0.4 * j, atol=1e-12)


def test_assemble_reference_dimensions():
    # two 15 x 15 rectangles, cell partition, tied shock mean: the xi column
    # aliases the column effects and drops, leaving 2 x 29 = 58 columns
    lay = ArrayLayout.full(2, 15, 15)
    design = toy_design(lay)
    assert design.M_full.shape == (450, 59)
    assert design.M.shape == (450, 58)
    assert design.dropped == ((("xi_shared",), "aliased"),)


def test_assemble_block_dimension_contract():
    # unreduced blocks: A is N|A| x P, B is N|A| x NP, C is N|A| x Nq,
    # L = [A B I] is N|A| x (P + NP + N|A|)
    lay = ArrayLayout.triangle(2, 6)
    design = toy_design(lay, kind="row", shared_mean=False, include_within=True)
    n_obs = lay.n_observations
    P = 6
    q = (6 - 1) + 6
    assert design.A.shape == (n_obs, P)
    assert design.B.shape == (n_obs, 2 * P)
    C0 = cs.build_C_chain_ladder(lay)[0]
    assert array_frame(np.zeros((n_obs, 0)), C0, 2).shape == (n_obs, 2 * q)
    L = np.hstack([design.A, design.B, np.eye(n_obs)])
    assert L.shape == (n_obs, P + 2 * P + n_obs)


def test_shock_blocks_are_formed_on_first_read(bundled, monkeypatch):
    # a tied across-array mean puts one alpha column in M, so fitting and
    # forecasting under the cell-matched structure read neither A nor A*;
    # A is formed, with build_A's values, and A* once, when read
    built = []
    across = design_module._CellRows.across

    def counted(self, alpha=None):
        built.append(self.i.size)
        return across(self, alpha)

    monkeypatch.setattr(design_module._CellRows, "across", counted)
    coll = bundled.restrict_to_diagonals(15)
    design = toy_design(coll.layout)
    fit = cs.ml_dispersion_cellwise(cs.stack_log(coll), design)
    fd = cs.build_forecast_design(design, cs.future_cells(design.layout, 15))
    cs.predict(fit, fd)
    assert built == []
    np.testing.assert_array_equal(design.A, cs.build_A(design.shock.partition, design.layout))
    np.testing.assert_array_equal(design.M, design.M_full[:, list(design.kept)])
    future = design.shock_blocks_for_cells(fd.cells)[0]
    assert future.shape[0] == fd.m_star.shape[0]
    assert len(built) == 3  # design.A, build_A, and A* once


def test_single_array_no_shock_is_cross_classified():
    lay = ArrayLayout.triangle(1, 5)
    part = cs.build_partition("cell", lay)
    shock = cs.ShockSpec(partition=part, include_across=False)
    design = cs.assemble(lay, shock, "chain_ladder")
    assert design.M.shape == (15, 9)  # (5-1) + 5 columns, all kept
    assert design.dropped == ()


def test_duplicate_column_detected_and_fit_unchanged(ref_fit):
    rng = np.random.default_rng(3)
    M = rng.normal(size=(20, 4))
    M_dup = np.hstack([M, M[:, [1]]])
    kept, dropped, coef, reasons = reduce_columns(M_dup)
    assert dropped == [4]
    assert reasons[4] == "aliased"
    np.testing.assert_allclose(coef[:, 0], [0, 1, 0, 0], atol=1e-9)


@pytest.mark.parametrize("rel, kept", [(1e-9, True), (1e-11, False)])
def test_threshold_is_relative_to_the_largest_column_norm(rel, kept):
    # column b + rel 10 u, u a unit vector off the span of the others, is
    # aliased up to rel times M's largest column norm, 10; 400 copies of
    # that column put ||M||_2 at 200, which the threshold does not read.
    # The same column as a shock mean in array 1 of N = 2 has the same
    # residual.
    rng = np.random.default_rng(5)
    top, b, other = np.linalg.qr(rng.normal(size=(8, 3)))[0].T
    C0 = np.column_stack([10 * top] * 400 + [b])
    near = b + rel * 10 * other
    X = np.concatenate([near, b])[:, None]
    results = [
        reduce_columns(np.column_stack([C0, near])),
        design_module._reduce_blocks(X, [0], C0, range(401), 2)[:4],
    ]
    # the top column and b are kept, in each of the two arrays on blocks
    for (kept_ids, _, _, reasons), last, n_kept in zip(results, [401, 0], [2, 4]):
        assert len(kept_ids) == n_kept + kept
        assert reasons.get(last) == (None if kept else "aliased")


@pytest.mark.parametrize("priority", [[0, 0, 1, 2], [0, 1], [2, 1, 0, 5], [0, 1, 3]])
def test_keep_priority_must_order_every_column_once(priority):
    # a repeated column was kept and dropped, a missing one left out of both
    # lists, and one past M's columns an IndexError
    M = np.random.default_rng(0).normal(size=(5, 3))
    with pytest.raises(cs.ConfigError, match="keep_priority"):
        reduce_columns(M, priority)


def test_assemble_factors_no_matrix_with_a_row_per_observation(monkeypatch):
    # the reduction sweeps one array's block at a threshold set by M's
    # largest column norm and solves for the alias coefficients with the
    # sweep's factor, which the least-squares factor reuses: no SVD, no
    # eigendecomposition and no least squares at all
    mask = ArrayLayout.triangle(3, 6).mask.copy()
    mask[:, 3] = False  # column 4 is never observed: its effect is a zero column
    lay = ArrayLayout(3, 6, 6, mask)
    shapes = []

    def recording(fn):
        def wrapper(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return fn(a, *args, **kwargs)

        return wrapper

    norm_globals = np.linalg.norm.__wrapped__.__globals__  # norm(M, 2) calls svd there
    for name in ("svd", "lstsq", "eigh", "eigvalsh"):
        wrapped = recording(getattr(np.linalg, name))
        monkeypatch.setattr(np.linalg, name, wrapped)
        monkeypatch.setitem(norm_globals, name, wrapped)
    design = toy_design(lay, kind="row", shared_mean=False, include_within=True)
    assert {reason for _, reason in design.dropped} == {"aliased", "unobserved"}
    factor = design.factor
    assert factor.t_inv_times(np.eye(design.n_params)).shape == (design.n_params,) * 2
    assert shapes == []


def test_gauge_invariance_of_fitted_values(bundled):
    # the same model with the shock-mean column kept and a column effect
    # dropped instead must produce identical fitted values
    fit_coll = bundled.restrict_to_diagonals(15)
    lay = fit_coll.layout
    design = toy_design(lay)
    y = cs.stack_log(fit_coll)
    structure = cs.CellwiseTwoLevel(2, lay.cells_per_array)
    sigma = cs.SigmaModel(structure, [0.008, 0.015])
    fit_a = cs.gls_fit(y, design, sigma)

    # alternative gauge: keep the xi column, drop the last column instead
    M_full = design.M_full
    priority = [58] + list(range(58))  # xi first in the keep sweep
    kept, dropped, coef, _ = reduce_columns(M_full, priority)
    assert len(kept) == 58 and 58 in kept
    alt = np.asarray(M_full[:, kept])
    q, r = np.linalg.qr(sigma.whiten(alt))
    kappa = np.linalg.solve(r, q.T @ sigma.whiten(y))
    np.testing.assert_allclose(alt @ kappa, fit_a.y_hat, atol=1e-8)


def test_zero_columns_dropped_as_unobserved():
    # an all-zero mean column (alpha = 0 with a tied shock mean) is removed
    # with the "unobserved" tag rather than treated as aliased
    lay = ArrayLayout.full(1, 2, 2)
    part = cs.build_partition("cell", lay)
    shock = cs.ShockSpec(
        partition=part,
        include_across=True,
        shared_across_mean=True,
        alpha=np.zeros((1, 2, 2)),
    )
    design = cs.assemble(lay, shock, "chain_ladder")
    assert ((("xi_shared",), "unobserved")) in design.dropped


def test_rows_for_cells_matches_design_rows(ref_fit):
    design = ref_fit["design"]
    rows = design.rows_for_cells(design.layout.stacking_order)
    np.testing.assert_array_equal(rows, design.M)


def test_rows_for_a_cell_generator_cover_every_array(ref_fit):
    design = ref_fit["design"]
    region = cs.future_cells(design.layout, 15)
    rows = design.rows_for_cells(cell for cell in region)
    assert rows.shape[0] == design.layout.n_arrays * len(region)
    np.testing.assert_array_equal(rows, design.rows_for_cells(region))


@pytest.mark.parametrize("cell", [(0, 3), (16, 2)])
def test_shock_blocks_reject_cells_outside_the_grid(ref_fit, cell):
    with pytest.raises(cs.DesignError, match="lies outside the grid"):
        ref_fit["design"].shock_blocks_for_cells([cell])


def test_rows_for_unobservable_shock_mean_raises():
    # free per-subset shock means with a diagonal partition: future diagonals
    # were never observed, so their means cannot enter a forecast
    lay = ArrayLayout.triangle(2, 5)
    design = toy_design(lay, kind="diagonal", shared_mean=False)
    with pytest.raises(cs.DesignError, match="AR\\(1\\)"):
        design.rows_for_cells([(5, 5)])


def test_rows_for_an_unobserved_column_effect_raise():
    # column 4 was never observed, so its effect was dropped as a zero column
    # and no alias relation reproduces the weight a column-4 row puts on it
    mask = ArrayLayout.triangle(2, 5).mask.copy()
    mask[:, 3] = False
    lay = ArrayLayout(2, 5, 5, mask)
    shock = cs.ShockSpec(partition=cs.build_partition("cell", lay), include_across=False)
    design = cs.assemble(lay, shock, "chain_ladder")
    assert design.dropped == ((("col", 1, 4), "unobserved"), (("col", 2, 4), "unobserved"))
    with pytest.raises(cs.DesignError, match=r"array 1, i=1, j=4\) requires parameter \('col', 1, 4\)"):
        design.rows_for_cells([(2, 3), (1, 4)])


def dense_estimability_error(design, cells):
    """The DesignError text of the dense check, or None: the mismatch
    M*_dropped - M*_kept coef over the unreduced rows of ``cells``, its
    worst row and, in that row, its worst dropped column."""
    cells = tuple(cells)
    full = design.full_rows_for_cells(cells)
    drop_idx = [k for k in range(full.shape[1]) if k not in design.kept]
    mismatch = np.abs(full[:, drop_idx] - full[:, list(design.kept)] @ design.coef)
    row_max = mismatch.max(axis=1)
    worst = int(np.argmax(row_max))
    if row_max[worst] <= 1e-8:
        return None
    i, j = cells[worst % len(cells)]
    bad_col = drop_idx[int(np.argmax(mismatch[worst]))]
    return (
        f"cell (array {worst // len(cells) + 1}, i={i}, j={j}) requires parameter "
        f"{design.full_labels[bad_col]} that is not identified by the observed data; "
        "supply the future values by hand (an AR(1) extrapolation plus forecast offsets)"
    )


@pytest.mark.parametrize("n_arrays", [1, 3])
@pytest.mark.parametrize(
    "partition, dropped",
    [("column", "shock mean"), ("cell", "column effect"), ("row", "both")],
)
def test_block_estimability_check_is_the_dense_check(n_arrays, partition, dropped):
    # unshared column or row means are sums of the arrays' column or row
    # effects where alpha is 1, so they are dropped as aliased; a later cell
    # whose alpha is not 1, here in the last array only, puts weight on one
    # that no alias reproduces. A column never observed leaves its effect a
    # zero column, dropped as unobserved in every array, which a later cell
    # in that column needs; with row means, such a cell needs both, by the
    # same amount
    mask = ArrayLayout.triangle(n_arrays, 5).mask.copy()
    if dropped != "shock mean":
        mask[:, 3] = False
    lay = ArrayLayout(n_arrays, 5, 5, mask)
    alpha = np.ones((n_arrays, 5, 5))
    alpha[-1, 4, 1:] = [1.5, 2.5, 0.5, 1.25]
    shock = cs.ShockSpec(
        partition=cs.build_partition(partition, lay),
        include_across=dropped != "column effect",
        shared_across_mean=False,
        alpha=alpha,
    )
    design = cs.assemble(lay, shock, "chain_ladder")
    reasons = {reason for _, reason in design.dropped}
    assert reasons == {"shock mean": {"aliased"}, "column effect": {"unobserved"}}.get(
        dropped, {"aliased", "unobserved"}
    )
    later = [(i, j) for i in range(2, 6) for j in range(7 - i, 6) if mask[0, j - 1]]
    # (cells, whether a cell's mean is not identified)
    regions = [(lay.stacking_order, False), (later, shock.include_across)]
    if dropped != "shock mean":
        regions += [
            (later + [(1, 4)], True), ([(2, 3), (1, 4)], True), ([(5, 2), (3, 4), (5, 3)], True)
        ]
    for cells, raises in regions:
        want = dense_estimability_error(design, cells)
        assert (want is not None) == raises
        if want is None:
            rows = array_frame(*design.blocks_for_cells(cells), n_arrays)
            full = design.full_rows_for_cells(cells)
            np.testing.assert_array_equal(rows, full[:, list(design.kept)])
            continue
        for rows in (design.blocks_for_cells, design.rows_for_cells):
            with pytest.raises(cs.DesignError) as error:
                rows(cells)
            assert str(error.value) == want


@pytest.mark.parametrize("kind, within", [("cell", False), ("column", True)])
def test_tied_mean_rows_never_build_the_across_block(ref_fit, monkeypatch, kind, within):
    # with the across-array means tied, M_full holds only the alpha column,
    # so the per-subset across block is not built for fitted or future rows
    lay = ref_fit["design"].layout
    design = toy_design(lay, kind=kind, include_within=within)
    expected = design.rows_for_cells(lay.stacking_order)
    future = cs.future_cells(lay, 15)

    def across(*_, **__):
        raise AssertionError("the across block was built")

    monkeypatch.setattr(design_module._CellRows, "across", across)
    np.testing.assert_array_equal(design.rows_for_cells(lay.stacking_order), expected)
    assert design.rows_for_cells(future).shape[0] == lay.n_arrays * len(future)
