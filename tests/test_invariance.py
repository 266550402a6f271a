"""The fixed-location path: span(M) invariant under every D_k = dSigma/domega_k.

Where the invariance test passes, least squares is the GLS fit at every
omega, so one factor of M, taken in its array frame, serves the whole
solve; where it fails, the solver keeps a GLS fit per point.
"""

import ast
import contextlib
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import commonshock as cs
import commonshock.design as design_module
from commonshock import estimation
from commonshock.arrays import ArrayLayout
from commonshock.covariance import (
    CellwiseTwoLevel, DiagonalScalar, Example48, GammaStructure, Term, structure_for,
)
from commonshock.datasets import load_bundled_rectangles
from commonshock.design import LeastSquaresFactor, array_frame
from commonshock.partitions import PARTITION_KINDS
import dense
from conftest import toy_design
from test_design_properties import both_shock_means, designs, layouts

STRUCTURES = ("cellwise_two_level", "diagonal_scalar", "example48", "raw")


def raw_structure(rng, n_arrays, cells, cell_side):
    """A random array-side term and identity noise, plus a random cell-side
    term when ``cell_side``: the first keeps a block-diagonal span invariant,
    the second almost never does."""
    terms = [Term("a", True, rng.normal(size=(n_arrays, 2)))]
    if cell_side:
        terms.append(Term("b", True, np.ones((n_arrays, 1)), rng.normal(size=(cells, 2))))
    terms.append(Term("v2", False, np.eye(n_arrays)))
    return GammaStructure(tuple(terms), cells)


@st.composite
def cases(draw):
    lay = draw(layouts())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = (lay.n_arrays, lay.n_rows, lay.n_cols)
    alpha = rng.uniform(0.5, 2.0, shape) if draw(st.booleans()) else None
    shock = cs.ShockSpec(
        partition=cs.build_partition(draw(st.sampled_from(PARTITION_KINDS)), lay),
        include_within=draw(st.booleans()),
        shared_across_mean=draw(st.booleans()),
        alpha=alpha,
    )
    design = cs.assemble(lay, shock, "chain_ladder")
    name = draw(st.sampled_from(STRUCTURES))
    cells = lay.cells_per_array
    if name == "raw":
        structure = raw_structure(rng, lay.n_arrays, cells, draw(st.booleans()))
    else:
        structure = structure_for(name, lay.n_arrays, cells, design.A, design.B)
    return design, structure, rng


def random_omega(rng, structure):
    return np.where(structure.zero_allowed, 0.0, 0.1) + rng.uniform(0.0, 1.0, structure.n_params)


def solver_calls(y, design, structure, rng):
    """(GLS fits, points factored, steps or None) of a short generic solve."""
    gls, points = [], []
    gls_fit, model = estimation.gls_fit, estimation.SigmaModel

    def counted_gls(*args):
        gls.append(1)
        return gls_fit(*args)

    def counted_model(structure, omega):
        points.append(1)
        return model(structure, omega)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "gls_fit", counted_gls)
        patch.setattr(estimation, "SigmaModel", counted_model)
        try:
            init = random_omega(rng, structure)
            steps = estimation.ml_dispersion_generic(y, design, structure, init, max_iter=2).n_iter
        except cs.NumericalError:
            steps = None  # a short solve need not converge
    return len(gls), len(points), steps


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cases())
def test_fixed_location_is_the_gls_fit(case):
    design, structure, rng = case
    y = rng.normal(size=design.n_obs)
    invariant = estimation._invariant(design.factor, structure)
    gls, points, steps = solver_calls(y, design, structure, rng)
    event("invariant" if invariant else "moving")
    if not invariant:
        assert gls == points  # a GLS fit per point
        return
    location = estimation._least_squares(estimation._design_parts(y, design))
    assert gls == (0 if steps is None else 1)  # the fit returned is gls_fit's
    q0, qx = design.factor.q0, design.factor.qx
    Q = array_frame(qx, q0, design.layout.n_arrays)
    t_inv = design.factor.t_inv_times(np.eye(Q.shape[1]))
    for _ in range(2):
        sigma = cs.SigmaModel(structure, random_omega(rng, structure))
        fixed = location.fit(sigma)
        want = cs.gls_fit(y, design, sigma)
        # invariance makes Q^T Sigma^-1 Q the inverse of Q^T Sigma Q
        invariant_var = t_inv @ Q.T @ structure.sigma(sigma.omega) @ Q @ t_inv.T
        assert fixed.r_inv is None
        for got, ref in ((fixed.kappa_hat, want.kappa_hat), (invariant_var, want.var_kappa)):
            scale = np.abs(ref).max(initial=0.0)
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * scale)
        assert math.isclose(fixed.loglik, want.loglik, rel_tol=1e-10, abs_tol=1e-10)


def calendar_means():
    # unshared calendar means across and within three arrays: most are kept
    lay = ArrayLayout.triangle(3, 5)
    shock = cs.ShockSpec(
        partition=cs.build_partition("diagonal", lay), include_within=True, shared_across_mean=False
    )
    return cs.assemble(lay, shock, "hoerl"), np.random.default_rng(1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(designs())
@example(both_shock_means())
@example(calendar_means())
def test_block_factor_is_the_dense_factor(case):
    # LeastSquaresFactor factors M = [X | I_N (x) C0] by blocks. Against one dense
    # QR of M in the same column order (C0's arrays, then X), on the design
    # and on two aliased variants of it: a shock column in span(M), and a
    # column of C0 in span(C0), which is aliased in every array
    design, rng = case
    N, (k, r0) = design.layout.n_arrays, design.C0.shape
    X, C0, M = design.X, design.C0, dense.M(design)
    s = X.shape[1]
    y = rng.normal(size=design.n_obs)
    event("kept shock means" if s else "no shock means")
    # the design's own factor takes C0's from the reduction sweep, classical
    # Gram-Schmidt with one re-orthogonalisation pass on the kept columns,
    # and no QR of C0
    with counted_qr() as shapes:
        factor = design.factor
    assert shapes == array_frame_shapes(design)
    assert_dense_factor(factor, M, s, y)
    variants = (
        (X, C0, []),
        (np.hstack([X, M @ rng.normal(size=(M.shape[1], 1))]), C0, [s]),
        (X, np.hstack([C0, C0 @ rng.normal(size=(r0, 1))]), list(s + r0 + (r0 + 1) * np.arange(N))),
    )
    for Xv, C0v, alias in variants:
        Mv = array_frame(Xv, C0v, N)
        if Mv.shape[1] > Mv.shape[0]:
            continue  # more columns than rows: no square factor to compare
        labels = tuple(f"column_{j}" for j in range(Mv.shape[1]))
        sv = Xv.shape[1]
        kappa, _, _, var, aliased = dense.gls(y, Mv, sv)
        assert set(alias) <= set(aliased) and bool(aliased) == bool(alias)
        if aliased:
            event(f"aliased {'shock' if sv > s else 'array'} column")
            with pytest.raises(cs.DesignError, match="aliased columns: ") as raised:
                LeastSquaresFactor.of(Xv, C0v, N, labels)
            named = ast.literal_eval(str(raised.value).split("aliased columns: ")[1])
            if sv > s:  # the last column in either order: the same columns named
                assert named == [labels[j] for j in aliased]
            else:
                # an aliased C0 column leaves a rounding direction in Q0 (and
                # in the dense Q), which the shock columns are projected off:
                # only its copy in every array is sure to be named
                assert {labels[j] for j in alias} <= set(named)
            continue
        assert_dense_factor(LeastSquaresFactor.of(Xv, C0v, N, labels), Mv, sv, y)


def assert_dense_factor(factor, M, s, y):
    """``factor`` is the least-squares factor of M = [X | I_N (x) C0], X of
    s columns: kappa and T^-1 T^-T match one dense Householder QR of M (in
    the order C0's arrays, then X) to 1e-10, and Q = M T^-1 is
    [Qx | I_N (x) Q0], with columns orthonormal to 1e-12."""
    kappa, _, _, var, aliased = dense.gls(y, M, s)
    assert not aliased
    got, t_inv = factor.least_squares(y), factor.t_inv_times(np.eye(M.shape[1]))
    for got_, want in ((got, kappa), (t_inv @ t_inv.T, var)):
        scale = np.abs(want).max(initial=0.0)
        np.testing.assert_allclose(got_, want, rtol=1e-10, atol=1e-10 * scale)
    Q = array_frame(factor.qx, factor.q0, M.shape[0] // len(factor.q0))
    np.testing.assert_allclose(M @ t_inv, Q, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(Q.T @ Q, np.eye(Q.shape[1]), rtol=0.0, atol=1e-12)


def test_a_replaced_design_factors_its_own_blocks():
    # the sweep's basis is no field of the design, so a copy with a new C0
    # or X (dataclasses.replace) sweeps its own C0 on first read of its
    # factor: scaled columns, moved shock means, and a C0 one column wider
    design, rng = calendar_means()
    original = design.factor
    N, (k, r0) = design.layout.n_arrays, design.C0.shape
    scaled = design.C0 * rng.uniform(0.5, 2.0, r0)
    moved = design.X + 0.1 * rng.normal(size=design.X.shape)
    wider = np.hstack([design.C0, rng.normal(size=(k, 1))])
    m = design.X.shape[1] + N * (r0 + 1)
    copies = (
        dataclasses.replace(design, C0=scaled),
        dataclasses.replace(design, X=moved),
        dataclasses.replace(design, X=moved, C0=scaled),
        dataclasses.replace(
            design, C0=wider, full_labels=tuple(f"column_{j}" for j in range(m)),
            kept=tuple(range(m)), dropped=(), coef=np.zeros((m, 0)),
        ),
    )
    for copy in copies:
        assert copy.n_params < copy.n_obs
        factor = copy.factor
        assert factor.q0.shape == copy.C0.shape
        assert not np.array_equal(
            factor.t_inv_times(np.eye(copy.n_params)), original.t_inv_times(np.eye(design.n_params))
        )
        assert_dense_factor(factor, dense.M(copy), copy.X.shape[1], rng.normal(size=copy.n_obs))
    assert design.factor is original


def test_bundled_configurations(bundled):
    # 5 partitions x within shocks x shared mean x 3 structures: only these
    # three are not invariant
    coll = bundled.restrict_to_diagonals(15)
    lay = coll.layout
    y = cs.stack_log(coll)
    moving = set()
    for kind, within, shared, name in itertools.product(
        PARTITION_KINDS, (False, True), (False, True),
        ("cellwise_two_level", "diagonal_scalar", "example48"),
    ):
        design = toy_design(lay, kind=kind, shared_mean=shared, include_within=within)
        structure = structure_for(name, 2, lay.cells_per_array, design.A, design.B)
        if not estimation._invariant(design.factor, structure):
            moving.add((kind, within, shared, name))
    assert moving == {
        ("diagonal", False, True, "diagonal_scalar"),
        ("diagonal", False, False, "example48"),
        ("cell", False, False, "example48"),
    }


def test_fixed_location_forms_no_n_by_m_matrix():
    # identity Example48, N = 8 on a 12 x 12 triangle: 17 terms, n = 624 and
    # m = 184; factoring M, testing every term and the fit with Var[kappa]
    # that a solver on the fixed location returns may not hold two n x m
    # float64 matrices, let alone an m x m block per term
    lay = ArrayLayout.triangle(8, 12)
    design = toy_design(lay)
    structure = Example48(8, np.eye(lay.cells_per_array), np.eye(lay.cells_per_array))
    y = np.random.default_rng(4).normal(size=design.n_obs)
    sigma = cs.SigmaModel(structure, random_omega(np.random.default_rng(5), structure))
    n, m = design.n_obs, design.n_params
    tracemalloc.start()
    try:
        assert estimation._invariant(design.factor, structure)
        estimation._least_squares(estimation._design_parts(y, design))
        fit = cs.gls_fit(y, design, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * m * 8
    want = cs.gls_fit(y, design, sigma).var_kappa
    np.testing.assert_allclose(fit.var_kappa, want, rtol=0.0, atol=1e-10 * np.abs(want).max())


@contextlib.contextmanager
def counted_qr():
    """The shapes of the matrices ``np.linalg.qr`` factors within the block."""
    shapes, qr = [], np.linalg.qr

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "qr", counted)
        yield shapes


@pytest.fixture
def qr_shapes():
    with counted_qr() as shapes:
        yield shapes


def array_frame_shapes(design):
    """The QRs of the design's least-squares factor: the n x s_x projected
    shock-mean block when shock means are kept, and none of C0, whose
    factor is the reduction sweep's."""
    return [design.X.shape] if design.X.shape[1] else []


def unfactored(design):
    """A copy of ``design`` whose least-squares factor is not formed yet;
    it sweeps its own C0 on first read of the factor."""
    return dataclasses.replace(design)


def test_closed_form_path_makes_one_qr(ref_fit, qr_shapes):
    # one factor of C0, the sweep's, serves every array, and no QR of C0 is
    # taken; the reference design keeps no shock mean, so the fit at
    # omega-hat whitens no column: no QR in all
    design = unfactored(ref_fit["design"])
    fit = cs.ml_dispersion_cellwise(ref_fit["y"], design)
    assert design.X.shape[1] == 0
    assert qr_shapes == []
    np.testing.assert_allclose(fit.omega_hat, ref_fit["fit"].omega_hat, rtol=1e-12)


def test_closed_form_path_with_kept_shock_means(bundled, qr_shapes):
    # unshared calendar means are partly kept: their columns, projected off
    # I_N (x) Q0, take the factor's one QR, n x s_x (C0's factor is the
    # reduction sweep's), and the fit at omega-hat one more, of the
    # whitened [Qx | y]; nothing has N r0 columns
    coll = bundled.restrict_to_diagonals(15)
    design = toy_design(coll.layout, kind="diagonal", shared_mean=False)
    fit = cs.ml_dispersion_cellwise(cs.stack_log(coll), design)
    assert fit.n_iter == 1  # the fixed location, no solver steps
    assert design.X.shape[1] > 0
    n, s = design.X.shape
    assert qr_shapes == [design.X.shape, (n, s + 1)]


@pytest.mark.parametrize("name", ["cellwise_two_level", "diagonal_scalar"])
def test_generic_solver_on_an_invariant_design_makes_one_qr(ref_fit, qr_shapes, name):
    # no QR for M's factor (C0's is the sweep's, and the reference design
    # keeps no shock mean) and none at the points visited; the fit at
    # omega-hat whitens no column in the array frame, and every column of
    # Q with y, one n x (m + 1) QR, under the one-array DiagonalScalar(A),
    # whose cells are not one array's
    design = unfactored(ref_fit["design"])
    cells = design.layout.cells_per_array
    if name == "cellwise_two_level":
        structure = CellwiseTwoLevel(2, cells)
    else:
        structure = DiagonalScalar(design.A)
    fit = cs.ml_dispersion_generic(ref_fit["y"], design, structure, [0.01] * structure.n_params)
    assert fit.n_iter >= 1  # this start steps; a start that does not is the next test
    n, m = design.n_obs, design.n_params
    assert qr_shapes == ([] if name == "cellwise_two_level" else [(n, m + 1)])
    want = cs.gls_fit(ref_fit["y"], design, fit.sigma)
    np.testing.assert_allclose(fit.var_kappa, want.var_kappa, rtol=1e-10, atol=1e-14)
    assert fit.loglik == pytest.approx(want.loglik, rel=1e-12)


def test_generic_solver_start_that_needs_no_step_is_its_gls_fit(ref_fit, qr_shapes):
    # the invariance test and the fit at the start share the design's one
    # factor of C0, the sweep's, and at Sigma = C (x) I with no shock mean
    # kept that fit whitens no column: no QR in all
    y, design = ref_fit["y"], unfactored(ref_fit["design"])
    structure = CellwiseTwoLevel(2, design.layout.cells_per_array)
    fit = cs.ml_dispersion_generic(y, design, structure, [0.01, 0.01], free_mask=[False, False])
    assert fit.n_iter == 0
    assert qr_shapes == []
    assert fit.loglik == cs.gls_fit(y, design, fit.sigma).loglik


def test_profile_score_without_a_fit_does_not_test_invariance(ref_fit, bundled, monkeypatch):
    # the score the solver checks measure against is the GLS one, whatever
    # the invariance test decides
    def untested(*_):
        raise AssertionError("profile_score used the solvers' invariance test")

    monkeypatch.setattr(estimation, "_invariant", untested)
    y, design = ref_fit["y"], ref_fit["design"]
    structure = CellwiseTwoLevel(2, design.layout.cells_per_array)
    omega = ref_fit["fit"].omega_hat
    sigma = cs.SigmaModel(structure, omega)
    gls = cs.profile_score(y, design, structure, omega, fit=cs.gls_fit(y, design, sigma))
    np.testing.assert_allclose(
        cs.profile_score(y, design, structure, omega), gls,
        rtol=0.0, atol=1e-10 * np.abs(sigma.term_traces()).max(),
    )
    # where least squares moves the score, the GLS score is returned as is
    coll = bundled.restrict_to_diagonals(15)
    design = toy_design(coll.layout, kind="diagonal")
    structure = DiagonalScalar(design.A)
    y = cs.stack_log(coll)
    sigma = cs.SigmaModel(structure, [0.01, 0.02])
    np.testing.assert_array_equal(
        cs.profile_score(y, design, structure, [0.01, 0.02]),
        cs.profile_score(y, design, structure, [0.01, 0.02], fit=cs.gls_fit(y, design, sigma)),
    )


def test_generic_solver_on_a_moving_design_fits_each_point(bundled, qr_shapes):
    coll = bundled.restrict_to_diagonals(15)
    design = toy_design(coll.layout, kind="diagonal")
    structure = DiagonalScalar(design.A)
    y = cs.stack_log(coll)
    factor = design.factor  # formed before the solve
    assert factor.t_inv_times(np.eye(design.n_params)).shape == (design.n_params,) * 2
    qr_shapes.clear()
    fit = cs.ml_dispersion_generic(y, design, structure, [0.01, 0.01])
    # one QR of the whitened mixed columns and y, every column of Q under
    # this one-array Sigma, per point visited, and none of C0
    assert len(qr_shapes) >= fit.n_iter + 1
    n, m = design.n_obs, design.n_params
    assert qr_shapes == [(n, m + 1)] * len(qr_shapes)
    # the fit keeps no n x m matrix and no whitened factor, and forms no
    # dense M
    fields = [f.name for f in dataclasses.fields(fit)]
    assert [f for f in fields if np.shape(getattr(fit, f)) == (n, m)] == []
    assert "M" not in vars(design)


def test_closed_form_path_on_a_moving_design(bundled):
    # alpha that differs from cell to cell moves span(M) under the shared
    # shock, so the closed-form point only starts the generic solver
    coll = bundled.restrict_to_diagonals(15)
    lay = coll.layout
    alpha = np.random.default_rng(1).uniform(0.5, 1.5, (2, lay.n_rows, lay.n_cols))
    shock = cs.ShockSpec(
        partition=cs.build_partition("cell", lay), shared_across_mean=True, alpha=alpha
    )
    design = cs.assemble(lay, shock, "chain_ladder")
    y = cs.stack_log(coll)
    structure = CellwiseTwoLevel(2, lay.cells_per_array)
    assert not estimation._invariant(design.factor, structure)
    tests = []
    invariant = estimation._invariant

    def counted(*args):
        tests.append(1)
        return invariant(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "_invariant", counted)
        fit = cs.ml_dispersion_cellwise(y, design)
    assert len(tests) == 1  # the generic solver does not test invariance again
    gen = cs.ml_dispersion_generic(y, design, structure, [0.01, 0.01])
    np.testing.assert_allclose(fit.omega_hat, gen.omega_hat, rtol=1e-8)
    assert np.max(np.abs(fit.score)) < 1e-9


def test_one_qr_of_c0_per_design(bundled, qr_shapes, monkeypatch):
    # a GLS fit, both ML solvers, under the array-frame and a one-array Sigma,
    # and a forecast share the design's one factor: C0 is orthogonalised
    # once, by the reduction sweep, whose basis is the factor's, and takes
    # no QR; the projected shock means take one; every other QR is of
    # whitened mixed columns and y
    swept, sweep = [], design_module._sweep

    def counted(columns, *args, **kwargs):
        swept.append(columns.shape)
        return sweep(columns, *args, **kwargs)

    monkeypatch.setattr(design_module, "_sweep", counted)
    coll = bundled.restrict_to_diagonals(15)
    design = toy_design(coll.layout, kind="diagonal", shared_mean=False)
    y = cs.stack_log(coll)
    cellwise = CellwiseTwoLevel(2, design.layout.cells_per_array)
    assert design.X.shape[1] > 0 and design.X.shape != design.C0.shape
    cs.gls_fit(y, design, cs.SigmaModel(cellwise, [0.01, 0.02]))
    fit = cs.ml_dispersion_cellwise(y, design)
    cs.ml_dispersion_generic(y, design, cellwise, [0.01, 0.01])
    cs.ml_dispersion_generic(y, design, DiagonalScalar(design.A), [0.01, 0.01])
    # the last fitted diagonal: its calendar mean is identified
    last_diagonal = [(i, 16 - i) for i in range(1, 16)]
    cs.predict(fit, cs.build_forecast_design(design, last_diagonal))
    # the unreduced C0, then the P unreduced shock-mean columns, each once
    P, N = design.shock.partition.n_subsets, design.layout.n_arrays
    q = (len(design.full_labels) - P) // N
    assert swept == [(design.C0.shape[0], q), (design.n_obs, P)]
    assert qr_shapes[:1] == array_frame_shapes(design)
    (n, s), m = design.X.shape, design.n_params
    assert set(qr_shapes[1:]) == {(n, s + 1), (n, m + 1)}


def test_generic_solver_on_a_moving_design_whitens_qx_per_point(bundled, qr_shapes):
    # example48 under the cell partition with unshared means is not
    # invariant, and Sigma = C (x) I over M's arrays: each point whitens
    # only Qx and y, one n x (s_x + 1) QR, and none of C0
    coll = bundled.restrict_to_diagonals(15)
    design = toy_design(coll.layout, kind="cell", shared_mean=False)
    structure = structure_for("example48", 2, design.layout.cells_per_array, None, None)
    y = cs.stack_log(coll)
    assert not estimation._invariant(design.factor, structure)
    qr_shapes.clear()
    fit = cs.ml_dispersion_generic(y, design, structure, [0.01] * structure.n_params)
    assert len(qr_shapes) >= fit.n_iter + 1
    n, s = design.X.shape
    assert qr_shapes == [(n, s + 1)] * len(qr_shapes)
    assert fit.frame is not None


def assert_is_the_gls_fit_at_its_omega(fit, y, design, structure):
    """The solver's fit is gls_fit's at omega-hat to the bit, and so is the
    profile score with and without it."""
    want = cs.gls_fit(y, design, cs.SigmaModel(structure, fit.omega_hat))
    for name in ("kappa_hat", "residual", "r_inv"):
        np.testing.assert_array_equal(getattr(fit, name), getattr(want, name), err_msg=name)
    assert fit.loglik == want.loglik
    assert (fit.frame is None) == (want.frame is None)
    for got, ref in zip(fit.frame or (), want.frame or ()):
        np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(
        cs.profile_score(y, design, structure, fit.omega_hat, fit=fit),
        cs.profile_score(y, design, structure, fit.omega_hat),
    )


def bundled_case(kind, shared_mean, name):
    """A case on the bundled rectangles (t <= 15), as ``cases`` draws them."""
    lay = load_bundled_rectangles().restrict_to_diagonals(15).layout
    design = toy_design(lay, kind=kind, shared_mean=shared_mean)
    structure = structure_for(name, 2, lay.cells_per_array, design.A, design.B)
    return design, structure, np.random.default_rng(7)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cases())
@example(bundled_case("diagonal", True, "diagonal_scalar"))  # moving, subset frame
@example(bundled_case("cell", False, "example48"))  # moving, array frame
def test_solvers_return_the_gls_fit_at_their_point(case):
    design, structure, rng = case
    y = rng.normal(size=design.n_obs)
    invariant = estimation._invariant(design.factor, structure)
    on_arrays = estimation._array_side_only(structure, design.C0)
    event(f"{'invariant' if invariant else 'moving'}, {'array' if on_arrays else 'other'} frame")
    # the noise components are held at their start: free, they often
    # collapse on these small designs, whose residuals have few degrees of
    # freedom
    init = random_omega(rng, structure)
    try:
        fit = cs.ml_dispersion_generic(y, design, structure, init, free_mask=structure.zero_allowed)
    except cs.NumericalError:
        event("generic solve stopped")
    else:
        assert_is_the_gls_fit_at_its_omega(fit, y, design, structure)
    if structure.kind == "cellwise_two_level" and design.layout.n_arrays > 1:
        try:
            fit = cs.ml_dispersion_cellwise(y, design)
        except cs.NumericalError:
            event("closed form stopped")
        else:
            assert_is_the_gls_fit_at_its_omega(fit, y, design, structure)
