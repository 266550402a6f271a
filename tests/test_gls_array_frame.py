"""GLS from the design's least-squares factor, in every frame.

``gls_fit`` starts from the design's least-squares factor
M = [Qx | I_N (x) Q0] T and takes one QR of the whitened columns that Sigma
mixes, with y: only Qx at Sigma = C (x) I over M's own arrays, where
I_N (x) Q0 passes through as L (x) I_r0, C = L L^T, and every column of Q
under any other Sigma. These tests compare it with the dense GLS reference
(``dense.gls``), on random layouts, partitions and omega, in the array frame,
the dense frame, a subset frame whose arrays are not M's and at Sigma = I,
and bound what it factors and what it holds, here and in a subset frame of
several groups over M's arrays, where it factors the few rows
``SigmaModel.whitened_rows`` gives.
"""

import ast
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import commonshock as cs
from commonshock.arrays import ArrayLayout
from commonshock import estimation
from commonshock.covariance import CellwiseTwoLevel, DiagonalScalar, Example48, structure_for
from commonshock.partitions import PARTITION_KINDS
import dense
from conftest import toy_design
from test_design_properties import designs
from test_invariance import array_frame_shapes, calendar_means, counted_qr, qr_shapes  # noqa: F401


def with_aliased_column(design, rng, where):
    """The design with one more column, aliased: a shock column in span(M)
    (``where`` = "shock"), or a column of C0 in span(C0), aliased in every
    array. Columns are labelled by their index."""
    X, C0 = design.X, design.C0
    if where == "shock":
        X = np.hstack([X, dense.M(design) @ rng.normal(size=(design.n_params, 1))])
    else:
        C0 = np.hstack([C0, C0 @ rng.normal(size=(C0.shape[1], 1))])
    m = X.shape[1] + design.layout.n_arrays * C0.shape[1]
    return dataclasses.replace(
        design, X=X, C0=C0, full_labels=tuple(f"column_{j}" for j in range(m)),
        kept=tuple(range(m)), dropped=(), coef=np.zeros((m, 0)),
    )


def gls_against_dense(y, design, structure, omega):
    """(named, want): the columns gls_fit names as aliased and those the
    dense reference finds, both None where there are none; where there are
    none, gls_fit must be the dense fit, take one QR beyond the factor's
    (of the k whitened mixed columns and y) where k > 0 and none where
    k = 0, and keep the frame exactly at Sigma = C (x) I over M's arrays."""
    bare = isinstance(design, np.ndarray)
    if bare:
        M, s, labels = design, 0, tuple(f"column_{j}" for j in range(design.shape[1]))
    else:
        M, s, labels = dense.M(design), design.X.shape[1], design.labels
    sigma = cs.SigmaModel(structure, omega)
    kappa, d, loglik, var, aliased = dense.gls(y, M, s, structure.sigma(omega))
    if aliased:
        with pytest.raises(cs.DesignError, match="aliased columns: ") as raised:
            cs.gls_fit(y, design, sigma)
        named = ast.literal_eval(str(raised.value).split("aliased columns: ")[1])
        return named, [labels[j] for j in aliased]
    # a design's factor is formed here, before the count; a bare matrix is
    # swept again on each call, which takes no QR
    factor = estimation._design_parts(y, design)[-1]
    on_arrays = estimation._array_side_only(structure, factor.q0)
    k = factor.qx.shape[1] if on_arrays else M.shape[1]
    with counted_qr() as shapes:
        fit = cs.gls_fit(y, design, sigma)
    assert shapes == [(y.size, k + 1)] * (k > 0)
    assert (fit.frame is not None) == on_arrays
    if on_arrays:
        np.testing.assert_array_equal(fit.frame[0], structure.group_sides(omega)[0])
    # the residual on the scale of y: a saturated fit leaves rounding only
    for got, want, scale in (
        (fit.kappa_hat, kappa, np.abs(kappa).max(initial=0.0)),
        (fit.residual, d, np.abs(y).max(initial=0.0)),
        (fit.var_kappa, var, np.abs(var).max(initial=0.0)),
    ):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * scale)
    assert math.isclose(fit.loglik, loglik, rel_tol=1e-10, abs_tol=1e-10)
    return None, None


@st.composite
def frame_cases(draw):
    """(y, design, structure, omega): an assembled design, with or without
    kept shock-mean columns, or a bare one-array matrix, under the
    cell-matched structure or identity Example48 (Sigma = C (x) I over M's
    arrays), Example48 with a random operator and R (the dense frame), or,
    on N >= 2 arrays, DiagonalScalar(A) with alpha unequal across the
    arrays (a subset frame whose arrays are not M's). Omega is random, with
    the shared shock sometimes 0, or gives Sigma = I."""
    if draw(st.booleans()):
        design, rng = draw(designs())
        n_arrays, cells = design.layout.n_arrays, design.layout.cells_per_array
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        n_arrays, cells = 1, draw(st.integers(1, 12))
        design = rng.normal(size=(cells, draw(st.integers(0, cells))))
    kinds = ["cellwise_two_level", "example48", "dense"] + ["foreign"] * (n_arrays > 1)
    kind = draw(st.sampled_from(kinds))
    layout, partition = getattr(design, "layout", None), draw(st.sampled_from(PARTITION_KINDS))
    structure = case_structure(kind, n_arrays, cells, rng, layout, partition)
    omega = np.where(structure.zero_allowed, 0.01, 0.0) + rng.uniform(0.0, 0.2, structure.n_params)
    case = draw(st.sampled_from(["random", "no shared shock", "identity"]))
    if case == "no shared shock":
        omega[0] = 0.0
    elif case == "identity":
        omega = np.where(structure.zero_allowed, 0.0, 1.0)
    event(f"{kind}, {case}")
    return rng.normal(size=n_arrays * cells), design, structure, omega


def case_structure(kind, n_arrays, cells, rng, layout=None, partition="diagonal"):
    """The structure of ``frame_cases``' ``kind`` over N arrays of ``cells``
    cells; "foreign" reads the arrays' ``layout`` and ``partition``."""
    if kind == "dense":
        G = rng.normal(size=(cells, cells))
        return Example48(n_arrays, rng.normal(size=(cells, cells)), G @ G.T / cells)
    if kind == "foreign":
        alpha = rng.uniform(0.5, 2.0, (n_arrays, layout.n_rows, layout.n_cols))
        shock = cs.ShockSpec(cs.build_partition(partition, layout), alpha=alpha)
        return DiagonalScalar(cs.assemble(layout, shock).A)
    return structure_for(kind, n_arrays, cells, None, None)


def kept_shock_means_case(kind, identity=False):
    # unshared calendar means across and within three arrays: most are kept
    design, rng = calendar_means()
    lay = design.layout
    structure = case_structure(kind, 3, lay.cells_per_array, rng, lay)
    omega = rng.uniform(0.01, 0.1, structure.n_params)
    if identity:
        omega = np.where(structure.zero_allowed, 0.0, 1.0)
    return rng.normal(size=design.n_obs), design, structure, omega


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(frame_cases())
@example(kept_shock_means_case("cellwise_two_level"))
@example(kept_shock_means_case("example48"))
@example(kept_shock_means_case("dense"))
@example(kept_shock_means_case("foreign"))
@example(kept_shock_means_case("cellwise_two_level", identity=True))
def test_gls_fit_is_the_dense_gls_fit(case):
    y, design, structure, omega = case
    bare = isinstance(design, np.ndarray)
    event("bare matrix" if bare else "kept shock means" if design.X.shape[1] else "no shock means")
    assert gls_against_dense(y, design, structure, omega) == (None, None)
    if bare:
        return
    # an aliased column is named as the dense reference names it: a shock
    # column in span(M) is the last column of either order; an aliased C0
    # column leaves a rounding direction in Q0 (and in the dense Q), which
    # the shock columns are projected off, so only its copy in every array
    # is sure to be named
    rng = np.random.default_rng(y.size)
    for where in ("shock", "C0"):
        variant = with_aliased_column(design, rng, where)
        if variant.n_params > variant.n_obs:
            continue  # more columns than rows: no square factor to compare
        named, want = gls_against_dense(rng.normal(size=variant.n_obs), variant, structure, omega)
        assert named is not None and want is not None
        if where == "shock":
            assert named == want
        else:
            s, r0 = variant.X.shape[1], variant.C0.shape[1]
            copies = {f"column_{s + (a + 1) * r0 - 1}" for a in range(variant.layout.n_arrays)}
            assert copies <= set(named) and copies <= set(want)


@pytest.mark.parametrize("v2", [1e-40, 1e6, 1e24])
def test_whitening_does_not_change_which_columns_are_aliased(v2):
    # aliasing is judged on M's least-squares factor alone, whatever Sigma
    # is: at Sigma = v2 I the fit is least squares, with no column named,
    # however far v2 lies from 1 (the dense whitened QR, whose pivots scale
    # by 1 / sqrt(v2), names 12 of the 30 columns at v2 = 1e24)
    design = calendar_means()[0]
    y = np.random.default_rng(2).normal(size=design.n_obs)
    ols = cs.gls_fit(y, design, cs.SigmaModel(CellwiseTwoLevel(3, 15), [0.0, 1.0]))
    fit = cs.gls_fit(y, design, cs.SigmaModel(CellwiseTwoLevel(3, 15), [0.0, v2]))
    np.testing.assert_allclose(fit.kappa_hat, ols.kappa_hat, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(fit.var_kappa, v2 * ols.var_kappa, rtol=1e-10, atol=1e-10 * v2)


def test_gls_fit_forms_no_n_by_m_matrix(qr_shapes):
    # identity Example48, N = 8 on a 16 x 16 triangle with unshared calendar
    # means, of which 14 are kept: n = 1088 and m = 262. The design's factor
    # takes one QR, of the n x 14 projected shock block (C0's factor is the
    # reduction sweep's), and the fit one of the n x 15 whitened [Qx | y];
    # together they hold less than one n x m float64 matrix, where the
    # whitened M alone would take one
    lay = ArrayLayout.triangle(8, 16)
    design = toy_design(lay, kind="diagonal", shared_mean=False)
    cells = lay.cells_per_array
    structure = Example48(8, np.eye(cells), np.eye(cells))
    rng = np.random.default_rng(5)
    omega = rng.uniform(0.01, 0.1, structure.n_params)
    y = rng.normal(size=design.n_obs)
    sigma = cs.SigmaModel(structure, omega)
    n, m = design.n_obs, design.n_params
    assert design.X.shape[1] > 0
    tracemalloc.start()
    try:
        fit = cs.gls_fit(y, design, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * m * 8
    assert qr_shapes == array_frame_shapes(design) + [(n, design.X.shape[1] + 1)]
    assert fit.frame is not None
    full = structure.sigma(omega)
    kappa, _, loglik, var, _ = dense.gls(y, dense.M(design), design.X.shape[1], full)
    np.testing.assert_allclose(fit.kappa_hat, kappa, rtol=1e-10, atol=1e-10 * np.abs(kappa).max())
    np.testing.assert_allclose(fit.var_kappa, var, rtol=1e-10, atol=1e-10 * np.abs(var).max())
    assert math.isclose(fit.loglik, loglik, rel_tol=1e-10)


def test_frame_fit_holds_no_m_by_m_matrix():
    # cellwise_two_level, N = 20 on a 20 x 20 triangle with unshared
    # calendar means, of which some are kept: Sigma = C (x) I over M's
    # arrays, so Var[kappa] is held as the m x s_x r_inv = T^-1 [S^-1; 0] and
    # the frame (C, R0^-1); the fit, with the design's factor formed before
    # it, allocates less than one m x m float64 matrix and keeps none
    lay = ArrayLayout.triangle(20, 20)
    design = toy_design(lay, kind="diagonal", shared_mean=False)
    structure = CellwiseTwoLevel(20, lay.cells_per_array)
    y = np.random.default_rng(9).normal(size=design.n_obs)
    sigma = cs.SigmaModel(structure, [0.01, 0.02])
    m, s = design.n_params, design.X.shape[1]
    assert s > 0 and design.factor is not None
    tracemalloc.start()
    try:
        fit = cs.gls_fit(y, design, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * m * 8
    assert fit.frame is not None and fit.r_inv.shape == (m, s)
    held = [*vars(fit).values(), *fit.frame, *vars(design.factor).values()]
    assert [a for a in held if isinstance(a, np.ndarray) and a.shape == (m, m)] == []


def test_subset_frame_fit_forms_no_n_by_m_matrix(qr_shapes):
    # diagonal_scalar on the diagonal partition, N = 4 on a 30 x 30
    # triangle: one subset per calendar diagonal, grouped by its length,
    # and the complement. Beyond the design's factor the fit takes one QR of
    # one array's cells and one of few rows, so it holds less than one n x m
    # float64 matrix (2.6 MB against 3.5), where whitening the n x m Q takes
    # 22 MB
    lay = ArrayLayout.triangle(4, 30)
    design = toy_design(lay, kind="diagonal")
    structure = structure_for("diagonal_scalar", 4, lay.cells_per_array, design.A, design.B)
    frame = structure.subset_frame
    assert frame is not None and len(frame.rank) > 2
    rng = np.random.default_rng(8)
    omega = rng.uniform(0.01, 0.1, structure.n_params)
    y = rng.normal(size=design.n_obs)
    sigma = cs.SigmaModel(structure, omega)
    n, m = design.n_obs, design.n_params
    assert design.factor is not None
    tracemalloc.start()
    try:
        fit = cs.gls_fit(y, design, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * m * 8
    factored = array_frame_shapes(design)
    assert qr_shapes[: len(factored)] == factored
    assert [rows for rows, _ in qr_shapes[len(factored) :]][0] == lay.cells_per_array
    assert len(qr_shapes) == len(factored) + 2 and qr_shapes[-1][0] < n / 4
    assert fit.frame is None
    full = structure.sigma(omega)
    kappa, _, loglik, var, _ = dense.gls(y, dense.M(design), design.X.shape[1], full)
    np.testing.assert_allclose(fit.kappa_hat, kappa, rtol=1e-10, atol=1e-10 * np.abs(kappa).max())
    np.testing.assert_allclose(fit.var_kappa, var, rtol=1e-10, atol=1e-10 * np.abs(var).max())
    assert math.isclose(fit.loglik, loglik, rel_tol=1e-10)
