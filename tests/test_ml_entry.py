"""The one ML entry: with no start, the cell-matched closed form is its start.

``ml_dispersion_generic`` without ``init_omega`` starts the cell-matched
model, Sigma = sigma2 (J_N (x) I) + v2 I over M's own arrays, at the closed
form of the least-squares residual, whichever constructor built the
structure. On an invariant design that point is returned with no score
evaluation, and it must be the point scoring reaches from [0.01, 0.01]
(acceptance criterion 2's rule); on any other design scoring starts there.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import commonshock as cs
from commonshock import estimation
from commonshock.arrays import ArrayLayout
from commonshock.covariance import CellwiseTwoLevel, structure_for
import dense
from conftest import toy_design


@st.composite
def cell_matched_cases(draw):
    """(y, design, structure) of the cell-matched model on the cell partition.

    N is 2 to 4, the mask full (4 x 4) or a triangle (5 x 5), the shock
    means shared or not, and the structure ``CellwiseTwoLevel`` or
    ``diagonal_scalar`` as the CLI builds it. With ``moving``, the arrays'
    shock coefficients differ (``CellwiseTwoLevel`` only: ``diagonal_scalar``
    then leaves the cell-matched form), so the design need not be invariant.
    """
    n_arrays = draw(st.integers(2, 4))
    lay = (
        ArrayLayout.triangle(n_arrays, 5)
        if draw(st.booleans())
        else ArrayLayout.full(n_arrays, 4, 4)
    )
    name = draw(st.sampled_from(["cellwise_two_level", "diagonal_scalar", "moving"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    alpha = None
    if name == "moving":
        alpha = rng.uniform(0.5, 1.5, (n_arrays, lay.n_rows, lay.n_cols))
    shock = cs.ShockSpec(
        partition=cs.build_partition("cell", lay),
        shared_across_mean=draw(st.booleans()),
        alpha=alpha,
    )
    design = cs.assemble(lay, shock, "chain_ladder")
    cells = lay.cells_per_array
    if name == "diagonal_scalar":
        structure = structure_for(name, n_arrays, cells, design.A, design.B)
    else:
        structure = CellwiseTwoLevel(n_arrays, cells)
    sigma, v = rng.uniform(0.02, 0.2, 2)
    noise = sigma * np.tile(rng.standard_normal(cells), n_arrays)
    noise += v * rng.standard_normal(design.n_obs)
    y = dense.M(design) @ rng.normal(size=design.n_params) + noise
    return y, design, structure


def scored_points(monkeypatch):
    """The omegas of every ``profile_score`` call the solver makes from now on."""
    points = []
    score = estimation.profile_score

    def counted(y, design, structure, omega, **kwargs):
        points.append(np.array(omega, dtype=float))
        return score(y, design, structure, omega, **kwargs)

    monkeypatch.setattr(estimation, "profile_score", counted)
    return points


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cell_matched_cases())
def test_no_start_is_the_closed_form_of_the_least_squares_residual(case):
    y, design, structure = case
    lay = design.layout
    assert estimation._cell_matched(structure, design.C0)
    kappa = design.factor.least_squares(y)
    try:
        closed = estimation.ml_dispersion_cellwise_closed_form(
            *(y - design.times(kappa)).reshape(lay.n_arrays, -1)
        )[:2]
    except (cs.ConfigError, cs.NumericalError) as exc:
        # unshared means on the cell partition leave residuals that sum to
        # zero over the arrays (sigma2 is not identified, ConfigError), or
        # identical ones (NumericalError): the entry raises as the closed
        # form does
        event("degenerate residual")
        with pytest.raises(type(exc), match="absorb the shared shock|identical"):
            cs.ml_dispersion_generic(y, design, structure)
        return
    invariant = estimation._invariant(design.factor, structure)
    event("invariant" if invariant else "moving")
    with pytest.MonkeyPatch.context() as patch:
        points = scored_points(patch)
        try:
            fit = cs.ml_dispersion_generic(y, design, structure)
        except cs.NumericalError:
            # scoring from the closed form may stop on a moving design; its
            # first point is still the closed form
            assert not invariant and points
            fit = None
    if not invariant:
        np.testing.assert_array_equal(points[0], closed)
        return
    assert points == [] and fit.n_iter == 1
    np.testing.assert_array_equal(fit.omega_hat, closed)
    want = cs.gls_fit(y, design, cs.SigmaModel(structure, closed))
    assert fit.loglik == want.loglik
    np.testing.assert_array_equal(fit.kappa_hat, want.kappa_hat)
    try:
        scored = cs.ml_dispersion_generic(y, design, structure, [0.01, 0.01])
    except cs.NumericalError:
        event("scoring from [0.01, 0.01] stopped")
        return
    np.testing.assert_array_less(
        np.abs(scored.omega_hat - fit.omega_hat), 1e-8 * np.abs(fit.omega_hat) + 1e-300
    )


def test_a_given_start_is_scored_from(ref_fit, monkeypatch):
    # the closed form's own point, given as the start, is scored and not
    # taken as the answer: criterion 2 compares two routes
    y, design = ref_fit["y"], ref_fit["design"]
    structure = ref_fit["fit"].sigma.structure
    points = scored_points(monkeypatch)
    fit = cs.ml_dispersion_generic(y, design, structure, ref_fit["fit"].omega_hat)
    assert len(points) >= 1 and fit.score is not None
    np.testing.assert_array_equal(points[0], ref_fit["fit"].omega_hat)


def test_a_partly_given_start_fills_the_rest(ref_fit, monkeypatch):
    # a None entry starts at START, and a held component at its value
    y, design = ref_fit["y"], ref_fit["design"]
    structure = ref_fit["fit"].sigma.structure
    points = scored_points(monkeypatch)
    fit = cs.ml_dispersion_generic(y, design, structure, [0.008, None], free_mask=[False, True])
    np.testing.assert_array_equal(points[0], [0.008, estimation.START])
    assert fit.omega_hat[0] == 0.008


def test_nothing_free_is_one_gls_fit_and_its_score(ref_fit, monkeypatch):
    # no least-squares location, no invariance test: the GLS fit at the
    # given point and its score
    y, design = ref_fit["y"], ref_fit["design"]
    structure = ref_fit["fit"].sigma.structure

    def untested(*_):
        raise AssertionError("a fit with nothing free tested invariance")

    monkeypatch.setattr(estimation, "_invariant", untested)
    points = scored_points(monkeypatch)
    fit = cs.ml_dispersion_generic(y, design, structure, [0.008, 0.015], free_mask=[False, False])
    assert len(points) == 1 and fit.n_iter == 0
    want = cs.gls_fit(y, design, cs.SigmaModel(structure, [0.008, 0.015]))
    assert fit.loglik == want.loglik
    np.testing.assert_array_equal(fit.score, cs.profile_score(y, design, structure, [0.008, 0.015]))


def test_other_structures_start_at_one_constant(bundled, monkeypatch):
    # example48 is not the cell-matched model: no closed form, every
    # component starts at START
    coll = bundled.restrict_to_diagonals(15)
    design = toy_design(coll.layout)
    structure = structure_for("example48", 2, coll.layout.cells_per_array, None, None)
    points = scored_points(monkeypatch)
    try:
        cs.ml_dispersion_generic(cs.stack_log(coll), design, structure, max_iter=1)
    except cs.NumericalError:
        pass
    np.testing.assert_array_equal(points[0], np.full(structure.n_params, estimation.START))
