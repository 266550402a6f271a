"""Property tests of the generic ML solver over random layouts and structures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import commonshock as cs
from commonshock.arrays import ArrayLayout
from commonshock.covariance import DiagonalScalar, Example48
from commonshock.partitions import PARTITION_KINDS
from conftest import toy_design


def solver_problem(n_arrays, mask, kind, within, structure_name, seed):
    """Data drawn from the chosen covariance structure on a small layout.

    ``structure_name`` is ``diagonal_scalar`` (with a within-shock component
    when ``within``) or ``example48`` with the identity development operator,
    as the CLI builds them. Returns (y, design, structure).
    """
    lay = ArrayLayout.triangle(n_arrays, 5) if mask == "triangle" else ArrayLayout.full(n_arrays, 4, 4)
    design = toy_design(lay, kind=kind, include_within=within)
    if structure_name == "diagonal_scalar":
        structure = DiagonalScalar(design.A, design.B if within else None)
    else:
        eye = np.eye(lay.cells_per_array)
        structure = Example48(n_arrays, eye, eye)
    rng = np.random.default_rng(seed)
    truth = np.where(structure.zero_allowed, 0.0, 0.005) + rng.uniform(0.0, 0.05, structure.n_params)
    chol = np.linalg.cholesky(structure.sigma(truth))
    return chol @ rng.standard_normal(lay.n_observations), design, structure


@st.composite
def solver_cases(draw):
    structure_name = draw(st.sampled_from(["diagonal_scalar", "example48"]))
    problem = dict(
        n_arrays=draw(st.integers(1, 3)),
        mask=draw(st.sampled_from(["full", "triangle"])),
        kind=draw(st.sampled_from(list(PARTITION_KINDS))),
        within=draw(st.booleans()) if structure_name == "diagonal_scalar" else False,
        structure_name=structure_name,
        seed=draw(st.integers(0, 2**16)),
    )
    y, design, structure = solver_problem(**problem)
    k = structure.n_params
    positive = st.floats(1e-3, 0.1)
    init = [
        draw(st.one_of(st.just(0.0), positive) if zero_ok else positive)
        for zero_ok in structure.zero_allowed
    ]
    free = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    return y, design, structure, np.array(init), np.array(free)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(solver_cases())
def test_generic_solver_reaches_a_projected_stationary_point(case):
    y, design, structure, init, free = case
    floor = np.where(structure.zero_allowed, 0.0, 1e-14 * np.var(y))
    try:
        fit = cs.ml_dispersion_generic(y, design, structure, init, free_mask=free)
        omega, loglik = fit.omega_hat, fit.loglik
        collapsed = np.zeros(omega.size, dtype=bool)
    except cs.NumericalError as err:
        # the only failure allowed: the maximum lies below the floor of a
        # component that may not reach zero
        assert "collapses below the positivity floor" in str(err)
        omega = err.last_omega
        loglik = cs.gls_fit(y, design, cs.SigmaModel(structure, omega)).loglik
        collapsed = free & (omega == floor) & (floor > 0)
        assert collapsed.any()
    score = cs.profile_score(y, design, structure, omega)
    for k in np.where(free)[0]:
        outward = score[k] < 0.0 and (omega[k] == 0.0 or collapsed[k])
        assert abs(score[k]) < 1e-6 or outward
    np.testing.assert_array_equal(omega[~free], init[~free])
    start = cs.gls_fit(y, design, cs.SigmaModel(structure, init)).loglik
    assert loglik >= start
