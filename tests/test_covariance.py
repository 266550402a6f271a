import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import commonshock as cs
from commonshock.covariance import CellwiseTwoLevel, DiagonalScalar, Example48, GammaStructure, Term


def random_example48(n_arrays, cells, seed):
    rng = np.random.default_rng(seed)
    R0 = rng.normal(size=(cells, cells))
    return Example48(n_arrays, rng.normal(size=(cells, cells)), R0 @ R0.T)


def random_terms(seed):
    # general loadings: a 2 x 2 array side, a non-square cell side, and a
    # non-unit array side on an identity cell side
    rng = np.random.default_rng(seed)
    terms = (
        Term("a", True, rng.normal(size=(2, 2)), rng.normal(size=(3, 2))),
        Term("b", True, rng.normal(size=(2, 1)), None, np.diag([0.5, 2.0, 1.0])),
        Term("c", False, rng.normal(size=(2, 1))),
        Term("v2", False, np.eye(2)),
    )
    return GammaStructure(terms, 3)


def central_difference(structure, omega, k, h=1e-5):
    hi = np.array(omega, dtype=float)
    lo = hi.copy()
    hi[k] += h
    lo[k] -= h
    return (structure.sigma(hi) - structure.sigma(lo)) / (2 * h)


class TestSigmaFromGamma:
    def test_identity_gamma_identity_l(self):
        # Gamma(1, 1) = I for a one-subset structure on two cells; L = I
        structure = DiagonalScalar(np.ones((2, 1)))
        np.testing.assert_array_equal(structure.gamma_matrix([1.0, 1.0]), np.eye(3))
        model = cs.sigma_from_gamma(np.eye(3), structure, [1.0, 1.0])
        np.testing.assert_array_equal(model.sigma, np.eye(3))

    def test_cell_matched_two_array_formula(self):
        s2, v2, cells = 0.31, 0.17, 4
        structure = CellwiseTwoLevel(2, cells)
        direct = structure.sigma([s2, v2])
        expected = s2 * np.kron(np.ones((2, 2)), np.eye(cells)) + v2 * np.eye(2 * cells)
        np.testing.assert_allclose(direct, expected, atol=1e-14)
        # and through L Gamma L^T
        via_lgl = cs.sigma_from_gamma(structure.l_matrix(), structure, [s2, v2])
        np.testing.assert_allclose(via_lgl.sigma, expected, atol=1e-12)

    def test_shared_operator_reduces_to_cell_matched(self):
        # Phi = 0, A0 = R = I, equal noise scales
        cells, s2, v2 = 3, 0.2, 0.4
        ex = Example48(2, np.eye(cells), np.eye(cells))
        omega = [s2, 0.0, 0.0, v2, v2]
        np.testing.assert_allclose(
            ex.sigma(omega), CellwiseTwoLevel(2, cells).sigma([s2, v2]), atol=1e-14
        )


class TestExample48:
    def test_single_array_white_case(self):
        ex = Example48(1, np.eye(2), np.eye(2))
        np.testing.assert_allclose(
            ex.sigma([0.3, 0.0, 0.5]), 0.8 * np.eye(2), atol=1e-14
        )

    def test_matches_explicit_l_gamma_l(self):
        rng = np.random.default_rng(5)
        cells = 3
        A0 = rng.normal(size=(cells, cells))
        R0 = rng.normal(size=(cells, cells))
        R = R0 @ R0.T  # a covariance, symmetric psd
        ex = Example48(2, A0, R)
        omega = [0.4, 0.2, 0.6, 0.9, 1.1]
        via_lgl = cs.sigma_from_gamma(ex.l_matrix(), ex, omega)
        np.testing.assert_allclose(via_lgl.sigma, ex.sigma(omega), atol=1e-12)
        # three arrays: per-array blocks of Gamma and L in array order
        ex3 = random_example48(3, cells, seed=6)
        omega3 = [0.4, 0.1, 0.2, 0.3, 0.8, 0.9, 1.1]
        via_lgl = cs.sigma_from_gamma(ex3.l_matrix(), ex3, omega3)
        np.testing.assert_allclose(via_lgl.sigma, ex3.sigma(omega3), rtol=1e-12, atol=1e-12)

    def test_two_array_scalar_cell_values(self):
        model = cs.sigma_example48(
            2, 0.1**2, [0.0, 0.0], [0.15**2, 0.15**2], np.eye(1), np.eye(1)
        )
        np.testing.assert_allclose(
            model.sigma, [[0.0325, 0.01], [0.01, 0.0325]], atol=1e-15
        )


class TestClosedFormInverse:
    def test_zero_shock_is_scaled_identity(self):
        np.testing.assert_allclose(
            cs.sigma_inverse_cellwise(0.0, 0.25, cells=3), np.eye(6) / 0.25, atol=1e-14
        )

    def test_inverse_times_sigma_is_identity(self):
        s2, v2, cells = 0.1**2, 0.15**2, 5
        inv = cs.sigma_inverse_cellwise(s2, v2, cells)
        sig = CellwiseTwoLevel(2, cells).sigma([s2, v2])
        np.testing.assert_allclose(inv @ sig, np.eye(2 * cells), atol=1e-12)

    def test_scalar_cell_analytic_two_by_two(self):
        inv = cs.sigma_inverse_cellwise(0.01, 0.0225, cells=1)
        expected = np.linalg.inv(np.array([[0.0325, 0.01], [0.01, 0.0325]]))
        np.testing.assert_allclose(inv, expected, atol=1e-12)

    def test_random_parameters_within_tolerance(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            s2 = float(rng.uniform(0.0, 2.0))
            v2 = float(rng.uniform(0.05, 3.0))
            cells = int(rng.integers(1, 8))
            inv = cs.sigma_inverse_cellwise(s2, v2, cells)
            sig = CellwiseTwoLevel(2, cells).sigma([s2, v2])
            np.testing.assert_allclose(inv @ sig, np.eye(2 * cells), atol=1e-10)

    def test_singular_at_zero_noise(self):
        with pytest.raises(cs.NumericalError):
            cs.sigma_inverse_cellwise(0.1, 0.0, cells=2)

    @pytest.mark.parametrize("n_arrays", [1, 3, 5])
    def test_any_number_of_arrays(self, n_arrays):
        s2, v2, cells = 0.1**2, 0.15**2, 4
        inv = cs.sigma_inverse_cellwise(s2, v2, cells, n_arrays)
        sig = CellwiseTwoLevel(n_arrays, cells).sigma([s2, v2])
        np.testing.assert_allclose(inv @ sig, np.eye(n_arrays * cells), atol=1e-12)


class TestDerivatives:
    def test_cellwise_analytic_forms(self):
        structure = CellwiseTwoLevel(2, 3)
        d_shock = cs.dsigma_domega(structure, 0)
        d_noise = cs.dsigma_domega(structure, 1)
        np.testing.assert_array_equal(d_shock, np.kron(np.ones((2, 2)), np.eye(3)))
        np.testing.assert_array_equal(d_noise, np.eye(6))

    def test_unknown_component_rejected(self):
        with pytest.raises(cs.ConfigError):
            cs.dsigma_domega(CellwiseTwoLevel(2, 3), 2)

    @pytest.mark.parametrize(
        "structure,omega",
        [
            (CellwiseTwoLevel(2, 4), [0.3, 0.6]),
            (DiagonalScalar(np.kron(np.ones((2, 1)), np.eye(3))), [0.2, 0.5]),
            (Example48(2, np.array([[1.0, 0.0], [0.5, 1.0]]), np.eye(2)),
             [0.4, 0.1, 0.3, 0.8, 0.9]),
            (DiagonalScalar(np.kron(np.ones((2, 1)), np.eye(3)),
                            np.kron(np.eye(2), np.ones((3, 1)))),
             [0.2, 0.3, 0.5]),
            (random_example48(3, 2, seed=7), [0.4, 0.1, 0.2, 0.3, 0.8, 0.9, 1.1]),
            (random_terms(seed=8), [0.3, 0.2, 0.4, 0.7]),
        ],
    )
    def test_matches_central_differences(self, structure, omega):
        for k in range(structure.n_params):
            numeric = central_difference(structure, omega, k)
            analytic = cs.dsigma_domega(structure, k)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)
        # Sigma assembled from the D_k equals L Gamma L^T
        via_lgl = cs.sigma_from_gamma(structure.l_matrix(), structure, omega)
        np.testing.assert_allclose(via_lgl.sigma, structure.sigma(omega), rtol=1e-12, atol=1e-12)

    def test_shared_operator_derivative_forms(self):
        A0 = np.array([[1.0, 0.0], [0.3, 1.0]])
        R = np.diag([1.0, 2.0])
        ex = Example48(2, A0, R)
        K = A0 @ R @ A0.T
        np.testing.assert_allclose(
            cs.dsigma_domega(ex, 0), np.kron(np.ones((2, 2)), K), atol=1e-14
        )
        e2 = np.zeros((2, 2))
        e2[1, 1] = 1.0
        np.testing.assert_allclose(cs.dsigma_domega(ex, 2), np.kron(e2, K), atol=1e-14)
        np.testing.assert_allclose(
            cs.dsigma_domega(ex, 4), np.kron(e2, np.eye(2)), atol=1e-14
        )


class TestSigmaModel:
    def test_rejects_indefinite(self):
        structure = DiagonalScalar(np.ones((3, 1)))
        with pytest.raises(cs.NumericalError):
            cs.SigmaModel(structure, [1.0, 0.0])  # rank-one only, singular

    def test_solve_and_logdet_match_dense(self):
        structure = CellwiseTwoLevel(2, 3)
        model = cs.SigmaModel(structure, [0.2, 0.7])
        rhs = np.arange(6.0)
        np.testing.assert_allclose(
            model.solve(rhs), np.linalg.solve(model.sigma, rhs), atol=1e-12
        )
        assert model.logdet() == pytest.approx(np.linalg.slogdet(model.sigma)[1])

    @pytest.mark.parametrize(
        "structure, omega",
        [
            (Example48(3, np.eye(2), np.eye(2)), [0.2, 0.1, 0.0, 0.3, 0.7, 0.5, 0.9]),
            (DiagonalScalar(np.kron(np.ones((2, 1)), np.eye(3))), [0.2, 0.7]),
        ],
        ids=["example48_identity", "diagonal_scalar"],
    )
    def test_solve_and_logdet_match_dense_in_either_form(self, structure, omega):
        # identity Example48 factors through its 3 x 3 array side, and
        # DiagonalScalar through the dense Sigma
        model = cs.SigmaModel(structure, omega)
        rhs = np.arange(6.0)
        np.testing.assert_allclose(
            model.solve(rhs), np.linalg.solve(model.sigma, rhs), atol=1e-12
        )
        assert model.logdet() == pytest.approx(np.linalg.slogdet(model.sigma)[1])

    def test_nonconforming_dimensions_rejected(self):
        structure = CellwiseTwoLevel(2, 3)
        with pytest.raises(cs.ConfigError):
            cs.sigma_from_gamma(np.eye(5), structure, [0.1, 0.2])


def identity_side_structure(n_arrays, cells, example48):
    eye = np.eye(cells)
    return Example48(n_arrays, eye, eye) if example48 else CellwiseTwoLevel(n_arrays, cells)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n_arrays=st.integers(1, 4),
    cells=st.integers(1, 6),
    example48=st.booleans(),
    data=st.data(),
)
def test_array_side_factor_matches_dense(n_arrays, cells, example48, data):
    # identity cell sides factor through the N x N array side; every
    # operation must agree with the dense Sigma
    structure = identity_side_structure(n_arrays, cells, example48)
    omega = [
        data.draw(
            st.one_of(st.just(0.0), st.floats(1e-3, 2.0)) if zero_allowed else st.floats(0.05, 2.0)
        )
        for zero_allowed in structure.zero_allowed
    ]
    C, c = structure.kron_form(omega)
    assert C.shape == (n_arrays, n_arrays) and c == cells

    model = cs.SigmaModel(structure, omega)
    sigma = model.sigma
    n = n_arrays * cells
    assert model.n == n and sigma.shape == (n, n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=n)
    X = rng.normal(size=(n, 3))
    w = model.whiten(x)
    np.testing.assert_allclose(w @ w, x @ np.linalg.solve(sigma, x), rtol=1e-10)
    np.testing.assert_allclose(model.whiten(X).T @ model.whiten(X), X.T @ np.linalg.solve(sigma, X),
                               rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(model.solve(x), np.linalg.solve(sigma, x), rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(model.solve(X), np.linalg.solve(sigma, X), rtol=1e-10, atol=1e-10)
    assert model.logdet() == pytest.approx(np.linalg.slogdet(sigma)[1], rel=1e-10, abs=1e-10)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n_arrays=st.integers(1, 4),
    cells=st.integers(1, 6),
    example48=st.booleans(),
    sigma2=st.sampled_from([0.0, 0.25, 1.0, 4.0]),
)
def test_singular_array_side_raises(n_arrays, cells, example48, sigma2):
    # with every other component at zero, G = sigma2 1 1^T is singular for
    # N >= 2 (and zero for sigma2 = 0); exact squares keep the Cholesky
    # pivot exactly zero
    assume(n_arrays > 1 or sigma2 == 0.0)
    structure = identity_side_structure(n_arrays, cells, example48)
    omega = [sigma2] + [0.0] * (structure.n_params - 1)
    with pytest.raises(cs.NumericalError, match="not positive definite"):
        cs.SigmaModel(structure, omega)
