import dataclasses

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import commonshock as cs
from commonshock.covariance import (
    TRIL_LEAF,
    CellwiseTwoLevel,
    DiagonalScalar,
    Example48,
    GammaStructure,
    Term,
    _tril_inverse,
    structure_for,
)
from commonshock.partitions import PARTITION_KINDS
import dense
from conftest import toy_design
from test_design_properties import layouts


def random_example48(n_arrays, cells, seed):
    rng = np.random.default_rng(seed)
    R0 = rng.normal(size=(cells, cells))
    return Example48(n_arrays, rng.normal(size=(cells, cells)), R0 @ R0.T)


def random_terms(seed):
    # general loadings: a 2 x 2 array side, a non-square cell side, a
    # square diagonal cell side, and a non-unit array side on an identity
    # cell side
    rng = np.random.default_rng(seed)
    terms = (
        Term("a", True, rng.normal(size=(2, 2)), rng.normal(size=(3, 2))),
        Term("b", True, rng.normal(size=(2, 1)), np.diag(np.sqrt([0.5, 2.0, 1.0]))),
        Term("c", False, rng.normal(size=(2, 1))),
        Term("v2", False, np.eye(2)),
    )
    return GammaStructure(terms, 3)


# structures with every kind of term: identity and general cell sides,
# unit and general array sides
STRUCTURES = [
    (CellwiseTwoLevel(2, 4), [0.3, 0.6]),
    (DiagonalScalar(np.kron(np.ones((2, 1)), np.eye(3))), [0.2, 0.5]),
    (Example48(2, np.array([[1.0, 0.0], [0.5, 1.0]]), np.eye(2)), [0.4, 0.1, 0.3, 0.8, 0.9]),
    (DiagonalScalar(np.kron(np.ones((2, 1)), np.eye(3)), np.kron(np.eye(2), np.ones((3, 1)))),
     [0.2, 0.3, 0.5]),
    (random_example48(3, 2, seed=7), [0.4, 0.1, 0.2, 0.3, 0.8, 0.9, 1.1]),
    (random_terms(seed=8), [0.3, 0.2, 0.4, 0.7]),
]


def l_gamma_l(structure, omega):
    """(L, Gamma, L Gamma L^T) from the terms with np.kron: L = [g_k kron F_k, ...]
    and Gamma diagonal with a block omega_k I per term."""
    eye = np.eye(structure.cells)
    blocks = [np.kron(t.g, eye if t.F is None else t.F) for t in structure.terms]
    L = np.hstack(blocks)
    gamma = np.diag(np.concatenate([np.full(b.shape[1], w) for w, b in zip(omega, blocks)]))
    return L, gamma, L @ gamma @ L.T


def central_difference(structure, omega, k, h=1e-5):
    hi = np.array(omega, dtype=float)
    lo = hi.copy()
    hi[k] += h
    lo[k] -= h
    return (structure.sigma(hi) - structure.sigma(lo)) / (2 * h)


class TestSigmaFromGamma:
    """Sigma(omega) from the terms against L Gamma(omega) L^T (``l_gamma_l``)."""

    def test_identity_gamma_identity_l(self):
        # one white term on three cells: L = I and Gamma(1) = I give Sigma = I
        white = GammaStructure((Term("v2", False, np.eye(1)),), 3)
        L, gamma, _ = l_gamma_l(white, [1.0])
        np.testing.assert_array_equal(L, np.eye(3))
        np.testing.assert_array_equal(gamma, np.eye(3))
        np.testing.assert_array_equal(cs.SigmaModel(white, [1.0]).sigma, np.eye(3))
        # Gamma(1, 1) = I for a one-subset structure on two cells, L = [1 | I]
        structure = DiagonalScalar(np.ones((2, 1)))
        L, gamma, via_lgl = l_gamma_l(structure, [1.0, 1.0])
        np.testing.assert_array_equal(gamma, np.eye(3))
        np.testing.assert_array_equal(cs.SigmaModel(structure, [1.0, 1.0]).sigma, via_lgl)

    def test_cell_matched_two_array_formula(self):
        s2, v2, cells = 0.31, 0.17, 4
        structure = CellwiseTwoLevel(2, cells)
        direct = structure.sigma([s2, v2])
        expected = s2 * np.kron(np.ones((2, 2)), np.eye(cells)) + v2 * np.eye(2 * cells)
        np.testing.assert_allclose(direct, expected, atol=1e-14)
        # and through L Gamma L^T
        np.testing.assert_allclose(l_gamma_l(structure, [s2, v2])[2], expected, atol=1e-12)

    def test_shared_operator_reduces_to_cell_matched(self):
        # Phi = 0, A0 = R = I, equal noise scales
        cells, s2, v2 = 3, 0.2, 0.4
        ex = Example48(2, np.eye(cells), np.eye(cells))
        omega = [s2, 0.0, 0.0, v2, v2]
        np.testing.assert_allclose(
            ex.sigma(omega), CellwiseTwoLevel(2, cells).sigma([s2, v2]), atol=1e-14
        )


def explicit_example48(A0, R, omega):
    """(sigma2 J + Phi) kron (A0 R A0^T) + Psi kron I, from Example48's arguments."""
    n_arrays = (len(omega) - 1) // 2
    sigma2, tau2, v2 = omega[0], omega[1 : n_arrays + 1], omega[n_arrays + 1 :]
    shocks = sigma2 * np.ones((n_arrays, n_arrays)) + np.diag(tau2)
    return np.kron(shocks, A0 @ R @ A0.T) + np.kron(np.diag(v2), np.eye(len(A0)))


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
        np.testing.assert_allclose(l_gamma_l(ex, omega)[2], ex.sigma(omega), atol=1e-12)
        # three arrays: per-array blocks of Gamma and L in array order
        ex3 = random_example48(3, cells, seed=6)
        omega3 = [0.4, 0.1, 0.2, 0.3, 0.8, 0.9, 1.1]
        np.testing.assert_allclose(
            l_gamma_l(ex3, omega3)[2], ex3.sigma(omega3), rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("kind", ["positive_definite", "singular", "non_symmetric"])
    def test_matches_explicit_formula(self, kind):
        # R enters through its square root; the formula uses R itself, and a
        # non-symmetric R through its symmetric part
        rng = np.random.default_rng(11)
        cells = 4
        R0 = rng.normal(size=(cells, cells))
        if kind == "singular":
            R0[:, 1:3] = 0.0  # rank 2
        R = R0 @ R0.T
        if kind == "non_symmetric":
            skew = rng.normal(size=(cells, cells))
            R = R + skew - skew.T
        A0 = rng.normal(size=(cells, cells))
        omega = [0.4, 0.2, 0.6, 0.1, 0.9, 1.1, 0.3]
        ex = Example48(3, A0, R)
        assert ex.kind is None
        want = explicit_example48(A0, 0.5 * (R + R.T), omega)
        scale = np.abs(want).max()
        np.testing.assert_allclose(ex.sigma(omega), want, rtol=1e-12, atol=1e-12 * scale)

    def test_indefinite_block_rejected(self):
        with pytest.raises(cs.ConfigError, match="positive semidefinite"):
            Example48(2, np.eye(2), np.diag([1.0, -0.5]))

    def test_two_array_scalar_cell_values(self):
        # omega = (sigma2, tau2_1, tau2_2, v2_1, v2_2)
        omega = [0.1**2, 0.0, 0.0, 0.15**2, 0.15**2]
        expected = [[0.0325, 0.01], [0.01, 0.0325]]
        model = cs.SigmaModel(Example48(2, np.eye(1), np.eye(1)), omega)
        np.testing.assert_allclose(model.sigma, expected, atol=1e-15)
        np.testing.assert_allclose(l_gamma_l(model.structure, omega)[2], expected, atol=1e-15)


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

    @pytest.mark.parametrize("sigma2", [-0.5, -0.1, np.nan])
    def test_negative_or_non_finite_shock_variance_is_a_config_error(self, sigma2):
        # unchecked, -0.5 raised ZeroDivisionError at v2 + N sigma2 = 0 and
        # -0.1 inverted an indefinite matrix without a word
        with pytest.raises(cs.ConfigError, match="sigma2 must be finite and non-negative"):
            cs.sigma_inverse_cellwise(sigma2, 1.0, 2)

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

    @pytest.mark.parametrize("structure,omega", STRUCTURES)
    def test_matches_central_differences(self, structure, omega):
        for k in range(structure.n_params):
            numeric = central_difference(structure, omega, k)
            analytic = cs.dsigma_domega(structure, k)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)
        # Sigma assembled from the D_k equals L Gamma L^T
        via_lgl = l_gamma_l(structure, omega)[2]
        np.testing.assert_allclose(via_lgl, structure.sigma(omega), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            cs.SigmaModel(structure, omega).sigma, via_lgl, rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("structure,omega", STRUCTURES)
    def test_loading_form_rebuilds_sigma(self, structure, omega):
        # Sigma = C kron I + sum_k G_k kron F_k F_k^T, G_k = omega_k g_k g_k^T,
        # and the dense frame's loading L_k = g_k kron F_k
        C, loadings = structure.loading_form(omega)
        rebuilt = np.kron(C, np.eye(structure.cells))
        rebuilt += sum(np.kron(G, F @ F.T) for G, F in loadings)
        np.testing.assert_allclose(rebuilt, structure.sigma(omega), rtol=1e-12, atol=1e-14)
        with_f = [k for k, t in enumerate(structure.terms) if t.F is not None]
        assert len(loadings) == len(with_f)
        for k in with_f:
            t = structure.terms[k]
            np.testing.assert_array_equal(structure.loading(k), np.kron(t.g, t.F))

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


class TestStructureChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_components_rejected(self, bad):
        with pytest.raises(cs.ConfigError, match="finite"):
            cs.SigmaModel(CellwiseTwoLevel(2, 3), [bad, 1.0])
        with pytest.raises(cs.ConfigError, match="finite"):
            random_terms(seed=1).loading_form([0.3, 0.2, bad, 0.7])

    @pytest.mark.parametrize(
        "terms, match",
        [
            ((), "at least one term"),
            ([("a", np.ones((2, 1)), np.ones((4, 2)))], r"term 'a': F is \(4, 2\), not 3 x p"),
            ([("a", np.ones((2, 1)), np.ones(3))], r"term 'a': F is \(3,\), not 3 x p"),
            ([("a", np.ones((3, 1)), None), ("b", np.eye(2), None)], r"term 'b': g is \(2, 2\)"),
            ([("a", np.ones(2), None)], r"term 'a': g is \(2,\), not 2 x r"),
        ],
        ids=["no_terms", "F_rows", "F_1d", "g_rows", "g_1d"],
    )
    def test_malformed_terms_rejected(self, terms, match):
        # on 3 cells; unchecked, each fails inside NumPy on first use
        with pytest.raises(cs.ConfigError, match=match):
            GammaStructure(tuple(Term(name, True, g, F) for name, g, F in terms), 3)


@pytest.mark.parametrize(
    "F1, F2, in_frame",
    [
        # one nonzero per row, and F2 parallel to F1 on each subset
        ([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]], [[0.5], [1.0], [0.0]], True),
        # the same, with a sign: the subset vector is F1's own
        ([[1.0, 0.0], [-2.0, 0.0], [0.0, 3.0]], [[-0.5], [1.0], [0.0]], True),
        # a row with two nonzeros
        ([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]], None, False),
        # a column of F2 reaching two of F1's subsets
        ([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [[1.0], [1.0], [0.0]], False),
        # the same cells, not parallel
        ([[1.0], [1.0], [0.0]], [[1.0], [2.0], [0.0]], False),
    ],
    ids=["parallel", "signed", "two_in_a_row", "column_across_subsets", "not_parallel"],
)
def test_subset_frame_of_a_term_list(F1, F2, in_frame):
    # where the cell sides commute, sum_j C_j kron Pi_j, with Pi_j from the
    # frame's subset vectors and Pi_0 their complement, is Sigma
    g = np.array([[1.0], [0.5]])
    terms = [Term("a", True, g, np.array(F1))]
    if F2 is not None:
        terms.append(Term("b", True, np.eye(2), np.array(F2)))
    structure = GammaStructure((*terms, Term("v2", False, np.eye(2))), 3)
    frame = structure.subset_frame
    assert (frame is not None) == in_frame
    if frame is None:
        return
    omega = [0.3, 0.2, 0.7] if F2 is not None else [0.3, 0.7]
    U = np.zeros((3, len(frame.starts)))
    U[frame.members, frame.owner] = frame.weights
    rebuilt = sum(
        np.kron(C, np.eye(3) - U @ U.T if span is None else U[:, span] @ U[:, span].T)
        for C, span in zip(structure.group_sides(omega), frame.spans)
    )
    np.testing.assert_allclose(rebuilt, structure.sigma(omega), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-14)
    assert frame.rank.sum() == 3


class TestSigmaModel:
    def test_rejects_indefinite(self):
        structure = DiagonalScalar(np.ones((3, 1)))
        with pytest.raises(cs.NumericalError):
            cs.SigmaModel(structure, [1.0, 0.0])  # rank-one only, singular

    def test_solve_and_logdet_match_dense(self):
        structure = CellwiseTwoLevel(2, 3)
        model = cs.SigmaModel(structure, [0.2, 0.7])
        rhs = np.arange(6.0)
        w = model.whiten(rhs)
        assert w @ w == pytest.approx(rhs @ np.linalg.solve(model.sigma, rhs), rel=1e-12)
        assert model.logdet() == pytest.approx(np.linalg.slogdet(model.sigma)[1])

    @pytest.mark.parametrize(
        "structure, omega",
        [
            (Example48(3, np.eye(2), np.eye(2)), [0.2, 0.1, 0.0, 0.3, 0.7, 0.5, 0.9]),
            (DiagonalScalar(np.kron(np.ones((2, 1)), np.eye(3))), [0.2, 0.7]),
            (DiagonalScalar(np.kron(np.ones((50, 1)), np.eye(3))), [0.2, 0.7]),
            (DiagonalScalar(np.kron(np.ones((50, 1)), np.eye(3)), np.ones((150, 1))),
             [0.2, 0.1, 0.7]),
        ],
        ids=["example48_identity", "diagonal_scalar", "diagonal_scalar_above_two_leaves",
             "diagonal_scalar_dense_above_two_leaves"],
    )
    def test_solve_and_logdet_match_dense_in_either_form(self, structure, omega):
        # identity Example48 factors through its 3 x 3 array side, where
        # chol(G kron I) = chol(G) kron I, and a B whose one column crosses
        # every subset of A sends DiagonalScalar to the dense Sigma, inverted
        # in blocks once n exceeds the leaf size: whitening is the dense
        # lower factor's inverse in both. DiagonalScalar(A) alone takes the
        # subset frame with 1 x 1 array sides, sum_j C_j^-1/2 Pi_j: the
        # symmetric root Sigma^-1/2
        model = cs.SigmaModel(structure, omega)
        sigma = model.sigma
        rng = np.random.default_rng(1)
        frame = structure.subset_frame
        if frame is None or structure.identity_cell_side:
            root = np.linalg.inv(np.linalg.cholesky(sigma))
        else:
            assert structure.n_arrays == 1 and len(frame.rank) == 2
            lam, V = np.linalg.eigh(sigma)
            root = (V / np.sqrt(lam)) @ V.T
        for rhs in (np.arange(model.n, dtype=float), rng.normal(size=(model.n, 3))):
            np.testing.assert_allclose(model.whiten(rhs), root @ rhs, rtol=1e-12, atol=1e-12)
        assert model.logdet() == pytest.approx(np.linalg.slogdet(sigma)[1], rel=1e-12)


class TestTrilInverse:
    @staticmethod
    def factor(n, seed=0):
        # the Cholesky factor of a well-conditioned SPD matrix
        A = np.random.default_rng(seed).normal(size=(n, n))
        return np.linalg.cholesky(A @ A.T / n + np.eye(n))

    def test_every_size_through_two_leaves(self):
        # sizes 1 to above 2 x the leaf size take one and two levels of
        # recursion, with odd splits of uneven halves; 4 x the leaf size + 3
        # takes three
        for n in [*range(1, 2 * TRIL_LEAF + 4), 4 * TRIL_LEAF + 3]:
            L = self.factor(n, seed=n)
            inv = _tril_inverse(L)
            np.testing.assert_allclose(L @ inv, np.eye(n), atol=1e-12, err_msg=str(n))
            np.testing.assert_allclose(inv @ L, np.eye(n), atol=1e-12, err_msg=str(n))
            np.testing.assert_allclose(inv, np.linalg.inv(L), rtol=1e-10, atol=1e-13)
            assert not np.triu(inv, 1).any(), n

    def test_upper_factor_inverts_through_the_transpose(self):
        # R^-1 of a thin QR factor, as the GLS fit takes it
        rng = np.random.default_rng(2)
        for m in (1, 5, 2 * TRIL_LEAF + 1):
            r = np.linalg.qr(rng.normal(size=(m + 20, m)))[1]
            r_inv = _tril_inverse(r.T).T
            np.testing.assert_allclose(r @ r_inv, np.eye(m), atol=1e-11)
            assert not np.tril(r_inv, -1).any()


def identity_side_structure(n_arrays, cells, example48):
    eye = np.eye(cells)
    return Example48(n_arrays, eye, eye) if example48 else CellwiseTwoLevel(n_arrays, cells)


def draw_omega(data, structure):
    return [
        data.draw(
            st.one_of(st.just(0.0), st.floats(1e-3, 2.0)) if zero_allowed else st.floats(0.05, 2.0)
        )
        for zero_allowed in structure.zero_allowed
    ]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n_arrays=st.integers(1, 4),
    cells=st.integers(1, 6),
    family=st.sampled_from(["cellwise_two_level", "example48", "diagonal_scalar"]),
    data=st.data(),
)
def test_array_side_factor_matches_dense(n_arrays, cells, family, data):
    # identity cell sides factor through the N x N array side, and
    # diagonal_scalar as the CLI builds it (N arrays, any partition, with or
    # without within shocks, on a random layout) through the N x N array
    # sides of its subset frame; every operation must agree with the dense
    # Sigma, and for diagonal_scalar with the one-array form of the same
    # A and B and the dense GLS fit
    if family == "diagonal_scalar":
        layout = dataclasses.replace(data.draw(layouts()), n_arrays=n_arrays)
        kind = data.draw(st.sampled_from(PARTITION_KINDS))
        design = toy_design(layout, kind, include_within=data.draw(st.booleans()))
        structure = structure_for("diagonal_scalar", n_arrays, layout.cells_per_array,
                                  design.A, design.B)
        one_array = DiagonalScalar(design.A, design.B)
        assert structure.n_arrays == n_arrays and structure.subset_frame is not None
        omega = draw_omega(data, structure)
        sigma = one_array.sigma(omega)
        np.testing.assert_allclose(structure.sigma(omega), sigma, rtol=1e-12, atol=1e-14)
    else:
        structure = identity_side_structure(n_arrays, cells, family == "example48")
        one_array = structure
        omega = draw_omega(data, structure)
        C = structure.group_sides(omega)[0]
        assert structure.identity_cell_side and C.shape == (n_arrays, n_arrays)
        sigma = structure.sigma(omega)
    event(f"{len(structure.subset_frame.rank)} group(s)")

    model = cs.SigmaModel(structure, omega)
    n = len(sigma)
    assert model.n == n and model.sigma.shape == (n, n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=n)
    X = rng.normal(size=(n, 3))
    W = model.whiten(np.eye(n))
    np.testing.assert_allclose(W @ sigma @ W.T, np.eye(n), rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(model.whiten(X), W @ X, rtol=1e-10, atol=1e-10)
    w = model.whiten(x)
    np.testing.assert_allclose(w @ w, x @ np.linalg.solve(sigma, x), rtol=1e-10)
    assert model.logdet() == pytest.approx(np.linalg.slogdet(sigma)[1], rel=1e-10, abs=1e-10)

    # traces, information and quadratic forms against the dense D_k
    traces, forms, info = dense.score(x, np.zeros((n, 0)), one_array, omega)
    np.testing.assert_allclose(model.term_traces(), traces, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(model.information(), info, rtol=1e-10,
                               atol=1e-10 * np.abs(info).max())
    np.testing.assert_allclose(model.term_forms(x), forms, rtol=1e-10,
                               atol=1e-10 * max(np.abs(forms)))

    if family == "diagonal_scalar":
        y = rng.normal(size=n)
        kappa, _, loglik, var, aliased = dense.gls(y, dense.M(design), design.X.shape[1], sigma)
        assume(not aliased)
        fit = cs.gls_fit(y, design, model)
        assert (fit.frame is not None) == structure.identity_cell_side
        np.testing.assert_allclose(fit.kappa_hat, kappa, rtol=1e-10,
                                   atol=1e-10 * np.abs(kappa).max(initial=1.0))
        np.testing.assert_allclose(fit.var_kappa, var, rtol=1e-10,
                                   atol=1e-10 * np.abs(var).max(initial=1.0))
        assert fit.loglik == pytest.approx(loglik, rel=1e-10, abs=1e-10)


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
