import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import commonshock as cs
from commonshock.arrays import ArrayLayout
from commonshock import cli, covariance, estimation
from commonshock.covariance import (
    CellwiseTwoLevel, DiagonalScalar, Example48, GammaStructure, Term, structure_for,
)
from commonshock.datasets import bundled_paths
import dense
from conftest import simulate_two_level, toy_design
from test_invariance import calendar_means


def small_fit_inputs(seed=0, size=5, sigma=0.12, v=0.1):
    lay = ArrayLayout.full(2, size, size)
    coll = simulate_two_level(lay, sigma, v, seed)
    design = toy_design(lay)
    return cs.stack_log(coll), design, lay


class TestGlsFit:
    def test_saturated_model(self):
        y = np.array([0.3, -1.2, 2.5])
        structure = CellwiseTwoLevel(1, 3)
        M = np.eye(3)
        fit = cs.gls_fit(y, M, cs.SigmaModel(structure, [0.0, 1.0]))
        assert fit.matrix is M and fit.design is None  # a bare matrix fit keeps its matrix
        np.testing.assert_allclose(fit.kappa_hat, y, atol=1e-12)
        np.testing.assert_allclose(fit.omega_fit, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(fit.residual, 0.0, atol=1e-12)

    def test_scaled_identity_reduces_to_ols(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=8)
        M = rng.normal(size=(8, 3))
        structure = CellwiseTwoLevel(1, 8)
        ols, *_ = np.linalg.lstsq(M, y, rcond=None)
        for c in (0.2, 1.0, 17.0):
            fit = cs.gls_fit(y, M, cs.SigmaModel(structure, [0.0, c]))
            np.testing.assert_allclose(fit.kappa_hat, ols, atol=1e-10)

    def test_aliased_columns_are_named_on_a_small_scale(self):
        # the singularity test floors its threshold at 1; the reported list
        # must use the same threshold, or a design scaled below 1 reports []
        rng = np.random.default_rng(4)
        M = 1e-3 * rng.normal(size=(8, 3))
        M[:, 2] = M[:, 1] + 1e-13 * rng.normal(size=8)
        structure = CellwiseTwoLevel(1, 8)
        with pytest.raises(cs.DesignError, match=r"aliased columns: \['column_2'\]"):
            cs.gls_fit(rng.normal(size=8), M, cs.SigmaModel(structure, [0.0, 1.0]))

    def test_columns_past_the_rows_are_aliased(self):
        # a wide matrix: R has no diagonal entry for columns 4 and 5, in the
        # least-squares frame and after whitening
        rng = np.random.default_rng(6)
        y, M = rng.normal(size=4), rng.normal(size=(4, 6))
        for omega in ([0.0, 1.0], [0.5, 1.0]):
            model = cs.SigmaModel(CellwiseTwoLevel(1, 4), omega)
            with pytest.raises(cs.DesignError, match=r"aliased columns: \['column_4', 'column_5'\]"):
                cs.gls_fit(y, M, model)

    def test_identity_sigma_is_least_squares(self):
        # at Sigma = I the GLS fit is the least-squares fit of M, with
        # Var[kappa] = (M^T M)^-1, whichever columns Sigma is taken to mix:
        # every column of Q under both one-array structures on a bare M, Qx
        # alone under the cell-matched structure on a design with kept
        # shock means
        rng = np.random.default_rng(3)
        bare, design = rng.normal(size=(12, 3)), calendar_means()[0]
        cases = [
            (bare, CellwiseTwoLevel(2, 6)),
            (bare, DiagonalScalar(rng.normal(size=(12, 2)))),
            (design, CellwiseTwoLevel(3, design.layout.cells_per_array)),
        ]
        for design, structure in cases:
            M = design if isinstance(design, np.ndarray) else dense.M(design)
            y = rng.normal(size=len(M))
            fit = cs.gls_fit(y, design, cs.SigmaModel(structure, [0.0, 1.0]))
            np.testing.assert_allclose(
                fit.kappa_hat, np.linalg.lstsq(M, y, rcond=None)[0], rtol=1e-12, atol=1e-12
            )
            var = np.linalg.inv(M.T @ M)
            np.testing.assert_allclose(fit.var_kappa, var, rtol=1e-12, atol=1e-12)
            for omega in ([0.0, 2.0], [0.1, 1.0]):
                fit = cs.gls_fit(y, design, cs.SigmaModel(structure, omega))
                assert not np.allclose(fit.var_kappa, var)

    def test_design_without_columns(self):
        # no location to fit: the residual is y itself and the log-likelihood
        # is the plain Gaussian density of y under Sigma
        rng = np.random.default_rng(5)
        y = rng.normal(size=6)
        for structure, omega in (
            (CellwiseTwoLevel(2, 3), [0.2, 0.5]),
            (DiagonalScalar(rng.normal(size=(6, 2))), [0.3, 0.4]),
        ):
            model = cs.SigmaModel(structure, omega)
            fit = cs.gls_fit(y, np.zeros((6, 0)), model)
            assert np.array_equal(fit.residual, y)
            sigma = structure.sigma(omega)
            want = -0.5 * (
                6 * np.log(2 * np.pi) + np.linalg.slogdet(sigma)[1] + y @ np.linalg.solve(sigma, y)
            )
            assert fit.loglik == pytest.approx(want, rel=1e-12)
            assert fit.kappa_hat.shape == (0,) and fit.var_kappa.shape == (0, 0)

    def test_reference_location_estimates(self, ref_fit):
        table = cs.chain_ladder_effect_table(ref_fit["fit"])
        a1 = table["array_1"]
        assert a1["column_effects"][0] == pytest.approx(248, rel=0.005)
        assert a1["row_effects"][14] == pytest.approx(1.334, rel=0.005)
        a2 = table["array_2"]
        assert a2["row_effects"][1] == pytest.approx(0.896, rel=0.01)

    def test_normal_equations_hold_at_solution(self, ref_fit):
        fit = ref_fit["fit"]
        grad = dense.M(fit.design).T @ fit.sigma.solve(fit.residual)
        assert np.max(np.abs(grad)) < 1e-8

    def test_singular_design_names_aliased_columns(self):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(10, 3))
        M = np.hstack([M, M[:, [0]]])
        structure = CellwiseTwoLevel(1, 10)
        with pytest.raises(cs.DesignError, match="aliased"):
            cs.gls_fit(rng.normal(size=10), M, cs.SigmaModel(structure, [0.0, 1.0]))

    def test_unbiasedness_known_covariance(self):
        # mean of the estimates over replicates stays within 3 MC standard
        # errors of the truth, component-wise
        lay = ArrayLayout.full(2, 3, 3)
        design = toy_design(lay)
        structure = CellwiseTwoLevel(2, 9)
        sigma = cs.SigmaModel(structure, [0.04, 0.09])
        chol = np.linalg.cholesky(sigma.sigma)
        rng = np.random.default_rng(42)
        kappa_true = rng.normal(size=design.n_params)
        mean_vec = dense.M(design) @ kappa_true
        reps = 1000
        draws = np.empty((reps, design.n_params))
        for r in range(reps):
            y = mean_vec + chol @ rng.normal(size=lay.n_observations)
            draws[r] = cs.gls_fit(y, design, sigma).kappa_hat
        bias = draws.mean(axis=0) - kappa_true
        se = draws.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(bias) <= 3.0 * se)


class TestProfileScore:
    def test_zero_at_closed_form(self, ref_fit):
        fit = ref_fit["fit"]
        score = cs.profile_score(
            ref_fit["y"], ref_fit["design"], fit.sigma.structure, fit.omega_hat
        )
        assert np.max(np.abs(score)) < 1e-6

    def test_scalar_variance_mle(self):
        # one observation, empty design: the score in the noise variance
        # vanishes exactly at omega = y^2
        y = np.array([1.7])
        structure = DiagonalScalar(np.zeros((1, 1)))
        score = cs.profile_score(y, np.zeros((1, 0)), structure, [0.0, 1.7**2])
        assert score[1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self):
        y, design, _ = small_fit_inputs(seed=5, size=4)
        structure = CellwiseTwoLevel(2, 16)
        omega = np.array([0.02, 0.015])
        score = cs.profile_score(y, design, structure, omega)
        h = 1e-5
        for k in range(2):
            hi, lo = omega.copy(), omega.copy()
            hi[k] += h
            lo[k] -= h
            fd = (
                cs.gls_fit(y, design, cs.SigmaModel(structure, hi)).loglik
                - cs.gls_fit(y, design, cs.SigmaModel(structure, lo)).loglik
            ) / (2 * h)
            assert score[k] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_given_fit_is_reused(self, ref_fit, monkeypatch):
        fit = ref_fit["fit"]
        args = (ref_fit["y"], ref_fit["design"], fit.sigma.structure, fit.omega_hat)
        expected = cs.profile_score(*args)

        def refit(*_):
            raise AssertionError("profile_score refitted at a point it was given the fit of")

        monkeypatch.setattr(estimation, "gls_fit", refit)
        np.testing.assert_array_equal(cs.profile_score(*args, fit=fit), expected)

    def test_fit_at_another_point_rejected(self, ref_fit):
        fit = ref_fit["fit"]
        args = (ref_fit["y"], ref_fit["design"], fit.sigma.structure, 1.5 * fit.omega_hat)
        with pytest.raises(cs.DesignError, match="given fit is at omega"):
            cs.profile_score(*args, fit=fit)

    def test_indefinite_covariance_rejected(self):
        y, design, _ = small_fit_inputs(seed=6, size=3)
        structure = CellwiseTwoLevel(2, 9)
        with pytest.raises(cs.NumericalError):
            cs.profile_score(y, design, structure, [0.1, 0.0])


class TestClosedForm:
    def test_orthogonal_equal_norm_residuals(self):
        d1 = np.array([1.0, 0.0])
        d2 = np.array([0.0, 1.0])
        s2, v2, r = cs.ml_dispersion_cellwise_closed_form(d1, d2)
        assert r == 0.0
        assert s2 == 0.0
        assert v2 == pytest.approx((1.0 + 1.0) / (2 * 2))

    def test_reference_dispersion(self, ref_fit):
        s2, v2 = ref_fit["fit"].omega_hat
        assert np.sqrt(s2) == pytest.approx(0.0893, abs=2e-4)
        assert np.sqrt(v2) == pytest.approx(0.1237, abs=2e-4)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        d1 = rng.normal(size=30)
        d2 = 0.5 * d1 + rng.normal(size=30)
        base = cs.ml_dispersion_cellwise_closed_form(d1, d2)
        perm = rng.permutation(30)
        shuffled = cs.ml_dispersion_cellwise_closed_form(d1[perm], d2[perm])
        np.testing.assert_allclose(base, shuffled, rtol=1e-12)

    def test_identical_residuals_rejected(self):
        d = np.array([0.4, -0.2, 0.1])
        with pytest.raises(cs.NumericalError, match="correlated"):
            cs.ml_dispersion_cellwise_closed_form(d, d.copy())

    def test_sign_flipped_residuals_rejected(self):
        # residuals that cancel leave sigma2 unidentified: the configuration
        # is at fault, as with one array
        d = np.array([0.4, -0.2, 0.1])
        with pytest.raises(cs.ConfigError, match="exact negatives"):
            cs.ml_dispersion_cellwise_closed_form(d, -d)

    def test_cancelling_residuals_fail_on_the_first_pass(self, bundled, monkeypatch):
        # one across-array shock mean per cell absorbs d1 + d2, so the two
        # residual vectors cancel up to rounding; the alternation must stop
        # at once rather than chase v2 through rounding noise, and the
        # configuration is at fault: sigma2 is not identified
        coll = bundled.restrict_to_diagonals(15)
        lay = coll.layout
        shock = cs.ShockSpec(
            partition=cs.build_partition("cell", lay), include_across=True, shared_across_mean=False
        )
        design = cs.assemble(lay, shock, "chain_ladder")
        calls = []
        closed_form = estimation.ml_dispersion_cellwise_closed_form

        def counted(*args):
            calls.append(args)
            return closed_form(*args)

        monkeypatch.setattr(estimation, "ml_dispersion_cellwise_closed_form", counted)
        with pytest.raises(cs.ConfigError, match="exact negatives.*absorb the shared shock"):
            cs.ml_dispersion_cellwise(cs.stack_log(coll), design)
        assert len(calls) <= 2

    def test_boundary_at_zero_shock(self):
        # simulated with no shared shock: the residual halves are not
        # positively correlated in most replicates, and the shock variance
        # sits on its zero boundary
        lay = ArrayLayout.full(2, 4, 4)
        design = toy_design(lay)
        sigma2_hats, v2_hats = [], []
        for seed in range(200):
            coll = simulate_two_level(lay, sigma=0.0, v=0.15, seed=seed)
            fit = cs.ml_dispersion_cellwise(cs.stack_log(coll), design)
            sigma2_hats.append(fit.omega_hat[0])
            v2_hats.append(fit.omega_hat[1])
        assert np.median(sigma2_hats) < np.median(v2_hats) / 20.0


class TestGenericSolver:
    def test_agrees_with_closed_form(self, ref_fit):
        fit = ref_fit["fit"]
        gen = cs.ml_dispersion_generic(
            ref_fit["y"], ref_fit["design"], fit.sigma.structure, [0.01, 0.01]
        )
        np.testing.assert_allclose(gen.omega_hat, fit.omega_hat, rtol=1e-8)
        assert np.max(np.abs(gen.score)) < 1e-9

    def test_oracle_equivalence_on_simulated_data(self):
        lay = ArrayLayout.full(2, 5, 5)
        design = toy_design(lay)
        structure = CellwiseTwoLevel(2, 25)
        for seed in range(5):
            coll = simulate_two_level(lay, sigma=0.15, v=0.1, seed=100 + seed)
            y = cs.stack_log(coll)
            closed = cs.ml_dispersion_cellwise(y, design)
            if closed.omega_hat[0] == 0.0:
                continue  # boundary case: see test_boundary_oracle_equivalence
            gen = cs.ml_dispersion_generic(y, design, structure, [0.01, 0.01])
            np.testing.assert_allclose(gen.omega_hat, closed.omega_hat, rtol=1e-8)

    def test_likelihood_not_decreased(self):
        y, design, _ = small_fit_inputs(seed=11)
        structure = CellwiseTwoLevel(2, 25)
        init = [0.005, 0.02]
        fit = cs.ml_dispersion_generic(y, design, structure, init)
        start = cs.gls_fit(y, design, cs.SigmaModel(structure, init)).loglik
        assert fit.loglik >= start - 1e-9

    def test_boundary_clamp_is_exact_zero(self):
        # when the residual halves are not positively correlated the generic
        # solver lands on the boundary exactly; its noise variance is then
        # the plain MLE |d|^2 / (2 cells), which the closed form also returns
        # there (test_boundary_oracle_equivalence)
        lay = ArrayLayout.full(2, 4, 4)
        design = toy_design(lay)
        structure = CellwiseTwoLevel(2, 16)
        found_boundary = False
        for seed in (3, 7, 19, 23):
            coll = simulate_two_level(lay, sigma=0.0, v=0.2, seed=seed)
            y = cs.stack_log(coll)
            closed = cs.ml_dispersion_cellwise(y, design)
            if closed.omega_hat[0] != 0.0:
                continue
            found_boundary = True
            gen = cs.ml_dispersion_generic(y, design, structure, [0.01, 0.01])
            assert gen.omega_hat[0] == 0.0
            d = gen.residual
            assert gen.omega_hat[1] == pytest.approx(float(d @ d) / d.size, rel=1e-8)
        assert found_boundary

    def test_boundary_oracle_equivalence(self):
        # the seeds of test_boundary_clamp_is_exact_zero: where the closed
        # form sits on sigma2 = 0 the generic solver reaches the same point
        lay = ArrayLayout.full(2, 4, 4)
        design = toy_design(lay)
        structure = CellwiseTwoLevel(2, 16)
        boundary = 0
        for seed in (3, 7, 19, 23):
            y = cs.stack_log(simulate_two_level(lay, sigma=0.0, v=0.2, seed=seed))
            closed = cs.ml_dispersion_cellwise(y, design)
            if closed.omega_hat[0] != 0.0:
                continue
            boundary += 1
            gen = cs.ml_dispersion_generic(y, design, structure, [0.01, 0.01])
            np.testing.assert_allclose(gen.omega_hat, closed.omega_hat, rtol=1e-8)
            assert math.isclose(gen.loglik, closed.loglik, rel_tol=1e-10, abs_tol=1e-10)
        assert boundary

    def test_one_factorization_per_point(self, monkeypatch):
        y, design, _ = small_fit_inputs(seed=11)
        structure = CellwiseTwoLevel(2, 25)
        points = []
        model = estimation.SigmaModel

        def recorded(structure, omega):
            points.append(tuple(omega))
            return model(structure, omega)

        monkeypatch.setattr(estimation, "SigmaModel", recorded)
        fit = cs.ml_dispersion_generic(y, design, structure, [0.005, 0.02])
        assert fit.n_iter >= 1
        assert len(points) == len(set(points))

    def test_non_convergence_error_carries_state(self):
        y, design, _ = small_fit_inputs(seed=13, size=3)
        structure = CellwiseTwoLevel(2, 9)
        with pytest.raises(cs.NumericalError) as err:
            cs.ml_dispersion_generic(y, design, structure, [0.01, 0.01], max_iter=0)
        assert err.value.last_omega is not None
        assert err.value.score_norm is not None

    @pytest.mark.parametrize(
        "init, kwargs",
        [
            ([0.01, 0.01], {"max_iter": 2.5}),  # never equal to an iteration count
            ([0.01, 0.01], {"tol": float("inf")}),
            ([0.01, 0.01, 0.01], {}),
            ([0.01, 0.0], {}),  # v2 must stay positive
            # one free_mask entry per component: not broadcast, nor a NumPy error
            ([0.01, 0.01], {"free_mask": [True]}),
            ([0.01, 0.01], {"free_mask": [True, False, True]}),
        ],
    )
    def test_bad_settings_are_config_errors(self, init, kwargs):
        y, design, _ = small_fit_inputs(seed=13, size=3)
        structure = CellwiseTwoLevel(2, 9)
        with pytest.raises(cs.ConfigError):
            cs.ml_dispersion_generic(y, design, structure, init, **kwargs)

    def test_free_mask_holds_fixed_components(self):
        y, design, _ = small_fit_inputs(seed=17, size=4)
        structure = CellwiseTwoLevel(2, 16)
        fit = cs.ml_dispersion_generic(
            y, design, structure, [0.02, 0.01], free_mask=[False, True]
        )
        assert fit.omega_hat[0] == 0.02
        assert abs(fit.score[1]) < 1e-9


class TestParameterizationInvariance:
    def test_dispersion_invariant_to_gauge(self, ref_fit):
        # an equivalent design with a different aliased column dropped gives
        # the same fitted values, hence the same dispersion estimates
        from commonshock.design import reduce_columns

        design = ref_fit["design"]
        y = ref_fit["y"]
        M, M_full = dense.M(design), dense.M_full(design)
        priority = [M_full.shape[1] - 1] + list(range(M_full.shape[1] - 1))
        kept, *_ = reduce_columns(M_full, priority)
        alt_M = M_full[:, kept]
        ols_base, *_ = np.linalg.lstsq(M, y, rcond=None)
        ols_alt, *_ = np.linalg.lstsq(alt_M, y, rcond=None)
        d_base = y - M @ ols_base
        d_alt = y - alt_M @ ols_alt
        cells = design.layout.cells_per_array
        base = cs.ml_dispersion_cellwise_closed_form(d_base[:cells], d_base[cells:])
        alt = cs.ml_dispersion_cellwise_closed_form(d_alt[:cells], d_alt[cells:])
        np.testing.assert_allclose(base, alt, rtol=1e-9)


class TestDependenceStats:
    def test_identical_vectors(self):
        d = np.array([0.5, -1.0, 2.0])
        corr, agree = cs.dependence_stats(d, d)
        assert corr == pytest.approx(1.0)
        assert agree == 3

    def test_reference_values(self, ref_fit):
        fit = ref_fit["fit"]
        full = ref_fit["full"]
        m_ext = dense.rows(fit.design, full.layout.stacking_order)
        d = cs.stack_log(full) - m_ext @ fit.kappa_hat
        corr, agree = cs.dependence_stats(*d.reshape(2, -1))
        assert corr == pytest.approx(0.36, abs=0.03)
        assert abs(agree - 144) <= 3

    def test_sign_agreement_ignores_rounding_of_exact_fits(self, ref_fit):
        # the bundled data has exact-fit cells whose residuals are zero up
        # to rounding; their signs must not depend on the last bits of omega
        fit, full, y = ref_fit["fit"], ref_fit["full"], ref_fit["y"]
        design = fit.design
        structure = DiagonalScalar(design.A)
        m_ext = dense.rows(design, full.layout.stacking_order)
        rng = np.random.default_rng(13)
        counts = set()
        for _ in range(12):
            omega = fit.omega_hat * (1.0 + 1e-13 * rng.standard_normal(2))
            refit = cs.gls_fit(y, design, cs.SigmaModel(structure, omega))
            d = cs.stack_log(full) - m_ext @ refit.kappa_hat
            counts.add(cs.dependence_stats(*d.reshape(2, -1))[1])
        assert counts == {143}

    def test_opposite_vectors(self):
        d = np.array([0.5, -1.0, 2.0])
        corr, agree = cs.dependence_stats(d, -d)
        assert corr == pytest.approx(-1.0)
        assert agree == 0

    def test_zero_variance_rejected(self):
        with pytest.raises(cs.NumericalError):
            cs.dependence_stats(np.ones(3), np.array([1.0, 2.0, 3.0]))


class TestArraySideFactor:
    """Identity cell sides: the fit never forms an n x n matrix."""

    @pytest.fixture
    def no_dense_sigma(self, monkeypatch):
        def refuse(self, omega):
            raise AssertionError("the dense Sigma was built")

        monkeypatch.setattr(GammaStructure, "sigma", refuse)

    def test_closed_form_path(self, ref_fit, no_dense_sigma):
        fit = cs.ml_dispersion_cellwise(ref_fit["y"], ref_fit["design"])
        np.testing.assert_allclose(fit.omega_hat, ref_fit["fit"].omega_hat, rtol=1e-12)
        assert fit.sigma.n == ref_fit["y"].size
        assert fit._omega_fit is None  # formed only on first read

    @pytest.mark.parametrize("example48", [False, True], ids=["cellwise_two_level", "example48"])
    def test_generic_solver_forms_no_dense_derivative(self, example48, monkeypatch):
        # the score and the information come from the N x N array side: no
        # Kronecker product, dense Sigma or n x n derivative is built
        lay = ArrayLayout.full(3, 4, 4)
        y = cs.stack_log(simulate_two_level(lay, 0.12, 0.1, seed=3))
        design = toy_design(lay)
        cells = lay.cells_per_array
        eye = np.eye(cells)
        structure = Example48(3, eye, eye) if example48 else CellwiseTwoLevel(3, cells)

        def refuse(*_, **__):
            raise AssertionError("a dense n x n matrix was built")

        monkeypatch.setattr(GammaStructure, "sigma", refuse)
        monkeypatch.setattr(covariance, "kron", refuse)
        monkeypatch.setattr(covariance, "dsigma_domega", refuse)
        monkeypatch.setattr(cs, "dsigma_domega", refuse)
        monkeypatch.setattr(np, "kron", refuse)
        fit = cs.ml_dispersion_generic(y, design, structure, [0.01] * structure.n_params)
        assert fit.n_iter > 0
        assert np.all((np.abs(fit.score) < 1e-9) | ((fit.omega_hat == 0.0) & (fit.score < 0.0)))

    def test_identity_example48_generic_path(self, no_dense_sigma):
        y, design, lay = small_fit_inputs(seed=5, size=4)
        eye = np.eye(lay.cells_per_array)
        fit = cs.ml_dispersion_generic(y, design, Example48(2, eye, eye), [0.01] * 5)
        assert fit.sigma.n == y.size
        assert np.all(np.isfinite(fit.omega_hat))

    @pytest.mark.parametrize("partition", ["cell", "diagonal"])
    def test_cli_diagonal_scalar_factors_only_array_sides(self, partition, tmp_path, monkeypatch):
        # the CLI's diagonal_scalar has one group on the cell partition
        # (Sigma = C (x) I) and, on the diagonal one, a group per diagonal
        # length and the complement: its fit and forecast factor 2 x 2
        # array sides only and build no dense Sigma
        shapes = []
        cholesky = np.linalg.cholesky

        def recorded(a):
            shapes.append(np.shape(a))
            return cholesky(a)

        def refuse(self, omega):
            raise AssertionError("the dense Sigma was built")

        monkeypatch.setattr(np.linalg, "cholesky", recorded)
        monkeypatch.setattr(GammaStructure, "sigma", refuse)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"data = {', '.join(bundled_paths())}\nt_max = 15\n"
            f"partition = {partition}\ncovariance = diagonal_scalar\n"
        )
        for command in ("fit", "forecast"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
        assert shapes and set(shapes) == {(2, 2)}

    def test_omega_fit_on_first_read(self, ref_fit):
        fit = ref_fit["fit"]
        M = dense.M(fit.design)
        np.testing.assert_allclose(fit.omega_fit, M @ fit.var_kappa @ M.T, rtol=1e-12)
        assert fit.omega_fit is fit.omega_fit
        assert fit.matrix is None  # applied by the design's blocks


def raw_structure(rng, n_arrays, cells):
    """A term list with general loadings: 2-column array sides on a cell side
    and on a square diagonal cell side, a wide cell side F R0 (a Gamma block
    R0 R0^T folded into its loading), and a per-array identity noise term."""
    R0 = rng.normal(size=(3, 3))
    terms = (
        Term("a", True, rng.normal(size=(n_arrays, 2)), rng.normal(size=(cells, 2))),
        Term("b", True, rng.normal(size=(n_arrays, 2)), np.diag(np.sqrt(rng.uniform(0.5, 2.0, cells)))),
        Term("c", True, rng.normal(size=(n_arrays, 1)), rng.normal(size=(cells, 3)) @ R0),
        Term("v2", False, np.eye(n_arrays)),
    )
    return GammaStructure(terms, cells)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(
        ["cellwise", "example48_identity", "example48_random", "diagonal_scalar",
         "diagonal_scalar_b", "raw"]
    ),
    n_arrays=st.integers(1, 4),
    cells=st.integers(1, 5),
    dense_frame=st.booleans(),
    data=st.data(),
)
def test_score_and_information_match_dense_reference(family, n_arrays, cells, dense_frame, data):
    # the loading traces against the dense D_k, in the array-side frame and
    # in the dense frame: identity cell sides reach it through an explicit
    # F = [I | 1] on their first term, two nonzeros in a row, and their
    # other terms still take the identity-cell-side route
    # (_times_array_side) there
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = n_arrays * cells
    eye = np.eye(cells)
    if family == "cellwise":
        structure = CellwiseTwoLevel(n_arrays, cells)
    elif family == "example48_identity":
        structure = Example48(n_arrays, eye, eye)
    elif family == "example48_random":
        R0 = rng.normal(size=(cells, cells))
        structure = Example48(n_arrays, rng.normal(size=(cells, cells)), R0 @ R0.T)
    elif family.startswith("diagonal_scalar"):
        B = rng.normal(size=(n, 2)) if family == "diagonal_scalar_b" else None
        structure = DiagonalScalar(rng.normal(size=(n, 3)), B)
    else:
        structure = raw_structure(rng, n_arrays, cells)
    if dense_frame and structure.identity_cell_side:
        first = structure.terms[0]._replace(F=np.hstack([eye, np.ones((cells, 1))]))
        structure = GammaStructure((first, *structure.terms[1:]), cells)
    omega = [
        data.draw(
            st.one_of(st.just(0.0), st.floats(1e-3, 2.0)) if zero_allowed else st.floats(0.05, 2.0)
        )
        for zero_allowed in structure.zero_allowed
    ]
    M = rng.normal(size=(n, data.draw(st.integers(0, min(3, n - 1)))))
    y = rng.normal(size=n)

    model = cs.SigmaModel(structure, omega)
    assert len(model._groups[0].C) == (n if structure.subset_frame is None else n_arrays)
    fit = cs.gls_fit(y, M, model)
    score = cs.profile_score(y, M, structure, omega, fit=fit)
    traces, quads, info = dense.score(y, M, structure, omega)

    scale = np.abs(traces) + np.abs(quads)
    assert np.all(np.abs(score - 0.5 * (quads - traces)) <= 1e-10 * scale)
    np.testing.assert_allclose(model.term_traces(), traces, rtol=1e-10)
    np.testing.assert_allclose(model.information(), info, rtol=1e-10, atol=1e-10 * np.abs(info).max())
    idx = [k for k in range(structure.n_params) if data.draw(st.booleans())]
    np.testing.assert_array_equal(model.information(idx), model.information()[np.ix_(idx, idx)])


@pytest.mark.parametrize("kind, partition", [
    ("cellwise_two_level", "cell"), ("diagonal_scalar", "cell"), ("diagonal_scalar", "diagonal"),
])
def test_generic_solver_reports_the_score_of_its_fit(bundled, kind, partition):
    # on an invariant design (the cell partition) the solver steps on the
    # fixed location and returns gls_fit's fit at omega-hat, whose residual
    # differs in the last bits; the score it reports is that fit's
    coll = bundled.restrict_to_diagonals(15)
    design = toy_design(coll.layout, kind=partition)
    y = cs.stack_log(coll)
    structure = structure_for(kind, 2, coll.layout.cells_per_array, design.A, design.B)
    fit = cs.ml_dispersion_generic(y, design, structure, [0.01, 0.01])
    assert fit.n_iter > 0
    np.testing.assert_array_equal(
        fit.score, cs.profile_score(y, design, structure, fit.omega_hat, fit=fit)
    )


@pytest.mark.parametrize("within", [False, True])
def test_unequal_per_array_alpha_matches_the_dense_frame(bundled, within):
    # alpha that differs between the arrays leaves A without equal row
    # blocks, so DiagonalScalar keeps its one-array form: without within
    # shocks its columns still make a subset frame (of 1 x 1 array sides),
    # with them the dense frame. Either agrees with the dense Sigma
    coll = bundled.restrict_to_diagonals(15)
    lay = coll.layout
    rng = np.random.default_rng(9)
    shock = cs.ShockSpec(
        partition=cs.build_partition("diagonal", lay),
        include_within=within,
        shared_across_mean=True,
        alpha=rng.uniform(0.5, 1.5, (2, lay.n_rows, lay.n_cols)),
    )
    design = cs.assemble(lay, shock)
    y = cs.stack_log(coll)
    structure = structure_for("diagonal_scalar", 2, lay.cells_per_array, design.A, design.B)
    assert structure.n_arrays == 1
    assert (structure.subset_frame is None) == within
    omega = [0.01, 0.004, 0.02] if within else [0.01, 0.02]
    model = cs.SigmaModel(structure, omega)
    sigma = structure.sigma(omega)
    n = len(sigma)
    W = model.whiten(np.eye(n))
    np.testing.assert_allclose(W @ sigma @ W.T, np.eye(n), atol=1e-10)
    assert model.logdet() == pytest.approx(np.linalg.slogdet(sigma)[1], rel=1e-10)
    M = dense.M(design)
    kappa, _, loglik, var, _ = dense.gls(y, M, design.X.shape[1], sigma)
    fit = cs.gls_fit(y, design, model)
    np.testing.assert_allclose(fit.kappa_hat, kappa, rtol=1e-10, atol=1e-10 * np.abs(kappa).max())
    np.testing.assert_allclose(fit.var_kappa, var, rtol=1e-10, atol=1e-10 * np.abs(var).max())
    assert fit.loglik == pytest.approx(loglik, rel=1e-10)
    traces, quads, info = dense.score(y, M, structure, omega)
    np.testing.assert_allclose(
        cs.profile_score(y, design, structure, omega, fit=fit), 0.5 * (quads - traces),
        rtol=1e-10, atol=1e-10 * np.abs(traces).max(),
    )
    np.testing.assert_allclose(model.information(), info, rtol=1e-10)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    n_arrays=st.integers(2, 5),
    k=st.integers(1, 40),
    scale=st.sampled_from([1e-2, 0.1, 1.0, 10.0]),
    ratio=st.sampled_from([0.05, 0.5, 1.0, 3.0]),
    sign=st.sampled_from(["positive", "zero", "negative"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_is_the_ml_point(n_arrays, k, scale, ratio, sign, seed):
    # the closed form against the generic solver on y = [d_1; ...; d_N] with
    # no location, inside the parameter space and on its sigma2 = 0
    # boundary. Residuals of mean square scale^2, with the arrays kept away
    # from one another, keep omega off the sizes where the solver's absolute
    # score tolerance drowns in rounding
    rng = np.random.default_rng(seed)
    if sign == "zero":
        # disjoint supports: every <d_a, d_b> = 0 exactly (some d_a = 0 when k < N)
        E = np.zeros((n_arrays, k))
        for a, idx in enumerate(np.array_split(np.arange(k), n_arrays)):
            x = rng.normal(size=idx.size)
            if idx.size:
                E[a, idx] = (ratio if a == 1 else 1.0) * scale * np.sqrt(k) * x / np.linalg.norm(x)
    else:
        # E = 1 s^T / sqrt(N) + H with the columns of H summing to zero: the
        # cross products sum to ((N - 1)|s|^2 - |H|^2) / 2, whose sign
        # rho = (N - 1)|s|^2 / |H|^2 sets
        rho = 1.0 + ratio if sign == "positive" else 1.0 / (1.0 + ratio)
        H = rng.normal(size=(n_arrays, k))
        H -= H.mean(axis=0)
        s = rng.normal(size=k)
        H *= np.sqrt((n_arrays - 1) / rho) * np.linalg.norm(s) / np.linalg.norm(H)
        E = np.outer(np.ones(n_arrays) / np.sqrt(n_arrays), s) + H
        E *= scale * np.sqrt(n_arrays * k) / np.linalg.norm(E)
    c = sum(float(E[a] @ E[b]) for a in range(n_arrays) for b in range(a + 1, n_arrays))
    assert np.sign(c) == {"positive": 1.0, "zero": 0.0, "negative": -1.0}[sign]
    s2, v2, r = cs.ml_dispersion_cellwise_closed_form(*E)
    assert r == s2 / v2
    if c <= 0.0:
        assert s2 == 0.0
        assert v2 == pytest.approx(float(np.sum(E * E)) / (n_arrays * k), rel=1e-14)
    if n_arrays == 2:
        # the two-array sum/difference split, to the last bit
        d1, d2 = E
        a, c, norm2 = float((d1 - d2) @ (d1 - d2)), float(d1 @ d2), float(d1 @ d1 + d2 @ d2)
        if c <= 0.0:
            assert (s2, v2, r) == (0.0, norm2 / (2.0 * k), 0.0)
        else:
            assert (s2, v2, r) == (c / k, a / (2.0 * k), (c / k) / (a / (2.0 * k)))

    y = E.ravel()
    empty = np.zeros((n_arrays * k, 0))
    structure = CellwiseTwoLevel(n_arrays, k)
    gen = cs.ml_dispersion_generic(y, empty, structure, [0.01, 0.01])
    closed = cs.gls_fit(y, empty, cs.SigmaModel(structure, [s2, v2]))
    # at c = 0 the sigma2 score vanishes on the boundary, so the solver may
    # stop at a sigma2 of rounding size: compare on the scale of omega
    np.testing.assert_allclose(gen.omega_hat, [s2, v2], rtol=1e-8, atol=1e-8 * v2)
    assert math.isclose(gen.loglik, closed.loglik, rel_tol=1e-10, abs_tol=1e-10)
