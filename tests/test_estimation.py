import numpy as np
import pytest

import commonshock as cs
from commonshock.arrays import ArrayLayout
from commonshock.covariance import CellwiseTwoLevel, DiagonalScalar
from conftest import simulate_two_level, toy_design


def small_fit_inputs(seed=0, size=5, sigma=0.12, v=0.1):
    lay = ArrayLayout.full(2, size, size)
    coll = simulate_two_level(lay, sigma, v, seed)
    design = toy_design(lay)
    return cs.stack_log(coll), design, lay


class TestGlsFit:
    def test_saturated_model(self):
        y = np.array([0.3, -1.2, 2.5])
        structure = CellwiseTwoLevel(1, 3)
        fit = cs.gls_fit(y, np.eye(3), cs.SigmaModel(structure, [0.0, 1.0]))
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

    def test_reference_location_estimates(self, ref_fit):
        table = cs.chain_ladder_effect_table(ref_fit["fit"])
        a1 = table["array_1"]
        assert a1["column_effects"][0] == pytest.approx(248, rel=0.005)
        assert a1["row_effects"][14] == pytest.approx(1.334, rel=0.005)
        a2 = table["array_2"]
        assert a2["row_effects"][1] == pytest.approx(0.896, rel=0.01)

    def test_normal_equations_hold_at_solution(self, ref_fit):
        fit = ref_fit["fit"]
        grad = fit.design.M.T @ fit.sigma.solve(fit.residual)
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
        mean_vec = design.M @ kappa_true
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
        d = np.array([0.4, -0.2, 0.1])
        with pytest.raises(cs.NumericalError):
            cs.ml_dispersion_cellwise_closed_form(d, -d)

    def test_boundary_at_zero_shock(self):
        # simulated with no shared shock: the positive root disappears in
        # most replicates and the shock variance clamps to zero
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
                continue  # boundary case: the oracle equivalence is interior-only
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
        # when the quadratic has no positive root the generic solver lands on
        # the boundary exactly; its noise variance is then the plain MLE
        # |d|^2 / (2 cells), which the spec'd closed-form expression for the
        # interior case does not reproduce (agreement is interior-only)
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

    def test_non_convergence_error_carries_state(self):
        y, design, _ = small_fit_inputs(seed=13, size=3)
        structure = CellwiseTwoLevel(2, 9)
        with pytest.raises(cs.NumericalError) as err:
            cs.ml_dispersion_generic(y, design, structure, [0.01, 0.01], max_iter=0)
        assert err.value.last_omega is not None
        assert err.value.score_norm is not None

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
        M_full = design.M_full
        priority = [M_full.shape[1] - 1] + list(range(M_full.shape[1] - 1))
        kept, *_ = reduce_columns(M_full, priority)
        alt_M = M_full[:, kept]
        ols_base, *_ = np.linalg.lstsq(design.M, y, rcond=None)
        ols_alt, *_ = np.linalg.lstsq(alt_M, y, rcond=None)
        d_base = y - design.M @ ols_base
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
        m_ext = fit.design.rows_for_cells(full.layout.stacking_order)
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
        m_ext = design.rows_for_cells(full.layout.stacking_order)
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
