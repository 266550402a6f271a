import numpy as np
import pytest

import commonshock as cs
from commonshock.arrays import ArrayLayout
from commonshock.tweedie import ShockRatios, TweedieParams


def random_params(rng, p=None):
    if p is None:
        p = float(rng.choice([-1.0, 0.0, 1.5, 2.0, 3.0]))
    theta = float(rng.uniform(0.2, 3.0)) * (1.0 if p < 1 else -1.0)
    lam = float(rng.uniform(0.2, 4.0))
    return TweedieParams(p, theta, lam)


class TestMoments:
    def test_poisson_limit(self):
        params = TweedieParams(1.0, 0.4, 2.5)
        m, v = cs.tweedie_mean_var(params)
        assert m == pytest.approx(2.5 * np.exp(0.4), rel=1e-14)
        assert v == pytest.approx(m, rel=1e-14)

    def test_normal_case(self):
        # p = 0 means alpha = 2: mean lam * theta, variance lam
        params = TweedieParams(0.0, 1.3, 0.7)
        m, v = cs.tweedie_mean_var(params)
        assert m == pytest.approx(0.7 * 1.3, rel=1e-14)
        assert v == pytest.approx(0.7, rel=1e-14)

    def test_roundtrip_with_from_moments(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            params = random_params(rng)
            if params.p == 1.0:
                continue
            m, v = cs.tweedie_mean_var(params)
            back = cs.tweedie_from_moments(m, v, params.p)
            assert back.theta == pytest.approx(params.theta, rel=1e-12)
            assert back.lam == pytest.approx(params.lam, rel=1e-12)

    def test_from_moments_equal_mean_variance(self):
        p = 3.0
        alpha = (2.0 - p) / (1.0 - p)
        back = cs.tweedie_from_moments(1.7, 1.7, p)
        assert back.theta == pytest.approx(alpha - 1.0, rel=1e-12)
        assert back.lam == pytest.approx(1.7, rel=1e-12)

    def test_inverse_squared_cov_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            params = random_params(rng)
            if params.p == 1.0:
                continue
            m, v = cs.tweedie_mean_var(params)
            alpha = params.alpha_index
            lhs = m * m / v
            rhs = params.lam * (params.theta / (alpha - 1.0)) ** alpha
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_domain_validation(self):
        with pytest.raises(cs.ConfigError):
            TweedieParams(0.5, 1.0, 1.0)
        with pytest.raises(cs.ConfigError):
            TweedieParams(2.0, 1.0, 1.0)  # theta must be negative for p = 2
        with pytest.raises(cs.ConfigError):
            TweedieParams(0.0, 1.0, -1.0)


class TestTransformations:
    def test_unit_scale_is_identity(self):
        params = TweedieParams(2.0, -0.7, 1.4)
        out = cs.tweedie_scale(params, 1.0)
        assert out.theta == params.theta and out.lam == params.lam

    def test_scaling_scales_the_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            params = random_params(rng)
            if params.p == 1.0:
                continue
            k = float(rng.uniform(0.25, 4.0))
            m, _ = cs.tweedie_mean_var(params)
            ms, _ = cs.tweedie_mean_var(cs.tweedie_scale(params, k))
            assert ms == pytest.approx(k * m, rel=1e-12)

    def test_addition_adds_means_and_variances(self):
        a = TweedieParams(2.0, -0.5, 1.1)
        b = TweedieParams(2.0, -0.5, 0.4)
        total = cs.tweedie_add(a, b)
        ma, va = cs.tweedie_mean_var(a)
        mb, vb = cs.tweedie_mean_var(b)
        mt, vt = cs.tweedie_mean_var(total)
        assert mt == pytest.approx(ma + mb, rel=1e-12)
        assert vt == pytest.approx(va + vb, rel=1e-12)

    def test_addition_requires_shared_theta(self):
        a = TweedieParams(2.0, -0.5, 1.1)
        b = TweedieParams(2.0, -0.6, 0.4)
        with pytest.raises(cs.ConfigError, match="closed"):
            cs.tweedie_add(a, b)

    def test_reproductive_variance_power_law(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            params = random_params(rng)
            if params.p == 1.0:
                continue
            rep = cs.tweedie_reproductive(params)
            m, v = cs.tweedie_mean_var(rep)
            assert v == pytest.approx(m**params.p / params.lam, rel=1e-12)


class TestShockComponents:
    def test_equal_theta_coefficient_one(self):
        cell = TweedieParams(2.0, -1.2, 0.8)
        shock = TweedieParams(2.0, -1.2, 0.3)
        coeff, comp = cs.shock_component_params(cell, shock)
        assert coeff == 1.0
        assert comp.lam == pytest.approx(0.3, rel=1e-14)
        assert comp.theta == cell.theta

    def test_dispersion_composition(self):
        # total dispersion of the logged cell: scaled shock dispersions plus
        # the idiosyncratic one, and it equals lam * psi
        cell = TweedieParams(2.0, -1.0, 0.9)
        shock_u = TweedieParams(2.0, -1.5, 0.4)
        shock_w = TweedieParams(2.0, -0.8, 0.2)
        _, comp_u = cs.shock_component_params(cell, shock_u)
        _, comp_w = cs.shock_component_params(cell, shock_w)
        phi = comp_u.lam + comp_w.lam + cell.lam
        ratios = ShockRatios.from_params(cell, shock_u, shock_w)
        assert phi == pytest.approx(cell.lam * ratios.psi, rel=1e-12)

    def test_component_variance_scales_with_ratio(self):
        cell = TweedieParams(3.0, -2.0, 1.3)
        shock = TweedieParams(3.0, -1.1, 0.6)
        _, comp = cs.shock_component_params(cell, shock)
        _, v_cell = cs.tweedie_mean_var(cell)
        _, v_comp = cs.tweedie_mean_var(comp)
        ratios = ShockRatios.from_params(cell, shock_across=shock)
        assert v_comp == pytest.approx(ratios.u**2 * v_cell, rel=1e-12)


class TestLogMoments:
    def test_no_shocks(self):
        cell = TweedieParams(2.0, -1.0, 0.5)
        m, v = cs.log_tweedie_moments(cell, ShockRatios(0.0, 0.0))
        mc, vc = cs.tweedie_mean_var(cell)
        assert (m, v) == (mc, vc)

    def test_unit_ratios_triple_both_moments(self):
        cell = TweedieParams(2.0, -1.0, 0.5)
        m, v = cs.log_tweedie_moments(cell, ShockRatios(1.0, 1.0))
        mc, vc = cs.tweedie_mean_var(cell)
        assert m == pytest.approx(3.0 * mc, rel=1e-14)
        assert v == pytest.approx(3.0 * vc, rel=1e-14)

    def test_consistency_with_inflated_parameters(self):
        # evaluating the observation's own parameters (lam inflated by psi)
        # gives the same moments as inflating the idiosyncratic ones
        cell = TweedieParams(2.0, -0.9, 0.7)
        ratios = ShockRatios(0.8, 0.4)
        direct = cs.tweedie_mean_var(
            TweedieParams(cell.p, cell.theta, cell.lam * ratios.psi)
        )
        via_psi = cs.log_tweedie_moments(cell, ratios)
        np.testing.assert_allclose(direct, via_psi, rtol=1e-12)


class TestCorrelation:
    def layout_partition(self, kind="row", size=3):
        lay = ArrayLayout.full(2, size, size)
        return lay, cs.build_partition(kind, lay)

    def test_unit_ratio_pattern(self):
        lay, part = self.layout_partition("row", 3)
        ratios = [ShockRatios(1.0, 1.0)] * lay.n_observations
        corr = cs.log_tweedie_correlation(part, ratios, 2)
        values = set(np.round(corr, 12).ravel().tolist())
        third = round(1.0 / 3.0, 12)
        assert values == {0.0, third, round(2.0 / 3.0, 12), 1.0}

    def test_unit_diagonal_always(self):
        rng = np.random.default_rng(6)
        lay, part = self.layout_partition("diagonal", 4)
        ratios = [
            ShockRatios(float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
            for _ in range(lay.n_observations)
        ]
        corr = cs.log_tweedie_correlation(part, ratios, 2)
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-14)

    def test_row_wise_delta_structure(self):
        lay, part = self.layout_partition("row", 3)
        u, w = 0.7, 0.5
        ratios = [ShockRatios(u, w)] * lay.n_observations
        corr = cs.log_tweedie_correlation(part, ratios, 2)
        psi = 1 + u**2 + w**2
        cells = lay.cells_per_array
        idx = {cell: k for k, cell in enumerate(lay.stacking_order)}
        # same array, same row, different cell
        assert corr[idx[(1, 1)], idx[(1, 3)]] == pytest.approx((u**2 + w**2) / psi)
        # different arrays, same row
        assert corr[idx[(2, 1)], cells + idx[(2, 3)]] == pytest.approx(u**2 / psi)
        # different rows: independent
        assert corr[idx[(1, 1)], idx[(2, 3)]] == 0.0

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(7)
        for kind in ("array", "cell", "row", "column", "diagonal"):
            lay = ArrayLayout.full(2, 3, 3)
            part = cs.build_partition(kind, lay)
            ratios = [
                ShockRatios(float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
                for _ in range(lay.n_observations)
            ]
            corr = cs.log_tweedie_correlation(part, ratios, 2)
            np.testing.assert_allclose(corr, corr.T, atol=1e-12)
            assert np.linalg.eigvalsh(corr).min() > -1e-10

    @pytest.mark.parametrize("kind", ["array", "cell", "row", "column", "diagonal"])
    def test_every_entry_matches_the_formula(self, kind):
        # (delta_subset u u' + delta_nm (delta_subset w w' + delta_cell))
        # / sqrt(psi psi'), entry by entry; the array count is the argument,
        # not the layout's
        rng = np.random.default_rng(9)
        for lay, n_arrays in ((ArrayLayout.triangle(2, 4), 2), (ArrayLayout.full(1, 3, 4), 3)):
            part = cs.build_partition(kind, lay)
            cells = lay.cells_per_array
            ratios = [ShockRatios(*map(float, rng.uniform(0, 2, 2))) for _ in range(n_arrays * cells)]
            corr = cs.log_tweedie_correlation(part, ratios, n_arrays)
            assert corr.shape == (n_arrays * cells,) * 2
            for a, b in np.ndindex(corr.shape):
                (n, c), (m, d) = divmod(a, cells), divmod(b, cells)
                ra, rb = ratios[a], ratios[b]
                subset = part.labels[c] == part.labels[d]
                numerator = subset * ra.u * rb.u + (n == m) * (subset * ra.w * rb.w + (c == d))
                want = numerator / np.sqrt(ra.psi * rb.psi)
                assert corr[a, b] == pytest.approx(want, rel=1e-14, abs=1e-15), (a, b)


class TestGeeWeights:
    def test_no_shocks_unit_dispersion(self):
        lay = ArrayLayout.full(1, 2, 2)
        part = cs.build_partition("cell", lay)
        y = np.array([1.0, 2.0, 3.0, 4.0])
        params = [TweedieParams(2.0, -1.0, 1.0)] * 4
        ratios = [ShockRatios(0.0, 0.0)] * 4
        y_check, weights, corr = cs.gee_weights(y, params, ratios, part, 1)
        np.testing.assert_array_equal(y_check, y)
        np.testing.assert_array_equal(weights, np.ones(4))
        np.testing.assert_array_equal(corr, np.eye(4))

    def test_variance_identity_both_paths(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            p = float(rng.choice([-1.0, 0.0, 2.0, 3.0]))
            cell = random_params(rng, p=p)
            ratios = ShockRatios(float(rng.uniform(0, 1.5)), float(rng.uniform(0, 1.5)))
            scaled = cs.scaled_observation_params(cell, ratios)
            m_direct, v_direct = cs.tweedie_mean_var(scaled)
            v_formula = (
                cell.lam ** (1.0 - p) / ratios.psi * m_direct**p
            )
            assert v_direct == pytest.approx(v_formula, rel=1e-10)

    def test_scaled_mean_is_idiosyncratic_mean(self):
        cell = TweedieParams(2.0, -0.8, 0.6)
        ratios = ShockRatios(0.9, 0.3)
        scaled = cs.scaled_observation_params(cell, ratios)
        m_scaled, _ = cs.tweedie_mean_var(scaled)
        m_cell, _ = cs.tweedie_mean_var(cell)
        assert m_scaled == pytest.approx(m_cell, rel=1e-12)

    def test_normal_case_weights_reduce_to_psi(self):
        lay = ArrayLayout.full(1, 1, 3)
        part = cs.build_partition("cell", lay)
        y = np.array([0.5, 1.0, 1.5])
        params = [TweedieParams(0.0, 1.0, 1.0)] * 3
        ratios = [ShockRatios(1.0, 1.0)] * 3
        _, weights, _ = cs.gee_weights(y, params, ratios, part, 1)
        np.testing.assert_allclose(weights, [3.0, 3.0, 3.0])
