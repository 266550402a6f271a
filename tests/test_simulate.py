import numpy as np
import pytest

import commonshock as cs
from commonshock.arrays import ArrayLayout
from commonshock.simulate import SimSpec


def table_spec(seed=7, shock_sd=0.1, idio_sd=0.15, rounding="none", layout=None):
    lay = layout if layout is not None else ArrayLayout.full(2, 3, 3)
    n, I, J = lay.n_arrays, lay.n_rows, lay.n_cols
    rows = np.vstack([
        10000.0 * np.exp(0.02 * np.arange(I)),
        30000.0 * np.exp(-0.02 * np.arange(I)),
    ])[:n]
    cols = np.vstack([
        np.linspace(0.02, 0.15, J),
        np.linspace(0.10, 0.03, J),
    ])[:n]
    return SimSpec(
        layout=lay,
        row_effects=rows,
        col_effects=cols,
        shock_mean_log=0.15,
        shock_sd=shock_sd,
        idio_sd=idio_sd,
        seed=seed,
        rounding=rounding,
    )


def test_noiseless_product():
    spec = table_spec(shock_sd=0.0, idio_sd=0.0)
    coll = cs.simulate(spec)
    for n in (1, 2):
        for (i, j) in spec.layout.stacking_order:
            expected = (
                np.exp(0.15)
                * spec.row_effects[n - 1, i - 1]
                * spec.col_effects[n - 1, j - 1]
            )
            assert coll.value(n, i, j) == pytest.approx(expected, rel=1e-12)


def test_bit_exact_determinism():
    a = cs.simulate(table_spec(seed=123))
    b = cs.simulate(table_spec(seed=123))
    assert np.array_equal(a.values, b.values)
    c = cs.simulate(table_spec(seed=124))
    assert not np.array_equal(a.values, c.values)


def test_draws_keyed_by_identity_not_order():
    # a cell's draw depends on its identity, not on how many cells precede
    # it: the triangle's cells match the full grid's on the shared region
    full_spec = table_spec(seed=9, layout=ArrayLayout.full(2, 3, 3))
    tri_spec = table_spec(seed=9, layout=ArrayLayout.triangle(2, 3))
    full = cs.simulate(full_spec)
    tri = cs.simulate(tri_spec)
    for n in (1, 2):
        for (i, j) in tri.layout.stacking_order:
            assert tri.value(n, i, j) == full.value(n, i, j)


# simulate() of reference_spec on the full 3 x 3 grids, per partition kind,
# array-major then row-major, as written by the generator that drew the shock
# once per cell; drawing it once per subset must not change a bit
REFERENCE_DRAWS = {
    "array": [
        104.50232683903106, 39.92782668621907, 36.345897821780326,
        152.17807309399336, 59.866413731544775, 28.728202451429347,
        95.64320865497902, 48.22994862201059, 27.72917941756543,
        39.05156663279947, 32.80738121823065, 16.7747767206357,
        58.98521016428098, 39.23217556044228, 17.100771083489217,
        87.98656232474332, 42.24366339599651, 13.502635254535695,
        203.33292807421128, 96.23765752493806, 32.779336727928985,
        192.67458781327497, 75.00101511065027, 48.03429289237775,
        228.3618724707207, 76.40715707513651, 38.31767527187266,
    ],
    "cell": [
        92.48111855954836, 38.620052744718976, 28.755787005042954,
        158.5538616545671, 64.2097648459874, 36.27725538219469,
        102.5539743288963, 36.35460231029736, 26.16182161765768,
        34.55935071442969, 31.73282640754094, 13.271701494375828,
        61.456507247771945, 42.0784979442511, 21.594425926127606,
        94.34409176390403, 31.842281129668287, 12.73941538542916,
        179.94294669875134, 93.08554254279294, 25.934030567544706,
        200.74705454857383, 80.44239237480272, 60.65650342398044,
        244.86231627321936, 57.59392013657119, 36.151815752291725,
    ],
    "row": [
        133.8545999643402, 51.14262457296035, 46.55461519792795,
        115.52210429280753, 45.446061644243926, 21.80828244348368,
        46.45037138431048, 23.42350342323004, 13.467037547584837,
        50.0202434503287, 42.022211578199055, 21.486421358736486,
        44.777118423115304, 29.782105822353458, 12.981614370777871,
        42.73182125828173, 20.516185947466024, 6.557730873528321,
        260.4444185140009, 123.26857725711861, 41.98629004282199,
        146.2640009522989, 56.93510841294102, 36.46400877817104,
        110.90692099788014, 37.1081321138286, 18.609478623647576,
    ],
    "column": [
        159.218853911676, 24.467517082353492, 61.204647711147956,
        231.85721429757893, 36.685755830065666, 48.37683523560139,
        145.72117700247608, 29.555004359838367, 46.69453113782445,
        59.49863386589674, 20.104153594249986, 28.24787283159163,
        89.86936314406029, 24.041226517202926, 28.79683079741503,
        134.05557595432927, 25.886647021523903, 22.73775263382676,
        309.7963150652976, 58.97382163977933, 55.19873979934375,
        293.55735874463164, 45.96014285563558, 80.88731193126083,
        347.93020128555054, 46.821817667206425, 64.52502088749493,
    ],
    "diagonal": [
        95.54819766739686, 45.00473106662714, 45.10130183263516,
        171.5278246335533, 74.2877011481005, 44.856497291071854,
        118.68280824816934, 75.30671518238738, 27.079454428697503,
        35.705490209799066, 36.97890647367462, 20.81567146207846,
        66.48529961857841, 48.68285824658074, 26.70131182341375,
        109.18174381281062, 65.95967067174401, 13.186253748673913,
        185.91064325152465, 108.47447143640503, 40.67558784457873,
        217.1735535734161, 93.06809359466183, 75.00121640566803,
        283.37221955198936, 119.30288503619327, 37.41985024919307,
    ],
}


def reference_spec(layout, kind):
    return SimSpec(
        layout=layout,
        row_effects=[[100.0, 120.0, 90.0], [50.0, 55.0, 60.0], [200.0, 180.0, 210.0]],
        col_effects=[[1.0, 0.5, 0.25], [1.0, 0.6, 0.3], [1.0, 0.4, 0.2]],
        shock_mean_log=0.1,
        shock_sd=0.3,
        idio_sd=0.2,
        seed=11,
        partition_kind=kind,
    )


@pytest.mark.parametrize("kind", list(REFERENCE_DRAWS))
@pytest.mark.parametrize("shape", ["full", "triangle"])
def test_draws_match_stored_values(kind, shape):
    lay = ArrayLayout.full(3, 3, 3) if shape == "full" else ArrayLayout.triangle(3, 3)
    values = cs.simulate(reference_spec(lay, kind)).values
    want = np.reshape(REFERENCE_DRAWS[kind], (3, 3, 3))
    assert np.array_equal(values[:, lay.mask], want[:, lay.mask])
    assert np.isnan(values[:, ~lay.mask]).all()


def test_cell_mean_matches_analytic():
    # single-cell layout: mean of ln X over seeds is the shock mean plus the
    # log effects, within Monte Carlo error
    lay = ArrayLayout.full(1, 1, 1)
    logs = []
    for seed in range(10_000):
        spec = SimSpec(
            layout=lay,
            row_effects=[[10000.0]],
            col_effects=[[0.02]],
            shock_mean_log=0.15,
            shock_sd=0.1,
            idio_sd=0.15,
            seed=seed,
        )
        logs.append(np.log(cs.simulate(spec).value(1, 1, 1)))
    logs = np.asarray(logs)
    expected = 0.15 + np.log(10000.0) + np.log(0.02)
    se = logs.std(ddof=1) / np.sqrt(logs.size)
    assert abs(logs.mean() - expected) < 3 * se


def test_cross_array_log_covariance_is_shock_variance():
    lay = ArrayLayout.full(2, 1, 1)
    d1, d2 = [], []
    for seed in range(10_000):
        spec = SimSpec(
            layout=lay,
            row_effects=[[1.0], [1.0]],
            col_effects=[[1.0], [1.0]],
            shock_mean_log=0.0,
            shock_sd=0.1,
            idio_sd=0.15,
            seed=seed,
        )
        coll = cs.simulate(spec)
        d1.append(np.log(coll.value(1, 1, 1)))
        d2.append(np.log(coll.value(2, 1, 1)))
    d1 = np.asarray(d1) - np.mean(d1)
    d2 = np.asarray(d2) - np.mean(d2)
    prods = d1 * d2
    se = prods.std(ddof=1) / np.sqrt(prods.size)
    assert abs(prods.mean() - 0.01) < 3 * se
    # and the per-cell log variance tends to shock plus idiosyncratic variance
    var1 = (d1 * d1).mean()
    se_var = (d1 * d1).std(ddof=1) / np.sqrt(d1.size)
    assert abs(var1 - (0.01 + 0.0225)) < 3 * se_var


def test_integer_rounding_floors_at_one():
    spec = SimSpec(
        layout=ArrayLayout.full(1, 2, 2),
        row_effects=[[1.0, 1.0]],
        col_effects=[[0.1, 2.0]],
        shock_mean_log=0.0,
        shock_sd=0.1,
        idio_sd=0.1,
        seed=3,
        rounding="integer",
    )
    coll = cs.simulate(spec)
    vals = coll.values[0][spec.layout.mask]
    assert np.all(vals == np.rint(vals))
    assert np.all(vals >= 1.0)


def test_spec_validation():
    lay = ArrayLayout.full(1, 2, 2)
    with pytest.raises(cs.ConfigError):
        SimSpec(lay, [[1.0, 1.0]], [[1.0, -1.0]], 0.0, 0.1, 0.1, 1)
    with pytest.raises(cs.ConfigError):
        SimSpec(lay, [[1.0, 1.0]], [[1.0, 1.0]], 0.0, -0.1, 0.1, 1)
    with pytest.raises(cs.ConfigError):
        table_spec(rounding="half-up")


class TestBalance:
    def setup_method(self):
        self.lay = ArrayLayout.full(1, 2, 3)
        self.part = cs.build_partition("row", self.lay)
        rng = np.random.default_rng(11)
        self.z = rng.uniform(0.5, 4.0, size=self.lay.cells_per_array)
        self.shocks = np.array([1.3, 0.8])

    def test_multiplicative_ratio_exactly_one(self):
        diag = cs.balance_diagnostic(self.part, self.shocks, self.z)
        np.testing.assert_array_equal(diag.mult_ratio, np.ones(2))

    def test_additive_ratio_exceeds_one_when_z_varies(self):
        diag = cs.balance_diagnostic(self.part, self.shocks, self.z)
        assert np.all(diag.add_ratio > 1.0)
        # the additive multiplier is the shock over the idiosyncratic value
        np.testing.assert_allclose(
            diag.additive, self.shocks[self.part.labels] / self.z, rtol=1e-12
        )

    def test_grid_z_is_read_in_stacking_order(self):
        lay = ArrayLayout.triangle(1, 3)
        part = cs.build_partition("diagonal", lay)
        z_grid = np.arange(1.0, 10.0).reshape(3, 3)
        stacked = [z_grid[i - 1, j - 1] for (i, j) in lay.stacking_order]
        shocks = np.array([1.3, 0.8, 1.1])
        from_grid = cs.balance_diagnostic(part, shocks, z_grid)
        np.testing.assert_array_equal(
            from_grid.additive, cs.balance_diagnostic(part, shocks, stacked).additive
        )

    def test_zero_alpha_degenerates_to_one(self):
        diag = cs.balance_diagnostic(self.part, self.shocks, self.z, alpha=[0.0, 0.0])
        np.testing.assert_array_equal(diag.mult_ratio, np.ones(2))
        np.testing.assert_array_equal(diag.add_ratio, np.ones(2))
