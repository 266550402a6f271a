"""Acceptance criteria for the reference two-rectangle example and the
property suites.

Each test prints one PASS/FAIL line (visible with pytest -v via the test
name, and in the captured output on failure). Reference values for the
bundled dataset are the published ones; tolerances are fixed here and not
tuned. Comparisons against them fit the bundled integer-rounded data with
the triangle region (t <= 15) as the estimation set, which is the reading
that reproduces the published location estimates.
"""

import time

import numpy as np
import pytest

import commonshock as cs
from commonshock.arrays import ArrayLayout
from commonshock.covariance import CellwiseTwoLevel, DiagonalScalar, Example48
from commonshock.design import frame_times
from commonshock.simulate import SimSpec
from commonshock.tweedie import ShockRatios, TweedieParams
from conftest import simulate_two_level, toy_design

# published reference values for the bundled dataset
REF_SIGMA = 0.088
REF_V = 0.124
REF_ROWS_1 = [0.921, 0.922, 1.221, 1.060, 1.046, 1.081, 1.057, 0.963,
              1.159, 1.107, 1.050, 1.338, 1.347, 1.334]  # i = 2..15
REF_COLS_1 = [248, 364, 636, 1295, 1899, 1752, 1511, 1143, 848, 836,
              591, 508, 285, 106, 52]  # j = 1..15
REF_ROWS_2 = [0.896, 0.906, 0.959, 0.876, 0.883, 0.868, 0.851, 0.789,
              0.878, 0.804, 0.869, 0.785, 0.805, 0.813]
REF_COLS_2 = [3569.9, 14398.8, 10880.9, 5441.2, 1098.0, 350.1, 183.2,
              86.6, 35.5, 18.8, 7.2, 7.8, 7.1, 6.8, 6.8]
REF_RESERVES = (85953.0, 60628.0, 146581.0)
REF_STD_ERRORS = (9781.0, 7771.0, 15639.0)
REF_COVS_PCT = (11.4, 12.8, 10.7)
REF_INDEP_COV_PCT = 8.5
REF_RESERVE_CORR = 0.58
REF_RESIDUAL_CORR = 0.36
REF_SIGN_AGREEMENT = 144

TABLE_COLS_1 = [0.02, 0.03, 0.05, 0.10, 0.15, 0.15, 0.12, 0.10, 0.08,
                0.07, 0.05, 0.04, 0.025, 0.010, 0.005]
TABLE_COLS_2 = [0.10, 0.40, 0.30, 0.15, 0.03, 0.01, 0.005, 0.0025,
                0.0010, 0.0005, 0.0002, 0.0002, 0.0002, 0.0002, 0.0002]


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_dispersion_closed_form(bundled):
    t0 = time.time()
    fit_coll = bundled.restrict_to_diagonals(15)
    design = toy_design(fit_coll.layout)
    fit = cs.ml_dispersion_cellwise(cs.stack_log(fit_coll), design)
    elapsed = time.time() - t0
    sigma_hat, v_hat = np.sqrt(fit.omega_hat)
    ok = (
        abs(sigma_hat / REF_SIGMA - 1.0) <= 0.05
        and abs(v_hat / REF_V - 1.0) <= 0.05
        and elapsed < 5.0
    )
    assert report(
        1, ok,
        f"sigma={sigma_hat:.4f} (ref {REF_SIGMA}, within 5%), "
        f"v={v_hat:.4f} (ref {REF_V}, within 5%), runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_02_oracle_equivalence(ref_fit):
    fit = ref_fit["fit"]
    y, design = ref_fit["y"], ref_fit["design"]
    structure = fit.sigma.structure

    gen = cs.ml_dispersion_generic(y, design, structure, [0.01, 0.01])
    rel_bundled = float(np.max(np.abs(gen.omega_hat / fit.omega_hat - 1.0)))
    score = cs.profile_score(y, design, structure, fit.omega_hat)
    score_norm = float(np.max(np.abs(score)))

    lay = ArrayLayout.full(2, 6, 6)
    sim_design = toy_design(lay)
    sim_structure = CellwiseTwoLevel(2, 36)
    worst = 0.0
    for seed in range(50):
        coll = simulate_two_level(lay, sigma=0.12, v=0.1, seed=1000 + seed)
        ys = cs.stack_log(coll)
        closed = cs.ml_dispersion_cellwise(ys, sim_design)
        assert closed.omega_hat[0] > 0.0, "simulated dataset hit the boundary"
        gen_s = cs.ml_dispersion_generic(ys, sim_design, sim_structure, [0.01, 0.01])
        worst = max(worst, float(np.max(np.abs(gen_s.omega_hat / closed.omega_hat - 1.0))))

    ok = rel_bundled <= 1e-8 and worst <= 1e-8 and score_norm < 1e-6
    assert report(
        2, ok,
        f"bundled rel diff {rel_bundled:.2e} <= 1e-8, 50-dataset worst "
        f"{worst:.2e} <= 1e-8, score max-norm {score_norm:.2e} < 1e-6",
    )


def test_criterion_03_location_estimates(ref_fit):
    table = cs.chain_ladder_effect_table(ref_fit["fit"])
    comparisons = []
    for n, (ref_rows, ref_cols) in ((1, (REF_ROWS_1, REF_COLS_1)), (2, (REF_ROWS_2, REF_COLS_2))):
        rows = table[f"array_{n}"]["row_effects"][1:]
        cols = table[f"array_{n}"]["column_effects"]
        comparisons += [
            (f"array{n} row i={i + 2}", est, ref)
            for i, (est, ref) in enumerate(zip(rows, ref_rows))
        ]
        comparisons += [
            (f"array{n} col j={j + 1}", est, ref)
            for j, (est, ref) in enumerate(zip(cols, ref_cols))
        ]
    assert len(comparisons) == 58
    errors = [(name, est, ref, abs(est / ref - 1.0)) for name, est, ref in comparisons]
    offenders = [e for e in errors if e[3] > 0.02]
    ok = not offenders
    detail = f"{58 - len(offenders)}/58 estimates within 2%"
    if offenders:
        detail += "; over tolerance: " + "; ".join(
            f"{name} est={est:.4g} ref={ref:.4g} ({100 * rel:.1f}%)"
            for name, est, ref, rel in offenders
        )
    assert report(3, ok, detail)


def test_criterion_04a_reserve_forecasts(ref_forecast):
    got = (
        float(ref_forecast.reserves[0]),
        float(ref_forecast.reserves[1]),
        ref_forecast.reserve_total,
    )
    rel = [abs(g / r - 1.0) for g, r in zip(got, REF_RESERVES)]
    ok = all(r <= 0.02 for r in rel)
    assert report(
        "4a", ok,
        "forecasts " + " / ".join(f"{g:.0f}" for g in got)
        + " vs ref " + " / ".join(f"{r:.0f}" for r in REF_RESERVES)
        + " (tolerance 2%); rel err " + ", ".join(f"{100 * r:.1f}%" for r in rel),
    )


def test_criterion_04b_standard_errors(ref_forecast):
    got = (
        float(ref_forecast.std_errors[0]),
        float(ref_forecast.std_errors[1]),
        ref_forecast.std_error_total,
    )
    rel = [abs(g / r - 1.0) for g, r in zip(got, REF_STD_ERRORS)]
    ok = all(r <= 0.05 for r in rel)
    assert report(
        "4b", ok,
        "std errors " + " / ".join(f"{g:.0f}" for g in got)
        + " vs ref " + " / ".join(f"{r:.0f}" for r in REF_STD_ERRORS)
        + " (tolerance 5%); rel err " + ", ".join(f"{100 * r:.1f}%" for r in rel),
    )


def test_criterion_04c_covs_and_correlation(ref_forecast):
    covs = [100.0 * c for c in ref_forecast.covs] + [100.0 * ref_forecast.cov_total]
    cov_gaps = [abs(g - r) for g, r in zip(covs, REF_COVS_PCT)]
    indep = 100.0 * cs.independence_counterfactual_cov(ref_forecast)
    corr = cs.reserve_correlation(ref_forecast)
    ok = (
        all(gap <= 0.5 for gap in cov_gaps)
        and abs(indep - REF_INDEP_COV_PCT) <= 0.5
        and abs(corr - REF_RESERVE_CORR) <= 0.05
    )
    assert report(
        "4c", ok,
        f"CoVs {covs[0]:.1f}/{covs[1]:.1f}/{covs[2]:.1f}% vs ref "
        f"{REF_COVS_PCT[0]}/{REF_COVS_PCT[1]}/{REF_COVS_PCT[2]} (0.5pp); "
        f"independence CoV {indep:.1f}% vs {REF_INDEP_COV_PCT} (0.5pp); "
        f"reserve correlation {corr:.3f} vs {REF_RESERVE_CORR} (0.05)",
    )


def test_criterion_05_residual_dependence(ref_fit):
    fit = ref_fit["fit"]
    full = ref_fit["full"]
    x_ext, c0_ext = fit.design.blocks_for_cells(full.layout.stacking_order)
    d = cs.stack_log(full) - frame_times(x_ext, c0_ext, fit.kappa_hat, 2)
    corr, agree = cs.dependence_stats(*d.reshape(2, -1))
    ok = abs(corr - REF_RESIDUAL_CORR) <= 0.03 and abs(agree - REF_SIGN_AGREEMENT) <= 3
    assert report(
        5, ok,
        f"corr {corr:.4f} vs {REF_RESIDUAL_CORR} (0.03); "
        f"sign agreement {agree}/225 vs {REF_SIGN_AGREEMENT} (3)",
    )


def test_criterion_06_analytic_linear_algebra(ref_fit):
    s2, v2 = ref_fit["fit"].omega_hat
    cells = 120
    inv = cs.sigma_inverse_cellwise(s2, v2, cells)
    sig = CellwiseTwoLevel(2, cells).sigma([s2, v2])
    inv_err = float(np.max(np.abs(inv @ sig - np.eye(2 * cells))))

    structures = [
        (CellwiseTwoLevel(2, 5), [s2, v2]),
        (DiagonalScalar(np.kron(np.ones((2, 1)), np.eye(4))), [0.2, 0.5]),
        (Example48(2, np.tril(np.ones((3, 3))), np.eye(3)), [0.3, 0.1, 0.2, 0.7, 0.9]),
    ]
    worst_fd = 0.0
    h = 1e-5
    for structure, omega in structures:
        omega = np.asarray(omega, dtype=float)
        for k in range(structure.n_params):
            hi, lo = omega.copy(), omega.copy()
            hi[k] += h
            lo[k] -= h
            fd = (structure.sigma(hi) - structure.sigma(lo)) / (2 * h)
            analytic = cs.dsigma_domega(structure, k)
            scale = max(1.0, float(np.max(np.abs(analytic))))
            worst_fd = max(worst_fd, float(np.max(np.abs(analytic - fd))) / scale)

    ok = inv_err <= 1e-10 and worst_fd <= 1e-6
    assert report(
        6, ok,
        f"closed-form inverse residual {inv_err:.2e} <= 1e-10; "
        f"derivative vs central differences {worst_fd:.2e} <= 1e-6",
    )


def test_criterion_07_kronecker_identities():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        m, n, p, q, r, s = rng.integers(1, 7, size=6)
        a = rng.normal(size=(m, n))
        b = rng.normal(size=(p, q))
        c = rng.normal(size=(n, r))
        d = rng.normal(size=(q, s))
        worst = max(worst, float(np.max(np.abs(cs.kron(a, b).T - cs.kron(a.T, b.T)))))
        worst = max(
            worst,
            float(np.max(np.abs(cs.kron(a, b) @ cs.kron(c, d) - cs.kron(a @ c, b @ d)))),
        )
        vec = rng.normal(size=(m, 1))
        worst = max(
            worst,
            float(np.max(np.abs(cs.kron(vec, b) @ d - cs.kron(vec, b @ d)))),
        )
        c2 = rng.normal(size=(s, p))
        worst = max(
            worst,
            float(np.max(np.abs(c2 @ cs.kron(vec.T, b) - cs.kron(vec.T, c2 @ b)))),
        )
    ok = worst <= 1e-10
    assert report(7, ok, f"200 random instances, worst deviation {worst:.2e} <= 1e-10")


def test_criterion_08_lognormal_moments():
    rng = np.random.default_rng(99)
    cov = np.array([[0.04, 0.01], [0.01, 0.09]])
    theta = np.array([0.3, -0.5])
    draws = np.exp(rng.multivariate_normal(theta, cov, size=1_000_000))
    summary = cs.LogNormalSummary(theta, cov)

    mean_ok = True
    for k in range(2):
        se = draws[:, k].std(ddof=1) / 1000.0
        mean_ok &= abs(draws[:, k].mean() - cs.raw_mean(summary, k)) < 3 * se
    prods = (draws[:, 0] - draws[:, 0].mean()) * (draws[:, 1] - draws[:, 1].mean())
    se_cov = prods.std(ddof=1) / 1000.0
    cov_ok = abs(prods.mean() - cs.raw_cov(summary, 0, 1)) < 3 * se_cov

    s2 = 0.2
    const = cs.LogNormalSummary(rng.normal(size=5), s2 * np.eye(5))
    cvs = np.sqrt(np.diag(cs.raw_cov(const))) / cs.raw_mean(const)
    const_ok = np.allclose(cvs, np.sqrt(np.expm1(s2)), rtol=1e-12)

    ok = mean_ok and cov_ok and const_ok
    assert report(
        8, ok,
        f"means within 3 SE of 1e6-draw MC: {mean_ok}; covariance within 3 SE: "
        f"{cov_ok}; constant log-variance gives constant CoV: {const_ok}",
    )


def test_criterion_09_tweedie_suite():
    rng = np.random.default_rng(17)
    worst_ident = 0.0
    for _ in range(100):
        p = float(rng.choice([-1.0, 0.0, 1.5, 2.0, 3.0]))
        theta = float(rng.uniform(0.2, 3.0)) * (1.0 if p < 1 else -1.0)
        lam = float(rng.uniform(0.2, 4.0))
        params = TweedieParams(p, theta, lam)
        alpha = params.alpha_index
        m, v = cs.tweedie_mean_var(params)
        base = theta / (alpha - 1.0)
        worst_ident = max(worst_ident, abs(m / (lam * base ** (alpha - 1.0)) - 1.0))
        worst_ident = max(worst_ident, abs(v / (lam * base ** (alpha - 2.0)) - 1.0))
        back = cs.tweedie_from_moments(m, v, p)
        worst_ident = max(worst_ident, abs(back.theta / theta - 1.0))
        worst_ident = max(worst_ident, abs(back.lam / lam - 1.0))
        worst_ident = max(
            worst_ident, abs((m * m / v) / (lam * base**alpha) - 1.0)
        )
        k = float(rng.uniform(0.25, 4.0))
        ms, vs = cs.tweedie_mean_var(cs.tweedie_scale(params, k))
        worst_ident = max(worst_ident, abs(ms / (k * m) - 1.0))
        worst_ident = max(worst_ident, abs(vs / (k * k * v) - 1.0))
        other = TweedieParams(p, theta, float(rng.uniform(0.2, 4.0)))
        mo, vo = cs.tweedie_mean_var(other)
        mt, vt = cs.tweedie_mean_var(cs.tweedie_add(params, other))
        worst_ident = max(worst_ident, abs(mt / (m + mo) - 1.0))
        worst_ident = max(worst_ident, abs(vt / (v + vo) - 1.0))
    ident_ok = worst_ident <= 1e-12

    lay = ArrayLayout.full(2, 3, 3)
    part = cs.build_partition("row", lay)
    ratios = [ShockRatios(1.0, 1.0)] * lay.n_observations
    corr = cs.log_tweedie_correlation(part, ratios, 2)
    pattern_ok = set(corr.ravel().tolist()) == {0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0}

    worst_var = 0.0
    for _ in range(50):
        p = float(rng.choice([-1.0, 0.0, 2.0, 3.0]))
        theta = float(rng.uniform(0.2, 2.0)) * (1.0 if p < 1 else -1.0)
        cell = TweedieParams(p, theta, float(rng.uniform(0.2, 3.0)))
        sr = ShockRatios(float(rng.uniform(0, 1.5)), float(rng.uniform(0, 1.5)))
        scaled = cs.scaled_observation_params(cell, sr)
        m_s, v_s = cs.tweedie_mean_var(scaled)
        v_formula = cell.lam ** (1.0 - p) / sr.psi * m_s**p
        worst_var = max(worst_var, abs(v_s / v_formula - 1.0))
    var_ok = worst_var <= 1e-10

    ok = ident_ok and pattern_ok and var_ok
    assert report(
        9, ok,
        f"moment and transformation identities worst {worst_ident:.2e} <= 1e-12; "
        f"unit-ratio correlation pattern exact: {pattern_ok}; scaled-observation "
        f"variance identity worst {worst_var:.2e} <= 1e-10",
    )


def test_criterion_10_balance_property():
    lay = ArrayLayout.full(1, 4, 5)
    part = cs.build_partition("diagonal", lay)
    rng = np.random.default_rng(3)
    shocks = rng.uniform(0.5, 2.0, size=part.n_subsets)
    z = rng.uniform(0.2, 5.0, size=lay.cells_per_array)
    diag = cs.balance_diagnostic(part, shocks, z, alpha=rng.uniform(0.5, 1.5, part.n_subsets))
    mult_ok = bool(np.all(diag.mult_ratio == 1.0))
    sizes = np.bincount(part.labels)
    add_ok = all(
        diag.add_ratio[p] > 1.0 for p in range(part.n_subsets) if sizes[p] > 1
    )
    ok = mult_ok and add_ok
    assert report(
        10, ok,
        f"multiplicative max/min ratio exactly 1: {mult_ok}; additive ratio > 1 "
        f"on subsets where the idiosyncratic values vary: {add_ok}",
    )


def test_criterion_11_statistical_recovery():
    t0 = time.time()
    I = 15
    rows1 = 10000.0 * np.exp(0.02 * np.arange(I))
    rows2 = 30000.0 * np.exp(-0.02 * np.arange(I))
    lay = ArrayLayout.full(2, I, I)
    design = toy_design(lay)

    true = []
    for lbl in design.labels:
        kind, n = lbl[0], lbl[1]
        if kind == "chi":
            true.append((0.02 if n == 1 else -0.02) * (lbl[2] - 1))
        else:
            base = np.log(10000.0) if n == 1 else np.log(30000.0)
            col = (TABLE_COLS_1 if n == 1 else TABLE_COLS_2)[lbl[2] - 1]
            true.append(0.15 + base + np.log(col))
    true = np.array(true)

    sig_hats, v_hats, kappas = [], [], []
    for seed in range(100):
        spec = SimSpec(
            lay, np.vstack([rows1, rows2]), np.vstack([TABLE_COLS_1, TABLE_COLS_2]),
            shock_mean_log=0.15, shock_sd=0.1, idio_sd=0.15, seed=7000 + seed,
        )
        fit = cs.ml_dispersion_cellwise(cs.stack_log(cs.simulate(spec)), design)
        sig_hats.append(np.sqrt(fit.omega_hat[0]))
        v_hats.append(np.sqrt(fit.omega_hat[1]))
        kappas.append(fit.kappa_hat)
    elapsed = time.time() - t0

    sig_lo, sig_hi = np.percentile(sig_hats, [5, 95])
    v_lo, v_hi = np.percentile(v_hats, [5, 95])
    coverage_ok = sig_lo <= 0.1 <= sig_hi and v_lo <= 0.15 <= v_hi
    kappas = np.asarray(kappas)
    bias = kappas.mean(axis=0) - true
    se = kappas.std(axis=0, ddof=1) / np.sqrt(len(kappas))
    bias_ok = bool(np.all(np.abs(bias) <= 3.0 * se))
    ok = coverage_ok and bias_ok and elapsed < 600.0
    assert report(
        11, ok,
        f"sigma 90% interval [{sig_lo:.3f}, {sig_hi:.3f}] covers 0.1 and "
        f"v interval [{v_lo:.3f}, {v_hi:.3f}] covers 0.15: {coverage_ok}; "
        f"location bias within 3 MC SEs componentwise: {bias_ok}; "
        f"runtime {elapsed:.0f}s < 600s",
    )
