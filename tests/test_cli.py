import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import commonshock as cs
from commonshock import cli, estimation
from commonshock.cli import main, parse_config, read_claims_csv, write_claims_csv
from commonshock.errors import ConfigError, DataError
from commonshock.datasets import bundled_paths
from commonshock.kron import array_frame
import dense


def write_config(path, **keys):
    lines = ["# test configuration"]
    for k, v in keys.items():
        lines.append(f"{k} = {v}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def bundled_config(tmp_path):
    return write_config(
        tmp_path / "run.cfg",
        data=", ".join(bundled_paths()),
        t_max=15,
        partition="cell",
        design="chain_ladder",
        covariance="cellwise_two_level",
    )


class TestFitCommand:
    def test_reference_fit_report(self, bundled_config, tmp_path):
        out = tmp_path / "fit"
        assert main(["fit", "--config", bundled_config, "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert payload["fitted_cells_per_array"] == 120
        assert payload["dispersion"]["sigma2"] == pytest.approx(0.089272**2, rel=1e-3)
        assert payload["dispersion"]["v2"] == pytest.approx(0.123741**2, rel=1e-3)
        assert payload["dependence"]["correlation"] == pytest.approx(0.3611, abs=1e-3)
        assert payload["dependence"]["cells"] == 225
        a1 = payload["location"]["array_1"]
        assert a1["column_effects"][0] == pytest.approx(248.3, rel=2e-3)
        assert a1["row_effects"][0] == 1.0
        text = (tmp_path / "fit.txt").read_text()
        assert "Dispersion parameters" in text
        assert "sign agreement" in text

    def test_fixed_dispersion_path(self, tmp_path):
        cfg = write_config(
            tmp_path / "fixed.cfg",
            data=", ".join(bundled_paths()),
            t_max=15,
            sigma2=0.008,
            v2=0.0153,
        )
        out = tmp_path / "fixed"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "fixed.json").read_text())
        assert payload["dispersion"] == {"sigma2": 0.008, "v2": 0.0153}

    def test_generic_solver_path(self, tmp_path):
        cfg = write_config(
            tmp_path / "gen.cfg",
            data=", ".join(bundled_paths()),
            t_max=15,
            covariance="diagonal_scalar",
            init_omega="0.01, 0.01",
        )
        out = tmp_path / "gen"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "gen.json").read_text())
        # same model as cellwise_two_level here, so the same estimates
        assert payload["dispersion"]["sigma2"] == pytest.approx(0.089272**2, rel=1e-3)

    def test_example48_structure_path(self, tmp_path):
        # per-array noise scales with the shock held off: the fit decouples
        # into two arrays whose noise variances may differ
        cfg = write_config(
            tmp_path / "ex.cfg",
            data=", ".join(bundled_paths()),
            t_max=15,
            covariance="example48",
            sigma2="0.0",
            tau2="0.0",
            v2="estimate",
        )
        out = tmp_path / "ex"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "ex.json").read_text())
        disp = payload["dispersion"]
        assert set(disp) == {"sigma2", "tau2_1", "tau2_2", "v2_1", "v2_2"}
        assert disp["sigma2"] == 0.0
        # per-array ML noise variance equals the mean squared OLS residual,
        # and the long-tailed array carries the larger cell noise here
        assert disp["v2_1"] == pytest.approx(0.03186, abs=5e-4)
        assert disp["v2_2"] == pytest.approx(0.01470, abs=5e-4)

    def test_example48_every_component_estimated(self, tmp_path):
        # under the identity operator tau2_n and v2_n have the same derivative,
        # so the expected information is singular and only their sum is
        # identified; the reference values come from an independent
        # coordinate-wise root search on the same model
        cfg = write_config(
            tmp_path / "ex.cfg",
            data=", ".join(bundled_paths()),
            t_max=15,
            covariance="example48",
        )
        out = tmp_path / "ex"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "ex.json").read_text())
        disp = payload["dispersion"]
        assert disp["sigma2"] == pytest.approx(0.00796951828603064, rel=1e-6)
        assert disp["tau2_1"] + disp["v2_1"] == pytest.approx(0.023890104699071602, rel=1e-6)
        assert disp["tau2_2"] + disp["v2_2"] == pytest.approx(0.0067337221073098235, rel=1e-6)
        assert payload["loglik"] == pytest.approx(128.1630552297779, rel=1e-9)

    @staticmethod
    def simulated_config(tmp_path, n_arrays):
        lay = cs.ArrayLayout.triangle(n_arrays, 8)
        spec = cs.SimSpec(
            layout=lay,
            row_effects=np.full((n_arrays, 8), 1000.0),
            col_effects=np.linspace(0.3, 0.05, 8) * np.ones((n_arrays, 1)),
            shock_mean_log=0.0,
            shock_sd=0.1,
            idio_sd=0.15,
            seed=11,
        )
        data = tmp_path / "sim.csv"
        write_claims_csv(data, cs.simulate(spec))
        return write_config(tmp_path / "fit.cfg", data=str(data))

    def test_three_arrays_take_the_closed_form(self, tmp_path, monkeypatch):
        # the cell-matched closed form serves any number of arrays: the fit
        # is the closed form, with no score, and it is the point scoring
        # reaches from an explicit start on the same model
        cfg = self.simulated_config(tmp_path, 3)
        coll = read_claims_csv([tmp_path / "sim.csv"])
        shock = cs.ShockSpec(
            partition=cs.build_partition("cell", coll.layout), shared_across_mean=True
        )
        design = cs.assemble(coll.layout, shock, "chain_ladder")
        structure = cs.CellwiseTwoLevel(3, coll.layout.cells_per_array)
        gen = cs.ml_dispersion_generic(cs.stack_log(coll), design, structure, [0.01, 0.01])

        calls = []
        closed_form = estimation.ml_dispersion_cellwise_closed_form

        def counted(*residuals):
            calls.append("closed form")
            return closed_form(*residuals)

        def unused(*_, **__):
            raise AssertionError("the fit evaluated a score")

        monkeypatch.setattr(estimation, "ml_dispersion_cellwise_closed_form", counted)
        monkeypatch.setattr(estimation, "profile_score", unused)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "fit")]) == 0
        assert calls == ["closed form"]
        disp = json.loads((tmp_path / "fit.json").read_text())["dispersion"]
        np.testing.assert_allclose([disp["sigma2"], disp["v2"]], gen.omega_hat, rtol=1e-10)

    @pytest.mark.parametrize("covariance", ["cellwise_two_level", "diagonal_scalar"])
    def test_one_array_is_a_config_error(self, tmp_path, capsys, covariance):
        # with one array sigma2 and v2 have the same derivative: only their
        # sum is identified, so no split of it is reported, whichever
        # structure names the cell-matched model
        cfg = self.simulated_config(tmp_path, 1)
        with open(cfg, "a") as fh:
            fh.write(f"covariance = {covariance}\n")
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "fit")]) == 2
        err = capsys.readouterr().err
        assert "sigma2" in err and "v2" in err

    @pytest.mark.parametrize("covariance", ["cellwise_two_level", "diagonal_scalar"])
    def test_shock_means_that_absorb_the_shock_are_a_config_error(
        self, tmp_path, capsys, covariance
    ):
        # one across-array shock mean per cell absorbs the shared shock: the
        # least-squares residuals are exact negatives and sigma2 is not
        # identified, whichever structure names the cell-matched model
        cfg = write_config(
            tmp_path / "c.cfg", data=", ".join(bundled_paths()), t_max=15, partition="cell",
            shared_shock_mean="false", covariance=covariance,
        )
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "fit")]) == 2
        err = capsys.readouterr().err
        assert "absorb the shared shock" in err and "shared_shock_mean = false" in err

    @pytest.mark.parametrize(
        "keys", [{"covariance": "example48"}, {"sigma2": 0.008}], ids=["example48", "sigma2_given"]
    )
    def test_dependence_over_the_fitted_cells_where_later_means_are_not_estimable(
        self, tmp_path, keys
    ):
        # one shock mean per fitted cell leaves the later cells' means
        # without one: the fit succeeds, and the report's dependence section
        # reads the fitted cells and says so
        cfg = write_config(
            tmp_path / "c.cfg", data=", ".join(bundled_paths()), t_max=15, partition="cell",
            shared_shock_mean="false", **keys,
        )
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "fit")]) == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        dependence = payload["dependence"]
        assert dependence["cells"] == payload["fitted_cells_per_array"] == 120
        assert dependence["over"].startswith("fitted cells")
        heading = "Residual dependence (fitted cells: the later cells' means are not estimable)"
        assert heading in (tmp_path / "fit.txt").read_text().splitlines()

    def test_given_components_are_reported_as_fixed(self, tmp_path):
        # a given component is held, not estimated: its report line says
        # so, and the JSON payload carries its value as before
        cfg = write_config(
            tmp_path / "part.cfg", data=", ".join(bundled_paths()), t_max=15, sigma2=0.008
        )
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "part")]) == 0
        lines = (tmp_path / "part.txt").read_text().splitlines()
        assert "  sigma2   0.008   (fixed)" in lines
        assert any(line.startswith("  v2 ") and "(sd " in line for line in lines)
        disp = json.loads((tmp_path / "part.json").read_text())["dispersion"]
        assert disp["sigma2"] == 0.008 and disp["v2"] > 0.0

    def test_reports_are_deterministic(self, bundled_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["fit", "--config", bundled_config, "--out", str(out1)])
        main(["fit", "--config", bundled_config, "--out", str(out2)])
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestForecastCommand:
    def test_reserve_report(self, bundled_config, tmp_path):
        out = tmp_path / "fc"
        rc = main([
            "forecast", "--config", bundled_config, "--out", str(out),
            "--independence-counterfactual",
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "fc.json").read_text())
        assert payload["future_cells_per_array"] == 105
        assert payload["reserves"][0] == pytest.approx(86118, rel=1e-3)
        assert payload["reserves"][1] == pytest.approx(50640, rel=1e-3)
        assert payload["reserve_total"] == pytest.approx(136758, rel=1e-3)
        assert payload["std_errors"][0] == pytest.approx(4569, rel=1e-2)
        assert payload["reserve_correlation"] == pytest.approx(0.229, abs=0.01)
        assert payload["independence_cov_percent"] == pytest.approx(5.33, abs=0.05)
        text = (tmp_path / "fc.txt").read_text()
        assert "reserve correlation" in text
        assert "independence counterfactual" in text

    def test_zero_future_region(self, tmp_path):
        cfg = write_config(
            tmp_path / "zero.cfg",
            data=", ".join(bundled_paths()),
            t_max=29,
        )
        out = tmp_path / "zero"
        assert main(["forecast", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "zero.json").read_text())
        assert payload["reserve_total"] == 0.0
        assert payload["std_error_total"] == 0.0


@pytest.mark.parametrize(
    "covariance, partition",
    [("cellwise_two_level", "cell"), ("example48", "cell"), ("diagonal_scalar", "diagonal")],
)
def test_fit_and_forecast_form_no_dense_design(tmp_path, monkeypatch, covariance, partition):
    # on three arrays the fit and the forecast apply M = [X | I_N (x) C0]
    # and M* by their blocks: with array_frame raising wherever the design
    # layer looks it up, both commands write the same reports, and no
    # eigendecomposition, if any is taken, is of a matrix as wide as
    # I_N (x) C0, so none of the (s + N q)-square Gram matrix
    TestFitCommand.simulated_config(tmp_path, 3)  # writes sim.csv
    cfg = write_config(
        tmp_path / "run.cfg", data=tmp_path / "sim.csv", covariance=covariance, partition=partition
    )
    commands = (("fit", []), ("forecast", ["--independence-counterfactual"]))
    for command, extra in commands:
        out = str(tmp_path / f"plain.{command}")
        assert main([command, "--config", cfg, "--out", out, *extra]) == 0

    def array_frame(*_):
        raise AssertionError("array_frame was called")

    sides = []

    def recording(fn):
        def wrapper(a, *args, **kwargs):
            sides.append(np.shape(a)[-1])
            return fn(a, *args, **kwargs)

        return wrapper

    for module in ("design", "forecast", "kron"):
        module = importlib.import_module(f"commonshock.{module}")
        monkeypatch.setattr(module, "array_frame", array_frame)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    for command, extra in commands:
        out = str(tmp_path / f"patched.{command}")
        assert main([command, "--config", cfg, "--out", out, *extra]) == 0
        for suffix in ("txt", "json"):
            patched = (tmp_path / f"patched.{command}.{suffix}").read_bytes()
            assert patched == (tmp_path / f"plain.{command}.{suffix}").read_bytes()
    lay = read_claims_csv([tmp_path / "sim.csv"]).layout
    q = lay.n_rows - 1 + lay.n_cols  # one array's chain-ladder columns
    assert max(sides, default=0) < 3 * q  # narrower than I_N (x) C0'C0


class TestSimulateCommand:
    def simulate_config(self, tmp_path, seed=11):
        return write_config(
            tmp_path / "sim.cfg",
            n_arrays=2,
            n_rows=4,
            n_cols=4,
            row_effects_1="100, 102, 104, 106",
            row_effects_2="300, 297, 294, 291",
            col_effects_1="0.2, 0.3, 0.25, 0.1",
            col_effects_2="0.4, 0.3, 0.2, 0.05",
            shock_mean_log=0.15,
            shock_sd=0.1,
            idio_sd=0.15,
            seed=seed,
        )

    def test_simulate_writes_regenerable_csv(self, tmp_path):
        cfg = self.simulate_config(tmp_path)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        coll = read_claims_csv([out1])
        assert coll.layout.n_arrays == 2
        assert coll.layout.cells_per_array == 16

    def test_seed_flag_overrides(self, tmp_path):
        cfg = self.simulate_config(tmp_path)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "99"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_simulate_then_fit_recovers_scale(self, tmp_path):
        cfg = write_config(
            tmp_path / "big.cfg",
            n_arrays=2,
            n_rows=8,
            n_cols=8,
            row_effects_1=", ".join(["1000"] * 8),
            row_effects_2=", ".join(["2000"] * 8),
            col_effects_1=", ".join(["0.1"] * 8),
            col_effects_2=", ".join(["0.2"] * 8),
            shock_mean_log=0.0,
            shock_sd=0.1,
            idio_sd=0.15,
            seed=5,
        )
        data = tmp_path / "sim.csv"
        main(["simulate", "--config", cfg, "--out", str(data)])
        fit_cfg = write_config(tmp_path / "fit.cfg", data=str(data))
        out = tmp_path / "fit"
        assert main(["fit", "--config", fit_cfg, "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert np.sqrt(payload["dispersion"]["v2"]) == pytest.approx(0.15, abs=0.06)


class TestInspectCommand:
    def test_dimension_listing(self, bundled_config, capsys):
        assert main(["inspect", "--config", bundled_config]) == 0
        out = capsys.readouterr().out
        assert "cells per array |A|:       120" in out
        assert "observations N|A|:         240" in out
        assert "M after reduction:         240 x 58" in out
        assert "xi_shared" in out

    @pytest.mark.parametrize("design", ["chain_ladder", "hoerl"])
    def test_counts_without_the_unreduced_blocks(self, tmp_path, capsys, monkeypatch, design):
        # inspect counts the columns of A, B, C and the unreduced M from
        # what the design holds; the counts must still be those of the
        # blocks, C rebuilt here as I_N (x) the unreduced C0
        cfg = write_config(
            tmp_path / "c.cfg",
            data=", ".join(bundled_paths()),
            t_max=15,
            partition="row",
            design=design,
            include_within_shock="true",
            shared_shock_mean="false",
        )

        def unread(self):
            raise AssertionError("an unreduced block was formed")

        with monkeypatch.context() as m:
            for name in ("A", "B"):
                m.setattr(cs.ModelDesign, name, property(unread))
            assert main(["inspect", "--config", cfg]) == 0
        out = capsys.readouterr().out
        built = cli._build_model(parse_config(cfg))[3]
        n, N = built.n_obs, built.layout.n_arrays
        C = array_frame(np.zeros((n, 0)), dense.unreduced_blocks(built)[1], N)
        assert f"idiosyncratic params q:    {C.shape[1] // N}\n" in out
        assert f"A block:                   {n} x {built.A.shape[1]}\n" in out
        assert f"B block:                   {n} x {built.B.shape[1]}\n" in out
        assert f"C block:                   {n} x {C.shape[1]}\n" in out
        assert f"M after reduction:         {n} x {built.n_params}\n" in out
        assert f"L = [A B I]:               {n} x {built.A.shape[1] + built.B.shape[1] + n}\n" in out
        assert f"M before reduction:        {n} x {dense.M_full(built).shape[1]}\n" in out


# config keys that send a fit down each of its three routes
SOLVER_ROUTES = {
    "closed_form": {"covariance": "cellwise_two_level"},
    "given": {"covariance": "cellwise_two_level", "sigma2": 0.008, "v2": 0.015},
    "generic": {"covariance": "diagonal_scalar"},
}


class TestErrorPaths:
    def test_missing_data_file_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", data="nowhere.csv")
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "report")]) == 2

    def test_unknown_partition_lists_choices(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.cfg", data=", ".join(bundled_paths()), partition="rows"
        )
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "report")]) == 2
        assert "array, cell, row, column, diagonal" in capsys.readouterr().err

    def test_empty_data_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("array,accident,development,value\n")
        cfg = write_config(tmp_path / "c.cfg", data=str(empty))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "report")]) == 3

    def test_parse_error_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("array,accident,development,value\n1,1,1,10\n1,1,x,20\n")
        cfg = write_config(tmp_path / "c.cfg", data=str(bad))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "report")]) == 3
        assert "bad.csv:3" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("dta = file.csv\n")
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "report")]) == 2

    def test_per_array_keys_follow_a_pattern(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tau2_33 = 0.1\nv2_33 = 0.2\nrow_effects_33 = 1\ncol_effects_100 = 1\n")
        assert set(parse_config(cfg)) == {"tau2_33", "v2_33", "row_effects_33", "col_effects_100"}
        for key in ("tau2_0", "v2_01", "tau2_", "tau2_3x"):
            cfg.write_text(f"{key} = 0.1\n")
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(cfg)

    def test_repeated_key_names_both_lines(self, tmp_path, capsys):
        # unchecked, the last line won: v2 was estimated, with exit 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"data = {', '.join(bundled_paths())}\nt_max = 15\n# fixed\nv2 = 0.01\nv2 = estimate\n"
        )
        with pytest.raises(ConfigError, match=r"c\.cfg:5: key 'v2' is already set on line 4"):
            parse_config(cfg)
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "report")]) == 2
        assert "already set on line 4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "keys, components",
        [
            ({"v2_1": 0.01}, "sigma2, v2"),
            ({"tau2": 0.01}, "sigma2, v2"),
            ({"covariance": "diagonal_scalar", "tau2": "estimate"}, "sigma2, v2"),
            ({"covariance": "example48", "tau2_3": 0.01}, "sigma2, tau2_1, tau2_2, v2_1, v2_2"),
        ],
        ids=[
            "v2_1_cellwise", "tau2_cellwise", "tau2_without_within_shocks", "tau2_3_on_two_arrays",
        ],
    )
    def test_variance_key_of_no_component(self, tmp_path, capsys, keys, components):
        # unchecked, each key was dropped without a word and its component
        # estimated: v2_1 = 0.01 under cellwise_two_level reported an
        # estimated v2 = 0.01531
        cfg = write_config(tmp_path / "c.cfg", data=", ".join(bundled_paths()), t_max=15, **keys)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "report")]) == 2
        key = next(k for k in keys if k != "covariance")
        err = capsys.readouterr().err
        assert f"{key} names no variance component" in err
        assert f"whose components are {components}" in err
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("row", ["1,0,1,99", "1,1,-1,99"])
    def test_index_below_one_is_a_data_error(self, tmp_path, capsys, row):
        # unchecked, index 0 wraps to the last row or column and overwrites a
        # real cell, and a negative index escapes as an IndexError
        f = tmp_path / "d.csv"
        f.write_text(
            "array,accident,development,value\n"
            f"1,1,1,10\n1,1,2,20\n1,2,1,30\n1,2,2,40\n{row}\n"
        )
        cfg = write_config(tmp_path / "c.cfg", data=str(f))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "report")]) == 3
        assert "d.csv:6" in capsys.readouterr().err

    @pytest.mark.parametrize("ids, line, message", [
        ((0, 1), 2, "array ids start at 1"),
        ((0, 7), 2, "array ids start at 1"),
        ((1, 3), 6, "array 3 with no array 2"),
        ((2, 3), 2, "array 2 with no array 1"),
    ])
    def test_array_ids_other_than_1_to_n_are_a_data_error(
        self, tmp_path, capsys, ids, line, message
    ):
        # an array id below 1, or a gap, is an error like an accident index
        # below 1: renumbering the ids would silently relabel the arrays
        f = tmp_path / "d.csv"
        cells = ((1, 1), (1, 2), (2, 1), (2, 2))
        f.write_text(HEADER + "".join(f"{n},{i},{j},{10 * n + i + j}\n" for n in ids for i, j in cells))
        cfg = write_config(tmp_path / "c.cfg", data=str(f))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "report")]) == 3
        assert f"d.csv:{line}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()

    def test_non_congruent_arrays_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "array,accident,development,value\n1,1,1,10\n1,1,2,20\n2,1,1,30\n"
        )
        cfg = write_config(tmp_path / "c.cfg", data=str(f))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "report")]) == 3

    def test_numerical_failure_exit_code(self, tmp_path):
        # duplicated arrays make the closed form degenerate
        coll = read_claims_csv(bundled_paths())
        vals = np.stack([coll.values[0], coll.values[0]])
        dup = cs.ClaimCollection(coll.layout, vals)
        data = tmp_path / "dup.csv"
        write_claims_csv(data, dup)
        cfg = write_config(tmp_path / "c.cfg", data=str(data), t_max=15)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "report")]) == 4

    @pytest.mark.parametrize("covariance", ["cellwise_two_level", "diagonal_scalar"])
    def test_failed_factor_exit_code(self, tmp_path, capsys, covariance):
        # v2 = 0 leaves Sigma singular: under either structure the cell
        # partition's one array side is sigma2 J
        cfg = write_config(
            tmp_path / "c.cfg",
            data=", ".join(bundled_paths()),
            t_max=15,
            covariance=covariance,
            sigma2=0.008,
            v2=0,
        )
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "report")]) == 4
        assert "not positive definite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "keys",
        [
            {"sigma2": "nan", "v2": 0.01},
            {"sigma2": "inf", "v2": 0.01},
            {"covariance": "diagonal_scalar", "init_omega": "nan, 0.01"},
        ],
        ids=["fixed_nan", "fixed_inf", "init_nan"],
    )
    def test_non_finite_components_are_config_errors(self, tmp_path, capsys, keys):
        # unchecked, a NaN fixed component fitted with exit 0 and a NaN
        # log-likelihood, and the other two exited 4 with unrelated messages
        cfg = write_config(tmp_path / "c.cfg", data=", ".join(bundled_paths()), t_max=15, **keys)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "report")]) == 2
        assert "variance components must be finite" in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("t_max", [0, -2, 18])
    def test_t_max_outside_the_observed_diagonals(self, tmp_path, capsys, t_max):
        # unchecked, 0 and -2 exited 3 (every cell masked out), and a t_max
        # past a 15-diagonal triangle's last diagonal fitted diagonals up to
        # 15 and forecast only those from 19 on, with exit 0
        data = tmp_path / "triangle.csv"
        write_claims_csv(data, read_claims_csv(bundled_paths()).restrict_to_diagonals(15))
        cfg = write_config(tmp_path / "c.cfg", data=str(data), t_max=t_max)
        assert main(["forecast", "--config", cfg, "--out", str(tmp_path / "report")]) == 2
        assert "t_max must be between 1 and 15" in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("route, keys, message", [
        # the generic route keeps each case's bare name
        pytest.param(route, keys, message, id=name if route == "generic" else f"{name}-{route}")
        for name, keys, message in [
            ("tol_nan", {"tol": "nan"}, "tol must be a positive number"),
            ("tol_negative", {"tol": -1}, "tol must be a positive number"),
            ("tol_zero", {"tol": 0}, "tol must be a positive number"),
            ("max_iter_negative", {"max_iter": -3}, "max_iter must be a non-negative integer"),
            ("init_zero", {"init_omega": "0, 0"}, "initial values must be strictly positive"),
            ("init_size", {"init_omega": "0.01"}, "init_omega needs 2 values"),
        ]
        for route in SOLVER_ROUTES
        # a given component starts at its value, not at init_omega's
        if name != "init_zero" or route != "given"
    ])
    def test_solver_settings_are_config_errors(self, tmp_path, capsys, route, keys, message):
        # unchecked, the tol cases and the zero start exited 4, and a negative
        # max_iter never capped the iterations; the closed form and a fit
        # with every component given exited 0 on any tol and init_omega size
        cfg = write_config(
            tmp_path / "c.cfg",
            data=", ".join(bundled_paths()),
            t_max=15,
            **SOLVER_ROUTES[route],
            **keys,
        )
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "report")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()


HEADER = "array,accident,development,value\n"


@pytest.mark.parametrize("name, text, message", [
    ("header", "array,acc,development,value\n1,1,1,5\n",
     "header.csv:1: expected header 'array,accident,development,value', "
     "got 'array,acc,development,value'"),
    ("fields", HEADER + "1,1,1,5\n1,1,2\n", "fields.csv:3: expected 4 fields, got 3"),
    ("parse", HEADER + "1,1,1,5\n1, 1 , x ,20\n",
     "parse.csv:3: invalid literal for int() with base 10: 'x'"),
    ("index", HEADER + "1,1,1,5\n1,0,1,99\n",
     "index.csv:3: accident and development indices start at 1"),
    # the first bad line wins, whatever comes after it
    ("duplicate", HEADER + "1,1,1,5\n1,1,1,7\n1,x,1,7\n",
     "duplicate.csv:3: duplicate cell (array 1, 1, 1)"),
    ("empty", HEADER, "empty.csv: no data rows"),
    ("count", HEADER + "1,1,1,10\n1,1,2,20\n2,1,1,30\n",
     "arrays are not congruent: array 2 covers different cells than array 1"),
    # array ids run 1..N: 3 and 7 without 2 are the first line of array 3
    ("cells", HEADER + "3,1,1,1\n3,1,2,1\n1,1,1,10\n1,1,2,20\n7,1,1,30\n7,1,3,3\n",
     "cells.csv:2: array 3 with no array 2: array ids run from 1 to the number of arrays"),
    ("congruence", HEADER + "2,1,1,1\n2,1,2,1\n1,1,1,10\n1,1,2,20\n3,1,1,30\n3,1,3,3\n",
     "arrays are not congruent: array 3 covers different cells than array 1"),
    # files the bulk parse rejects or cannot place reach the line parser
    ("float_index", HEADER + "1,1,1,5\n1,1.0,2,6\n",
     "float_index.csv:3: invalid literal for int() with base 10: '1.0'"),
    ("comment", HEADER + "1,1,1,5\n1,1,2,6 # note\n",
     "comment.csv:3: could not convert string to float: '6 # note'"),
    ("blank_first_line", "\n" + HEADER + "1,1,1,5\n",
     "blank_first_line.csv:2: invalid literal for int() with base 10: 'array'"),
])
def test_claims_csv_error_texts(tmp_path, monkeypatch, name, text, message):
    monkeypatch.chdir(tmp_path)
    Path(f"{name}.csv").write_text(text)
    with pytest.raises(DataError) as err:
        read_claims_csv([f"{name}.csv"])
    assert str(err.value) == message


def test_claims_csv_duplicate_across_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("a.csv").write_text(HEADER + "1,1,1,5\n")
    Path("b.csv").write_text(HEADER + "1,1,2,5\n1,1,1,5\n")
    with pytest.raises(DataError, match=r"^b\.csv:3: duplicate cell \(array 1, 1, 1\)$"):
        read_claims_csv(["a.csv", "b.csv"])


def test_claims_csv_bulk_parse_gives_the_line_parsers_rows(tmp_path):
    rng = np.random.default_rng(5)
    values = (rng.lognormal(0.0, 3.0, 400) * 10.0 ** rng.integers(-200, 200, 400)).tolist()
    text = [f"{n + 1}, {k + 1},1,{v!r}" if k % 2 else f"{n + 1},{k + 1},1,{v:.20e}"
            for n in range(2) for k, v in enumerate(values[200 * n : 200 * (n + 1)])]
    f = tmp_path / "d.csv"
    f.write_text(HEADER + "\n".join(text) + "\n")
    bulk = cli._read_claim_rows_bulk([f])
    assert bulk is not None
    for got, want in zip(bulk, cli._read_claim_lines([f])):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_claims_csv_underscore_index_is_read_by_the_line_parser(tmp_path):
    # int() reads "1_0" as 10 and loadtxt refuses it: the file is accepted
    f = tmp_path / "d.csv"
    f.write_text(HEADER + "1,1,1,5\n1,1_0,1,7\n")
    assert cli._read_claim_rows_bulk([f]) is None
    coll = read_claims_csv([f])
    assert coll.layout.n_rows == 10 and coll.value(1, 10, 1) == 7.0


def test_claims_csv_rows_in_any_order(tmp_path):
    # arrays out of order, rows shuffled, blank lines and padded fields
    f = tmp_path / "d.csv"
    f.write_text(HEADER + "2,2,1,4\n1,1,3,10\n\n1,2,1,20\n2,1,3,30\n 1 , 1 , 1 , 2.5 \n2,1,1,1e3\n")
    coll = read_claims_csv([f])
    assert (coll.layout.n_arrays, coll.layout.n_rows, coll.layout.n_cols) == (2, 2, 3)
    np.testing.assert_array_equal(coll.layout.mask, [[True, False, True], [True, False, False]])
    np.testing.assert_array_equal(coll.values[:, coll.layout.mask], [[2.5, 10, 20], [1e3, 30, 4]])


def test_claims_csv_roundtrip(tmp_path, bundled):
    path = tmp_path / "out.csv"
    write_claims_csv(path, bundled)
    back = read_claims_csv([path])
    np.testing.assert_array_equal(
        np.nan_to_num(back.values), np.nan_to_num(bundled.values)
    )
