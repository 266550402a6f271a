"""Bundled-data CLI reports against stored golden copies.

Each configuration is fitted, forecast and inspected through ``cli.main``,
on the bundled rectangles (t_max = 15) unless it names its own ``data`` and
``t_max``. The text reports must match the stored copies byte for byte; JSON
numbers must match to 1e-10 relative, so that the test survives other BLAS
builds. After a deliberate report change, regenerate the copies with

    PYTHONPATH=src python tests/test_golden.py

The multi-array inputs were generated once, and are not regenerated here,
since NumPy does not promise the same normal draws across versions:

    from perfbench.generate import Workload, write_inputs
    write_inputs(Workload("n4", 4, 12, "diagonal", "diagonal_scalar"), 1, dir)
    write_inputs(Workload("n10", 10, 15, "cell", "cellwise_two_level"), 1, dir)

each ``dir/claims.csv`` then stored as ``n4_12x12.csv`` and ``n10_15x15.csv``.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from commonshock.cli import main
from commonshock.datasets import bundled_paths

GOLDEN = Path(__file__).parent / "golden"
# N = 4 arrays on a 12 x 12 grid and N = 10 on 15 x 15, fitted on their triangles
N4 = {"data": GOLDEN / "n4_12x12.csv", "t_max": 12}
N10 = {"data": GOLDEN / "n10_15x15.csv", "t_max": 15}

CONFIGS = {
    "cellwise_two_level_cell": {"covariance": "cellwise_two_level", "partition": "cell"},
    "cellwise_two_level_diagonal": {"covariance": "cellwise_two_level", "partition": "diagonal"},
    "diagonal_scalar_cell": {"covariance": "diagonal_scalar", "partition": "cell"},
    "diagonal_scalar_diagonal": {"covariance": "diagonal_scalar", "partition": "diagonal"},
    "diagonal_scalar_row_within": {
        "covariance": "diagonal_scalar",
        "partition": "row",
        "include_within_shock": "true",
    },
    "example48_cell": {"covariance": "example48", "partition": "cell"},
    "example48_diagonal": {"covariance": "example48", "partition": "diagonal"},
    "hoerl_column": {"covariance": "diagonal_scalar", "partition": "column", "design": "hoerl"},
    "hoerl_cell": {"covariance": "diagonal_scalar", "partition": "cell", "design": "hoerl"},
    "diagonal_scalar_array": {"covariance": "diagonal_scalar", "partition": "array"},
    "cellwise_two_level_row": {"covariance": "cellwise_two_level", "partition": "row"},
    "diagonal_scalar_row_unshared": {
        "covariance": "diagonal_scalar",
        "partition": "row",
        "shared_shock_mean": "false",
    },
    "diagonal_scalar_column_within_unshared": {
        "covariance": "diagonal_scalar",
        "partition": "column",
        "include_within_shock": "true",
        "shared_shock_mean": "false",
    },
    # every variance component given: the fit is one GLS fit at that omega
    "cellwise_two_level_cell_fixed": {
        "covariance": "cellwise_two_level",
        "partition": "cell",
        "sigma2": 0.008,
        "v2": 0.015,
    },
    "example48_diagonal_fixed": {
        "covariance": "example48",
        "partition": "diagonal",
        "sigma2": 0.008,
        "tau2_1": 0.012,
        "tau2_2": 0.0034,
        "v2_1": 0.012,
        "v2_2": 0.0034,
    },
    # several subset groups in the subset frame, and an unshared mean per row
    "n4_diagonal_scalar_diagonal": {**N4, "covariance": "diagonal_scalar", "partition": "diagonal"},
    "n4_diagonal_scalar_row_unshared": {
        **N4,
        "covariance": "diagonal_scalar",
        "partition": "row",
        "shared_shock_mean": "false",
    },
    # per-array keys up to _10, and many distinct array-pair moment blocks
    "n10_cellwise_two_level_cell": {**N10, "covariance": "cellwise_two_level", "partition": "cell"},
    "n10_example48_cell": {**N10, "covariance": "example48", "partition": "cell"},
}


def render(name: str, workdir: Path) -> dict:
    """The fit, forecast and inspect reports of one configuration, by file name."""
    keys = {"data": ", ".join(bundled_paths()), "t_max": 15, **CONFIGS[name]}
    cfg = workdir / f"{name}.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    reports = {}
    for command, extra in (("fit", []), ("forecast", ["--independence-counterfactual"])):
        prefix = workdir / f"{name}.{command}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--config", str(cfg), "--out", str(prefix), *extra]) == 0
        for ext in ("txt", "json"):
            reports[f"{name}.{command}.{ext}"] = Path(f"{prefix}.{ext}").read_text(encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["inspect", "--config", str(cfg)]) == 0
    reports[f"{name}.inspect.txt"] = out.getvalue()
    return reports


def assert_json_close(got, want, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), path
        for key in want:
            assert_json_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{path}[{k}]")
    elif isinstance(want, float):
        assert isinstance(got, (int, float)), path
        assert math.isclose(got, want, rel_tol=1e-10), f"{path}: {got!r} != {want!r}"
    else:
        assert got == want and type(got) is type(want), f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_reports_match_golden(name, tmp_path):
    for fname, text in render(name, tmp_path).items():
        stored = (GOLDEN / fname).read_text(encoding="utf-8")
        if fname.endswith(".json"):
            assert_json_close(json.loads(text), json.loads(stored))
        else:
            assert text == stored, fname


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted(CONFIGS):
            for fname, text in render(config, Path(tmp)).items():
                (GOLDEN / fname).write_text(text, encoding="utf-8")
