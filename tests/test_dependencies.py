"""Every CLI command runs on NumPy alone: no module of SciPy is imported.

The commands run through ``cli.main`` in a fresh interpreter, so that no
other test's imports are in ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FRESH = """
import contextlib, io, sys
from pathlib import Path
from commonshock.cli import main
from commonshock.datasets import bundled_paths

work = Path(sys.argv[1])
simulate = work / "sim.cfg"
simulate.write_text(
    "n_arrays = 2\\nn_rows = 4\\nn_cols = 4\\n"
    "row_effects_1 = 100, 102, 104, 106\\nrow_effects_2 = 300, 297, 294, 291\\n"
    "col_effects_1 = 0.2, 0.3, 0.25, 0.1\\ncol_effects_2 = 0.4, 0.3, 0.2, 0.05\\n"
    "shock_mean_log = 0.15\\nshock_sd = 0.1\\nidio_sd = 0.15\\nseed = 11\\n"
)
runs = [["simulate", "--config", str(simulate), "--out", str(work / "sim.csv")]]
for covariance, partition in (("cellwise_two_level", "cell"), ("diagonal_scalar", "diagonal")):
    cfg = work / f"{covariance}.cfg"
    cfg.write_text(
        f"data = {', '.join(bundled_paths())}\\nt_max = 15\\n"
        f"covariance = {covariance}\\npartition = {partition}\\n"
    )
    out = str(work / covariance)
    runs += [
        ["fit", "--config", str(cfg), "--out", out],
        ["forecast", "--config", str(cfg), "--out", out],
        ["inspect", "--config", str(cfg)],
    ]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(" ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_cli_commands_import_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", FRESH, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
