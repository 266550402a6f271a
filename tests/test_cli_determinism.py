"""The fit and forecast reports are the same bytes on every run.

Two golden configurations, one whose design span is invariant under Sigma
(the fixed-location path) and one that is not (a GLS fit per solver point),
are rendered twice in this process and once in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import render

ROOT = Path(__file__).resolve().parents[1]
FRESH = """
import json, sys
from pathlib import Path
from test_golden import render
print(json.dumps(render(sys.argv[1], Path(sys.argv[2]))))
"""


@pytest.mark.parametrize("name", ["cellwise_two_level_cell", "diagonal_scalar_diagonal"])
def test_reports_are_byte_identical_across_runs(name, tmp_path):
    for run in ("0", "1", "fresh"):
        (tmp_path / run).mkdir()
    runs = [render(name, tmp_path / run) for run in ("0", "1")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", FRESH, name, str(tmp_path / "fresh")],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    runs.append(json.loads(proc.stdout))
    reports = [{k: v for k, v in run.items() if ".inspect." not in k} for run in runs]
    assert len(reports[0]) == 4  # fit and forecast, text and JSON
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]
