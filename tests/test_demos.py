"""The demos' printed output against stored copies.

Each script under ``demos/`` runs in a fresh interpreter with numeric
warnings (overflow, invalid value) turned into errors, and its stdout must
match the copy under ``golden/demos/`` byte for byte. After a deliberate
change to a demo's output, regenerate the copies with

    PYTHONPATH=src python tests/test_demos.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def run_demo(script: Path) -> str:
    """The demo's stdout; AssertionError with its stderr when it fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, f"{script.name} exited {proc.returncode}:\n{proc.stderr}"
    return proc.stdout


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(script):
    stored = (GOLDEN / f"{script.stem}.txt").read_text(encoding="utf-8")
    assert run_demo(script) == stored


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for script in DEMOS:
        (GOLDEN / f"{script.stem}.txt").write_text(run_demo(script), encoding="utf-8")
