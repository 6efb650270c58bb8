"""The demo scripts run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# Lines a demo must print verbatim, for the demos that pin one.
EXPECTED_LINES = {
    "02_free_convolution.py": "m_fc,1(0) = 1j  (exactly i for the semicircle)",
    "03_configuration_space.py":
        "a few members: [(0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 2, 2)] ... "
        "[(5, 5, 4, 4), (5, 5, 5, 5)]",
}


@pytest.mark.parametrize("script", ["01_ensembles_and_spectra.py", "02_free_convolution.py",
                                    "03_configuration_space.py", "04_relaxation_inequalities.py",
                                    "06_see_paths.py"])
def test_demo_runs(script):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    if script in EXPECTED_LINES:
        assert EXPECTED_LINES[script] in done.stdout.splitlines()
