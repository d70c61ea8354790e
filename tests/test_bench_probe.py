"""The benchmark's set-up probe still imports and drives the package.

Tier-1 does not collect bench/, so a change to src/optex that breaks what the
probe imports would otherwise go unseen until the benchmark runs. The probe
is run as the benchmark runs it, in a fresh interpreter; nothing under bench/
is written.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("algorithm", ["ptex", "coordex"])
def test_probe_reports_setup_time(algorithm):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "bench/probe.py", "configs/k3_response_surface.yaml",
                          algorithm, "1"], cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    record = json.loads(out.stdout)
    assert record["setup_s"] > 0
