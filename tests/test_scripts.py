"""The scripts under ``scripts/`` run end to end as subprocesses."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("experiment", ["gauss-offcenter", "dmm-gauss"])
def test_profile_replication_runs(experiment):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "profile_replication.py"), "--experiment", experiment, "--seed", "1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("total calls:")
    last = done.stdout.rstrip("\n").splitlines()[-1]
    wall = re.fullmatch(r"wall time without the profiler: (\d+\.\d{4}) s \(median of 5 runs after one warm-up\)", last)
    assert wall and float(wall.group(1)) > 0.0, last
