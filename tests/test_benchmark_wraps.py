"""The benchmark's traced run still finds every layer it wraps.

``perfbench/child.py`` patches pathlab functions by module attribute; a
rename or deletion of one of them fails the traced run, and a harness that
stops calling one through its module leaves its tally empty.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_validate_tallies_every_harness_layer(tmp_path):
    result = tmp_path / "child.json"
    argv = ["validate", "--sizes", "100,1000", "--trials", "2", "--seed", "1",
            "--jobs", "1", "--format", "json", "--out", str(tmp_path / "r.json")]
    out = subprocess.run(
        [sys.executable, "perfbench/child.py", repr(time.monotonic()), "trace",
         str(result), *argv],
        cwd=ROOT, env=dict(os.environ), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    child = json.loads(result.read_text())
    assert child["exit_code"] == 0
    tally = child["trace"]["tally"]
    for name in ("harness.run_trial", "addrgen.generate", "stats.compare",
                 "stats.chi_square_counts", "model.distribution"):
        assert tally.get(name, {}).get("calls", 0) >= 1, name
