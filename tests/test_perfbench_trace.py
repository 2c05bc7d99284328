"""The benchmark's traced run still sees the loop's labeler windows and fits.

`perfbench/tracer.py` wraps `label_window` and `mlp.train` on the module
objects that call them, so a caller that binds either by another route
would leave the per-layer view reading 0 without failing any other test.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_traced_steady_smoke_counts_windows_and_fits(tmp_path):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", "steady", "--trace", "1",
                           "--smoke", "--seconds", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["labeler.windows"]["value"] == 42  # 4,200 samples, 100 per window
    assert metrics["mlp.train_calls"]["value"] >= 1
