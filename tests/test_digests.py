"""`tools/artifact_digests.py` reproduces the committed seed-7 and seed-11 digests.

The digest files hold the bits of one platform's floats (x86-64, numpy 2.4
on OpenBLAS 0.3.31, as the tool's docstring says); another BLAS or libm may
change a last bit, so the comparison runs only there.
"""

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "artifact_digests.py"


def _blas() -> tuple[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        return "", ""
    return blas.get("name", ""), blas.get("version", "")


def _off_platform() -> str | None:
    """Why this host is not the one the digest files were recorded on, or None."""
    name, version = _blas()
    if platform.machine() not in ("x86_64", "AMD64"):
        return f"digests were recorded on x86-64, not {platform.machine()}"
    if not np.__version__.startswith("2.4."):
        return f"digests were recorded with numpy 2.4, not {np.__version__}"
    if "openblas" not in name.lower() or not version.startswith("0.3.31"):
        return f"digests were recorded on OpenBLAS 0.3.31, not {name} {version}"
    return None


OFF_PLATFORM = _off_platform()


@pytest.mark.skipif(OFF_PLATFORM is not None, reason=OFF_PLATFORM or "")
@pytest.mark.parametrize("seed", [7, 11])
def test_digests_match_committed(seed):
    run = subprocess.run([sys.executable, str(TOOL), "--seed", str(seed)], capture_output=True,
                         text=True, timeout=600, check=False)
    assert run.returncode == 0, run.stderr[-2000:]
    expected = (ROOT / "tools" / "digests" / f"seed{seed}.txt").read_text(encoding="utf-8")
    assert run.stdout.splitlines() == expected.splitlines()
