"""The benchmark harness and its correctness gates run end to end.

``perfbench/selfcheck.py`` runs every workload on a 3x3 city, untraced and
traced, and exits 0 only if each prints a correct result with the declared
metrics.  No timing is checked here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selfcheck_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
