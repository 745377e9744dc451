"""The suite's pytest settings: every warning fails a test, yet a failing
hypothesis test still lets the session run the tests after it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_THEN_PASSING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_two.py").write_text(FAILING_THEN_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(tmp_path / "test_two.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
