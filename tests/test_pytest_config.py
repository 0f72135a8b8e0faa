"""The test configuration itself: a failing test never hides the others."""
import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(max_examples=5, database=None)
def test_a_given_fails(x):
    assert x != x


def test_b_plain_passes():
    assert True
'''


def test_failing_given_test_reports_every_result(tmp_path):
    # on a failing example hypothesis imports modules that warn on import;
    # under filterwarnings = "error" that warning must not stop the session
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    env = dict(os.environ, HYPOTHESIS_STORAGE_DIRECTORY=str(tmp_path / ".hypothesis"))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", str(probe)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
