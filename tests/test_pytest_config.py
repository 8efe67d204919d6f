"""The repository's pytest configuration, checked on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_SAMPLE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_one_failure_not_an_internal_error(tmp_path):
    # filterwarnings = "error" must not turn the warning that hypothesis's
    # report hook raises into an INTERNALERROR that stops the whole run
    sample = tmp_path / "test_sample.py"
    sample.write_text(_SAMPLE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(_PYPROJECT), "-p", "no:cacheprovider", "-q",
         str(sample)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
