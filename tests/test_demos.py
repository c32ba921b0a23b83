"""Each demo runs as a script and prints exactly its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout
DEMO_STDOUT_SHA256 = {
    "01_fields_and_normal_form.py": "fa0932eeecbba6682ebabec0b74b4e12f4d78e5c01cd575de597d2a739f6e2f5",
    "02_building_a_cover.py": "f33fe354c3a9e52595ecb8ca711eb4f7c1b5c44ba8de175add8e6320d4a5a575",
    "03_partial_forms_and_sequences.py": "c4eb142ab59df179678c4090c648e14339b2783059261f9d816de8ca80f8ce5d",
    "04_connection_and_flatness.py": "0398bfc5abeea7accbd5dfbfeba943f8fb8e45589dc5dbbdfc4259a442b5b39f",
    "05_class_triviality.py": "47e46a1d1977ac6447c086b9feab40c071c4df1a4f58b2ecbdda7e7ee8f43b2c",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(
        DEMO_STDOUT_SHA256
    )


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_is_pinned(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
