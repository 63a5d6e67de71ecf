"""Smoke test of ``tools/form_digests.py``, on which every bitwise claim rests."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "form_digests.py"


def test_digest_tool_prints_one_digest_per_line():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--levels", "1"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines
    for line in lines:
        assert re.fullmatch(r"[0-9a-f]{64}  \S.*", line), line
