"""``tools/fingerprint.py`` runs clean: one well-formed line per result, each name once."""

import os
import re
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

# A digest, or a result that raised with its exception type and message.
_LINE = re.compile(r"(?P<name>.+?) (?:[0-9a-f]{16}|raises [A-Za-z]+: .*)")


def test_the_fingerprint_tool_prints_one_well_formed_line_per_name():
    # Run as documented, on this checkout's library; -B leaves no bytecode behind.
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-B", str(_ROOT / "tools" / "fingerprint.py")],
        cwd=_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    assert lines
    names = []
    for line in lines:
        m = _LINE.fullmatch(line)
        assert m, line
        names.append(m["name"])
    assert len(set(names)) == len(names)
