"""The README's library tour and CLI examples run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from ntk.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_block_runs():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_cli_lines_exit_zero():
    text = (ROOT / "README.md").read_text()
    blocks = [b for b in re.findall(r"```bash\n(.*?)```", text, flags=re.S)
              if b.startswith("ntk ")]
    assert len(blocks) == 1
    lines = blocks[0].splitlines()
    assert len(lines) >= 9
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "ntk" and main(argv[1:]) == 0, line
