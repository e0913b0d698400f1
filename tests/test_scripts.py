"""The scripts under `scripts/` run end to end at small sizes."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_flow_accuracy_check():
    out = run_script("flow_accuracy_check.py", "--pairs", "2", "--size", "48")
    assert "oracle exact on 2/2 pairs" in out, out
