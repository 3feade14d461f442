"""The example scripts under scripts/ run end to end on the public names."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_decomposability_demo_verdicts():
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "decomposability_demo.py")],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    exhibits = {block.splitlines()[0]: block for block in run.stdout.split("== ")[1:]}
    for title in ("random 5x5 matrix", "multiplication operator on 4 points"):
        assert "   status  PASS\n" in exhibits[title]
    for side in ("right", "left"):
        block = exhibits[f"{side} shift (window evidence)"]
        assert "   status  FAIL\n" in block
        assert "   witness (0.500, 0.000)\n" in block
