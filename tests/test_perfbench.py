"""The benchmark harness runs every path end to end at tiny sizes, so it
cannot rot between benchmark runs."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke():
    run = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["failed"] == 0 and last["correct"]
