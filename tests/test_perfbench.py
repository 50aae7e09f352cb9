"""The benchmark's traced mode still intercepts every layer it reports.

``perfbench/run.py --trace 1`` rebinds module attributes to time them
and stops with ``interception check: never called: [...]`` when a
refactor moves a call out of their reach; nothing else notices that.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["patterns", "trees"])
def test_traced_run_passes_its_interception_check(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
