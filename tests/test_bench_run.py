"""The traced benchmark run, end to end in a fresh process.

`bench/run.py` promises one strict JSON object on the last line of stdout; a
run that exits 0 with a malformed last line would pass every other check.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _reject(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


def test_traced_solitary_simulate_run():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "solitary_simulate",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject)
    assert summary["correct"] is True
    assert summary["metrics"]
