"""The benchmark harness runs each workload through the current package.

``perfbench/run.py`` calls package names directly (``FittedModel.load``,
``CoxModel.save``, ``fit_cox(tol=)``, ``risk_grid(resolution=)``), so a
rename there would only show when the benchmark is run.  Each workload is
run for one second here; a run takes about 3 s on a 2-vCPU container.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["train", "evaluate", "montecarlo"])
def test_workload_runs_clean(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seconds", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0
