"""The demos and the example script run to completion.

Each demo is a caller of the public API, so running them keeps what they
use covered: a demo that breaks fails here rather than in a reader's hands.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Widths past the dense cap only repeat OVER-CAP rows; keep the sweep short.
ARGS = {"grover_scaling.py": ["8"]}


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def test_demo_list():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = _run([str(demo), *ARGS.get(demo.name, [])])
    assert proc.returncode == 0, proc.stderr


def test_example_script_checks():
    proc = _run(["-m", "quiddsim", "run", "demos/grover4.qpd", "--check"])
    assert proc.returncode == 0, proc.stderr
    assert "check ok:" in proc.stdout
