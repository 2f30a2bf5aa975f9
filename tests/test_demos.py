"""The demos run end to end and print their verdict lines.

Each runs in a fresh interpreter from the repository root, as its
docstring says to run it.  `demos/export_graphs.py` is left out: it
writes files under `demos/out/`.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_walkthrough_proves_the_parallelogram():
    lines = run_demo("walkthrough.py")
    assert "status       PROVED" in lines
    assert lines[-1].startswith("Check whether OD = CD ... PROVED")


def test_endings_show_each_way_a_run_ends_without_a_proof():
    verdicts = [ln.split(" (")[0] for ln in run_demo("endings.py")
                if ln.startswith("verdict: ")]
    assert verdicts == ["verdict: REFUTED", "verdict: INCONCLUSIVE",
                        "verdict: INCONCLUSIVE"]
