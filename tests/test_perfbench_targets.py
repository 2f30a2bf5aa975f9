"""Every function the benchmark's traced run wraps still exists, and
every result it reads a count from still has the fields it reads.

The tracer records a renamed or moved target as absent, and a result
it cannot read as unreadable, and carries on; either would blank that
layer's metrics without failing anything.  These tests turn both into
failures.
"""

import subprocess
import sys
from pathlib import Path

from gthm import cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from spans import Tracer  # noqa: E402


def test_every_traced_target_is_present():
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_a_traced_run_reads_every_result(capsys):
    # an INCONCLUSIVE and a PROVED proof, and an oracle-only check
    runs = [("prove", "unreachable.gthm"), ("prove", "parallelogram.gthm"),
            ("check", "parallelogram_bad.gthm")]
    tracer = Tracer()
    tracer.install()
    try:
        for request, (command, name) in enumerate(runs):
            tracer.begin(request)
            cli.main([command, str(ROOT / "fixtures" / name),
                      "--samples", "10"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.absent == []
    assert tracer.unreadable == 0
    traced = {span[0] for span in tracer.spans}
    assert {"graph.grow_detailed", "graph.topo_order", "graph.focus",
            "verify.verdict", "verify.oracle_verdict"} <= traced
    assert tracer.counts["graph.pending"] == 1
    assert tracer.counts["graph.schedule_len"] > 0


def test_the_benchmark_selftest_passes():
    # it checks every metric BENCHMARK.json names, read off the traced
    # fields of the program's results, without gating on timings
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("selftest: ok")
