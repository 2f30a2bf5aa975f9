"""Every function the benchmark's traced run wraps still exists.

The tracer records a renamed or moved target as absent and carries on,
which would blank that layer's metrics without failing anything; this
test turns such a rename into a failure.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import Tracer  # noqa: E402


def test_every_traced_target_is_present():
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
