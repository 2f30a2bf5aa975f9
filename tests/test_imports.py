"""What `import gthm.cli` loads in a fresh interpreter.

The benchmark's `setup_s` times exactly this import, and growth code
cannot move it: only module-level imports, classes and import-time work
can.  Pinning the modules the import adds turns a new one into a test
failure to be judged in review.  Private C accelerators and submodules
are folded into their public top-level module.  The standard library's
own imports differ between Python versions; the pin is CPython 3.11's.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

GTHM = {"gthm", "gthm.cli", "gthm.dsl", "gthm.emit", "gthm.exactnum",
        "gthm.graph", "gthm.record", "gthm.rules", "gthm.scene", "gthm.verify"}

# the standard library the import adds to a bare `python -I` start
STDLIB = {"__future__", "argparse", "decimal", "fractions", "gettext", "json",
          "numbers"}

PROBE = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
before = set(sys.modules)
import gthm.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def added_modules() -> list[str]:
    out = subprocess.run([sys.executable, "-I", "-c", PROBE], check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def public_top_level(name: str) -> str:
    top = name.split(".")[0]
    if top.startswith("_") and not top.startswith("__"):
        top = top[1:]  # _decimal, _json: the accelerator of decimal, json
    return top


def test_import_adds_only_the_pinned_modules():
    added = added_modules()
    assert {m for m in added if m.split(".")[0] == "gthm"} == GTHM
    others = {public_top_level(m) for m in added if m.split(".")[0] != "gthm"}
    assert others <= set(sys.stdlib_module_names), "a third-party import"
    assert others == STDLIB
