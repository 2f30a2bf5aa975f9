"""Verdicts agree with the truth the benchmark's generator states.

`perfbench/gen.py` states each generated claim's truth by hand, from
how the figure is built.  Here a few seeded members of both families,
true and false, go through `prove` and `check`: PROVED must mean a true
claim, REFUTED a false one, and `check` must decide each claim the way
its truth says.  Only verdicts are asserted, never timings.
"""

import random
import sys
from pathlib import Path

import pytest

from gthm import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from gen import family_member  # noqa: E402

# (family, auxiliary points, member seed): 10 to 16 points, each
# seed drawing a different identity of its family
MEMBERS = [("parallelogram", 2, 5), ("parallelogram", 5, 2),
           ("parallelogram", 8, 4), ("right_triangle", 0, 1),
           ("right_triangle", 3, 2)]

SAMPLES = "10"


def run(tmp_path, command, text, seed):
    path = tmp_path / "member.gthm"
    path.write_text(text)
    return cli.main([command, str(path), "--samples", SAMPLES,
                     "--seed", str(seed)])


@pytest.mark.parametrize("truth", [True, False])
@pytest.mark.parametrize("family,k,seed", MEMBERS)
def test_verdicts_match_the_stated_truth(family, k, seed, truth, tmp_path,
                                         capsys):
    text = family_member(family, k, truth, random.Random(seed))
    prove = run(tmp_path, "prove", text, seed)
    check = run(tmp_path, "check", text, seed)
    capsys.readouterr()
    if truth:
        assert prove in (cli.EXIT_PROVED, cli.EXIT_INCONCLUSIVE)
        assert check == cli.EXIT_PROVED
    else:
        assert prove in (cli.EXIT_REFUTED, cli.EXIT_INCONCLUSIVE)
        assert check == cli.EXIT_REFUTED
