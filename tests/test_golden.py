"""The CLI's stdout on the shipped fixtures, byte for byte.

Each file under tests/golden/ is the stdout of one command at seed 42,
named `<fixture>.<command>-<format>.txt`.  `--emit scene` prints the
coordinates of every point at the witness sample, the one output that
reads them directly; its files are named `<figure>.prove-scene.txt`,
with `tests/golden/<figure>.gthm` as the input for the 16-point
figures.  To regenerate every golden file after an intended output
change, from the repository root:

    for out in tests/golden/*.txt; do
        name=$(basename "$out" .txt); figure=${name%%.*}; run=${name#*.}
        input=fixtures/$figure.gthm
        [ -e "$input" ] || input=tests/golden/$figure.gthm
        PYTHONPATH=src python -m gthm.cli "${run%-*}" "$input" --seed 42 \
            --emit "${run#*-}" > "$out"
    done

The loop covers every golden file, the `check-json` files of the
16-point figures below included.

The fixtures have at most 11 points.  Two 16-point figures, the nested
true members parallelogram+8 and right_triangle+5 of `perfbench/gen.py`
(the first has a radical point, the second eight float points), are
stored next to their outputs as `tests/golden/<name>.gthm`, so that
discovery's point-pair index is pinned where it does the most work.
Their `check --emit json` output pins `max_claim_residual`, a float
computed from float points, to the bit.
"""

from pathlib import Path

import pytest

from gthm import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

EXIT_CODES = {"degenerate": 2, "imo2012": 0, "parallelogram": 0,
              "parallelogram_bad": 1, "parallelogram_bd": 0, "unreachable": 2}

CASES = [(f, "prove", fmt) for f in EXIT_CODES
         for fmt in ("text", "json", "dot", "scene")]
CASES += [(f, "check", "text") for f in EXIT_CODES]

GENERATED = ("parallelogram_k8", "right_triangle_k5")


@pytest.mark.parametrize("fixture,command,fmt", CASES,
                         ids=[f"{f}.{c}-{fmt}" for f, c, fmt in CASES])
def test_stdout_matches_golden(capsys, fixture, command, fmt):
    code = cli.main([command, str(ROOT / "fixtures" / f"{fixture}.gthm"),
                     "--seed", "42", "--emit", fmt])
    out = capsys.readouterr().out
    want = (GOLDEN / f"{fixture}.{command}-{fmt}.txt").read_bytes()
    assert out.encode() == want
    # unreachable's claim is true, so the oracle-only check proves it
    expected = 0 if (fixture, command) == ("unreachable", "check") else EXIT_CODES[fixture]
    assert code == expected


@pytest.mark.parametrize("fmt", ["text", "dot", "scene"])
@pytest.mark.parametrize("figure", GENERATED)
def test_sixteen_point_stdout_matches_golden(capsys, figure, fmt):
    code = cli.main(["prove", str(GOLDEN / f"{figure}.gthm"),
                     "--seed", "42", "--emit", fmt])
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{figure}.prove-{fmt}.txt").read_bytes()
    assert code == 0


@pytest.mark.parametrize("figure", GENERATED)
def test_sixteen_point_claim_residual_matches_golden(capsys, figure):
    code = cli.main(["check", str(GOLDEN / f"{figure}.gthm"),
                     "--seed", "42", "--emit", "json"])
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{figure}.check-json.txt").read_bytes()
    assert code == 0
