"""Figures up to `dsl.MAX_POINTS` points are searched in full; larger
ones are refused at validation, before any figure is built.

The figures here are the parallelogram fixture plus a chain of feet,
each dropped from the previous foot alternately onto the lines AB, OB
and AC, OC.  Feet add nothing the claim needs, so the fixture's theorem
stays true at every size; they only enlarge the figure the prover
searches."""

from pathlib import Path

import pytest

from gthm import cli, dsl, graph, prove_text, rules, scene

PARALLELOGRAM = (Path(__file__).resolve().parent.parent / "fixtures"
                 / "parallelogram.gthm").read_text()


def chained_feet(n):
    """The first n feet of the chain, as point constructions."""
    out = ["foot(E, through(O,C))"]
    k = 0
    while len(out) < n:
        src = "G" if k == 0 else f"P{2 * k - 1}"
        lines = (("through(A,B)", "through(O,B)") if k % 2 == 0
                 else ("through(A,C)", "through(O,C)"))
        out += [f"foot({src}, {line})" for line in lines]
        k += 1
    return out[:n]


def para_plus(n):
    """The parallelogram fixture (8 points) plus n chained feet."""
    lines = PARALLELOGRAM.splitlines()
    body = [ln for ln in lines if not ln.startswith("claim")]
    body += [f"aux point P{i} = {c}" for i, c in enumerate(chained_feet(n))]
    return "\n".join(body + [ln for ln in lines if ln.startswith("claim")]) + "\n"


def points_in(text):
    return len(dsl.validate(dsl.parse(text)).points)


@pytest.mark.parametrize("n", [14, 20])
def test_chained_feet_prove_at_default_settings(n):
    # pools of 4,312 and 10,571 edges, none of them cut short
    text = para_plus(n)
    assert points_in(text) == 8 + n
    assert prove_text(text, f"para+{n}").verdict.status == "PROVED"


def test_a_figure_at_the_point_limit_validates():
    assert points_in(para_plus(dsl.MAX_POINTS - 8)) == dsl.MAX_POINTS


def test_one_point_past_the_limit_is_refused_at_its_line():
    text = para_plus(dsl.MAX_POINTS - 7)
    lines = text.splitlines()
    last_point = max(i for i, ln in enumerate(lines, 1)
                     if ln.startswith("aux point"))
    with pytest.raises(dsl.LimitExceeded) as info:
        dsl.validate(dsl.parse(text), "big")
    assert info.value.span.line == last_point
    assert str(info.value).startswith(f"big:{last_point}:")


@pytest.mark.parametrize("command", ["prove", "graph", "check"])
def test_cli_refuses_too_many_points_before_building_a_figure(
        command, tmp_path, capsys, monkeypatch):
    calls = []

    def spy(real):
        def wrapped(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(scene, "build_scene", spy(scene.build_scene))
    monkeypatch.setattr(rules, "discover", spy(rules.discover))
    monkeypatch.setattr(graph, "discover", spy(graph.discover))
    big = tmp_path / "big.gthm"
    big.write_text(para_plus(dsl.MAX_POINTS - 7))
    code = cli.main([command, str(big)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT_ERROR
    assert captured.out == ""
    assert captured.err.startswith("gthm: ")
    assert "point count exceeds the limit" in captured.err
    assert calls == []
