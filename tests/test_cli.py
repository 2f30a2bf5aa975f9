"""Command-line behavior: exit codes, formats, flags, determinism."""

import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from gthm import cli, dsl, prove_file, scene as sc

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
sys.path.insert(0, str(FIXTURES.parent / "perfbench"))

from gen import family_member  # noqa: E402


def fx(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- exit codes ----------------------------------------------------------


def test_prove_proved_exits_zero(capsys):
    code, out, err = run(capsys, "prove", fx("parallelogram.gthm"),
                         "--samples", "20")
    assert code == 0
    assert out.rstrip().endswith("Check whether OD = CD ... PROVED")


def test_prove_refuted_exits_one(capsys):
    code, out, err = run(capsys, "prove", fx("parallelogram_bad.gthm"),
                         "--samples", "20")
    assert code == 1
    assert "REFUTED" in out


def test_prove_underivable_exits_two(capsys):
    code, out, err = run(capsys, "prove", fx("unreachable.gthm"),
                         "--samples", "5")
    assert code == 2
    assert "INCONCLUSIVE: no derivation schedule" in out


def test_prove_degenerate_exits_two(capsys):
    code, out, err = run(capsys, "prove", fx("degenerate.gthm"),
                         "--samples", "5")
    assert code == 2
    assert "degenerate hypotheses" in out


def test_prove_degenerate_emits_json(capsys):
    code, out, err = run(capsys, "prove", fx("degenerate.gthm"),
                         "--samples", "5", "--emit", "json")
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "INCONCLUSIVE"
    assert doc["reason"].startswith("degenerate hypotheses: ")
    assert doc["steps"] == []


def test_graph_degenerate_reports_on_stderr(capsys):
    code, out, err = run(capsys, "graph", fx("degenerate.gthm"),
                         "--samples", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("gthm: degenerate hypotheses: ")


def test_prove_file_degenerate_is_inconclusive():
    result = prove_file(FIXTURES / "degenerate.gthm", samples=5)
    assert result.verdict.status == "INCONCLUSIVE"
    assert result.verdict.reason.startswith("degenerate hypotheses: ")
    assert result.graph is None and result.schedule is None
    assert result.text.endswith(f"INCONCLUSIVE: {result.verdict.reason}\n")


def test_missing_file_exits_three(capsys):
    code, out, err = run(capsys, "prove", "no_such_file.gthm")
    assert code == 3
    assert err.startswith("gthm: cannot read input")


@pytest.mark.parametrize("command", ["prove", "graph", "check"])
def test_undecodable_input_exits_three(command, tmp_path, capsys):
    bad = tmp_path / "bad.gthm"
    bad.write_bytes(b"\xff\xfe param x\n")
    code, out, err = run(capsys, command, str(bad))
    assert code == 3
    assert out == ""
    assert err.startswith("gthm: cannot read input: ")
    assert "utf-8" in err


def test_oversized_file_is_refused_at_the_limit(tmp_path, capsys):
    big = tmp_path / "big.gthm"
    big.write_bytes(b"# filler\n" * (dsl.MAX_FILE_BYTES // 9 + 1))
    code, out, err = run(capsys, "prove", str(big))
    assert code == 3
    assert err == f"gthm: {big}:1:1: input exceeds the file size limit\n"
    with pytest.raises(dsl.LimitExceeded):
        prove_file(big)


@pytest.mark.parametrize("command", ["prove", "graph", "check"])
def test_samples_past_the_limit_exit_three_before_reading(command, capsys):
    code, out, err = run(capsys, command, "no_such_file.gthm",
                         "--samples", str(dsl.MAX_SAMPLES + 1))
    assert (code, out) == (3, "")
    assert err == f"gthm: --samples must be at most {dsl.MAX_SAMPLES}\n"


@pytest.mark.parametrize("bounds", ["1:1e3000", "1:1e300000", "1e-300000:2",
                                    "1:1E30", "1:" + "9" * 41, "1: 10",
                                    "1:1_000"])
@pytest.mark.parametrize("command", ["prove", "check"])
def test_a_range_bound_past_the_limit_exits_three_before_reading(
        command, bounds, capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, command, "no_such_file.gthm",
                         "--range", bounds)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (f"gthm: --range bounds must be integers, decimals or p/q "
                   f"of at most {dsl.MAX_RANGE_CHARS} characters, got "
                   f"{bounds!r}\n")


@pytest.mark.parametrize("bounds", ["1:1000000000000", "1/2:" + "9" * 38,
                                    "0.5:2.25", ".5:7/3", "+1:10."])
def test_a_range_bound_within_the_limit_runs(bounds, capsys):
    assert len(bounds.split(":")[1]) <= dsl.MAX_RANGE_CHARS
    code, out, err = run(capsys, "check", fx("parallelogram.gthm"),
                         "--samples", "5", "--range", bounds)
    assert (code, err) == (0, "")


def test_samples_at_the_limit_run(capsys):
    code, out, err = run(capsys, "check", fx("parallelogram.gthm"),
                         "--samples", str(dsl.MAX_SAMPLES))
    assert (code, err) == (0, "")
    assert f"at {dsl.MAX_SAMPLES} coordinate samples" in out


_READ_ENDLESS = """\
import resource, sys
cap = 256 << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from gthm import cli
sys.exit(cli.main(["prove", "/dev/zero"]))
"""


@pytest.mark.skipif(not Path("/dev/zero").exists(), reason="needs /dev/zero")
def test_endless_input_is_refused_after_a_bounded_read():
    # an unbounded read runs out of the capped address space (exit 1)
    # instead of reaching the size limit (exit 3)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _READ_ENDLESS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3, proc.stderr[-500:]
    assert proc.stderr == "gthm: /dev/zero:1:1: input exceeds the file size limit\n"


def test_parse_error_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.gthm"
    bad.write_text("point A = nonsense(1)\n")
    code, out, err = run(capsys, "prove", str(bad))
    assert code == 3
    assert err.startswith("gthm:")


@pytest.mark.parametrize("command", ["prove", "check"])
def test_second_claim_exits_three(command, tmp_path, capsys):
    two = tmp_path / "two.gthm"
    text = (FIXTURES / "parallelogram.gthm").read_text()
    two.write_text(text + "claim len(O,D) = 2*len(C,D)\n")
    code, out, err = run(capsys, command, str(two))
    assert code == 3
    assert out == ""
    line = len(text.splitlines()) + 1
    assert err == f"gthm: {two}:{line}:1: a second claim is not allowed\n"


# --- formats -------------------------------------------------------------


def test_prove_emits_json(capsys):
    code, out, err = run(capsys, "prove", fx("parallelogram.gthm"),
                         "--samples", "20", "--emit", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "PROVED"
    assert len(data["steps"]) == 15


def test_prove_emits_dot(capsys):
    code, out, err = run(capsys, "prove", fx("parallelogram.gthm"),
                         "--samples", "5", "--emit", "dot")
    assert code == 0
    assert out.startswith("digraph derivation {")


def test_prove_emits_scene(capsys):
    code, out, err = run(capsys, "prove", fx("parallelogram.gthm"),
                         "--samples", "5", "--emit", "scene")
    assert code == 0
    assert "point O = (0, 0)" in out


@pytest.mark.parametrize("name", ["parallelogram.gthm", "imo2012.gthm"])
def test_prove_emit_scene_evaluates_each_drawn_figure_once(monkeypatch, capsys,
                                                           name):
    # the witness the scene view prints is the figure sampling drew
    evaluated = Counter()
    real = sc.evaluate

    def spy(scene_, a):
        evaluated[a] += 1
        return real(scene_, a)

    monkeypatch.setattr(sc, "evaluate", spy)
    code, out, err = run(capsys, "prove", fx(name), "--emit", "scene")
    assert code == 0 and out.startswith(f"Theorem: {name[:-5]}")
    assert len(evaluated) > 20  # the witness and the stream's 20 figures
    assert set(evaluated.values()) == {1}, evaluated.most_common(1)


def test_graph_emits_dot_with_goals(capsys):
    code, out, err = run(capsys, "graph", fx("parallelogram.gthm"),
                         "--samples", "5")
    assert code == 0
    assert '"DO"' in out and '"CD"' in out


def test_graph_styles_pending_nodes_and_exits_two(capsys):
    code, out, err = run(capsys, "graph", fx("unreachable.gthm"),
                         "--samples", "5")
    assert code == 2
    assert out.startswith("digraph derivation {")
    assert "style=dashed" in out


def test_graph_rejects_text_format(capsys):
    code, out, err = run(capsys, "graph", fx("parallelogram.gthm"),
                         "--emit", "text")
    assert code == 3
    assert "cannot emit" in err


def test_check_rejects_dot_format(capsys):
    code, out, err = run(capsys, "check", fx("parallelogram.gthm"),
                         "--emit", "dot")
    assert code == 3


# --- the oracle-only command ----------------------------------------------


def test_check_proves_without_derivation(capsys):
    code, out, err = run(capsys, "check", fx("imo2012.gthm"),
                         "--samples", "20")
    assert code == 0
    assert "oracle only" in out


def test_check_refutes_bad_claim(capsys):
    code, out, err = run(capsys, "check", fx("parallelogram_bad.gthm"),
                         "--samples", "10")
    assert code == 1


def test_check_degenerate_exits_two(capsys):
    code, out, err = run(capsys, "check", fx("degenerate.gthm"),
                         "--samples", "5")
    assert code == 2


@pytest.mark.parametrize("name", ["parallelogram.gthm",
                                  "parallelogram_bd.gthm",
                                  "parallelogram_bad.gthm",
                                  "imo2012.gthm",
                                  "degenerate.gthm"])
def test_prove_and_check_agree_on_fully_derivable_fixtures(name, capsys):
    # unreachable.gthm is the deliberate exception: its claim is true
    # by coordinates but admits no derivation, so prove stays
    # inconclusive while check passes
    prove_code, _, _ = run(capsys, "prove", fx(name), "--samples", "10")
    check_code, _, _ = run(capsys, "check", fx(name), "--samples", "10")
    assert prove_code == check_code


@pytest.mark.parametrize("name", ["imo2012.gthm", "parallelogram_bad.gthm"])
def test_prove_and_check_read_the_same_claim_residual(name, capsys):
    # both evaluate the claim on oracle values of the same sample stream
    _, prove_out, _ = run(capsys, "prove", fx(name), "--emit", "json")
    _, check_out, _ = run(capsys, "check", fx(name), "--emit", "json")
    proved = json.loads(prove_out)["samples"]["max_claim_residual"]
    checked = json.loads(check_out)["samples"]["max_claim_residual"]
    assert proved == checked > 0.0


# --- flags ---------------------------------------------------------------


def test_seed_env_var_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("GRAATP_SEED", "7")
    code, out_env, err = run(capsys, "prove", fx("parallelogram.gthm"),
                             "--samples", "5", "--emit", "json")
    monkeypatch.delenv("GRAATP_SEED")
    code, out_flag, err = run(capsys, "prove", fx("parallelogram.gthm"),
                              "--samples", "5", "--emit", "json",
                              "--seed", "7")
    assert out_env == out_flag


def test_seed_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("GRAATP_SEED", "7")
    code, out_a, _ = run(capsys, "prove", fx("parallelogram.gthm"),
                         "--samples", "5", "--emit", "json", "--seed", "42")
    monkeypatch.delenv("GRAATP_SEED")
    code, out_b, _ = run(capsys, "prove", fx("parallelogram.gthm"),
                         "--samples", "5", "--emit", "json")
    assert out_a == out_b


def test_bad_env_seed_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("GRAATP_SEED", "not-a-number")
    code, out, err = run(capsys, "prove", fx("parallelogram.gthm"))
    assert code == 3
    assert "GRAATP_SEED" in err


@pytest.mark.parametrize("flags", [("--samples", "0"),
                                   ("--tol", "0"),  # retired
                                   ("--tol", "-1e-9"),  # retired
                                   ("--max-nodes", "0"),  # retired
                                   ("--range", "5:1"),
                                   ("--range", "0:4"),
                                   ("--range", "nonsense"),
                                   ("--range", "1/0:3"),
                                   ("--max-pairs", "1000000"),  # retired
                                   ("--max-edges", "4096"),  # retired
                                   # retired: it let a false claim pass
                                   ("--tol", "2")])
def test_invalid_flag_values_exit_three(capsys, flags):
    code, out, err = run(capsys, "prove", fx("parallelogram.gthm"), *flags)
    assert code == 3
    assert err.startswith("gthm:")


def test_unknown_flag_exits_three(capsys):
    code, out, err = run(capsys, "prove", fx("parallelogram.gthm"),
                         "--bogus")
    assert code == 3


def test_custom_range_shifts_samples(capsys):
    code, out_a, _ = run(capsys, "prove", fx("parallelogram.gthm"),
                         "--samples", "5", "--emit", "scene")
    code, out_b, _ = run(capsys, "prove", fx("parallelogram.gthm"),
                         "--samples", "5", "--emit", "scene",
                         "--range", "20:30")
    assert code == 0
    assert out_a != out_b


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


def test_parser_is_built_once_and_keeps_no_state(capsys):
    """main reuses one parser: after a successful run a bad flag still
    exits 3, and --help prints what a freshly built parser prints."""
    assert run(capsys, "check", fx("parallelogram.gthm"), "--seed", "3")[0] == 0
    assert cli._parser() is cli._parser()
    code, _, err = run(capsys, "check", fx("parallelogram.gthm"), "--bogus")
    assert code == 3 and err.startswith("gthm:")
    assert run(capsys, "check", fx("parallelogram.gthm"), "--seed", "3")[0] == 0
    helps = []
    for parser in (cli._parser(), cli.build_parser()):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["check", "--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and "--samples" in helps[0]


# --- determinism -----------------------------------------------------------


@pytest.mark.parametrize("emit", ["text", "json", "dot"])
def test_output_bytes_stable_across_runs(capsys, emit):
    args = ("prove", fx("parallelogram.gthm"), "--samples", "20",
            "--emit", emit, "--seed", "11")
    _, out_a, _ = run(capsys, *args)
    _, out_b, _ = run(capsys, *args)
    assert out_a == out_b
    assert out_a.endswith("\n")


def test_module_entry_point_runs():
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gthm.cli", "prove",
         fx("parallelogram.gthm"), "--samples", "5"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "PROVED" in proc.stdout


_EVERY_PROOF = """\
import sys
from gthm import cli
for name in sys.argv[1:]:
    for emit in ("text", "dot"):
        print(cli.main(["prove", name, "--emit", emit]), flush=True)
"""


def test_output_bytes_independent_of_hash_seed():
    # dims hash by identity, so a set or dict of dims iterated without
    # sorting would make the output depend on the hash seed
    src = str(Path(cli.__file__).resolve().parent.parent)
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", _EVERY_PROOF, fx("parallelogram.gthm"),
             fx("imo2012.gthm")], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count(b"digraph derivation") == 2
    assert outs[0].count(b"... PROVED") == 2


_PROOF_AND_POOL = """\
import sys
from gthm import cli, dsl, rules, scene
name = sys.argv[1]
print(cli.main(["prove", name, "--emit", "json", "--seed", "5"]), flush=True)
model = dsl.validate(dsl.parse(open(name).read(), name), name)
stream = scene.SampleStream(scene.build_scene(model), 5, scene.DEFAULT_RANGE, 1)
for e in rules.discover(stream.scene, stream.witness[1]):
    print([d.display for d in e.sources], e.target.display, e.rule,
          e.justification, [getattr(i, "display", i) for i in e.recipe],
          e.subpriority)
"""


def test_proof_and_pool_independent_of_hash_seed(tmp_path):
    # similarity classes, the pool order and growth's counters keep
    # dicts and sets of dims, which hash by identity; a nested scaling
    # member with a circle cut reads both the classes and the buckets
    path = tmp_path / "parallelogram_k8.gthm"
    path.write_text(family_member("parallelogram", 8, True, random.Random(0),
                                  nested=True))
    src = str(Path(cli.__file__).resolve().parent.parent)
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _PROOF_AND_POOL, str(path)],
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert b'"status": "PROVED"' in outs[0]
    assert outs[0].count(b"similar-triangles") > 1000
