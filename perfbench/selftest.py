"""Fast self-test of the benchmark; it gates on no timing.

    python3 perfbench/selftest.py

Run from the root of a gthm checkout.  It sends the smallest input,
`fixtures/unreachable.gthm` (tens of milliseconds), untraced and
traced, and checks that every metric `BENCHMARK.json` names is emitted
with its unit, that the verdict checker scores each ending as the
benchmark promises, that the generator is deterministic, that the
latency tail's percentile does not depend on how many rounds a run
fits, and that a missing trace target is reported as absent instead of
failing.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from verdicts import DECIDED, FAILED, UNDECIDED, judge  # noqa: E402


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAIL: {what}")


def check_verdicts() -> None:
    proof = "Theorem: t\nClaim: a = b\n\nCheck whether a = b ... PROVED\n"
    refuted = "Theorem: t\nClaim: a = b\n\nREFUTED: claim fails\n"
    pending = "Theorem: t\nClaim: a = b\n\nINCONCLUSIVE: no schedule\n"
    cases = [
        ((0, proof, True), DECIDED),
        ((1, refuted, False), DECIDED),
        ((2, pending, True), UNDECIDED),
        ((2, pending, None), UNDECIDED),      # degenerate figure
        ((0, proof, None), FAILED),
        ((0, proof, False), FAILED),          # PROVED a false claim
        ((1, refuted, True), FAILED),         # REFUTED a true claim
        ((3, "", True), FAILED),              # input error
        ((0, refuted, True), FAILED),         # exit code and stdout disagree
    ]
    for args, want in cases:
        got = judge(*args).score
        check(got == want, f"judge{args[0], args[2]} gave {got}, want {want}")
    check(judge(None, "", True, "ValueError: x").score == FAILED,
          "a raised request must fail")


def check_generator(fixtures: dict[str, str]) -> None:
    for workload in gen.WORKLOADS:
        one = gen.make_round(workload, 7, 0, fixtures)
        check(one == gen.make_round(workload, 7, 0, fixtures),
              f"{workload} round is not deterministic")
        check(one != gen.make_round(workload, 8, 0, fixtures),
              f"{workload} round ignores the seed")
    truths = {r.truth for r in gen.make_round("triage", 1, 0, fixtures)}
    check(truths == {True, False}, "triage needs true and false claims")
    text = gen.family_member("parallelogram", 3, False, random.Random(1))
    check(text.count("aux point P") == 3 and "*len(" in text.splitlines()[-1],
          "a false member has three aux points and a perturbed claim")


def check_tail(req: gen.Request) -> None:
    """The tail's percentile, and its value on identical rounds, must
    not change with the number of rounds a run fits."""
    for size in (12, 34):
        latencies = [0.1 * (i + 1) for i in range(size)]
        seen = set()
        for rounds in (1, 2, 6):
            results = [run.Result(req, None, t, "", k)
                       for k in range(rounds) for t in latencies]
            value, percentile, counted = run.tail(results)
            check(counted == rounds, f"tail counted {counted} rounds")
            seen.add((value, percentile))
        check(len(seen) == 1,
              f"tail of {size}-request rounds varies with rounds: {seen}")


def check_metrics(root: Path, fixtures: dict[str, str]) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    cli = run.load_program(root)
    req = gen.Request("prove", "unreachable.gthm",
                      fixtures["unreachable.gthm"], 42, True, "unreachable")
    work = root / run.OUT_DIR / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        path = work / req.name
        path.write_text(req.text)
        outcome, took, stdout = run.send(cli.main, req, path)
        check(outcome.score == UNDECIDED,
              f"unreachable should be undecided, got {outcome}")
        result = run.Result(req, outcome, took, stdout, 0)
        e2e = run.end_to_end([result], took, 0.1)

        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.begin(0)
            run.send(cli.main, req, path)
        finally:
            tracer.uninstall()
        check(not tracer.absent, f"absent targets: {tracer.absent}")
        check(tracer.unreadable == 0, "unreadable traced results")
        check(cli.main.__name__ == "main" and not hasattr(cli.main,
                                                          "__wrapped__"),
              "uninstall must restore the original functions")
        layers = run.per_layer(tracer, 1, 0.0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for section, got in (("end_to_end", e2e), ("per_layer", layers)):
        want = {m["name"]: m["unit"] for m in spec[section]}
        check(set(got) == set(want),
              f"{section} names differ: {sorted(set(got) ^ set(want))}")
        for name, (value, unit) in got.items():
            check(unit == want[name], f"{name} unit {unit}, want {want[name]}")
            check(isinstance(value, (int, float)), f"{name} is not a number")
    line = json.dumps(run.summary([outcome], e2e))
    check(set(json.loads(line)) == {"correct", "attempted", "failed",
                                    "metrics"}, "result keys")


def check_absent() -> None:
    saved = spans.TARGETS
    spans.TARGETS = saved + (("rules", "no_such_rule", "span"),
                             ("no_such_module", "f", "span"))
    try:
        tracer = spans.Tracer()
        tracer.install()
        tracer.uninstall()
    finally:
        spans.TARGETS = saved
    check(tracer.absent == ["rules.no_such_rule", "no_such_module.f"],
          f"absent targets recorded as {tracer.absent}")


def main() -> int:
    root = Path.cwd()
    try:
        fixtures = run.read_fixtures(root)
    except run.BenchError as err:
        raise SystemExit(f"selftest: {err}")
    check_verdicts()
    check_generator(fixtures)
    check_metrics(root, fixtures)
    check_tail(gen.make_round("fixtures", 1, 0, fixtures)[0])
    check_absent()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
