"""Benchmark of the gthm prover, driven through `gthm.cli.main(argv)`.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 33 --trace 0

Run it from the root of a source checkout: the program is imported
from `./src`, and the fixtures workload reads `./fixtures`.  One
client sends one request at a time (a closed loop) in this process,
with stdout captured: each request is one `prove` or `check` of one
theorem file, written under `.perfbench_out/`.  Requests come in
rounds (see `gen.py`); whole rounds run until `--seconds` is spent, and
every verdict is scored against the claim's hand-stated truth.

With `--trace 0` the run reports the end-to-end metrics; with
`--trace 1` it wraps each module's public functions (see `spans.py`),
reports per-layer metrics per request, writes the spans to
`.perfbench_out/` and replays its first round untraced to measure the
tracing overhead.  The last line of stdout is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
from spans import LAYERS, RENDERERS, RULE_FUNCTIONS, Tracer  # noqa: E402
from verdicts import DECIDED, FAILED, Outcome, judge  # noqa: E402

OUT_DIR = ".perfbench_out"
SETUP_RUNS = 9      # fresh interpreters timed for setup_s, median taken
REPEATS = 2         # requests re-sent after the timed rounds
TAIL_BEYOND = 10    # requests that must lie beyond the tail percentile


class BenchError(Exception):
    pass


@dataclass
class Result:
    request: gen.Request
    outcome: Outcome
    seconds: float
    stdout: str
    round: int            # index of the round the request belongs to


# ---------------------------------------------------------------------------
# the program under test


def load_program(root: Path):
    """Import `gthm.cli` from the checkout's own sources, never from an
    installed copy."""
    src = root / "src"
    if not (src / "gthm" / "cli.py").is_file():
        raise BenchError(f"no gthm sources under {src}; run from the root "
                         f"of a gthm checkout")
    sys.path.insert(0, str(src))
    import gthm.cli
    if Path(gthm.cli.__file__).resolve().parent != (src / "gthm").resolve():
        raise BenchError(f"imported {gthm.cli.__file__}, not the checkout's")
    return gthm.cli


def read_fixtures(root: Path) -> dict[str, str]:
    texts = {}
    for name, _, _ in gen.FIXTURES:
        path = root / "fixtures" / name
        if not path.is_file():
            raise BenchError(f"missing fixture {path}")
        texts[name] = path.read_text()
    return texts


def setup_seconds(root: Path) -> float:
    """Median wall time for a fresh interpreter to import `gthm.cli`,
    which a command-line user pays on every call.  One untimed import
    first, with bytecode writing on, so byte-compiled files exist as
    they would after install."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, "-c", "import gthm.cli"]
    times = []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=root, env=env, check=True)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment(root: Path) -> dict:
    return {"python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(root),
            "loadavg": os.getloadavg()}


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from `.git` without running git (which
    would search parent directories); None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# sending requests


def send(main, req: gen.Request, path: Path) -> tuple[Outcome, float, str]:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([req.command, str(path), "--seed", str(req.seed)])
    except (Exception, SystemExit) as exc:
        # a crash is a failed request, not a crashed benchmark
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    stdout = out.getvalue()
    return judge(code, stdout, req.truth, error), seconds, stdout


def run_rounds(main, workload: str, seed: int, seconds: float,
               fixtures: dict[str, str], work: Path,
               tracer: Tracer | None = None) -> tuple[list[Result], float]:
    """Whole rounds until `seconds` is spent: another round starts only
    while it is expected to end less than half a round past the limit."""
    results: list[Result] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        for req in gen.make_round(workload, seed, rounds, fixtures):
            path = work / req.name
            path.write_text(req.text)
            if tracer is not None:
                tracer.begin(len(results))
            outcome, took, stdout = send(main, req, path)
            results.append(Result(req, outcome, took, stdout, rounds))
        rounds += 1
        wall = time.perf_counter() - start
        if wall + 0.5 * wall / rounds >= seconds:
            return results, wall


def repeat_check(main, results: list[Result], seed: int,
                 work: Path) -> list[Result]:
    """Re-send some requests with the same input and seed; any byte of
    stdout that differs from the first run fails the repeat.  They are
    drawn from the faster half, to keep the untimed part of a run short."""
    rng = random.Random(f"repeat/{seed}")
    median = statistics.median(r.seconds for r in results)
    faster = [r for r in results if r.seconds <= median]
    repeats = []
    for first in rng.sample(faster, min(REPEATS, len(faster))):
        path = work / first.request.name
        path.write_text(first.request.text)
        outcome, took, stdout = send(main, first.request, path)
        if stdout != first.stdout:
            outcome = Outcome(outcome.status, FAILED,
                              "stdout differs on a repeated request")
        repeats.append(Result(first.request, outcome, took, stdout,
                              first.round))
    return repeats


# ---------------------------------------------------------------------------
# metrics


def round_tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile of one round with
    at least TAIL_BEYOND of its requests beyond it.  When that
    percentile would not lie above the round's median, the round is too
    small to support a tail, and its slowest request stands in for it
    (reported as p100)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def tail(results: list[Result]) -> tuple[float, float, int]:
    """(value, percentile, rounds) of the latency tail: the median over
    rounds of each round's tail.  Every round of a workload holds the
    same input classes, so the percentile depends on the workload
    alone, not on how many rounds a faster or slower program fits into
    the run."""
    rounds: dict[int, list[float]] = {}
    for r in results:
        rounds.setdefault(r.round, []).append(r.seconds)
    tails = [round_tail(latencies) for latencies in rounds.values()]
    return (statistics.median(v for v, _ in tails), tails[0][1],
            len(tails))


def end_to_end(results: list[Result], wall: float, setup_s: float) -> dict:
    latencies = [r.seconds for r in results]
    tail_s, _, _ = tail(results)
    decided = sum(r.outcome.score == DECIDED for r in results)
    return {
        "throughput_per_s": (len(results) / wall, "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_s, "s"),
        "decided_share": (decided / len(results), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer: Tracer, requests: int, overhead_s: float) -> dict:
    """Per-request means of self times (span minus its child spans) and
    counts, plus each layer's share of request time."""
    own = tracer.self_times()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def seconds(metric: str, *spans: str) -> None:
        out[metric] = (sum(own.get(s, 0.0) for s in spans) / requests, "s")

    def count(metric: str) -> None:
        out[metric] = (counts.get(metric, 0.0) / requests, "count")

    seconds("cli.front_s", "cli.main")
    seconds("dsl.parse_s", "dsl.parse")
    seconds("dsl.validate_s", "dsl.validate")
    seconds("scene.build_scene_s", "scene.build_scene")
    seconds("scene.sample_params_s", "scene.sample_params")
    count("scene.sample_params.calls")
    seconds("scene.evaluate_s", "scene.evaluate")
    count("scene.evaluate.calls")
    count("scene.evaluate.distinct")
    count("scene.distance.calls")
    seconds("rules.discover_s", "rules.discover")
    count("rules.discover.edges")
    for rule in RULE_FUNCTIONS:
        seconds(f"rules.{rule}_s", f"rules.{rule}")
        count(f"rules.{rule}.calls")
        count(f"rules.{rule}.edges")
    seconds("rules.finalize_s", "rules.finalize")
    count("rules.caps_fired")
    seconds("rules.validate_edges_s", "rules.validate_edges")
    count("rules.validate_edges.in")
    count("rules.validate_edges.kept")
    edges_in = counts.get("rules.validate_edges.in", 0.0)
    out["rules.validate_edges.keep_ratio"] = (
        counts.get("rules.validate_edges.kept", 0.0) / edges_in
        if edges_in else 0.0, "ratio")
    count("rules.apply_edge.calls")
    seconds("graph.grow_self_s", "graph.grow_detailed")
    count("graph.nodes")
    count("graph.edges_admitted")
    count("graph.pending")
    seconds("graph.topo_order_s", "graph.topo_order")
    seconds("graph.focus_s", "graph.focus")
    count("graph.schedule_len")
    seconds("verify.verdict_s", "verify.verdict")
    seconds("verify.execute_schedule_s", "verify.execute_schedule")
    count("verify.execute_schedule.calls")
    count("verify.samples")
    count("verify.redraws")
    seconds("verify.oracle_verdict_s", "verify.oracle_verdict")
    seconds("emit.render_s", *(f"emit.{r}" for r in RENDERERS))
    total = tracer.request_time()
    for layer in LAYERS:
        layer_s = sum(v for k, v in own.items() if k.split(".")[0] == layer)
        out[f"{layer}.share"] = (layer_s / total, "ratio")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


# ---------------------------------------------------------------------------
# the run


def measure(root: Path, workload: str, seed: int, seconds: float,
            traced: bool) -> dict:
    cli = load_program(root)
    fixtures = read_fixtures(root) if workload == "fixtures" else {}
    print("# env " + json.dumps(environment(root)))
    setup_s = 0.0 if traced else setup_seconds(root)
    out = root / OUT_DIR
    work = out / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if traced else None
    try:
        if tracer is not None:
            tracer.install()
        try:
            results, wall = run_rounds(cli.main, workload, seed, seconds,
                                       fixtures, work, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        others = repeat_check(cli.main, results, seed, work)
        if tracer is not None:
            # the first round again, untraced, against its traced wall time
            replay, _ = run_rounds(cli.main, workload, seed, 0.0,
                                   fixtures, work)
            traced_s = sum(r.seconds for r in results[:len(replay)])
            untraced_s = sum(r.seconds for r in replay)
            overhead_s = (traced_s - untraced_s) / len(replay)
            others += replay
            tracer.write(out / f"spans-{workload}-{seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in results + others:
        if r.outcome.score == FAILED:
            print(f"# FAILED {r.request.name} --seed {r.request.seed}: "
                  f"{r.outcome.why}")
    outcomes = [r.outcome for r in results + others]
    by_class: dict[str, list[Result]] = {}
    for r in results:
        by_class.setdefault(r.request.klass, []).append(r)
    for klass, rs in sorted(by_class.items()):
        print(f"# {klass}: {len(rs)} requests, median "
              f"{statistics.median(r.seconds for r in rs):.3f} s, "
              f"{sum(r.outcome.score == DECIDED for r in rs)} decided")
    n = len(results)
    _, tail_pct, rounds = tail(results)
    print(f"# {workload}: {n} timed requests in {wall:.3f} s, "
          f"{len(outcomes) - n} untimed, failed_share "
          f"{sum(o.score == FAILED for o in outcomes) / len(outcomes):.4f}, "
          f"latency tail at p{tail_pct:.1f} of each "
          f"{n // rounds}-request round, median over {rounds} rounds")
    if tracer is not None:
        print("# absent targets: " + (", ".join(tracer.absent) or "none"))
        print(f"# unreadable results: {tracer.unreadable}")
        metrics = per_layer(tracer, n, overhead_s)
    else:
        metrics = end_to_end(results, wall, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    return summary(outcomes, metrics)


def summary(outcomes: list[Outcome], metrics: dict) -> dict:
    """The result object the last line of stdout carries."""
    failed = sum(o.score == FAILED for o in outcomes)
    return {"correct": failed == 0, "attempted": len(outcomes),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(Path.cwd(), args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
