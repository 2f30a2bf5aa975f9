"""Run every workload and record the baseline.

    python3 perfbench/baseline.py [--out FILE]

Run from the root of a gthm checkout.  For each workload it makes one
untraced run per seed (1..10) and one traced run at seed 1, each of
`BENCHMARK.json`'s `run_seconds` and in its own `perfbench/run.py`
process, one after another.  It prints every end-to-end metric (median
over seeds, and the spread: interquartile range over median) and every
per-layer metric, by name with its unit, and writes them to
`perfbench/baseline.json`, with each run's environment (load average
at its start included) next to its values.  `claim` is null: the
baseline claims no gain.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gen import WORKLOADS  # noqa: E402

SEEDS = range(1, 11)
ENV = "# env "


def one_run(root: Path, workload: str, seed: int, seconds: int,
            trace: int) -> tuple[dict, list[str]]:
    """The result object of one run, and its comment lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=root, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), [ln for ln in lines if ln.startswith("# ")]


def env(comments: list[str]) -> dict:
    """The run environment a run prints on its `# env` line."""
    line = next(c for c in comments if c.startswith(ENV))
    return json.loads(line[len(ENV):])


def spread(values: list[float]) -> float:
    """Interquartile range over median, as the acceptance check takes it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    record: dict = {"claim": None, "seconds": seconds,
                    "seeds": list(SEEDS), "workloads": {}}
    for workload in WORKLOADS:
        runs, notes = [], []
        for seed in SEEDS:
            result, comments = one_run(root, workload, seed, seconds, 0)
            runs.append(result)
            notes.append(comments)
        traced, traced_notes = one_run(root, workload, 1, seconds, 1)
        e2e = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            e2e[m["name"]] = {"median": statistics.median(values),
                              "spread": spread(values), "unit": m["unit"],
                              "bound": m["bound"], "values": values}
            print(f"{workload} {m['name']} {e2e[m['name']]['median']!r} "
                  f"{m['unit']} (spread {e2e[m['name']]['spread']:.4f})")
        for name, metric in traced["metrics"].items():
            print(f"{workload} {name} {metric['value']!r} {metric['unit']}")
        own = {k: v["value"] for k, v in traced["metrics"].items()
               if k.endswith("_s") and k != "trace.overhead_s"}
        record["workloads"][workload] = {
            "end_to_end": e2e,
            "per_layer": traced["metrics"],
            "largest_self_time": max(own, key=own.get),
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "env": [env(c) for c in notes],
            "traced_env": env(traced_notes),
            "notes": [c for c in notes[0] + traced_notes
                      if not c.startswith(ENV)],
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
